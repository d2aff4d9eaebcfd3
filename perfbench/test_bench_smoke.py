"""Smoke test of the benchmark at --smoke size.

Each workload runs once untraced and once traced. Both runs must be correct
(every pass matches the others and pins.json), must report exactly the
metrics BENCHMARK.json declares for their mode with the declared units, and
must produce byte-identical outputs.
"""
import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = bench.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0",
             "--trace", str(trace), "--smoke"]
        )
    lines = stdout.getvalue().splitlines()
    info = next(json.loads(line)["info"] for line in lines if line.startswith('{"info"'))
    return code, info, json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run_reports_declared_metrics(workload):
    outputs = []
    for trace, declared in ((0, DECLARED["end_to_end"]), (1, DECLARED["per_layer"])):
        code, info, result, lines = _run(workload, trace)
        assert code == 0
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        units = {m["name"]: m["unit"] for m in declared}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        for name, unit in units.items():
            assert any(line.startswith(f"{name} = ") and f" {unit} (n=" in line for line in lines)
            assert info["samples"][name] >= 1
        for key in ("nproc", "python", "platform", "commit", "seed", "failed_frac"):
            assert key in info
        outputs.append(info["outputs_sha256"])
    assert outputs[0] == outputs[1]
