"""Mutation probe of one function: which one-site changes do the tests miss?

    python tests/mutants.py [--target MODULE.py:NAME] [--every N] [--jobs J] [TEST ...]

Run from anywhere; it uses the checkout it sits in. The target names a
module of src/barrelmesh and a function defined in it, by default
sim_engine.py:run, or a name the module assigns at its top level, such as
cli.py:PLAN_KEYS, whose value (lambdas included) is then the site range. A
site is one of:

- a comparison operator, whose boundary it flips (< and <=, > and >=,
  == and !=) or whose test it negates (in and not in, is and is not);
- an integer constant, to which it adds 1;
- a bitwise & or |, or a boolean and or or, which it swaps for the other;
- an arithmetic + or -, or * or /, alone or in an augmented assignment
  (-= and +=), which it swaps for the other;
- a `not`, which it drops, leaving its operand.

Sites are numbered in source order over the function or value, nested
functions included. Each mutant changes one site in a copy of `src/` under a
temporary directory and runs `python -m pytest -x` on the given tests (by
default tests/test_sim_engine.py and tests/test_properties.py) against that
copy. A mutant is killed when the tests fail or run past the time limit,
and survives when they pass. Hypothesis keeps its files in the same
temporary directory, so a mutant leaves nothing in the checkout. The
unmutated module, parsed and unparsed as the mutants are, must pass first.
`--every N` tries every Nth site from the first; `--jobs` runs that many
mutants at once, at most os.cpu_count(). It prints each site's fate, then
the survivors, and exits 1 if any survived.

The file's name does not start with `test_`, so pytest does not collect it.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TARGET = "sim_engine.py:run"
DEFAULT_TESTS = ("tests/test_sim_engine.py", "tests/test_properties.py")

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SWAPS = {ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.And: ast.Or, ast.Or: ast.And,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is",
          ast.IsNot: "is not", ast.BitAnd: "&", ast.BitOr: "|", ast.And: "and", ast.Or: "or",
          ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def sites(tree: ast.Module, name: str) -> list[tuple]:
    """Each mutable site of the function called name in tree, or of the
    module-level assignment to name, in source order, as (node, index of the
    operator in a comparison or None)."""
    target = next(
        node for node in ast.walk(tree)
        if (isinstance(node, ast.FunctionDef) and node.name == name)
        or (isinstance(node, ast.Assign) and node in tree.body
            and any(isinstance(t, ast.Name) and t.id == name for t in node.targets))
    )
    found = []
    for node in ast.walk(target):
        if isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in FLIPS]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node, None))
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            found.append((node, None))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((node, None))
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset, site[1] or 0))


def mutate(source: str, name: str, k: int) -> tuple[str, str]:
    """source with site k of function name changed, and a one-line
    description of the change."""
    tree = ast.parse(source)
    node, i = sites(tree, name)[k]
    if i is not None:
        old = type(node.ops[i])
        node.ops[i] = FLIPS[old]()
        change = f"{SYMBOL[old]} -> {SYMBOL[FLIPS[old]]}"
    elif isinstance(node, ast.Constant):
        change = f"{node.value} -> {node.value + 1}"
        node.value += 1
    elif isinstance(node, ast.UnaryOp):
        change = "not dropped"
        _put(tree, node, node.operand)
    else:
        old = type(node.op)
        node.op = SWAPS[old]()
        change = f"{SYMBOL[old]} -> {SYMBOL[SWAPS[old]]}"
    line = source.splitlines()[node.lineno - 1].strip()
    return ast.unparse(tree), f"line {node.lineno}: {change} in `{line}`"


def _put(tree: ast.Module, old: ast.AST, new: ast.AST) -> None:
    """Put new where tree holds the node old."""
    for parent in ast.walk(tree):
        for name, value in ast.iter_fields(parent):
            if value is old:
                setattr(parent, name, new)
                return
            if isinstance(value, list):
                for i, item in enumerate(value):
                    if item is old:
                        value[i] = new
                        return


def run_tests(module: Path, module_source: str, tests: list[str], timeout: float) -> str:
    """'passed', 'failed' or 'timeout' for the tests against a copy of src/
    whose module, a path under src/, holds module_source."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / module).write_text(module_source)
        # hypothesis keeps its files with the mutant, not in the checkout
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
               "HYPOTHESIS_STORAGE_DIRECTORY": str(Path(tmp) / ".hypothesis")}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tests", nargs="*", default=list(DEFAULT_TESTS))
    parser.add_argument("--target", default=DEFAULT_TARGET,
                        help="MODULE.py:NAME, a function or top-level name of a "
                             "module of src/barrelmesh")
    parser.add_argument("--every", type=int, default=1, help="try every Nth site")
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at once")
    args = parser.parse_args(argv)
    if args.every < 1 or args.jobs < 1:
        parser.error("--every and --jobs must be at least 1")
    file, _, name = args.target.partition(":")
    module = Path("barrelmesh") / file
    if not (name and (ROOT / "src" / module).is_file()):
        parser.error(f"--target {args.target!r} is not MODULE.py:NAME in src/barrelmesh")
    jobs = min(args.jobs, os.cpu_count() or 1)
    source = (ROOT / "src" / module).read_text()
    try:
        count = len(sites(ast.parse(source), name))
    except StopIteration:
        parser.error(f"{file} defines no function or top-level name {name!r}")
    chosen = range(0, count, args.every)
    print(f"{count} sites in {module}:{name}, {len(chosen)} tried, {jobs} at a time")

    start = time.monotonic()
    if run_tests(module, ast.unparse(ast.parse(source)), args.tests, timeout=None) != "passed":
        print("the tests fail on the unmutated round trip; nothing to probe")
        return 2
    # a mutant that runs five times as long as the clean pass is stuck
    timeout = 5 * (time.monotonic() - start) + 10

    def probe(k):
        mutant, what = mutate(source, name, k)
        return k, what, run_tests(module, mutant, args.tests, timeout)

    survivors = []
    with ThreadPoolExecutor(jobs) as pool:
        for k, what, outcome in pool.map(probe, chosen):
            fate = "survived" if outcome == "passed" else f"killed ({outcome})"
            print(f"site {k}: {what}: {fate}", flush=True)
            if outcome == "passed":
                survivors.append(f"site {k}: {what}")
    print(f"{len(chosen) - len(survivors)} killed, {len(survivors)} survived")
    for line in survivors:
        print("  " + line)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
