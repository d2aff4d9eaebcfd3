"""Exact cost counter: the opcodes one function's own frames execute.

    count_opcodes(run, topo, assignment, config) -> (result, opcodes)

Only frames of the function's code object are traced, so callees, nested
functions and (before CPython 3.12) comprehensions inside it are not
counted. The count repeats exactly from run to run on one interpreter
version, which makes it a cost measure free of timing noise, at the price
of a traced call that runs many times slower than an untraced one.
"""
from __future__ import annotations

import sys


def count_opcodes(fn, *args):
    """fn(*args) and the number of opcodes executed in frames of fn's code."""
    code = fn.__code__
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def call(frame, event, arg):
        if frame.f_code is not code:
            return None
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, count
