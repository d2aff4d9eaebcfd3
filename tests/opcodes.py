"""Exact cost counters for one function's work, free of timing noise.

    count_opcodes(run, topo, relays, config) -> (result, opcodes)
    count_heap_pushes(run, topo, relays, config) -> (result, pushes)
    count_heap_calls(run, topo, relays, config) -> (result, calls)
    count_events_taken(run, topo, relays, config) -> (result, taken)
    count_deque_appends(run, topo, relays, config) -> (result, appends)
    count_calls(write_outputs, metrics, "network_pdr", plan, results, out, 1.0, 1)
        -> (result, calls)

count_opcodes counts the opcodes that the function's own frames execute.
Only frames of the function's code object are traced, so callees, nested
functions and (before CPython 3.12) comprehensions inside it are not
counted. The count repeats exactly from run to run on one interpreter
version, at the price of a traced call that runs many times slower than an
untraced one.

count_heap_pushes swaps the `heapq` of the function's module for a wrapper
for the one call, and records each push of an event, (time, seq, kind,
...), by heappush or heapreplace, as (heap length, entries of kind
_ORIGIN), both taken just after the push, so the pushed entry is counted.
An event is told by its kind slot, which holds one of the module's event
kinds; pushes of other entries, such as the engine's (seq, event) pairs on
its per-node pending queues, are skipped. The pushes, like the opcodes,
repeat exactly from run to run.

count_heap_calls swaps `heapq` the same way and counts every heappush,
heappop and heapreplace call, on any heap the function keeps.

count_events_taken swaps `heapq` the same way and counts every heappop and
heapreplace whose heap has an event at its head: each takes that event off
the engine's main heap, and none takes a pending queue's entry.

count_deque_appends swaps the `deque` of the function's module for a
subclass that counts its appends, for the one call, so every deque the
module makes during it, in any of its functions, is counted.

count_calls swaps one attribute of a module, module.name, for a wrapper
that counts its calls, for the one call of fn, which may be any callable.
Code that looks the attribute up at call time sees the wrapper, as
`metrics.summarize` does when it calls `network_pdr`, a name of its own
module; a name bound by `from module import name` before the swap does not.
"""
from __future__ import annotations

import heapq
import sys
from types import SimpleNamespace


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


def _with_heapq(fn, args, **swapped):
    """fn(*args), with the named functions of its module's `heapq` swapped."""
    names = fn.__globals__
    previous = names["heapq"]
    names["heapq"] = SimpleNamespace(**{**vars(heapq), **swapped})
    try:
        return fn(*args)
    finally:
        names["heapq"] = previous


def _event_test(fn):
    """A test of whether a heap entry is an event of fn's module: a tuple
    whose third slot, its kind, is one of the module's event kinds."""
    names = fn.__globals__
    kinds = {names[k] for k in ("_ORIGIN", "_TX_START", "_RADIO_FREE", "_HORIZON")}
    return lambda entry: len(entry) > 2 and entry[2] in kinds


def count_heap_pushes(fn, *args):
    """fn(*args) and a (heap length, originations on it) pair per event push."""
    origin = fn.__globals__["_ORIGIN"]
    is_event = _event_test(fn)
    pushes = []

    def record(heap, entry):
        if is_event(entry):
            pushes.append((len(heap), sum(e[2] == origin for e in heap)))

    def heappush(heap, entry):
        heapq.heappush(heap, entry)
        record(heap, entry)

    def heapreplace(heap, entry):
        popped = heapq.heapreplace(heap, entry)
        record(heap, entry)
        return popped

    result = _with_heapq(fn, args, heappush=heappush, heapreplace=heapreplace)
    return result, pushes


def count_heap_calls(fn, *args):
    """fn(*args) and the number of heappush, heappop and heapreplace calls."""
    calls = 0

    def counted(target):
        def call(*a):
            nonlocal calls
            calls += 1
            return target(*a)

        return call

    result = _with_heapq(
        fn, args, **{name: counted(getattr(heapq, name))
                     for name in ("heappush", "heappop", "heapreplace")}
    )
    return result, calls


def count_events_taken(fn, *args):
    """fn(*args) and the number of events taken off its main heap, by
    heappop or heapreplace."""
    is_event = _event_test(fn)
    taken = 0

    def counted(target):
        def call(heap, *a):
            nonlocal taken
            taken += is_event(heap[0])
            return target(heap, *a)

        return call

    result = _with_heapq(
        fn, args, heappop=counted(heapq.heappop), heapreplace=counted(heapq.heapreplace)
    )
    return result, taken


def count_deque_appends(fn, *args):
    """fn(*args) and the number of appends to deques its module made."""
    names = fn.__globals__
    previous = names["deque"]
    appends = 0

    class CountingDeque(previous):
        def append(self, item):
            nonlocal appends
            appends += 1
            super().append(item)

    names["deque"] = CountingDeque
    try:
        result = fn(*args)
    finally:
        names["deque"] = previous
    return result, appends


def count_calls(fn, module, name, *args):
    """fn(*args) and the number of calls made to module.name during it."""
    target = getattr(module, name)
    count = 0

    def counted(*a, **kw):
        nonlocal count
        count += 1
        return target(*a, **kw)

    setattr(module, name, counted)
    try:
        result = fn(*args)
    finally:
        setattr(module, name, target)
    return result, count
