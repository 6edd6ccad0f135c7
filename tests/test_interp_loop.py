"""The folded quantum loop (``Interpreter.run``) against the step loop.

``Interpreter.run(thread, budget)`` must leave a thread exactly where
the loop it replaced did::

    while consumed < budget and thread.state is RUNNABLE:
        consumed += interp.step(thread)

Each test runs one small rewritten program twice on a simulated
two-node cluster, once per loop, with every quantum's budget drawn from
the same seeded stream, and compares what each quantum left behind:
consumed ns, ``thread.instructions``, the top frame's pc and operand
stack, and the thread state.  The program has threads, a contended
monitor (``DSM_ACQUIRE`` blocks, complete style) and shared objects
homed on the other node (access-check misses block, re-execute style).
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.jvm import Op
from repro.jvm.heap import ArrayObj, Obj
from repro.jvm.jvm import JThread
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import RuntimeConfig
from repro.runtime.javasplit import JavaSplitRuntime
from repro.sim.node import StreamState

SOURCE = """
class Counter { int v; int[] seen; }
class Incr extends Thread {
    Counter c;
    int n;
    Incr(Counter c, int n) { this.c = c; this.n = n; }
    void run() {
        for (int i = 0; i < n; i++) {
            synchronized (c) {
                c.v += 1;
                c.seen[i % 4] += c.v;
            }
        }
    }
}
class Main {
    static int main() {
        Counter c = new Counter();
        c.seen = new int[4];
        int k = 3;
        Incr[] ts = new Incr[k];
        for (int i = 0; i < k; i++) { ts[i] = new Incr(c, 12); ts[i].start(); }
        for (int i = 0; i < k; i++) { ts[i].join(); }
        return c.v * 1000 + c.seen[3] % 1000;
    }
}
"""

_REWRITTEN = rewrite_application(compile_source(SOURCE))


def step_loop(thread: JThread, budget_ns: int) -> int:
    """The quantum loop as it was spelled before ``Interpreter.run``."""
    consumed = 0
    interp = thread.jvm.interpreter
    while consumed < budget_ns and thread.state is StreamState.RUNNABLE:
        consumed += interp.step(thread)
    return consumed


def folded_loop(thread: JThread, budget_ns: int) -> int:
    return thread.jvm.interpreter.run(thread, budget_ns)


def _value(v):
    if isinstance(v, (Obj, ArrayObj)):
        hdr = v.header
        return ("ref", v.class_name, None if hdr is None else hdr.gid)
    return v


def trace_run(monkeypatch, loop, seed: int, max_budget: int):
    """Run the program with ``loop`` as every quantum's interpreter;
    returns (per-quantum records, run report)."""
    rng = random.Random(seed)
    names = {}
    records = []

    def run_quantum(thread, budget_ns):
        budget = rng.randint(1, max_budget)
        consumed = loop(thread, budget)
        frame = thread.frames[-1] if thread.frames else None
        records.append((
            thread.jvm.node.node_id,
            names.setdefault(id(thread), len(names)),
            budget,
            consumed,
            thread.instructions,
            thread.state,
            None if frame is None else frame.pc,
            None if frame is None else frame.method.code[frame.pc].op,
            None if frame is None else [_value(v) for v in frame.stack],
        ))
        return consumed, thread.state

    monkeypatch.setattr(JThread, "run_quantum", run_quantum)
    try:
        report = JavaSplitRuntime(
            _REWRITTEN, RuntimeConfig(num_nodes=2, seed=seed)).run()
    finally:
        monkeypatch.undo()
    return records, report


def assert_same_quanta(monkeypatch, seed: int, max_budget: int):
    old, old_report = trace_run(monkeypatch, step_loop, seed, max_budget)
    new, new_report = trace_run(monkeypatch, folded_loop, seed, max_budget)
    assert len(new) == len(old)
    for i, (a, b) in enumerate(zip(old, new)):
        assert b == a, f"quantum {i} differs"
    assert new_report.result == old_report.result
    assert old_report.result // 1000 == 36  # 3 threads x 12 increments
    assert new_report.simulated_ns == old_report.simulated_ns
    assert new_report.net.by_type == old_report.net.by_type
    return new


def _blocked_at(records, ops):
    return [r for r in records
            if r[5] is StreamState.BLOCKED and r[7] in ops]


def test_folded_loop_blocks_like_step_loop(monkeypatch):
    """Fixed seed whose quanta end on both blocking styles: a missed
    access check (pc stays on the check) and a remote ``DSM_ACQUIRE``
    (pc stays on the acquire until the waker completes it)."""
    records = assert_same_quanta(monkeypatch, seed=7, max_budget=4_000)
    assert _blocked_at(records, {Op.DSM_READCHECK, Op.DSM_WRITECHECK})
    assert _blocked_at(records, {Op.DSM_ACQUIRE})
    # And some quanta end on an exhausted budget.
    assert any(r[3] >= r[2] and r[5] is StreamState.RUNNABLE
               for r in records)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       max_budget=st.sampled_from([1, 40, 300, 2_000, 50_000]))
def test_folded_loop_matches_step_loop(monkeypatch, seed, max_budget):
    assert_same_quanta(monkeypatch, seed, max_budget)
