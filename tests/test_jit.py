"""Differential proof that the tiered JIT is observationally invisible.

Tier-1 compiled execution must be *bit-identical* to the interpreter in
every observable: program result, console, simulated clock, per-type
protocol message counts, final master heap — while only the wall clock
changes.  These tests run every benchmark app with the JIT off and on
under identical configs and diff everything, compose the JIT with the
fault/race/locality/policy/proc subsystems under the consistency
oracle, and pin per-opcode semantics (integer division/remainder
truncation, double division by zero, NaN conversion, unsigned shift)
with golden interpreter-vs-compiled runs.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.check.runner import DEFAULT_JITTER_NS, app_source, run_check
from repro.jit import REASON_NAMES, N_REASONS
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime.config import RuntimeConfig
from repro.runtime.javasplit import JavaSplitRuntime

from test_procnet import heap_fingerprint

APPS = ("series", "tsp", "raytracer")


def run_app(app: str, jit: bool, seed: int = 0, check_elim: int = 0,
            **overrides) -> Tuple:
    config = RuntimeConfig(
        num_nodes=3,
        net_jitter_ns=DEFAULT_JITTER_NS,
        seed=seed,
        jit_enable=jit,
        **overrides,
    )
    rewritten = rewrite_application(compile_source(app_source(app)),
                                    check_elim=check_elim)
    runtime = JavaSplitRuntime(rewritten, config)
    report = runtime.run()
    return report, heap_fingerprint(runtime)


def assert_identical(base, base_heap, jit, jit_heap) -> None:
    """Every observable the interpreter produces, bit-for-bit."""
    assert jit.result == base.result
    assert sorted(jit.console) == sorted(base.console)
    assert jit.simulated_ns == base.simulated_ns
    assert jit.threads_run == base.threads_run
    assert jit.net.messages == base.net.messages
    assert jit.net.bytes == base.net.bytes
    # Per-type protocol counts: one reordered fetch or early/late diff
    # (a single mis-charged nanosecond) shows up here.
    assert jit.net.by_type == base.net.by_type
    assert jit_heap == base_heap
    assert base_heap, "fingerprint should cover a non-trivial heap"


# ---------------------------------------------------------------------------
# The core differential: every app, multiple seeds
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("seed", (0, 3))
def test_jit_observationally_identical(app, seed):
    base, base_heap = run_app(app, jit=False, seed=seed)
    jit, jit_heap = run_app(app, jit=True, seed=seed)
    assert_identical(base, base_heap, jit, jit_heap)
    # And the run genuinely went through compiled code.
    assert base.jit is None
    assert jit.jit is not None
    assert jit.jit["compiles"] > 0
    assert not jit.jit["blacklisted"]
    assert jit.jit["exit_reasons"].get("return", 0) > 0


@pytest.mark.parametrize("app", APPS)
def test_jit_identical_on_eliminated_code(app):
    """The JIT consumes level-2 (region + loop-hoisted) check-elim
    output; elimination changes the observables, the JIT must not."""
    base, base_heap = run_app(app, jit=False, check_elim=2)
    jit, jit_heap = run_app(app, jit=True, check_elim=2)
    assert_identical(base, base_heap, jit, jit_heap)
    assert jit.jit["compiles"] > 0


# ---------------------------------------------------------------------------
# Verifier coverage of post-elimination code
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("level", (1, 2))
def test_post_elimination_code_verifies(app, level):
    # rewrite_application runs verify_classfiles on its output; a
    # malformed elimination (bad stack depth, dangling branch) raises.
    rewritten = rewrite_application(compile_source(app_source(app)),
                                    check_elim=level)
    assert rewritten.stats["checks_eliminated"] > 0


# ---------------------------------------------------------------------------
# Composition: the JIT under faults, races, locality, policies, proc
# ---------------------------------------------------------------------------
def test_jit_composed_kill_race_locality():
    report = run_check(app="series", seeds=2, kill="random", race=True,
                       locality="all", jit=True, jit_threshold=5)
    assert report.ok, report.summary()


def test_jit_composed_policy():
    report = run_check(app="raytracer", seeds=2, policy="all", jit=True)
    assert report.ok, report.summary()


def test_jit_proc_backend_identical(proc_guard):
    """Sim + jit must match proc + jit (and therefore sim interpreted,
    by transitivity with the tier-0 cross-backend tests)."""
    base, base_heap = run_app("series", jit=True)
    proc, proc_heap = run_app("series", jit=True,
                              transport_backend="proc")
    assert_identical(base, base_heap, proc, proc_heap)
    assert proc.jit["compiles"] > 0


# ---------------------------------------------------------------------------
# Per-opcode golden differentials
# ---------------------------------------------------------------------------
GOLDEN_SOURCE = """
class Edge {
    // Hot enough to compile at threshold 1; exercises the opcode
    // corners where Java and Python semantics diverge.
    int idiv(int a, int b) { return a / b; }
    int irem(int a, int b) { return a % b; }
    double ddiv(double a, double b) { return a / b; }
    int shifts(int a, int b) { return (a >> b) + (a >>> b) + (a << 1); }
    int d2i(double x) { return (int) x; }

    int run() {
        int acc = 0;
        for (int i = 0; i < 12; i++) {
            acc += idiv(-7, 2);          // Java truncates toward zero: -3
            acc += idiv(7, -2);
            acc += irem(-7, 2);          // sign follows dividend: -1
            acc += irem(7, -2);
            acc += shifts(-8, 1);
            acc += d2i(3.99);            // truncation, not rounding
            acc += d2i(0.0 / 0.0);       // NaN -> 0
            if (ddiv(1.0, 0.0) > 0.0) { acc += 1; }   // +inf
            if (ddiv(-1.0, 0.0) < 0.0) { acc += 1; }  // -inf
            if (ddiv(0.0, 0.0) == ddiv(0.0, 0.0)) { acc += 100; } // NaN != NaN
        }
        return acc;
    }
}

class EdgeMain {
    static int main() {
        Edge e = new Edge();
        int r = e.run();
        Sys.print("edges = " + r);
        Sys.print("mix = " + (1.0 / 3.0) + " " + (0.5 + 0.25));
        return r;
    }
}
"""

FAILING_SOURCE = """
class Boom {
    int hot(int d) { return 100 / d; }
}

class BoomMain {
    static int main() {
        Boom b = new Boom();
        int acc = 0;
        for (int i = 5; i >= 0; i--) { acc += b.hot(i); }   // hits /0
        return acc;
    }
}
"""


def run_source(source: str, jit: bool, **overrides):
    config = RuntimeConfig(num_nodes=2, seed=0, jit_enable=jit,
                           jit_threshold=1, **overrides)
    rewritten = rewrite_application(compile_source(source))
    runtime = JavaSplitRuntime(rewritten, config)
    return runtime.run(), runtime


def test_golden_opcode_edges():
    base, _ = run_source(GOLDEN_SOURCE, jit=False)
    jit, rt = run_source(GOLDEN_SOURCE, jit=True)
    assert jit.result == base.result
    assert jit.console == base.console
    assert jit.simulated_ns == base.simulated_ns
    assert jit.jit["compiles"] > 0
    # The hot method really ran compiled, not just compiled-and-ignored.
    assert jit.jit["exit_reasons"].get("return", 0) > 0


def test_golden_exception_identical():
    """A JVMError raised from compiled code must fail the thread with
    the interpreter's exact message (same pc, same frame.where())."""
    with pytest.raises(Exception) as base_exc:
        run_source(FAILING_SOURCE, jit=False)
    with pytest.raises(Exception) as jit_exc:
        run_source(FAILING_SOURCE, jit=True)
    assert type(jit_exc.value) is type(base_exc.value)
    assert str(jit_exc.value) == str(base_exc.value)


# ---------------------------------------------------------------------------
# Knob-off regression + report shape
# ---------------------------------------------------------------------------
def test_jit_off_by_default():
    config = RuntimeConfig()
    assert config.jit_enable is False
    assert config.jit_enabled is False
    base, base_heap = run_app("series", jit=False)
    default_cfg = RuntimeConfig(num_nodes=3,
                                net_jitter_ns=DEFAULT_JITTER_NS, seed=0)
    rewritten = rewrite_application(compile_source(app_source("series")))
    runtime = JavaSplitRuntime(rewritten, default_cfg)
    assert runtime.jit is None
    report = runtime.run()
    assert report.jit is None
    assert runtime.workers[0].jvm.jit is None
    assert report.simulated_ns == base.simulated_ns
    assert report.net.by_type == base.net.by_type
    assert heap_fingerprint(runtime) == base_heap


def test_jit_report_shape():
    jit, _ = run_app("series", jit=True)
    rep = jit.jit
    assert rep["threshold"] == 10
    assert rep["compiles"] == sum(n["compiled"] for n in rep["nodes"])
    assert len(REASON_NAMES) == N_REASONS
    for info in rep["methods"].values():
        assert info["tier"] == 1
        assert set(info["exits"]) <= set(REASON_NAMES)
    # Deopt counter is derived from the exit histogram.
    assert rep["deopts"] == rep["exit_reasons"].get("deopt", 0)


def test_jit_metrics_published():
    jit, _ = run_app("series", jit=True, obs_metrics=True)
    metrics = jit.obs["metrics"]
    counters = metrics["counters"]
    assert counters["jit.compiles"]["total"] > 0
    assert counters["jit.exit.return"]["total"] > 0
