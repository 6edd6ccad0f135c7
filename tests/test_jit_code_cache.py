"""The process-wide JIT code-object cache.

Every node runs the same rewritten classes, so the generated Python
source of a compiled method must be the same on every node of every
runtime in one process — then ``compile()`` runs once per distinct
source and each node only ``exec``s the shared code object into its own
environment.  These tests pin that the source carries nothing node- or
runtime-specific, that brands still get their own cost-specialized
source, that a warm run is observationally the cold run with zero
``compile()`` calls, and that the cache is bounded and pins no runtime.
"""

from __future__ import annotations

import builtins
import gc
import re
import weakref
from typing import Dict, Set

from repro.check.runner import DEFAULT_JITTER_NS, app_source
from repro.jit import codegen
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime.config import RuntimeConfig
from repro.runtime.javasplit import JavaSplitRuntime

from test_jit import assert_identical
from test_procnet import heap_fingerprint

# Hot worker methods with INVOKESTATIC (a user static helper) and
# INVOKESPECIAL (a constructor) call sites: the direct-call paths.
CALLS_SRC = """
class Pt {
    int x;
    int y;
    Pt(int x, int y) { this.x = x; this.y = y; }
}

class Helper {
    static int mix(int a, int b) { return a * 31 + b; }
}

class CallWorker extends Thread {
    int[] out;
    int id;

    CallWorker(int[] out, int id) { this.out = out; this.id = id; }

    int step(int i) {
        Pt p = new Pt(i, id);
        return Helper.mix(p.x, p.y) % 1000;
    }

    void run() {
        int acc = 0;
        for (int i = 0; i < 300; i++) {
            acc = (acc + step(i)) % 100003;
        }
        out[id] = acc;
    }
}

class Calls {
    static int main() {
        int n = 3;
        int[] out = new int[n];
        CallWorker[] ws = new CallWorker[n];
        for (int t = 0; t < n; t++) {
            ws[t] = new CallWorker(out, t);
            ws[t].start();
        }
        int sum = 0;
        for (int t = 0; t < n; t++) { ws[t].join(); sum += out[t]; }
        return sum;
    }
}
"""

# An integer literal of id() size (not the digits of a float literal).
_ID_LITERAL = re.compile(r"(?<![\d.])\d{9,}(?![\d.])")


def _runtime(src: str, jit: bool = True, num_nodes: int = 3,
             **overrides) -> JavaSplitRuntime:
    config = RuntimeConfig(num_nodes=num_nodes, seed=0,
                           net_jitter_ns=DEFAULT_JITTER_NS,
                           jit_enable=jit, **overrides)
    return JavaSplitRuntime(rewrite_application(compile_source(src)),
                            config)


def _sources(runtime) -> Dict[str, Set[str]]:
    """Method name -> the set of generated sources across all nodes."""
    out: Dict[str, Set[str]] = {}
    for agent in runtime.jit.agents:
        for fn in agent.cache.values():
            if fn is not False:
                name = f"{fn.method.klass}.{fn.method.name}"
                out.setdefault(name, set()).add(fn.source)
    return out


def test_source_is_identical_across_nodes_and_runtimes():
    first, second = _runtime(CALLS_SRC), _runtime(CALLS_SRC)
    first.run()
    second.run()
    a, b = _sources(first), _sources(second)
    assert "javasplit.CallWorker.step" in a, sorted(a)
    assert a.keys() == b.keys()
    for name in a:
        both = a[name] | b[name]
        assert len(both) == 1, f"{name}: {len(both)} distinct sources"
        (src,) = both
        assert not _ID_LITERAL.search(src), f"{name} embeds an id()"
    # The direct-call sites really are in the compiled code.
    step_src = next(iter(a["javasplit.CallWorker.step"]))
    assert "_CACHE.get(id(_t))" in step_src


def test_brands_get_distinct_sources_and_stay_identical():
    brands = dict(num_nodes=2, brands=("sun", "ibm"))
    base_rt = _runtime(app_source("series"), jit=False, **brands)
    base = base_rt.run()
    jit_rt = _runtime(app_source("series"), **brands)
    jit = jit_rt.run()
    assert_identical(base, heap_fingerprint(base_rt),
                     jit, heap_fingerprint(jit_rt))
    per_brand: Dict[str, Dict[str, str]] = {}
    for agent in jit_rt.jit.agents:
        brand = jit_rt.config.brand_of(agent.worker.node_id)
        for fn in agent.cache.values():
            if fn is not False:
                name = f"{fn.method.klass}.{fn.method.name}"
                seen = per_brand.setdefault(name, {})
                assert seen.setdefault(brand, fn.source) == fn.source
    assert per_brand
    for name, by_brand in per_brand.items():
        assert set(by_brand) == {"sun", "ibm"}, name
        assert by_brand["sun"] != by_brand["ibm"], name


def _observe(runtime, report):
    jit = report.jit
    return (report.result, report.simulated_ns, dict(report.net.by_type),
            heap_fingerprint(runtime), jit["compiles"],
            jit["exit_reasons"], jit["methods"])


def test_warm_run_is_the_cold_run_without_compiling(monkeypatch):
    calls = []

    def counting_compile(src, filename, mode):
        calls.append(filename)
        return builtins.compile(src, filename, mode)

    monkeypatch.setattr(codegen, "compile", counting_compile,
                        raising=False)
    codegen._code_object.cache_clear()
    cold_rt = _runtime(CALLS_SRC)
    cold = _observe(cold_rt, cold_rt.run())
    assert calls, "the cold run compiled nothing"
    calls.clear()
    warm_rt = _runtime(CALLS_SRC)
    warm = _observe(warm_rt, warm_rt.run())
    assert calls == []
    assert warm == cold
    assert cold[4] > 0


def test_cache_is_bounded_and_pins_no_runtime():
    runtime = _runtime(CALLS_SRC)
    runtime.run()
    ref = weakref.ref(runtime.workers[0].jvm)
    del runtime
    gc.collect()
    assert ref() is None, "a finished runtime's JVM is still reachable"
    maxsize = codegen._code_object.cache_info().maxsize
    for i in range(maxsize + 8):
        codegen._code_object(f"x = {i}\n", "<bound>")
    info = codegen._code_object.cache_info()
    assert info.currsize == maxsize


def test_tier_events_report_code_cache_hits():
    codegen._code_object.cache_clear()
    cold_rt = _runtime(CALLS_SRC, obs_wallclock=True)
    cold = cold_rt.run().jit["tier_events"]
    warm_rt = _runtime(CALLS_SRC, obs_wallclock=True)
    warm = warm_rt.run().jit["tier_events"]
    assert all(isinstance(e["code_cache_hit"], bool) for e in cold)
    assert all(e["compile_ns"] > 0 for e in cold + warm)
    # Cold: exactly one miss per distinct method; every later node hits.
    misses = [e["method"] for e in cold if not e["code_cache_hit"]]
    assert sorted(misses) == sorted({e["method"] for e in cold})
    assert any(e["code_cache_hit"] for e in cold)
    assert warm and all(e["code_cache_hit"] for e in warm)
