"""Measurement loop, correctness gate and metric assembly.

A run cycles through the workload's panel members, one op at a time,
for the given wall seconds (every member at least once).  An untraced
run (``trace=False``) reports the end-to-end metrics; a traced run
follows every untraced op with a traced op on the same member (see
:mod:`layertrace`) and reports per-layer metrics, after checking that
tracing changed no deterministic counter.

Wall times reach the end-to-end metrics scaled to a reference host
speed: each op times a fixed pure-Python loop around ``run()``, and its
wall seconds are multiplied by ``CALIB_REF_S / calib``.  The host this
benchmark was built on switches between speeds up to 1.9x apart in
phases of seconds; the scaling removes that, and only that, because no
change to the program can change the loop.  A timing is reported for
one pass over the panel, from the median over ops (:func:`per_pass`).
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from layertrace import LAYERS, LayerTracer
from workloads import DETERMINISTIC, WORKLOADS, Op

#: ``host_calibration()`` on the reference host (a 2-core Xeon VM at
#: 2.0 GHz, Python 3.11) in its fast phase.  Scaled seconds are wall
#: seconds at that speed.
CALIB_REF_S = 0.0032

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("run_s", "s"), ("setup_s", "s"), ("served_per_s", "1/s"),
    ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"), ("sim_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("lang.compile_s", "s"), ("rewriter.rewrite_s", "s"),
    ("runtime.init_s", "s"), ("runtime.self_s", "s"),
    ("jvm.bytecodes", "count"), ("jvm.self_s", "s"),
    ("jvm.interp_steps", "count"),
    ("jit.self_s", "s"), ("jit.compiled_share", "ratio"),
    ("jit.compiles", "count"), ("jit.deopts", "count"),
    ("jit.compile_s", "s"),
    ("dsm.check_calls", "count"), ("dsm.check_self_s", "s"),
    ("dsm.check_miss_frac", "ratio"),
    ("dsm.sync_calls", "count"), ("dsm.sync_self_s", "s"),
    ("dsm.local_acquire_frac", "ratio"),
    ("dsm.handler_calls", "count"), ("dsm.handler_self_s", "s"),
    ("dsm.fetches", "count"), ("dsm.diffs_sent", "count"),
    ("dsm.token_transfers", "count"),
    ("net.messages", "count"), ("net.bytes", "bytes"),
    ("net.send_self_s", "s"), ("net.wire_codec_s", "s"),
    ("net.wire_fallback", "count"),
    ("sim.events", "count"), ("sim.self_s", "s"),
    ("serve.injected", "count"), ("serve.completed", "count"),
    ("failed_frac", "ratio"), ("trace.overhead", "ratio"),
    ("host.calib_s", "s"), ("host.run_wall_s", "s"),
)


class PassivityError(AssertionError):
    """Tracing changed a deterministic counter."""


def _deterministic(op: Op) -> Dict[str, Optional[int]]:
    return {k: op.counters.get(k) for k in DETERMINISTIC}


def check_passive(untraced: Dict[str, int], traced: Dict[str, int]) -> None:
    """Raise unless the traced op reproduced every deterministic
    counter of the untraced one (tracing must only observe)."""
    diffs = [f"{k}: {untraced.get(k)} untraced, {traced.get(k)} traced"
             for k in DETERMINISTIC if untraced.get(k) != traced.get(k)]
    if diffs:
        raise PassivityError("tracing is not passive: " + "; ".join(diffs))


def _references(ops: List[Op]) -> Dict[int, Op]:
    """Per member, its first op that ran and passed every check."""
    refs: Dict[int, Op] = {}
    for op in ops:
        if op.counters and not op.failed:
            refs.setdefault(op.member, op)
    return refs


def check_repeatable(ops: List[Op]) -> None:
    """Fail every op whose deterministic counters differ from the first
    good op on the same member (same input, so same observables)."""
    refs = _references(ops)
    for op in ops:
        ref = refs.get(op.member)
        if ref is None or not op.counters:
            continue
        want, seen = _deterministic(ref), _deterministic(op)
        if seen != want:
            bad = sorted(k for k in want if want[k] != seen[k])
            op.fail_all(f"member {op.member}: deterministic counters "
                        f"changed between ops: {bad}")


def percentile(values: List[int], q: float) -> float:
    """Nearest-rank percentile (an observed value, never interpolated)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _scaled(op: Op, wall_s: float) -> float:
    """``wall_s`` measured in ``op``, in seconds at the reference speed."""
    return wall_s * CALIB_REF_S / op.calib_s if op.calib_s else wall_s


def per_pass(ops: List[Op], value: Callable[[Op], float],
             alike: bool) -> float:
    """``value`` for one pass over the panel: the median over each
    member's ops, summed over members; or, when the members cost the
    same by construction (``alike``), the median over every op times
    the number of members, which a single slow op moves less."""
    by_member: Dict[int, List[float]] = {}
    for op in ops:
        by_member.setdefault(op.member, []).append(value(op))
    if alike:
        return len(by_member) * statistics.median(value(op) for op in ops)
    return sum(statistics.median(v) for v in by_member.values())


def _ran(ops: List[Op]) -> List[Op]:
    """The ops that got through run() (all ops if none did, so a run
    that failed everywhere still reports)."""
    return [op for op in ops if op.counters] or ops


def _firsts(ops: List[Op]) -> List[Op]:
    """One op per member (the first), for deterministic observables."""
    seen: Dict[int, Op] = {}
    for op in ops:
        seen.setdefault(op.member, op)
    return list(seen.values())


def _sum_counter(ops: List[Op], key: str, field: str = "counters") -> int:
    return sum(getattr(op, field).get(key, 0) for op in ops)


class Result:
    """Everything one benchmark invocation produced."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        #: The workload's ``members_alike`` (see :func:`per_pass`).
        self.alike = False
        self.ops: List[Op] = []
        self.traced: List[Op] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.errors: List[str] = []

    @property
    def attempted(self) -> int:
        return sum(op.attempted for op in self.ops + self.traced)

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.ops + self.traced)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    def line(self) -> str:
        """The final JSON line of the benchmark's output."""
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })


def _end_to_end(result: Result) -> Dict[str, float]:
    ran = _ran(result.ops)
    firsts = _firsts(ran)
    lat = [ns for op in firsts for ns in op.latencies_ns] or [0]

    def scaled(wall_s: Callable[[Op], float]) -> float:
        return per_pass(ran, lambda op: _scaled(op, wall_s(op)),
                        result.alike)

    run_s = scaled(lambda op: op.run_s)
    return {
        "run_s": run_s,
        "setup_s": scaled(lambda op: op.setup.total),
        "served_per_s": _ratio(sum(op.completed for op in firsts), run_s),
        "latency_p50_ms": percentile(lat, 50) / 1e6,
        "latency_p99_ms": percentile(lat, 99) / 1e6,
        "sim_ms": _sum_counter(firsts, "sim_ns") / 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }


def _per_layer(result: Result) -> Dict[str, float]:
    ran = _ran(result.ops)
    traced = _ran(result.traced)
    firsts = _firsts(traced)

    def count(key: str) -> int:
        return _sum_counter(firsts, key)

    def calls(layer: str) -> int:
        return _sum_counter(firsts, f"{layer}.calls", "layers")

    def pass_s(ops: List[Op], value: Callable[[Op], float]) -> float:
        return per_pass(ops, value, result.alike)

    def layer_s(key: str) -> float:
        return pass_s(traced, lambda op: op.layers.get(key, 0) / 1e9)

    def setup_s(step: str) -> float:
        return pass_s(ran, lambda op: getattr(op.setup, step))

    def unlayered_s(op: Op) -> float:
        return op.run_s - sum(op.layers.get(f"{name}.self_ns", 0)
                              for name in LAYERS) / 1e9

    untraced_run = pass_s(ran, lambda op: op.run_s)
    acquires = count("dsm.local_acquires") + count("dsm.shared_acquires")
    bytecodes = count("jvm.bytecodes")
    interp = count("jvm.interp_steps")
    jit_on = count("jit.compiles") > 0
    return {
        "lang.compile_s": setup_s("compile_s"),
        "rewriter.rewrite_s": setup_s("rewrite_s"),
        "runtime.init_s": setup_s("init_s"),
        "runtime.self_s": pass_s(traced, unlayered_s),
        "jvm.bytecodes": bytecodes,
        "jvm.self_s": layer_s("jvm.self_ns"),
        "jvm.interp_steps": interp,
        "jit.self_s": layer_s("jit.self_ns"),
        "jit.compiled_share": (1.0 - _ratio(interp, bytecodes)
                               if jit_on else 0.0),
        "jit.compiles": count("jit.compiles"),
        "jit.deopts": count("jit.deopts"),
        "jit.compile_s": layer_s("jit.compile_ns"),
        "dsm.check_calls": calls("dsm.check"),
        "dsm.check_self_s": layer_s("dsm.check.self_ns"),
        "dsm.check_miss_frac": _ratio(
            _sum_counter(firsts, "dsm.check_misses", "layers"),
            calls("dsm.check")),
        "dsm.sync_calls": calls("dsm.sync"),
        "dsm.sync_self_s": layer_s("dsm.sync.self_ns"),
        "dsm.local_acquire_frac": _ratio(count("dsm.local_acquires"),
                                         acquires),
        "dsm.handler_calls": calls("dsm.handler"),
        "dsm.handler_self_s": layer_s("dsm.handler.self_ns"),
        "dsm.fetches": count("dsm.fetches"),
        "dsm.diffs_sent": count("dsm.diffs_sent"),
        "dsm.token_transfers": count("dsm.token_transfers"),
        "net.messages": count("net.messages"),
        "net.bytes": count("net.bytes"),
        "net.send_self_s": layer_s("net.send.self_ns"),
        "net.wire_codec_s": layer_s("net.wire_ns"),
        "net.wire_fallback": count("net.wire_fallback"),
        "sim.events": count("sim.events"),
        "sim.self_s": layer_s("sim.self_ns"),
        "serve.injected": count("serve.injected"),
        "serve.completed": count("serve.completed"),
        "failed_frac": _ratio(result.failed, result.attempted),
        "trace.overhead": _ratio(pass_s(traced, lambda op: op.run_s),
                                 untraced_run),
        "host.calib_s": statistics.median(op.calib_s for op in ran),
        "host.run_wall_s": untraced_run,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", prepare_hook: Optional[Any] = None
            ) -> Result:
    """Run one workload for ``seconds`` of ops and assemble its
    metrics.  ``prepare_hook(workload)`` runs after the references are
    computed (the tests use it to plant a wrong reference)."""
    wl = WORKLOADS[workload](seed, scale)
    result = Result(workload, seed, trace)
    result.alike = wl.members_alike
    wl.prepare()
    if prepare_hook is not None:
        prepare_hook(wl)
    wl.warm_up()
    tracer = LayerTracer()
    start = time.perf_counter()
    done = 0
    while True:
        member = done % wl.members
        result.ops.append(wl.op(member))
        if trace:
            with tracer:
                result.traced.append(wl.op(member, tracer))
        done += 1
        # Once every member has run, start another op only if it should
        # end less than half an op past the deadline, so a run lasts
        # about ``seconds``.
        now = time.perf_counter()
        if (done >= wl.members
                and now + (now - start) / done / 2 >= start + seconds):
            break
    check_repeatable(result.ops)
    refs = _references(result.ops)
    for op in result.traced:
        ref = refs.get(op.member)
        if ref is None or not op.counters:
            continue
        try:
            check_passive(ref.counters, op.counters)
        except PassivityError as exc:
            op.fail_all(str(exc))
    for op in result.ops + result.traced:
        result.errors.extend(op.errors)
    names = PER_LAYER if trace else END_TO_END
    values = _per_layer(result) if trace else _end_to_end(result)
    result.metrics = {name: (values[name], unit) for name, unit in names}
    return result


def report_lines(result: Result) -> List[str]:
    """Human-readable lines printed before the JSON result."""
    members = len({op.member for op in result.ops})
    lines = [f"# perfbench {result.workload} seed={result.seed} "
             f"trace={int(result.trace)}: {len(result.ops)} ops"
             + (f" + {len(result.traced)} traced" if result.trace else "")
             + f" over {members} panel members, {result.attempted} "
             f"operations, {result.failed} failed"]
    firsts = _firsts(result.ops)
    phases: Dict[int, Dict[str, int]] = {}
    for op in firsts:
        for phase, row in op.phases.items():
            into = phases.setdefault(phase, dict.fromkeys(row, 0))
            for k, v in row.items():
                into[k] += v
    for phase, row in sorted(phases.items()):
        lines.append(f"#   phase {phase}: injected {row['injected']} "
                     f"completed {row['completed']} "
                     f"failed {row['failed']} (per pass)")
    lat = [ns for op in firsts for ns in op.latencies_ns]
    if lat:
        beyond = len(lat) - math.ceil(0.99 * len(lat))
        lines.append(f"#   latency samples per pass: {len(lat)} "
                     f"({beyond} beyond p99)")
    for err in result.errors[:20]:
        lines.append(f"# FAILED: {err}")
    width = max(len(n) for n in result.metrics) if result.metrics else 0
    for name, (value, unit) in result.metrics.items():
        lines.append(f"{name:<{width}}  {value:.6g} {unit}")
    return lines


def write_trace(result: Result, out_dir: str) -> str:
    """Write every op's timings, and the traced ops' layer aggregates
    and counters, as one JSON document."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        f"trace-{result.workload}-seed{result.seed}.json")

    def record(op: Op) -> Dict[str, Any]:
        return {"member": op.member, "setup": vars(op.setup),
                "run_s": op.run_s, "calib_s": op.calib_s,
                "layers": op.layers, "counters": op.counters}

    doc = {
        "workload": result.workload,
        "seed": result.seed,
        "untraced": [record(op) for op in result.ops],
        "traced": [record(op) for op in result.traced],
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in result.metrics.items()},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path
