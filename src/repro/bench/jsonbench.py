"""Machine-readable benchmark runs behind ``python -m repro bench``.

One invocation executes every requested app on the simulated cluster
with the adaptive-locality subsystem off and on (and, with
``ablation=True``, each locality component alone), and emits the
numbers a trend dashboard needs — simulated time, ``NetStats``
messages/bytes, DSM fetch/diff counts, and the locality subsystem's own
report — as JSON under ``benchmarks/results/``.  Everything measured is
simulated and seed-deterministic, so the output is reproducible
bit-for-bit and safe to diff across commits (``BENCH_3.json`` at the
repo root is exactly such a committed snapshot).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..check.runner import app_source, parse_locality, parse_policy
from ..lang import compile_source
from ..rewriter import rewrite_application
from ..runtime import JavaSplitRuntime, RuntimeConfig

#: Default output directory, relative to the repo root / cwd.
RESULTS_DIR = Path("benchmarks/results")

#: Locality modes measured by default (off vs everything on) and the
#: extra single-component modes an ablation run adds.  ``policy-*``
#: modes run with the coherence-policy subsystem instead of the
#: locality subsystem (``policy-all`` = all three policies at once).
BASE_MODES: Tuple[str, ...] = ("off", "all")
POLICY_MODES: Tuple[str, ...] = (
    "off", "policy-update", "policy-migratory", "policy-broadcast",
    "policy-all")
ABLATION_MODES: Tuple[str, ...] = (
    "off", "migration", "prefetch", "aggregation", "all",
    "policy-update", "policy-migratory", "policy-broadcast", "policy-all")

#: Apps benched by default (the ``repro check``-scale instances, so a
#: full bench stays CI-cheap).
DEFAULT_APPS: Tuple[str, ...] = ("series", "tsp", "raytracer")


def _measure(rewritten, nodes: int, mode: str,
             include_metrics: bool = False,
             backend: str = "sim") -> Dict[str, Any]:
    """One simulated run; ``mode`` is a locality spec ('' = off) or a
    ``policy-<spec>`` coherence-policy spec.

    ``include_metrics`` additionally runs with the telemetry metrics
    registry on and embeds its compact summary.  Off by default so the
    committed ``BENCH_3.json`` snapshots stay byte-comparable across
    commits that only touch telemetry (the registry itself never
    perturbs traffic, so the other numbers are identical either way).

    ``backend="proc"`` runs on the multiprocess transport; the entry
    then additionally carries wall-clock and wire-plane numbers (those
    are inherently non-deterministic, which is why they only appear on
    the proc backend — sim entries stay byte-comparable).
    """
    if mode.startswith("policy-"):
        knobs = parse_policy(mode[len("policy-"):])
    else:
        knobs = parse_locality("" if mode == "off" else mode)
    config = RuntimeConfig(num_nodes=nodes, obs_metrics=include_metrics,
                           transport_backend=backend,
                           obs_wallclock=(backend != "sim"), **knobs)
    runtime = JavaSplitRuntime(rewritten, config)
    report = runtime.run()
    total = report.total_dsm()
    assert report.net is not None
    out: Dict[str, Any] = {
        "simulated_ms": round(report.simulated_ns / 1e6, 6),
        "messages": report.net.messages,
        "bytes": report.net.bytes,
        "fetches": total.fetches,
        "diffs_sent": total.diffs_sent,
        "token_transfers": total.token_transfers,
        "result": repr(report.result),
    }
    if backend != "sim":
        out["backend"] = backend
        out["wall_ms"] = round(report.wall_seconds * 1e3, 3)
        if report.proc is not None:
            out["wire"] = {
                "frames": report.proc["wire_frames"],
                "bytes": report.proc["wire_bytes"],
                "delivered": report.proc["wire_delivered"],
                "fallback": report.proc["wire_fallback"],
            }
        if runtime.obs is not None and runtime.obs.wallclock is not None:
            out["wallclock"] = runtime.obs.wallclock.by_node()
    if report.locality is not None:
        out["locality"] = report.locality
    if report.policy is not None:
        out["policy"] = report.policy
    if include_metrics and runtime.obs is not None:
        out["metrics"] = runtime.obs.metrics.compact()
    return out


def _cluster_meta(nodes: int, backend: str = "sim") -> Dict[str, Any]:
    """Cluster-shape metadata embedded in every bench document, so a
    number can never be read without knowing what cluster produced it.
    The bench always runs the RuntimeConfig default shape: homogeneous
    sun-brand nodes, two CPUs each."""
    config = RuntimeConfig(num_nodes=nodes)
    return {
        "nodes": nodes,
        "brands": [config.brand_of(i) for i in range(nodes)],
        "cpus_per_node": config.cpus_per_node,
        "backend": backend,
    }


def _pct(off: float, on: float) -> Optional[float]:
    """Signed percentage change on→off baseline (negative = reduction)."""
    if not off:
        return None
    return round(100.0 * (on - off) / off, 2)


def bench_app(app: str, nodes: int = 3,
              modes: Iterable[str] = BASE_MODES,
              include_metrics: bool = False,
              backend: str = "sim") -> Dict[str, Any]:
    """Bench one app across the given locality modes."""
    rewritten = rewrite_application(compile_source(app_source(app)))
    runs = {mode: _measure(rewritten, nodes, mode, include_metrics,
                           backend=backend)
            for mode in modes}
    off = runs["off"]
    entry: Dict[str, Any] = {"runs": runs}
    entry["result_matches"] = all(
        r["result"] == off["result"] for r in runs.values())
    if "all" in runs:
        on = runs["all"]
        entry["delta_all_vs_off"] = {
            "messages_pct": _pct(off["messages"], on["messages"]),
            "bytes_pct": _pct(off["bytes"], on["bytes"]),
            "fetches_pct": _pct(off["fetches"], on["fetches"]),
            "simulated_ms_pct": _pct(off["simulated_ms"],
                                     on["simulated_ms"]),
        }
    return entry


def run_bench(apps: Iterable[str] = DEFAULT_APPS, nodes: int = 3,
              ablation: bool = False,
              include_metrics: bool = False,
              backend: str = "sim") -> Dict[str, Any]:
    """The full bench document (what the JSON files serialize)."""
    modes = ABLATION_MODES if ablation else BASE_MODES
    doc: Dict[str, Any] = {
        "bench": "locality",
        "schema": 1,
        "nodes": nodes,
        "cluster": _cluster_meta(nodes, backend),
        "modes": list(modes),
    }
    if backend != "sim":
        doc["backend"] = backend
    doc["apps"] = {app: bench_app(app, nodes, modes, include_metrics,
                                  backend=backend)
                   for app in apps}
    return doc


#: Node count for the dedicated policy bench.  Wider than the default
#: because push/broadcast policies pay per *extra reader*: with only two
#: worker peers the per-write push cost roughly cancels the saved
#: fetches, and the policies look artificially neutral.
POLICY_BENCH_NODES = 5


def _policy_sources() -> Dict[str, str]:
    """App instances for the dedicated policy bench.  tsp is sized up
    (9 cities / 4 threads vs the check-scale 7 / 3) so the global bound
    improves several times *after* the workers hold replicas — the
    check-scale instance converges so fast that a read-mostly broadcast
    has nothing left to short-circuit."""
    from ..apps import tsp

    return {
        "series": app_source("series"),
        "tsp": tsp.make_source(n_cities=9, n_threads=4, seed=42),
        "raytracer": app_source("raytracer"),
    }


def run_policy_bench(nodes: int = POLICY_BENCH_NODES) -> Dict[str, Any]:
    """Per-policy ablation document (what ``BENCH_7.json`` snapshots):
    every app across off / each coherence policy alone / all three."""
    doc: Dict[str, Any] = {
        "bench": "policy",
        "schema": 1,
        "nodes": nodes,
        "cluster": _cluster_meta(nodes),
        "modes": list(POLICY_MODES),
        "app_instances": {
            "series": "check-scale",
            "tsp": "n_cities=9 n_threads=4 seed=42",
            "raytracer": "check-scale",
        },
        "apps": {},
    }
    for app, src in _policy_sources().items():
        rewritten = rewrite_application(compile_source(src))
        runs = {mode: _measure(rewritten, nodes, mode)
                for mode in POLICY_MODES}
        off = runs["off"]
        entry: Dict[str, Any] = {"runs": runs}
        entry["result_matches"] = all(
            r["result"] == off["result"] for r in runs.values())
        entry["delta_vs_off"] = {
            mode: {
                "messages": runs[mode]["messages"] - off["messages"],
                "bytes": runs[mode]["bytes"] - off["bytes"],
                "messages_pct": _pct(off["messages"],
                                     runs[mode]["messages"]),
                "bytes_pct": _pct(off["bytes"], runs[mode]["bytes"]),
            }
            for mode in POLICY_MODES if mode != "off"
        }
        doc["apps"][app] = entry
    return doc


def run_backend_bench(apps: Iterable[str] = DEFAULT_APPS,
                      nodes: int = 3) -> Dict[str, Any]:
    """Sim-vs-proc comparison: every app once per backend, identical
    configs.  The document shows the differential guarantee (identical
    simulated time / message counts / results) next to what only the
    proc backend can measure — wall-clock and real bytes-on-wire.
    """
    out: Dict[str, Any] = {
        "bench": "backends",
        "schema": 1,
        "nodes": nodes,
        # One document covers a run per backend, hence "sim+proc".
        "cluster": _cluster_meta(nodes, backend="sim+proc"),
        "apps": {},
    }
    for app in apps:
        rewritten = rewrite_application(compile_source(app_source(app)))
        sim = _measure(rewritten, nodes, "off")
        proc = _measure(rewritten, nodes, "off", backend="proc")
        deterministic = ("simulated_ms", "messages", "bytes", "fetches",
                         "diffs_sent", "token_transfers", "result")
        out["apps"][app] = {
            "sim": sim,
            "proc": proc,
            "identical": all(sim[k] == proc[k] for k in deterministic),
        }
    return out


#: Instances for the jit bench — scaled up from check size so compiled-
#: method throughput (not compile latency or protocol chatter) dominates
#: the wall clock, matching how a tiered JIT is actually used.
def _jit_sources() -> Dict[str, str]:
    from ..apps import raytracer, series, tsp

    return {
        "series": series.make_source(n_coeffs=60, steps=300),
        "tsp": tsp.make_source(n_cities=9, n_threads=4, seed=42),
        "raytracer": raytracer.make_source(resolution=20),
    }


JIT_MODES: Tuple[str, ...] = ("interp", "jit", "jit-elim2")


def run_jit_bench(nodes: int = 3,
                  apps: Optional[Iterable[str]] = None) -> Dict[str, Any]:
    """Tiered-JIT ablation document (what ``BENCH_9.json`` snapshots).

    Three modes per app: ``interp`` (tier 0), ``jit`` (tier 1 on the
    same bytecode — every deterministic observable must be identical,
    only the wall clock may move), and ``jit-elim2`` (tier 1 on level-2
    check-eliminated bytecode — fewer checks change the simulated
    numbers, which is the point; the mode shows what the JIT+elim stack
    buys end to end).  Wall-clock fields are inherently machine- and
    load-dependent; the deterministic fields are byte-comparable across
    commits like every other bench document.
    """
    import time

    doc: Dict[str, Any] = {
        "bench": "jit",
        "schema": 1,
        "nodes": nodes,
        "cluster": _cluster_meta(nodes),
        "modes": list(JIT_MODES),
        "jit_threshold": 10,
        "app_instances": {
            "series": "n_coeffs=60 steps=300",
            "tsp": "n_cities=9 n_threads=4 seed=42",
            "raytracer": "resolution=20",
        },
        "apps": {},
    }
    sources = _jit_sources()
    for app in (apps or DEFAULT_APPS):
        src = sources[app]
        plain = rewrite_application(compile_source(src))
        elim2 = rewrite_application(compile_source(src), check_elim=2)
        runs: Dict[str, Any] = {}
        for mode, rewritten, jit in (("interp", plain, False),
                                     ("jit", plain, True),
                                     ("jit-elim2", elim2, True)):
            config = RuntimeConfig(num_nodes=nodes, jit_enable=jit)
            runtime = JavaSplitRuntime(rewritten, config)
            t0 = time.perf_counter()
            report = runtime.run()
            wall = time.perf_counter() - t0
            total = report.total_dsm()
            entry: Dict[str, Any] = {
                "simulated_ms": round(report.simulated_ns / 1e6, 6),
                "messages": report.net.messages,
                "bytes": report.net.bytes,
                "fetches": total.fetches,
                "result": repr(report.result),
                "wall_seconds": round(wall, 3),
            }
            if report.jit is not None:
                compiled_entries = sum(
                    report.jit["exit_reasons"].values())
                entry["jit"] = {
                    "compiles": report.jit["compiles"],
                    "compiled_methods": report.jit["compiled_methods"],
                    "deopts": report.jit["deopts"],
                    "blacklisted": sorted(report.jit["blacklisted"]),
                    "exit_reasons": report.jit["exit_reasons"],
                    "deopt_rate": round(
                        report.jit["deopts"] / compiled_entries, 6)
                    if compiled_entries else 0.0,
                }
            runs[mode] = entry
        interp, jit_run = runs["interp"], runs["jit"]
        deterministic = ("simulated_ms", "messages", "bytes", "fetches",
                         "result")
        doc["apps"][app] = {
            "runs": runs,
            "identical": all(interp[k] == jit_run[k]
                             for k in deterministic),
            "speedup_wall": round(
                interp["wall_seconds"] / jit_run["wall_seconds"], 2)
            if jit_run["wall_seconds"] else None,
        }
    return doc


def write_results(doc: Dict[str, Any],
                  out_dir: Path = RESULTS_DIR) -> List[Path]:
    """Write one JSON file per app plus the combined document; returns
    the paths written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    for app, entry in doc["apps"].items():
        per_app = {k: v for k, v in doc.items() if k != "apps"}
        per_app["app"] = app
        per_app.update(entry)
        path = out_dir / f"bench_{app}.json"
        path.write_text(json.dumps(per_app, indent=2) + "\n")
        paths.append(path)
    combined = out_dir / "bench_locality.json"
    combined.write_text(json.dumps(doc, indent=2) + "\n")
    paths.append(combined)
    return paths
