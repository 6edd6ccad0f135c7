"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run       compile a MiniJava file, rewrite it, execute on a simulated
          cluster, and report result + statistics
original  run the un-instrumented program on one simulated JVM
disasm    show the bytecode of a program, before or after rewriting
trace     run distributed with full DSM protocol tracing
check     sweep seeded schedules of a benchmark app under the
          consistency oracle + invariant monitor, optionally with
          fault injection (``--race`` adds the data-race detector and
          fails any seed with an unsuppressed report)
race      sweep seeded schedules of one program under the race
          detector alone: expect-race for seeded-racy positive
          controls, expect-free for programs that must stay clean
bench     run the built-in apps with the adaptive-locality subsystem
          off/on and report the numbers (``--json`` writes them under
          benchmarks/results/)
serve     run a serving-workload churn scenario (open-loop load,
          mid-run joins, random kills, mixed brands, multi-tenant)
          under the consistency oracle and report per-phase
          throughput + p50/p99/p999 request latency
profile   run with the full telemetry subsystem on: stall-attribution
          report on stdout, plus optional Chrome/Perfetto trace-event
          JSON (``--trace``) and speedscope collapsed stacks
          (``--speedscope``)
stats     run with the metrics registry on and print the counters,
          gauges and latency histograms (``--json`` for the raw dump)

Examples::

    python -m repro run app.mj --nodes 4 --brand ibm
    python -m repro run app.mj --nodes 4 --locality all
    python -m repro run app.mj --nodes 4 --backend proc
    python -m repro check --app series --seeds 5 --backend proc
    python -m repro check --app series --seeds 3 --kill 1@5ms --backend proc
    python -m repro bench --compare-backends --json
    python -m repro disasm app.mj --rewritten
    python -m repro trace app.mj --nodes 2 --limit 80 --json trace.json
    python -m repro check --app series --seeds 25 --faults drop,reorder,dup
    python -m repro check --app tsp --seeds 10 --kill 2@5ms
    python -m repro check --app tsp --kill random --locality migration
    python -m repro check --app series --seeds 25 --policy update
    python -m repro check --app raytracer --seeds 25 --race
    python -m repro check --app series --seeds 10 --obs
    python -m repro race examples/racy_counter.mj --seeds 8
    python -m repro race app.mj --expect free --suppress MinTour.best
    python -m repro bench --json
    python -m repro serve --preset churn --backend proc
    python -m repro serve --preset steady --seeds 10
    python -m repro serve --preset all --json
    python -m repro profile tsp --trace tsp.trace.json --top 5
    python -m repro stats raytracer --json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .dsm import DsmConfig
from .jvm.disasm import disassemble
from .lang import compile_source
from .rewriter import rewrite_application
from .runtime import JavaSplitRuntime, RuntimeConfig, run_original
from .runtime.tracing import DsmTracer


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _add_backend_args(p: argparse.ArgumentParser) -> None:
    """Transport-backend flags, shared by run/trace/check/bench."""
    p.add_argument("--backend", default="sim", choices=("sim", "proc"),
                   help="transport backend: 'sim' (in-process simulated "
                        "network, deterministic reference) or 'proc' (one "
                        "OS process per node, every frame over real "
                        "sockets; same schedule, genuine process kills)")
    p.add_argument("--socket", default="unix", choices=("unix", "tcp"),
                   dest="socket_kind",
                   help="socket family for --backend proc "
                        "(default: unix-domain)")


def _add_locality_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--locality", default="", metavar="COMPONENTS",
                   help="adaptive-locality components to enable: "
                        "comma-separated migration,prefetch,aggregation "
                        "or 'all' (default: off)")


def _add_policy_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", default="", metavar="POLICIES",
                   help="adaptive coherence policies to enable: "
                        "comma-separated update,migratory,broadcast "
                        "or 'all' (default: off — plain invalidate)")


def _add_coherency_args(p: argparse.ArgumentParser) -> None:
    """DSM coherency-shape flags, shared by run/trace/check."""
    p.add_argument("--region-elems", type=int, default=None,
                   help="array-region coherency units (§4.3 extension)")
    p.add_argument("--vector-timestamps", action="store_true",
                   help="use the HLRC vector-timestamp baseline mode")


def _add_cluster_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("source", help="MiniJava source file")
    p.add_argument("--nodes", type=int, default=2, help="worker nodes")
    p.add_argument("--cpus", type=int, default=2, help="CPUs per node")
    p.add_argument("--brand", default="sun", choices=("sun", "ibm"),
                   help="JVM brand cost model")
    p.add_argument("--dilation", type=int, default=1,
                   help="instruction-cost time dilation")
    p.add_argument("--scheduler", default="least-loaded",
                   choices=("least-loaded", "round-robin", "random"))
    p.add_argument("--optimize-checks", action="store_true",
                   help="enable redundant access-check elimination (§6.2)")
    p.add_argument("--check-elim", type=int, default=None, metavar="LEVEL",
                   choices=(0, 1, 2),
                   help="check-elimination level: 0=off, 1=straight-line "
                        "(§6.2), 2=region dataflow + loop hoisting")
    p.add_argument("--jit", action="store_true",
                   help="tier hot methods to compiled Python (bit-"
                        "identical observables, faster wall clock)")
    p.add_argument("--jit-threshold", type=int, default=10,
                   metavar="N", help="invocations before a method is "
                                     "compiled (default 10)")
    _add_coherency_args(p)
    _add_locality_arg(p)
    _add_policy_arg(p)
    _add_backend_args(p)


def _backend_kwargs(args) -> dict:
    """RuntimeConfig kwargs carried by the shared backend flags."""
    return {
        "transport_backend": getattr(args, "backend", "sim"),
        "proc_socket_kind": getattr(args, "socket_kind", "unix"),
    }


def _config(args) -> RuntimeConfig:
    from .check.runner import parse_locality, parse_policy

    return RuntimeConfig(
        num_nodes=args.nodes,
        cpus_per_node=args.cpus,
        brands=(args.brand,),
        time_dilation=args.dilation,
        scheduler=args.scheduler,
        dsm=DsmConfig(
            timestamp_mode="vector" if args.vector_timestamps else "scalar",
            array_region_elems=args.region_elems,
        ),
        jit_enable=getattr(args, "jit", False),
        jit_threshold=getattr(args, "jit_threshold", 10),
        **parse_locality(args.locality),
        **parse_policy(getattr(args, "policy", "")),
        **_backend_kwargs(args),
    )


def _elim_level(args) -> int:
    """Effective check-elimination level from the shared flags."""
    level = getattr(args, "check_elim", None)
    if level is not None:
        return level
    return 1 if getattr(args, "optimize_checks", False) else 0


def _report(report, show_traffic: bool = True) -> None:
    print(f"result            : {report.result}")
    for line in report.console:
        print(f"console           : {line}")
    print(f"simulated time    : {report.simulated_seconds * 1e3:.3f} ms")
    if report.backend != "sim":
        print(f"backend           : {report.backend} "
              f"(wall clock {report.wall_seconds * 1e3:.1f} ms)")
        if report.proc is not None:
            print(f"wire              : {report.proc['wire_frames']} frames, "
                  f"{report.proc['wire_bytes']} bytes on wire, "
                  f"{report.proc['wire_delivered']} delivered, "
                  f"{report.proc['wire_fallback']} fallback")
    print(f"threads executed  : {report.threads_run}")
    if report.placements:
        print(f"thread placements : {dict(sorted(report.placements.items()))}")
    if show_traffic and report.net is not None:
        total = report.total_dsm()
        print(f"network           : {report.net.messages} msgs, "
              f"{report.net.bytes} bytes")
        print(f"dsm               : {total.fetches} fetches, "
              f"{total.diffs_sent} diffs, {total.token_transfers} token "
              f"transfers, {total.invalidations} invalidations")
    if report.locality is not None:
        loc = report.locality
        print(f"locality          : {loc['migrated_units']} units migrated, "
              f"{loc['fwd_diffs']} diffs forwarded, "
              f"{loc['prefetch_units']} units prefetched "
              f"({loc['prefetch_hits']} hits), "
              f"{loc['agg_subframes']} msgs in {loc['agg_frames']} "
              f"aggregate frames")
    if report.policy is not None:
        pol = report.policy
        by = ", ".join(f"{name}={n}"
                       for name, n in sorted(pol["by_policy"].items()))
        print(f"policy            : {pol['active_units']} units adapted "
              f"({by or 'none'}), "
              f"{pol['promotions']} promotions, "
              f"{pol['pushes']} pushes ({pol['push_installs']} installed), "
              f"{pol['broadcasts']} broadcasts "
              f"({pol['broadcast_installs']} installed), "
              f"{pol['grants']} ownership grants")
    if report.race is not None:
        r = report.race
        print(f"race detector     : {r['races']} reports "
              f"({r['suppressed']} suppressed), "
              f"{r['events_observed']} access events, mode={r['mode']}"
              + (" DEGRADED" if r["degraded"] else ""))
    if report.jit is not None:
        j = report.jit
        names = ", ".join(j["compiled_methods"]) or "none"
        print(f"jit               : {j['compiles']} compiles "
              f"({names}), {j['deopts']} deopts, "
              f"{len(j['blacklisted'])} blacklisted")


def cmd_run(args) -> int:
    """`repro run`: rewrite + execute on a simulated cluster."""
    classfiles = compile_source(_read(args.source))
    rewritten = rewrite_application(
        classfiles, check_elim=_elim_level(args)
    )
    runtime = JavaSplitRuntime(rewritten, _config(args))
    report = runtime.run()
    _report(report)
    return 0


def cmd_original(args) -> int:
    """`repro original`: un-instrumented single-JVM baseline."""
    report = run_original(
        source=_read(args.source),
        brand=args.brand,
        cpus=args.cpus,
        time_dilation=args.dilation,
    )
    _report(report, show_traffic=False)
    return 0


def cmd_disasm(args) -> int:
    """`repro disasm`: bytecode listing, original or rewritten."""
    classfiles = compile_source(_read(args.source))
    if args.rewritten:
        rewritten = rewrite_application(
            classfiles, check_elim=_elim_level(args)
        )
        classfiles = rewritten.all_classfiles()
    costs = None
    if args.costs:
        from .jvm.disasm import resolve_cost_tables
        costs = resolve_cost_tables(args.costs)
    print(disassemble(classfiles, costs))
    return 0


def cmd_check(args) -> int:
    """`repro check`: seeded consistency sweep under oracle + monitor."""
    from .check import run_check

    done = [0]

    def progress(sr) -> None:
        done[0] += 1
        mark = "ok" if sr.ok else "FAIL"
        print(f"  seed {sr.seed:3d}: {mark}  "
              f"({sr.messages} msgs, {sr.installs_checked} installs, "
              f"{sr.finals_checked} final units)")

    try:
        report = run_check(
            app=args.app,
            seeds=args.seeds,
            faults=args.faults,
            nodes=args.nodes,
            fault_rate=args.fault_rate,
            timestamp_mode="vector" if args.vector_timestamps else "scalar",
            region_elems=args.region_elems,
            strict=args.strict,
            kill=args.kill,
            locality=args.locality,
            policy=args.policy,
            race=args.race,
            obs=args.obs,
            backend=args.backend,
            jit=args.jit,
            jit_threshold=args.jit_threshold,
            check_elim=args.check_elim or 0,
            progress=progress if args.verbose else None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.ok else 1


def cmd_bench(args) -> int:
    """`repro bench`: locality off/on numbers for the built-in apps."""
    import json
    from pathlib import Path

    from .bench import (DEFAULT_APPS, run_backend_bench, run_bench,
                        run_jit_bench, run_policy_bench, write_results)

    apps = args.apps or list(DEFAULT_APPS)
    nodes = args.nodes if args.nodes is not None else 3
    if args.jit_bench:
        doc = run_jit_bench(nodes=nodes, apps=apps)
        if args.json:
            out_dir = Path(args.out) if args.out else Path(
                "benchmarks/results")
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "bench_jit.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"wrote {path}")
        for app, entry in doc["apps"].items():
            interp = entry["runs"]["interp"]
            jit = entry["runs"]["jit"]
            print(f"{app:10s} interp {interp['wall_seconds']:6.2f}s -> "
                  f"jit {jit['wall_seconds']:6.2f}s "
                  f"({entry['speedup_wall']}x wall), "
                  f"{jit['jit']['compiles']} compiles, "
                  f"deopt rate {jit['jit']['deopt_rate']}"
                  + ("" if entry["identical"] else "  DIVERGES"))
        return 0 if all(e["identical"] for e in doc["apps"].values()) else 1
    if args.policy_bench:
        # The policy bench defaults to its own wider cluster; an
        # explicit --nodes still overrides it.
        doc = run_policy_bench(
            nodes=args.nodes) if args.nodes is not None \
            else run_policy_bench()
        if args.json:
            out_dir = Path(args.out) if args.out else Path(
                "benchmarks/results")
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "bench_policy.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"wrote {path}")
        for app, entry in doc["apps"].items():
            off = entry["runs"]["off"]
            for mode, delta in entry["delta_vs_off"].items():
                print(f"{app:10s} {mode:18s} "
                      f"{delta['messages']:+5d} msgs "
                      f"({delta['messages_pct']}%), "
                      f"{delta['bytes']:+7d} B ({delta['bytes_pct']}%)"
                      + ("" if entry["result_matches"]
                         else "  RESULT DIVERGES"))
        return 0 if all(e["result_matches"]
                        for e in doc["apps"].values()) else 1
    if args.compare_backends:
        doc = run_backend_bench(apps=apps, nodes=nodes)
        if args.json:
            out_dir = Path(args.out) if args.out else Path(
                "benchmarks/results")
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "bench_backends.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"wrote {path}")
        for app, entry in doc["apps"].items():
            sim, proc = entry["sim"], entry["proc"]
            print(f"{app:10s} sim: {sim['simulated_ms']:8.3f} ms "
                  f"{sim['messages']:5d} msgs | "
                  f"proc: {proc['simulated_ms']:8.3f} ms simulated, "
                  f"{proc['wall_ms']:8.1f} ms wall, "
                  f"{proc['wire']['bytes']:7d} B on wire"
                  + ("" if entry["identical"] else "  DIVERGES"))
        return 0 if all(e["identical"] for e in doc["apps"].values()) else 1
    doc = run_bench(apps=apps, nodes=nodes, ablation=args.ablation,
                    include_metrics=args.metrics, backend=args.backend)
    if args.json:
        out_dir = Path(args.out) if args.out else None
        paths = write_results(doc, **({} if out_dir is None
                                      else {"out_dir": out_dir}))
        for path in paths:
            print(f"wrote {path}")
    for app, entry in doc["apps"].items():
        off = entry["runs"]["off"]
        on = entry["runs"].get("all", off)
        delta = entry.get("delta_all_vs_off", {})
        wall = (f" {off['wall_ms']:7.1f} ms wall |"
                if "wall_ms" in off else "")
        print(f"{app:10s} off: {off['messages']:5d} msgs "
              f"{off['bytes']:7d} B {off['simulated_ms']:8.3f} ms |{wall} "
              f"all: {on['messages']:5d} msgs {on['bytes']:7d} B "
              f"{on['simulated_ms']:8.3f} ms | "
              f"fetches {off['fetches']} -> {on['fetches']} "
              f"({delta.get('fetches_pct')}%)"
              + ("" if entry["result_matches"] else "  RESULT DIVERGES"))
    ok = all(e["result_matches"] for e in doc["apps"].values())
    return 0 if ok else 1


def _print_serve_doc(doc) -> None:
    cluster = doc["cluster"]
    requests = doc["requests"]
    joins = ", ".join(f"{j['brand']}@{j['at_ms']:g}ms"
                      for j in cluster["joins"]) or "none"
    print(f"serve: scenario={doc['scenario']} backend={doc['backend']} "
          f"seed={doc['seed']}")
    print(f"  cluster             : {cluster['nodes']} nodes "
          f"(brands {','.join(cluster['brands'])}), joins {joins}, "
          f"kill={cluster['kill'] or 'none'}, "
          f"{cluster['tenants']} tenants")
    print(f"  requests            : {requests['injected']} injected, "
          f"{requests['delivered']} delivered, "
          f"{requests['completed']} completed")
    result = doc["result"]
    match = ("match" if result["matches"]
             else ("DIVERGES" if result["required"]
                   else "diverges (allowed under kill)"))
    print(f"  result              : {result['value']} "
          f"(reference {result['reference']}, {match})")
    oracle = doc["oracle"]
    print(f"  oracle              : "
          f"{'clean' if not oracle['violations'] else 'VIOLATIONS'} "
          f"({oracle['installs_checked']} installs, "
          f"{oracle['finals_checked']} final units)")
    for i, ph in enumerate(doc["slo"]["phases"]):
        lat = ph["latency_ms"]
        print(f"  phase {i} "
              f"[{ph['start_ms']:g}-{ph['end_ms']:g}ms]  : "
              f"{ph['completed']}/{ph['injected']} done, "
              f"{ph['throughput_rps']:g} rps, "
              f"p50 {lat['p50']:g}ms p99 {lat['p99']:g}ms "
              f"p999 {lat['p999']:g}ms")
    lat = doc["slo"]["overall"]["latency_ms"]
    print(f"  overall             : "
          f"{doc['slo']['overall']['throughput_rps']:g} rps, "
          f"p50 {lat['p50']:g}ms p99 {lat['p99']:g}ms "
          f"p999 {lat['p999']:g}ms")
    if doc.get("error"):
        print(f"  error               : {doc['error']}")
    print(f"  verdict             : {'OK' if doc['ok'] else 'FAILED'}")


def cmd_serve(args) -> int:
    """`repro serve`: churn scenarios over the serving workload."""
    import json

    from .serve import PRESETS, run_scenario, run_scenario_sweep

    if args.preset == "all" and args.seeds is not None:
        print("error: --seeds sweeps one preset, not 'all'",
              file=sys.stderr)
        return 2
    if args.seeds is not None:
        doc = run_scenario_sweep(PRESETS[args.preset], seeds=args.seeds,
                                 backend=args.backend)
        ok = doc["ok"]
        if not args.json:
            for run in doc["seeds"]:
                print(f"seed {run['seed']:3d}: "
                      f"{'ok' if run['ok'] else 'FAILED'} "
                      f"({run['requests']['completed']}"
                      f"/{run['requests']['injected']} requests)")
            print(f"serve sweep: scenario={doc['scenario']} "
                  f"backend={doc['backend']} "
                  f"{len(doc['seeds'])} seeds, "
                  f"verdict {'OK' if ok else 'FAILED'} "
                  f"(failed seeds: {doc['failed_seeds'] or 'none'})")
    elif args.preset == "all":
        doc = {
            "bench": "serve",
            "schema": 1,
            "backend": args.backend,
            "seed": args.seed,
            "scenarios": {
                name: run_scenario(PRESETS[name], seed=args.seed,
                                   backend=args.backend)
                for name in sorted(PRESETS)
            },
        }
        ok = all(s["ok"] for s in doc["scenarios"].values())
        doc["ok"] = ok
        if not args.json:
            for sub in doc["scenarios"].values():
                _print_serve_doc(sub)
    else:
        doc = run_scenario(PRESETS[args.preset], seed=args.seed,
                           backend=args.backend)
        ok = doc["ok"]
        if not args.json:
            _print_serve_doc(doc)
    if args.json:
        print(json.dumps(doc, indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if ok else 1


def cmd_trace(args) -> int:
    """`repro trace`: distributed run with protocol tracing."""
    classfiles = compile_source(_read(args.source))
    rewritten = rewrite_application(
        classfiles, check_elim=_elim_level(args)
    )
    runtime = JavaSplitRuntime(rewritten, _config(args))
    tracer = DsmTracer.attach(runtime, max_events=args.limit)
    report = runtime.run()
    print(tracer.format())
    print()
    summary = tracer.summary()
    print("trace summary     : " + ", ".join(
        f"{kind}={count}" for kind, count in summary.items()))
    if args.json:
        import json

        doc = {
            "source": args.source,
            "summary": summary,
            "truncated": tracer.truncated,
            # Always present (0 on a complete trace) so consumers can
            # tell a truncated trace from a quiet run without probing.
            "truncated_dropped": tracer.dropped,
            "events": tracer.as_dicts(),
        }
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {len(tracer.events)} events to {args.json}")
    _report(report)
    return 0


def _app_or_source(target: str) -> str:
    """Resolve a profile/stats target: built-in app name or .mj path."""
    from .check.runner import APP_SOURCES, app_source

    if target in APP_SOURCES:
        return app_source(target)
    return _read(target)


def _obs_config(args, metrics: bool, spans: bool,
                profile: bool) -> "RuntimeConfig":
    from .check.runner import parse_locality

    live = getattr(args, "live", False)
    return RuntimeConfig(
        num_nodes=args.nodes,
        seed=args.seed,
        obs_metrics=metrics,
        obs_spans=spans,
        obs_profile=profile,
        obs_top_n=getattr(args, "top", 10),
        obs_wallclock=getattr(args, "wallclock", False) or live,
        obs_live_stats=live,
        jit_enable=getattr(args, "jit", False),
        jit_threshold=getattr(args, "jit_threshold", 10),
        **parse_locality(args.locality),
        **_backend_kwargs(args),
    )


def _jit_detail(report) -> None:
    """Per-method tier/exit breakdown appended to profile/stats output."""
    j = report.jit
    if j is None:
        return
    print("jit methods:")
    for name in sorted(j["methods"]):
        info = j["methods"][name]
        exits = info["exits"]
        deopts = exits.get("deopt", 0)
        detail = ", ".join(f"{r}={n}" for r, n in sorted(exits.items()))
        print(f"  {name:40s} tier={info['tier']} deopts={deopts}  "
              f"({detail or 'never entered'})")
    for name, why in sorted(j["blacklisted"].items()):
        print(f"  {name:40s} tier=0 (blacklisted: {why})")


def cmd_profile(args) -> int:
    """`repro profile`: full-telemetry run + stall-attribution report."""
    import json

    from .obs.spans import validate_chrome_trace

    rewritten = rewrite_application(compile_source(_app_or_source(args.target)))
    config = _obs_config(args, metrics=True, spans=True, profile=True)
    runtime = JavaSplitRuntime(rewritten, config)
    report = runtime.run()
    obs = runtime.obs
    assert obs is not None and obs.profiler is not None \
        and obs.spans is not None
    print(obs.profiler.format(args.top))
    print()
    if args.trace:
        wall_samples = (obs.wallclock.samples
                        if obs.wallclock is not None else None)
        doc = obs.spans.to_chrome_trace(wall_samples=wall_samples)
        errors = validate_chrome_trace(doc)
        with open(args.trace, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {len(doc['traceEvents'])} trace events to "
              f"{args.trace}")
        if errors:
            print(f"trace-event schema violations ({len(errors)}):",
                  file=sys.stderr)
            for err in errors[:10]:
                print(f"  {err}", file=sys.stderr)
            return 1
    if args.speedscope:
        with open(args.speedscope, "w") as fh:
            fh.write(obs.spans.to_collapsed())
        print(f"wrote collapsed stacks to {args.speedscope}")
    _jit_detail(report)
    _report(report)
    return 0


def _live_stats_lines(runtime) -> List[str]:
    """One refresh of the live cluster view: per-node wall-clock
    counters and histogram summaries, merged master-side."""
    lines = [f"-- live @ sim {runtime.engine.now / 1e6:10.3f} ms --"]
    obs = runtime.obs
    wall = None if obs is None else obs.wallclock
    if wall is None:
        return lines
    doc = wall.as_dict()
    for name in sorted(doc["counters"]):
        entry = doc["counters"][name]
        by_node = " ".join(f"n{n}={c}"
                           for n, c in sorted(entry["by_node"].items()))
        lines.append(f"  {name:28s} {entry['total']:10d}  {by_node}")
    for name in sorted(doc["histograms"]):
        merged = doc["histograms"][name]["merged"]
        by_node = " ".join(
            f"n{n}={h['count']}" for n, h in
            sorted(doc["histograms"][name]["by_node"].items()))
        lines.append(f"  {name:28s} n={merged['count']:6d} "
                     f"mean={merged['mean']:12.1f} p99={merged['p99']}  "
                     f"{by_node}")
    return lines


def _start_live_printer(runtime, interval_s: float):
    """Print the merged cluster view every ``interval_s`` (wall clock)
    while the run executes.  Read-only on runtime state — it never
    touches sockets or the engine, so the sim schedule is unaffected.
    Returns (stop_event, thread)."""
    import threading

    stop = threading.Event()

    def loop() -> None:
        while not stop.wait(interval_s):
            for line in _live_stats_lines(runtime):
                print(line, flush=True)

    thread = threading.Thread(target=loop, name="repro-live-stats",
                              daemon=True)
    thread.start()
    return stop, thread


def _stats_serve(args, preset: str) -> int:
    """``repro stats serve:<preset>``: live telemetry during a serving
    scenario (the churn/SLO harness), on either backend."""
    import json

    from .serve import PRESETS, run_scenario

    if preset not in PRESETS:
        print(f"error: unknown serve preset {preset!r} "
              f"(have {', '.join(sorted(PRESETS))})", file=sys.stderr)
        return 2
    live = getattr(args, "live", False)
    overrides = {"obs_wallclock": True}
    if live:
        overrides["obs_live_stats"] = True
        overrides["obs_live_period_s"] = max(0.05, args.interval / 2)
    printers = []

    def on_runtime(runtime) -> None:
        if live:
            printers.append(_start_live_printer(runtime, args.interval))

    try:
        doc = run_scenario(PRESETS[preset], seed=args.seed,
                           backend=args.backend,
                           config_overrides=overrides,
                           on_runtime=on_runtime)
    finally:
        for stop, thread in printers:
            stop.set()
            thread.join(timeout=2.0)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        _print_serve_doc(doc)
    return 0 if doc["ok"] else 1


def cmd_stats(args) -> int:
    """`repro stats`: metrics-registry run; counters + histograms."""
    import json

    if args.target.startswith("serve:"):
        return _stats_serve(args, args.target.split(":", 1)[1])
    rewritten = rewrite_application(compile_source(_app_or_source(args.target)))
    config = _obs_config(args, metrics=True, spans=False, profile=False)
    runtime = JavaSplitRuntime(rewritten, config)
    printer = (_start_live_printer(runtime, args.interval)
               if getattr(args, "live", False) else None)
    try:
        report = runtime.run()
    finally:
        if printer is not None:
            stop, thread = printer
            stop.set()
            thread.join(timeout=2.0)
    obs = runtime.obs
    assert obs is not None and obs.metrics is not None
    doc = obs.metrics.as_dict()
    net = report.net
    if net is not None:
        doc["net"] = {
            "messages": net.messages,
            "bytes": net.bytes,
            "dropped": net.dropped,
            "wire_frames": net.wire_frames,
            "wire_bytes": net.wire_bytes,
            "wire_delivered": net.wire_delivered,
            "wire_fallback": net.wire_fallback,
        }
    if obs.wallclock is not None:
        doc["wallclock"] = obs.wallclock.as_dict()
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    print("counters:")
    for name in sorted(doc["counters"]):
        entry = doc["counters"][name]
        by_node = ", ".join(f"n{n}={c}"
                            for n, c in sorted(entry["by_node"].items()))
        print(f"  {name:24s} {entry['total']:8d}  ({by_node})")
    if doc["gauges"]:
        print("gauges:")
        for name in sorted(doc["gauges"]):
            print(f"  {name:24s} {doc['gauges'][name]}")
    if doc["histograms"]:
        print("histograms:")
        for name in sorted(doc["histograms"]):
            h = obs.metrics.histogram(name)
            print(f"  {name:24s} n={h.count:6d} mean={h.mean:12.1f} "
                  f"p50={h.quantile(0.5)} p99={h.quantile(0.99)} "
                  f"max={h.max}")
    if "net" in doc:
        n = doc["net"]
        print("net:")
        print(f"  messages={n['messages']} bytes={n['bytes']} "
              f"dropped={n['dropped']}")
        print(f"  wire: frames={n['wire_frames']} bytes={n['wire_bytes']} "
              f"delivered={n['wire_delivered']} "
              f"fallback={n['wire_fallback']}")
    if "wallclock" in doc:
        wc = doc["wallclock"]
        print(f"wallclock (elapsed {wc['wall_elapsed_ns'] / 1e9:.3f}s):")
        for name in sorted(wc["counters"]):
            print(f"  {name:28s} {wc['counters'][name]['total']:10d}")
        for name in sorted(wc["histograms"]):
            merged = wc["histograms"][name]["merged"]
            print(f"  {name:28s} n={merged['count']:6d} "
                  f"mean={merged['mean']:12.1f} p99={merged['p99']}")
    _jit_detail(report)
    _report(report)
    return 0


def cmd_race(args) -> int:
    """`repro race`: seeded race-detector sweep over one program."""
    from .check import run_race_check

    def progress(sr) -> None:
        mark = "ok" if sr.ok(args.expect) else "FAIL"
        print(f"  seed {sr.seed:3d}: {mark}  ({sr.races} reports, "
              f"{sr.suppressed} suppressed, {sr.events} events)")

    try:
        report = run_race_check(
            source=_read(args.source),
            name=args.source,
            seeds=args.seeds,
            nodes=args.nodes,
            mode=args.mode,
            expect=args.expect,
            suppress=tuple(args.suppress or ()),
            progress=progress if args.verbose else None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    # Show the (deduplicated) reports of the first seed that has any.
    for sr in report.results:
        if sr.reports:
            print(f"\nreports (seed {sr.seed}):")
            for d in sr.reports:
                sites = "\n".join(
                    f"    {s['kind']:5s} {s['class']}.{s['method']} "
                    f"pc={s['pc']} line={s['line']}  node={s['node']} "
                    f"thread={s['thread']} t={s['time_ns'] / 1e6:.3f}ms"
                    for s in d["sites"])
                extra = (f"  lockset={d['lockset']}"
                         if d["lockset"] else "")
                print(f"  race on {d['variable']} [{d['engine']}]{extra}\n"
                      f"{sites}")
            break
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser (separate from dispatch so
    tests can exercise flag wiring without running anything)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JavaSplit reproduction: distributed execution of "
                    "monolithic MiniJava programs on a simulated cluster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute on a simulated cluster")
    _add_cluster_args(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_orig = sub.add_parser("original", help="un-instrumented single-JVM run")
    p_orig.add_argument("source")
    p_orig.add_argument("--brand", default="sun", choices=("sun", "ibm"))
    p_orig.add_argument("--cpus", type=int, default=2)
    p_orig.add_argument("--dilation", type=int, default=1)
    p_orig.set_defaults(fn=cmd_original)

    p_dis = sub.add_parser("disasm", help="disassemble bytecode")
    p_dis.add_argument("source")
    p_dis.add_argument("--costs", default=None, metavar="BRAND",
                       choices=("sun", "ibm"),
                       help="annotate pre-summed per-run costs and "
                            "check-elim notes for a JVM brand")
    p_dis.add_argument("--check-elim", type=int, default=None,
                       metavar="LEVEL", choices=(0, 1, 2),
                       help="check-elimination level (0/1/2)")
    p_dis.add_argument("--rewritten", action="store_true",
                       help="disassemble the javasplit.* rewrite instead")
    p_dis.add_argument("--optimize-checks", action="store_true")
    p_dis.set_defaults(fn=cmd_disasm)

    p_chk = sub.add_parser(
        "check",
        help="consistency sweep: oracle + invariant monitor over seeds")
    p_chk.add_argument("--app", default="series",
                       choices=("series", "tsp", "raytracer"),
                       help="benchmark application to sweep")
    p_chk.add_argument("--seeds", type=int, default=25,
                       help="number of seeded schedules to explore")
    p_chk.add_argument("--faults", default="",
                       help="comma-separated faults to inject: "
                            "drop,dup,delay,reorder (default: none)")
    p_chk.add_argument("--fault-rate", type=float, default=0.05,
                       help="per-frame fault probability")
    p_chk.add_argument("--kill", default=None, metavar="NODE@TIME",
                       help="kill one worker mid-run with fault tolerance "
                            "enabled (e.g. 2@5ms, or 'random' for a "
                            "seed-derived node and time)")
    p_chk.add_argument("--nodes", type=int, default=3)
    _add_coherency_args(p_chk)
    _add_locality_arg(p_chk)
    _add_policy_arg(p_chk)
    _add_backend_args(p_chk)
    p_chk.add_argument("--strict", action="store_true",
                       help="raise on the first violation instead of "
                            "collecting")
    p_chk.add_argument("--race", action="store_true",
                       help="run every seed with the data-race detector "
                            "on; any unsuppressed report fails the seed")
    p_chk.add_argument("--obs", action="store_true",
                       help="run every seed with all telemetry knobs on "
                            "(metrics, spans, stall profiling) — puts the "
                            "instrumentation itself under the oracle")
    p_chk.add_argument("--jit", action="store_true",
                       help="run every seed with the tiered JIT on; the "
                            "oracle then certifies compiled execution")
    p_chk.add_argument("--jit-threshold", type=int, default=10,
                       metavar="N")
    p_chk.add_argument("--check-elim", type=int, default=None,
                       metavar="LEVEL", choices=(0, 1, 2),
                       help="check-elimination level for the rewrite")
    p_chk.add_argument("--verbose", action="store_true",
                       help="print one line per seed")
    p_chk.set_defaults(fn=cmd_check)

    p_race = sub.add_parser(
        "race",
        help="race-detector sweep: seeded schedules of one program")
    p_race.add_argument("source", help="MiniJava source file")
    p_race.add_argument("--seeds", type=int, default=8,
                        help="number of seeded schedules to explore")
    p_race.add_argument("--nodes", type=int, default=3)
    p_race.add_argument("--mode", default="both",
                        choices=("hb", "lockset", "both"),
                        help="detection engine(s) to run")
    p_race.add_argument("--expect", default="race",
                        choices=("race", "free"),
                        help="'race': fail seeds with no report (positive "
                             "control); 'free': fail seeds with a report")
    p_race.add_argument("--suppress", action="append", metavar="PATTERN",
                        help="benign-race suppression (Class.field or "
                             "Class[]; repeatable)")
    p_race.add_argument("--verbose", action="store_true",
                        help="print one line per seed")
    p_race.set_defaults(fn=cmd_race)

    p_bench = sub.add_parser(
        "bench",
        help="bench built-in apps with the locality subsystem off/on")
    p_bench.add_argument("--app", action="append", dest="apps",
                         choices=("series", "tsp", "raytracer"),
                         help="app to bench (repeatable; default: all)")
    p_bench.add_argument("--nodes", type=int, default=None,
                         help="cluster size (default: 3; the dedicated "
                              "--policy-bench defaults to 5)")
    p_bench.add_argument("--ablation", action="store_true",
                         help="also bench each locality component and "
                              "each coherence policy alone")
    p_bench.add_argument("--policy-bench", action="store_true",
                         help="dedicated per-policy ablation on a wider "
                              "cluster (what BENCH_7.json snapshots; "
                              "--json writes bench_policy.json)")
    p_bench.add_argument("--json", action="store_true",
                         help="write JSON files under --out")
    p_bench.add_argument("--out", default=None, metavar="DIR",
                         help="output directory for --json "
                              "(default: benchmarks/results)")
    p_bench.add_argument("--metrics", action="store_true",
                         help="also run with the telemetry metrics "
                              "registry on and embed its compact summary")
    _add_backend_args(p_bench)
    p_bench.add_argument("--jit-bench", action="store_true",
                         help="tiered-JIT ablation: interp vs jit vs "
                              "jit+check-elim-2 per app (what "
                              "BENCH_9.json snapshots; deterministic "
                              "fields must be identical interp vs jit)")
    p_bench.add_argument("--compare-backends", action="store_true",
                         help="run every app on both backends and report "
                              "simulated vs wall-clock time side by side "
                              "(--json writes bench_backends.json)")
    p_bench.set_defaults(fn=cmd_bench)

    p_sv = sub.add_parser(
        "serve",
        help="serving-workload churn scenarios with SLO report")
    p_sv.add_argument("--preset", default="steady",
                      choices=("steady", "churn", "hotset", "all"),
                      help="scenario preset: 'steady' (fixed cluster "
                           "baseline), 'churn' (mixed brands, mid-run "
                           "join + random kill, two tenants), 'hotset' "
                           "(phase-shifted hot keys under locality + "
                           "policy), or 'all'")
    p_sv.add_argument("--seed", type=int, default=0,
                      help="run seed (drives arrivals, jitter, and the "
                           "random kill)")
    p_sv.add_argument("--seeds", type=int, default=None, metavar="N",
                      help="sweep seeds 0..N-1 of one preset; exit "
                           "nonzero if any seed fails")
    _add_backend_args(p_sv)
    p_sv.add_argument("--json", action="store_true",
                      help="print the full document as JSON instead of "
                           "the summary")
    p_sv.add_argument("--out", default=None, metavar="FILE",
                      help="also write the JSON document to FILE")
    p_sv.set_defaults(fn=cmd_serve)

    p_prof = sub.add_parser(
        "profile",
        help="telemetry run: stall attribution + causal span traces")
    p_prof.add_argument("target",
                        help="built-in app name (series/tsp/raytracer) "
                             "or a MiniJava source file")
    p_prof.add_argument("--nodes", type=int, default=3)
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--locality", default="", metavar="COMPONENTS",
                        help="adaptive-locality components to enable "
                             "during the profiled run")
    p_prof.add_argument("--top", type=int, default=10,
                        help="entries in the hot-site / hot-unit tables")
    p_prof.add_argument("--trace", default=None, metavar="FILE",
                        help="write Chrome/Perfetto trace-event JSON")
    p_prof.add_argument("--speedscope", default=None, metavar="FILE",
                        help="write speedscope-compatible collapsed "
                             "stacks (Brendan Gregg folded format)")
    p_prof.add_argument("--jit", action="store_true",
                        help="tier hot methods; adds the per-method "
                             "compile/deopt table and jit.* metrics")
    p_prof.add_argument("--jit-threshold", type=int, default=10,
                        metavar="N")
    p_prof.add_argument("--wallclock", action="store_true",
                        help="record monotonic-clock metrics alongside "
                             "sim time; --trace gains a wall-clock "
                             "counter lane")
    p_prof.set_defaults(fn=cmd_profile)

    p_st = sub.add_parser(
        "stats", help="metrics-registry run: counters + histograms")
    p_st.add_argument("target",
                      help="built-in app name (series/tsp/raytracer), "
                           "a MiniJava source file, or serve:<preset> "
                           "for a serving scenario with telemetry")
    p_st.add_argument("--nodes", type=int, default=3)
    p_st.add_argument("--seed", type=int, default=0)
    p_st.add_argument("--locality", default="", metavar="COMPONENTS")
    p_st.add_argument("--json", action="store_true",
                      help="print the raw registry dump as JSON")
    p_st.add_argument("--jit", action="store_true",
                      help="tier hot methods; adds the per-method "
                           "compile/deopt table and jit.* counters")
    p_st.add_argument("--jit-threshold", type=int, default=10,
                      metavar="N")
    p_st.add_argument("--live", action="store_true",
                      help="stream merged per-node wall-clock metrics "
                           "to stdout while the run executes")
    p_st.add_argument("--interval", type=float, default=0.5,
                      metavar="SECONDS",
                      help="--live refresh period (wall clock)")
    _add_backend_args(p_st)
    p_st.set_defaults(fn=cmd_stats)

    p_tr = sub.add_parser("trace", help="run with DSM protocol tracing")
    _add_cluster_args(p_tr)
    p_tr.add_argument("--limit", type=int, default=200,
                      help="max trace events recorded")
    p_tr.add_argument("--json", default=None, metavar="FILE",
                      help="also write the events + summary as JSON")
    p_tr.set_defaults(fn=cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Argument parsing + dispatch; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
