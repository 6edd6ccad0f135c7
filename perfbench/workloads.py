"""The benchmark's four workloads, run through the public API.

Every workload runs 3 simulated nodes with every optional subsystem off
(ft, locality, policy, race, obs), the JIT on where the name says so.
A workload is built from its seed: the seed picks a panel of inputs
(app instances or request schedules) and ``RuntimeConfig.seed``.  One
*op* runs one panel member through the public API:

    compile_source -> rewrite_application -> JavaSplitRuntime
    (+ ServeManager.attach, + ProcNetwork.start on proc) -> run()

and checks its own outputs against references computed once per seed,
outside any timed region.  Around ``run()`` an op times a fixed
pure-Python loop (:func:`host_calibration`), so the measurement loop
can tell the host's speed at that moment from the program's.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.apps import raytracer, tsp
from repro.lang import compile_source
from repro.rewriter import rewrite_application
from repro.runtime import JavaSplitRuntime, RuntimeConfig
from repro.runtime.javasplit import run_original
from repro.serve import LoadGenerator, PhaseSpec, ServeManager
from repro.serve.app import make_source as serve_source
from repro.serve.scenario import run_serve_reference

NODES = 3

#: Counters every op on one panel member must reproduce exactly: across
#: the ops of a run, and between a traced op and an untraced one.
DETERMINISTIC = (
    "sim_ns", "net.messages", "net.bytes", "jvm.bytecodes",
    "jvm.interp_steps", "sim.events", "dsm.fetches", "dsm.diffs_sent",
    "dsm.token_transfers", "dsm.local_acquires", "dsm.shared_acquires",
    "jit.compiles", "jit.deopts", "serve.injected", "serve.completed",
)

#: Sizes per scale.  "full" is what the benchmark measures; "tiny" is
#: for the benchmark's own tests (every code path, well under a second
#: per op).  Each op takes a quarter of a second to two seconds at full
#: scale, short against the host's speed phases (see README.md).
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        # The search work of an 8-city instance ranges over 2x from
        # seed to seed; the panel takes the seed's first instances
        # whose work lies within 5% of the median instance's (3,700
        # search calls), so a pass does the same work on every seed.
        # Eight of them, so the percentiles of their simulated times
        # are steady too.
        "tsp_cities": 8, "tsp_panel": 8,
        "tsp_search_nodes": (3_500, 3_900),
        "ray_resolution": 10, "ray_panel": 3,
        # 8 schedules x 2 tenants x 75 requests (~5 sim-s at 0.015
        # req/sim-ms): 1,200 requests per pass, 12 beyond p99.
        "serve_requests": 75, "serve_panel": 8,
    },
    "tiny": {
        "tsp_cities": 6, "tsp_panel": 2, "tsp_search_nodes": (190, 220),
        "ray_resolution": 4, "ray_panel": 2,
        "serve_requests": 15, "serve_panel": 2,
    },
}

SERVE_SHAPE = {"tenants": 2, "workers": 2, "sessions": 64, "stripes": 8,
               "work_scale": 6}
#: A quarter of the simulated capacity: at 0.03 the p99 of ~1,200
#: requests is set by the schedule's worst one or two Poisson bursts,
#: and moved by a quarter from one set of ten seeds to the next.
SERVE_RATE_PER_MS = 0.015
#: Network jitter for the serve workloads, so the seed also shapes
#: message timing (the churn presets use 2 ms, which makes p99 swing
#: by a fifth from seed to seed; 0.2 ms keeps the spread small).
SERVE_JITTER_NS = 200_000


@dataclass
class Setup:
    """Wall seconds of one set-up, per layer."""

    compile_s: float = 0.0
    rewrite_s: float = 0.0
    init_s: float = 0.0

    @property
    def total(self) -> float:
        return self.compile_s + self.rewrite_s + self.init_s


@dataclass
class Op:
    """What one op (one panel member, built and run once) measured and
    checked."""

    member: int
    setup: Setup = field(default_factory=Setup)
    run_s: float = 0.0
    #: Host calibration around run(): mean of one before and one after.
    calib_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    completed: int = 0
    #: Simulated arrival-to-done latency of every completed operation.
    latencies_ns: List[int] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    #: Layer-tracer aggregates around run() (traced ops only).
    layers: Dict[str, int] = field(default_factory=dict)
    #: Serve only: phase -> {"injected", "completed", "failed"}.
    phases: Dict[int, Dict[str, int]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def fail_all(self, why: str) -> None:
        self.failed = self.attempted
        for row in self.phases.values():
            row["failed"] = row["injected"]
        self.errors.append(why)


def _counters(runtime: JavaSplitRuntime, report: Any) -> Dict[str, int]:
    dsm = report.total_dsm()
    jit = report.jit or {}
    agents = runtime.jit.agents if runtime.jit is not None else []
    return {
        "sim_ns": report.simulated_ns,
        "net.messages": report.net.messages,
        "net.bytes": report.net.bytes,
        "net.wire_fallback": report.net.wire_fallback,
        "jvm.bytecodes": sum(t.instructions for w in runtime.workers
                             for t in w.jvm.threads),
        "jvm.interp_steps": sum(a.interp_steps for a in agents),
        "sim.events": report.events,
        "dsm.fetches": dsm.fetches,
        "dsm.diffs_sent": dsm.diffs_sent,
        "dsm.token_transfers": dsm.token_transfers,
        "dsm.local_acquires": dsm.local_acquires,
        "dsm.shared_acquires": dsm.shared_acquires,
        "jit.compiles": jit.get("compiles", 0),
        "jit.deopts": jit.get("deopts", 0),
    }


class _Expr:
    """A node of the calibration's expression trees."""

    def __init__(self, kind: str, a: Any, b: Any = None) -> None:
        self.kind = kind
        self.a = a
        self.b = b

    def value(self, env: Dict[str, int]) -> int:
        kind = self.kind
        if kind == "num":
            return self.a
        if kind == "var":
            return env[self.a]
        if kind == "add":
            return self.a.value(env) + self.b.value(env)
        if kind == "mul":
            return (self.a.value(env) * self.b.value(env)) & 0xFFFF
        return self.a.value(env) - self.b.value(env)


def _expr_tree(rng: random.Random, depth: int) -> _Expr:
    if depth == 0:
        if rng.random() < 0.5:
            return _Expr("num", rng.randrange(100))
        return _Expr("var", "xyzw"[rng.randrange(4)])
    return _Expr(("add", "mul", "sub")[rng.randrange(3)],
                 _expr_tree(rng, depth - 1), _expr_tree(rng, depth - 1))


def _timed_arithmetic() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def _timed_tree_walk() -> float:
    rng = random.Random(7)
    trees = [_expr_tree(rng, 6) for _ in range(16)]
    env = {"x": 3, "y": 5, "z": 7, "w": 11}
    t0 = time.perf_counter()
    for r in range(12):
        env["x"] = r
        for tree in trees:
            tree.value(env)
    return time.perf_counter() - t0


def _timed_sort() -> float:
    rng = random.Random(3)
    rows = [(rng.random(), str(i)) for i in range(6000)]
    t0 = time.perf_counter()
    sorted(rows)
    sorted(rows, key=lambda row: row[1])
    return time.perf_counter() - t0


def host_calibration() -> float:
    """Wall seconds of three fixed pure-Python loops, geometric mean
    (about 3 ms on an idle reference host): the host's speed at this
    moment, measured by code that no change to the program can touch.
    The speed of any one loop depends on where the process happens to
    be loaded (a tight arithmetic loop by up to 1.5x); the mean of an
    arithmetic loop, a tree-walking evaluator and a sort depends less."""
    times = (_timed_arithmetic(), _timed_tree_walk(), _timed_sort())
    return math.prod(times) ** (1 / len(times))


def _build(source: str, config: RuntimeConfig) -> Any:
    """Compile, rewrite and construct a runtime, timing each step."""
    setup = Setup()
    t0 = time.perf_counter()
    classfiles = compile_source(source)
    t1 = time.perf_counter()
    rewritten = rewrite_application(list(classfiles))
    t2 = time.perf_counter()
    runtime = JavaSplitRuntime(rewritten, config)
    setup.compile_s = t1 - t0
    setup.rewrite_s = t2 - t1
    setup.init_s = time.perf_counter() - t2
    return runtime, setup


def _run(runtime: JavaSplitRuntime, tracer: Any, out: Op) -> Any:
    """``runtime.run()`` timed into ``out``, between two host
    calibrations and with tracer aggregates around it."""
    calib = host_calibration()
    before = tracer.snapshot() if tracer is not None else None
    t0 = time.perf_counter()
    report = runtime.run()
    out.run_s = time.perf_counter() - t0
    if tracer is not None:
        after = tracer.snapshot()
        out.layers = {k: after[k] - before[k] for k in after}
    out.calib_s = (calib + host_calibration()) / 2
    return report


# ---------------------------------------------------------------------------
# Apps: tsp-jit, raytracer-interp
# ---------------------------------------------------------------------------

def tsp_distances(n_cities: int, seed: int) -> List[List[int]]:
    """The distance matrix ``tsp.make_source`` generates in-program
    (same LCG, same truncated Euclidean distances)."""
    xs, ys = [], []
    s = seed
    for _ in range(n_cities):
        s = (s * 1103515245 + 12345) % 2147483648
        xs.append(s % 1000)
        s = (s * 1103515245 + 12345) % 2147483648
        ys.append(s % 1000)
    return [[int(math.sqrt((xs[i] - xs[j]) ** 2 + (ys[i] - ys[j]) ** 2))
             for j in range(n_cities)] for i in range(n_cities)]


def tsp_optimum(n_cities: int, seed: int) -> int:
    """Brute-force optimal tour length of an instance."""
    d = tsp_distances(n_cities, seed)
    best = None
    for perm in itertools.permutations(range(1, n_cities)):
        length = d[0][perm[0]] + d[perm[-1]][0]
        for a, b in zip(perm, perm[1:]):
            length += d[a][b]
        if best is None or length < best:
            best = length
    return best


def tsp_search_nodes(n_cities: int, seed: int) -> int:
    """Search calls of a one-thread model of the app's branch-and-bound
    (depth-2 prefix jobs in queue order, bound refreshed per job).

    It measures an instance's search work without running the program:
    over 16 8-city instances it tracked the bytecodes of the 4-thread
    distributed run with correlation 0.98, while those bytecodes
    ranged over 2x from instance to instance."""
    n = n_cities
    d = tsp_distances(n, seed)
    best = 10**9
    nodes = 0
    visited = [False] * n

    def search(last: int, depth: int, length: int, bound: int) -> int:
        nonlocal best, nodes
        nodes += 1
        if length >= bound:
            return bound
        if depth == n:
            total = length + d[last][0]
            if total < bound:
                best = min(best, total)
                bound = best
            return bound
        for c in range(1, n):
            if not visited[c] and length + d[last][c] < bound:
                visited[c] = True
                bound = search(c, depth + 1, length + d[last][c], bound)
                visited[c] = False
        return bound

    for job in range((n - 1) * (n - 2)):
        second = job // (n - 2) + 1
        third = job % (n - 2) + 1
        if third >= second:
            third += 1
        visited[:] = [False] * n
        visited[0] = visited[second] = visited[third] = True
        search(third, 3, d[0][second] + d[second][third], best)
    return nodes


class AppWorkload:
    """A panel of app instances; one op, and one operation of the
    correctness count, is one instance run."""

    def __init__(self, sources: List[str], jit: bool, config_seed: int,
                 optima: Optional[List[int]] = None) -> None:
        self.sources = sources
        self.members = len(sources)
        #: Instances differ in cost, so each is timed on its own.
        self.members_alike = False
        self.jit = jit
        self.config_seed = config_seed
        #: Independent references (tsp only): brute-force optima.
        self.optima = optima
        #: Per instance, every reference result the run must equal
        #: (set by prepare).
        self.expected: List[List[Any]] = []

    def config(self) -> RuntimeConfig:
        return RuntimeConfig(num_nodes=NODES, seed=self.config_seed,
                             jit_enable=self.jit)

    def prepare(self) -> None:
        """Reference results: the un-rewritten single-JVM run."""
        self.expected = [[run_original(source=s).result]
                         for s in self.sources]
        for refs, optimum in zip(self.expected, self.optima or []):
            refs.append(optimum)

    def warm_up(self) -> None:
        """Build every instance once, untimed (lazy imports, caches)."""
        for source in self.sources:
            _build(source, self.config())

    def op(self, member: int, tracer: Any = None) -> Op:
        out = Op(member, attempted=1)
        try:
            runtime, out.setup = _build(self.sources[member], self.config())
            report = _run(runtime, tracer, out)
        except Exception as exc:  # noqa: BLE001 - a crash is a failure
            out.fail_all(f"instance {member}: {type(exc).__name__}: {exc}")
            return out
        out.counters = _counters(runtime, report)
        expected = self.expected[member]
        if any(report.result != ref for ref in expected):
            out.fail_all(f"instance {member}: result {report.result!r} "
                         f"!= reference {expected!r}")
            return out
        out.completed = 1
        # An app run arrives at simulated t=0 and is done when main
        # returns.
        out.latencies_ns.append(report.simulated_ns)
        return out


def make_tsp(seed: int, scale: str) -> AppWorkload:
    size = SIZES[scale]
    rng = random.Random(seed)
    n = size["tsp_cities"]
    low, high = size["tsp_search_nodes"]
    inst: List[int] = []
    while len(inst) < size["tsp_panel"]:
        candidate = rng.randrange(1, 2**31 - 1)
        if low <= tsp_search_nodes(n, candidate) <= high:
            inst.append(candidate)
    return AppWorkload(
        [tsp.make_source(n_cities=n, n_threads=4, seed=s) for s in inst],
        jit=True, config_seed=rng.randrange(2**31),
        optima=[tsp_optimum(n, s) for s in inst])


def make_raytracer(seed: int, scale: str) -> AppWorkload:
    size = SIZES[scale]
    rng = random.Random(seed)
    scenes = [rng.randrange(1, 2**31 - 1) for _ in range(size["ray_panel"])]
    return AppWorkload(
        [raytracer.make_source(resolution=size["ray_resolution"],
                               n_threads=4, seed=s) for s in scenes],
        jit=False, config_seed=rng.randrange(2**31))


# ---------------------------------------------------------------------------
# Serving: serve-sim, serve-proc
# ---------------------------------------------------------------------------

class ServeWorkload:
    """Open-loop Poisson load on the request processor, a panel of
    request schedules; one op runs one schedule, and one operation of
    the correctness count is one injected request."""

    def __init__(self, seed: int, backend: str, scale: str) -> None:
        self.backend = backend
        size = SIZES[scale]
        rng = random.Random(seed)
        # Each tenant gets the first ``requests`` arrivals of a Poisson
        # stream, so every seed injects the same number of requests.
        # The stream runs twice as long as that many arrivals need on
        # average, which always holds them.
        requests = size["serve_requests"]
        phase = PhaseSpec(duration_ms=2 * requests / SERVE_RATE_PER_MS,
                          rate_per_ms=SERVE_RATE_PER_MS)
        #: Per member: one arrival list per tenant.
        self.schedules = []
        for _ in range(size["serve_panel"]):
            gen = LoadGenerator((phase,), SERVE_SHAPE["sessions"],
                                seed=rng.randrange(2**31))
            self.schedules.append([arrivals[:requests] for arrivals in
                                   gen.schedules(SERVE_SHAPE["tenants"])])
        self.members = len(self.schedules)
        #: Same program, same request count and rate: members cost the
        #: same, so a pass is timed from the median over every op.
        self.members_alike = True
        self.injected_by_phase = [LoadGenerator.injected_by_phase(s)
                                  for s in self.schedules]
        self.config_seed = rng.randrange(2**31)
        self.source = serve_source(**SERVE_SHAPE)
        self.expected: List[Any] = []

    def config(self) -> RuntimeConfig:
        return RuntimeConfig(num_nodes=NODES, seed=self.config_seed,
                             net_jitter_ns=SERVE_JITTER_NS,
                             jit_enable=True,
                             transport_backend=self.backend)

    def prepare(self) -> None:
        """Reference results: the single-JVM run fed the same schedule."""
        classfiles = compile_source(self.source)
        self.expected = [run_serve_reference(classfiles, s).result
                         for s in self.schedules]

    def _build(self, member: int) -> Any:
        runtime, setup = _build(self.source, self.config())
        try:
            t0 = time.perf_counter()
            manager = ServeManager.attach(runtime, self.schedules[member])
            if self.backend == "proc":
                runtime.network.start()
            setup.init_s += time.perf_counter() - t0
        except BaseException:
            runtime.network.stop()
            raise
        return runtime, manager, setup

    def warm_up(self) -> None:
        """Build once, untimed (lazy imports, caches, first fork)."""
        runtime, _manager, _setup = self._build(0)
        runtime.network.stop()

    def op(self, member: int, tracer: Any = None) -> Op:
        injected = self.injected_by_phase[member]
        out = Op(member, attempted=sum(injected.values()))
        out.phases = {p: {"injected": n, "completed": 0, "failed": n}
                      for p, n in sorted(injected.items())}
        try:
            runtime, manager, out.setup = self._build(member)
        except Exception as exc:  # noqa: BLE001 - a crash is a failure
            out.fail_all(f"setup: {type(exc).__name__}: {exc}")
            return out
        feed = manager.feed
        recorded = feed.on_done
        latencies = out.latencies_ns

        def on_done(tenant: int, seq: int, phase: int, latency_ns: int,
                    node_id: int) -> None:
            latencies.append(latency_ns)
            recorded(tenant, seq, phase, latency_ns, node_id)

        feed.on_done = on_done
        try:
            report = _run(runtime, tracer, out)
        except Exception as exc:  # noqa: BLE001 - a crash is a failure
            runtime.network.stop()
            out.fail_all(f"schedule {member}: run: "
                         f"{type(exc).__name__}: {exc}")
            return out
        out.counters = _counters(runtime, report)
        out.counters["serve.injected"] = feed.injected
        out.counters["serve.completed"] = feed.completed
        out.completed = feed.completed
        for p, row in out.phases.items():
            row["completed"] = feed.completed_by_phase.get(p, 0)
            row["failed"] = row["injected"] - row["completed"]
        out.failed = out.attempted - out.completed
        if feed.duplicate_done:
            out.errors.append(f"schedule {member}: {feed.duplicate_done} "
                              f"duplicate completions")
        if report.result != self.expected[member]:
            out.fail_all(f"schedule {member}: result {report.result!r} != "
                         f"reference {self.expected[member]!r}")
        elif out.failed:
            out.errors.append(f"schedule {member}: {out.failed} requests "
                              f"never completed")
        return out


WORKLOADS = {
    "tsp-jit": make_tsp,
    "raytracer-interp": make_raytracer,
    "serve-sim": lambda seed, scale: ServeWorkload(seed, "sim", scale),
    "serve-proc": lambda seed, scale: ServeWorkload(seed, "proc", scale),
}
