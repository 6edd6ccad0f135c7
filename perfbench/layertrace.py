"""Outside-in layer tracer for the benchmark's traced run.

The tracer wraps public functions of each layer at class or module
level, before the runtime is built, and keeps per-layer aggregates in
memory: calls, and self time (the span's duration minus the part its
child spans cover).  Nothing inside ``src/`` changes; the JIT binds
``dsm.read_check`` and friends when it compiles a method, so patching
the class reaches compiled code too.

Boundaries crossed millions of times per run (``Interpreter.step``) are
not wrapped: their time is taken from the enclosing boundary
(``JThread.run_quantum`` / ``JitAgent.run_quantum``), and their calls
are counted by the program itself (``JThread.instructions``,
``JitAgent.interp_steps``).  Wrapping each step doubles the wall time
of an interpreted run and inflates the parent's self time.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

#: Span layer names, in report order.
LAYERS = (
    "sim",          # SimEngine.run: event loop, node scheduling, delivery
    "jvm",          # JThread.run_quantum: the interpreter
    "jit",          # JitAgent.run_quantum: compiled code, fallback steps
                    # and compile_method
    "dsm.check",    # DsmEngine.read_check / write_check
    "dsm.sync",     # acquire/release/wait/notify/end_interval/...
    "dsm.handler",  # protocol handlers registered through Transport.on
    "net.send",     # Transport.send + SimNetwork.send (encode + relay)
)

_SYNC_HOOKS = ("acquire", "release", "dsm_wait", "dsm_notify",
               "end_interval", "promote", "spawn", "static_ref")


class LayerTracer:
    """Per-layer call counts and self time from wrapped boundaries.

    Use as a context manager: ``install`` patches, ``uninstall``
    restores every original attribute.  :meth:`snapshot` returns the
    aggregates so a caller can difference them around one ``run()``.
    """

    def __init__(self) -> None:
        self._index = {name: i for i, name in enumerate(LAYERS)}
        self.self_ns: List[int] = [0] * len(LAYERS)
        self.calls: List[int] = [0] * len(LAYERS)
        self._misses = [0]
        self._compile_ns = [0]
        self._wire_ns = 0
        # Child-time accumulators; the bottom slot absorbs top-level
        # spans so a wrapper never needs an emptiness test.
        self._stack: List[int] = [0]
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrapping --------------------------------------------------------
    def _span(self, layer: str, fn: Callable) -> Callable:
        idx = self._index[layer]
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns

        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_ns[idx] += dt - stack.pop()
                calls[idx] += 1
                stack[-1] += dt

        return span

    def _check_span(self, fn: Callable) -> Callable:
        """:meth:`_span` for an access check, also counting the checks
        that miss (the check returns ``(False, cost)`` when it starts or
        joins a fetch).  Inlined rather than layered on ``_span``: this
        boundary is crossed about a million times per run."""
        idx = self._index["dsm.check"]
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        misses = self._misses
        clock = time.perf_counter_ns

        def check(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_ns[idx] += dt - stack.pop()
                calls[idx] += 1
                stack[-1] += dt
            if not result[0]:
                misses[0] += 1
            return result

        return check

    def _inclusive(self, fn: Callable) -> Callable:
        """Time ``compile_method`` without making it a child span: the
        compiler is the JIT layer's own work, so it stays in
        ``jit.self_s`` and is also reported on its own."""
        total = self._compile_ns
        clock = time.perf_counter_ns

        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total[0] += clock() - t0

        return timed

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wire_timer(self, _kind: str, elapsed_ns: int) -> None:
        self._wire_ns += elapsed_ns

    # -- lifecycle -------------------------------------------------------
    def install(self) -> "LayerTracer":
        from repro.dsm.protocol import DsmEngine
        from repro.jit import manager as jit_manager
        from repro.jit.manager import JitAgent
        from repro.jvm.jvm import JThread
        from repro.net import wire
        from repro.net.simnet import SimNetwork
        from repro.net.transport import Transport
        from repro.sim.engine import SimEngine

        if self._patches:
            raise RuntimeError("tracer already installed")
        span = self._span
        self._patch(SimEngine, "run", span("sim", SimEngine.run))
        self._patch(JThread, "run_quantum",
                    span("jvm", JThread.run_quantum))
        self._patch(JitAgent, "run_quantum",
                    span("jit", JitAgent.run_quantum))
        self._patch(jit_manager, "compile_method",
                    self._inclusive(jit_manager.compile_method))
        for name in ("read_check", "write_check"):
            self._patch(DsmEngine, name,
                        self._check_span(getattr(DsmEngine, name)))
        for name in _SYNC_HOOKS:
            self._patch(DsmEngine, name,
                        span("dsm.sync", getattr(DsmEngine, name)))
        self._patch(Transport, "send", span("net.send", Transport.send))
        self._patch(SimNetwork, "send", span("net.send", SimNetwork.send))

        register = Transport.on

        def on(transport: Any, msg_type: str, handler: Callable) -> None:
            register(transport, msg_type, span("dsm.handler", handler))

        self._patch(Transport, "on", on)
        wire.set_wire_timer(self._wire_timer)
        return self

    def uninstall(self) -> None:
        from repro.net import wire

        wire.set_wire_timer(None)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- readout ---------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """Flat copy of every aggregate, keyed ``<layer>.self_ns`` and
        ``<layer>.calls``, plus the check misses, the time inside
        ``compile_method`` and the wire-codec nanoseconds (encode and
        decode, timed by ``set_wire_timer``)."""
        out: Dict[str, int] = {}
        for name, i in self._index.items():
            out[f"{name}.self_ns"] = self.self_ns[i]
            out[f"{name}.calls"] = self.calls[i]
        out["dsm.check_misses"] = self._misses[0]
        out["jit.compile_ns"] = self._compile_ns[0]
        out["net.wire_ns"] = self._wire_ns
        return out
