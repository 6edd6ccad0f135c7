"""The bytecode interpreter.

One :class:`Interpreter` per JVM instance.  ``run`` interprets a thread
until a simulated-time budget is spent or the thread stops being
runnable (the node scheduler's quantum); ``step`` executes exactly one
instruction of a thread's top frame (the JIT's single-step entry).  Both
return simulated nanoseconds, so the node scheduler can timeshare
threads over simulated CPUs and the DSM can block threads mid-access.

Blocking discipline (see DESIGN.md):

* **re-execute** style — instructions that only *peeked* at the stack
  (DSM access checks, DSM_STATICREF) leave the pc untouched when they
  block; when the protocol wakes the thread the instruction re-executes
  and now passes.  This mirrors the paper's Figure 3, where the read-miss
  handler returns into the access check.
* **complete** style — instructions that already consumed operands
  (MONITORENTER, DSM_ACQUIRE, blocking native calls) block with the pc
  still pointing at them; the waker calls :meth:`JThread.complete`,
  which pushes an optional result and advances the pc.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from ..sim import cost_model as cm
from ..sim.node import RUNNABLE
from .bytecode import Instr, Op, build_cost_tables
from .classfile import CONSTRUCTOR, MethodInfo
from .errors import (
    ArithmeticJavaError,
    ClassCastError,
    IllegalMonitorStateError,
    JVMError,
    NullPointerError,
)
from .frame import Frame
from .heap import ArrayObj, Obj, monitor_of

# Opcode aliases bound once at import.  On Python 3.10/3.11
# ``EnumType.__getattr__`` sends every ``Op.X`` read through a slow
# attribute hook (several times a module-global read), and the dispatch
# chain pays several per bytecode.  Keep the aliases.
_CONST, _LOAD, _STORE, _IINC = Op.CONST, Op.LOAD, Op.STORE, Op.IINC
_ADD, _SUB, _MUL, _DIV, _REM = Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.REM
_NEG, _SHL, _SHR, _USHR = Op.NEG, Op.SHL, Op.SHR, Op.USHR
_AND, _OR, _XOR, _CMP = Op.AND, Op.OR, Op.XOR, Op.CMP
_I2D, _D2I, _CONCAT = Op.I2D, Op.D2I, Op.CONCAT
_POP, _DUP, _DUP_X1, _SWAP = Op.POP, Op.DUP, Op.DUP_X1, Op.SWAP
_GOTO, _IF, _IF_CMP = Op.GOTO, Op.IF, Op.IF_CMP
_NEW, _GETFIELD, _PUTFIELD = Op.NEW, Op.GETFIELD, Op.PUTFIELD
_GETSTATIC, _PUTSTATIC = Op.GETSTATIC, Op.PUTSTATIC
_INSTANCEOF, _CHECKCAST = Op.INSTANCEOF, Op.CHECKCAST
_INVOKEVIRTUAL, _INVOKESTATIC = Op.INVOKEVIRTUAL, Op.INVOKESTATIC
_INVOKESPECIAL, _RETURN, _RETVAL = Op.INVOKESPECIAL, Op.RETURN, Op.RETVAL
_NEWARRAY, _ARRLOAD, _ARRSTORE = Op.NEWARRAY, Op.ARRLOAD, Op.ARRSTORE
_ARRAYLENGTH = Op.ARRAYLENGTH
_MONITORENTER, _MONITOREXIT = Op.MONITORENTER, Op.MONITOREXIT
_DSM_READCHECK, _DSM_WRITECHECK = Op.DSM_READCHECK, Op.DSM_WRITECHECK
_DSM_ACQUIRE, _DSM_RELEASE = Op.DSM_ACQUIRE, Op.DSM_RELEASE
_DSM_STATICREF = Op.DSM_STATICREF

_NO_HOOKS = "DSM instruction executed without DSM hooks installed"

# Sentinel returned by native methods that produce no value (void).
NO_VALUE = object()
# Sentinel returned by native methods that blocked the thread themselves.
BLOCK = object()


def java_idiv(a: int, b: int) -> int:
    """Java integer division: truncates toward zero."""
    if b == 0:
        raise ArithmeticJavaError("/ by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def java_irem(a: int, b: int) -> int:
    if b == 0:
        raise ArithmeticJavaError("% by zero")
    return a - java_idiv(a, b) * b


def java_ddiv(a: float, b: float) -> float:
    """Java double division: never traps; yields inf/nan."""
    if b == 0.0:
        if a == 0.0:
            return math.nan
        return math.inf if (a > 0) == (b >= 0 and not math.copysign(1, b) < 0) else -math.inf
    return a / b


def jstr(value: Any) -> str:
    """Stringify a value the way Java's string concatenation would."""
    if value is None:
        return "null"
    if isinstance(value, bool):  # pragma: no cover - booleans are ints
        return "true" if value else "false"
    if isinstance(value, float):
        if value == math.floor(value) and abs(value) < 1e16 and not math.isinf(value):
            return f"{value:.1f}"
        return repr(value)
    if isinstance(value, (Obj, ArrayObj)):
        return f"{value.class_name}@{id(value) & 0xFFFFFF:x}"
    return str(value)


class Interpreter:
    """Executes bytecode for one JVM instance."""

    # Race-detector access observer (repro.race), set per instance when
    # the detector is enabled: (thread, ref, slot, is_write, frame,
    # instr).  Class-level None keeps the disabled fast path a single
    # attribute test.
    race_hook = None

    # Tiered-JIT agent (repro.jit); set per instance when the jit is
    # enabled so _invoke can bump the callee's invocation counter.
    # Class-level None keeps the disabled path a single attribute test.
    jit = None

    def __init__(self, jvm: "JVM") -> None:  # noqa: F821 - circular typing
        self.jvm = jvm
        self.cost_model = jvm.cost_model
        # Per-opcode cost tables, resolved once per JVM brand (a real
        # JIT would constant-fold these; we index flat lists).
        self._cost_plain, self._cost_checked, self._cost_static = (
            build_cost_tables(self.cost_model))

    # ------------------------------------------------------------------
    def run(self, thread: "JThread", budget_ns: int) -> int:  # noqa: F821
        """The quantum loop: ``step`` until ``budget_ns`` is spent or the
        thread stops being runnable, with one ``_execute`` call per
        bytecode; returns the simulated ns consumed."""
        consumed = 0
        frames = thread.frames
        execute = self._execute
        while consumed < budget_ns and thread.state is RUNNABLE:
            frame = frames[-1]
            try:
                instr = frame.method.code[frame.pc]
            except IndexError:
                raise JVMError(
                    f"pc fell off method end at {frame.where()}"
                ) from None
            try:
                consumed += execute(thread, frame, instr)
            except JVMError as exc:
                thread.fail(exc, frame.where())
                raise
            if thread.pending_cost:
                consumed += thread.pending_cost
                thread.pending_cost = 0
            thread.instructions += 1
        return consumed

    def step(self, thread: "JThread") -> int:  # noqa: F821
        """Execute one instruction; returns its simulated cost in ns."""
        frame = thread.frames[-1]
        try:
            instr = frame.method.code[frame.pc]
        except IndexError:
            raise JVMError(
                f"pc fell off method end at {frame.where()}"
            ) from None
        try:
            cost = self._execute(thread, frame, instr)
        except JVMError as exc:
            thread.fail(exc, frame.where())
            raise
        if thread.pending_cost:
            cost += thread.pending_cost
            thread.pending_cost = 0
        thread.instructions += 1
        return cost

    # ------------------------------------------------------------------
    def _execute(self, thread, frame: Frame, instr: Instr) -> int:
        op = instr.op
        stack = frame.stack
        checked = instr.checked
        if checked:
            cost = (self._cost_static if checked == "static"
                    else self._cost_checked)[op]
        else:
            cost = self._cost_plain[op]

        # --- constants & locals -------------------------------------
        if op is _LOAD:
            stack.append(frame.locals[instr.a])
        elif op is _CONST:
            stack.append(instr.a)
        elif op is _DSM_READCHECK:
            hooks = self.jvm.hooks
            if hooks is None:
                raise JVMError(_NO_HOOKS)
            depth = instr.a
            ref = stack[-1 - depth]
            if ref is None:
                raise NullPointerError("read check on null")
            # For array accesses the element index sits just above the
            # ref; region-granular coherence (§4.3 extension) needs it.
            index = (
                stack[-depth]
                if depth >= 1 and isinstance(ref, ArrayObj) else None
            )
            ok, extra = hooks.read_check(thread, ref, index)
            if not ok:
                # Re-execute style: pc stays on the check; the fetch
                # reply wakes the thread and the check then passes.
                thread.block(reexec=True, reason="read miss")
                return cost + extra
            frame.pc += 1
            return cost + extra
        elif op is _GETFIELD:
            ref = stack.pop()
            if ref is None:
                raise NullPointerError(f"getfield {instr.a}.{instr.b}")
            idx = instr.cache
            if idx is None:
                idx = self.jvm.field_index(instr.a, instr.b)
                instr.cache = idx
            if self.race_hook is not None and checked:
                self.race_hook(thread, ref, instr.b, False, frame, instr)
            stack.append(ref.fields[idx])
        elif op is _IF_CMP:
            b = stack.pop(); a = stack.pop()
            if self._test_cmp(instr.a, a, b):
                frame.pc = instr.b
                return cost

        # --- objects ----------------------------------------------------
        elif op is _ADD:
            b = stack.pop(); stack[-1] = stack[-1] + b
        elif op is _ARRLOAD:
            idx = stack.pop(); ref = stack.pop()
            if ref is None:
                raise NullPointerError("arrload on null")
            if self.race_hook is not None and checked:
                self.race_hook(thread, ref, idx, False, frame, instr)
            stack.append(ref.get(idx))
        elif op is _STORE:
            frame.locals[instr.a] = stack.pop()
        elif op is _IINC:
            frame.locals[instr.a] += instr.b

        # --- arithmetic ----------------------------------------------
        elif op is _DSM_WRITECHECK:
            hooks = self.jvm.hooks
            if hooks is None:
                raise JVMError(_NO_HOOKS)
            depth = instr.a
            ref = stack[-1 - depth]
            if ref is None:
                raise NullPointerError("write check on null")
            value = stack[-1 - instr.b] if instr.b is not None else None
            index = (
                stack[-depth]
                if depth >= 2 and isinstance(ref, ArrayObj) else None
            )
            ok, extra = hooks.write_check(thread, ref, value, index)
            if not ok:
                thread.block(reexec=True, reason="write miss")
                return cost + extra
            frame.pc += 1
            return cost + extra
        elif op is _PUTFIELD:
            value = stack.pop()
            ref = stack.pop()
            if ref is None:
                raise NullPointerError(f"putfield {instr.a}.{instr.b}")
            idx = instr.cache
            if idx is None:
                idx = self.jvm.field_index(instr.a, instr.b)
                instr.cache = idx
            if self.race_hook is not None and checked:
                self.race_hook(thread, ref, instr.b, True, frame, instr)
            ref.fields[idx] = value
        elif op is _ARRSTORE:
            value = stack.pop(); idx = stack.pop(); ref = stack.pop()
            if ref is None:
                raise NullPointerError("arrstore on null")
            if self.race_hook is not None and checked:
                self.race_hook(thread, ref, idx, True, frame, instr)
            ref.set(idx, value)
        elif op is _MUL:
            b = stack.pop(); stack[-1] = stack[-1] * b
        elif op is _SUB:
            b = stack.pop(); stack[-1] = stack[-1] - b
        elif op is _GOTO:
            frame.pc = instr.a
            return cost
        elif op is _IF:
            v = stack.pop()
            if self._test_zero(instr.a, v):
                frame.pc = instr.b
                return cost
        elif op is _INVOKEVIRTUAL:
            static_m = instr.cache
            if static_m is None:
                static_m = self.jvm.resolve_method(instr.a, instr.b)
                instr.cache = static_m
            receiver = stack[-1 - len(static_m.params)]
            if receiver is None:
                raise NullPointerError(f"invoke {instr.a}.{instr.b} on null")
            if isinstance(receiver, str):
                target = self.jvm.resolve_method(self.jvm.string_class, instr.b)
            elif isinstance(receiver, ArrayObj):
                target = self.jvm.resolve_method(self.jvm.object_class, instr.b)
            else:
                target = receiver.rtclass.vtable.get(instr.b)
                if target is None:
                    target = self.jvm.resolve_method(instr.a, instr.b)
            return cost + self._invoke(thread, frame, static_m, target)
        elif op is _INVOKESTATIC or op is _INVOKESPECIAL:
            method = instr.cache
            if method is None:
                method = self.jvm.resolve_method(instr.a, instr.b)
                instr.cache = method
            return cost + self._invoke(thread, frame, method, method)
        elif op is _DUP:
            stack.append(stack[-1])
        elif op is _CMP:
            b = stack.pop(); a = stack.pop()
            stack.append(0 if a == b else (-1 if a < b else 1))
        elif op is _I2D:
            stack[-1] = float(stack[-1])
        elif op is _DIV:
            b = stack.pop(); a = stack.pop()
            if isinstance(a, int) and isinstance(b, int):
                stack.append(java_idiv(a, b))
            else:
                stack.append(java_ddiv(float(a), float(b)))
        elif op is _DSM_ACQUIRE:
            hooks = self.jvm.hooks
            if hooks is None:
                raise JVMError(_NO_HOOKS)
            ref = stack.pop()
            if ref is None:
                raise NullPointerError("acquire on null")
            done, extra = hooks.acquire(thread, ref)
            if not done:
                thread.block(reexec=False, reason="lock acquire")
                return cost + extra  # complete style: waker advances pc
            frame.pc += 1
            return cost + extra
        elif op is _DSM_RELEASE:
            hooks = self.jvm.hooks
            if hooks is None:
                raise JVMError(_NO_HOOKS)
            ref = stack.pop()
            if ref is None:
                raise NullPointerError("release on null")
            extra = hooks.release(thread, ref)
            frame.pc += 1
            return cost + extra
        elif op is _ARRAYLENGTH:
            ref = stack.pop()
            if ref is None:
                raise NullPointerError("arraylength on null")
            stack.append(len(ref))

        # --- synchronization (local monitors) ----------------------------
        elif op is _RETURN:
            self._return(thread, None, has_value=False)
            return cost
        elif op is _RETVAL:
            self._return(thread, stack.pop(), has_value=True)
            return cost

        # --- arrays -------------------------------------------------------
        elif op is _NEW:
            stack.append(self.jvm.new_instance(instr.a))
        elif op is _NEWARRAY:
            length = stack.pop()
            stack.append(self.jvm.new_array(instr.a, length))
        elif op is _REM:
            b = stack.pop(); a = stack.pop()
            if isinstance(a, int) and isinstance(b, int):
                stack.append(java_irem(a, b))
            else:
                stack.append(math.fmod(a, b) if b != 0 else math.nan)
        elif op is _NEG:
            stack[-1] = -stack[-1]
        elif op is _SHL:
            b = stack.pop(); stack[-1] = stack[-1] << b
        elif op is _SHR:
            b = stack.pop(); stack[-1] = stack[-1] >> b
        elif op is _USHR:
            b = stack.pop(); a = stack.pop()
            stack.append((a & 0xFFFFFFFFFFFFFFFF) >> b)
        elif op is _AND:
            b = stack.pop(); stack[-1] = stack[-1] & b
        elif op is _OR:
            b = stack.pop(); stack[-1] = stack[-1] | b
        elif op is _XOR:
            b = stack.pop(); stack[-1] = stack[-1] ^ b
        elif op is _D2I:
            v = stack[-1]
            if math.isnan(v):
                stack[-1] = 0
            else:
                stack[-1] = int(v)  # trunc toward zero, Java semantics
        elif op is _CONCAT:
            b = stack.pop(); a = stack.pop()
            stack.append(jstr(a) + jstr(b))

        # --- stack ----------------------------------------------------
        elif op is _POP:
            stack.pop()
        elif op is _DUP_X1:
            b = stack.pop(); a = stack.pop()
            stack.extend((b, a, b))
        elif op is _SWAP:
            stack[-1], stack[-2] = stack[-2], stack[-1]

        # --- control flow ----------------------------------------------
        elif op is _GETSTATIC:
            rtc = self.jvm.classes[instr.a]
            stack.append(rtc.statics[instr.b])
        elif op is _PUTSTATIC:
            rtc = self.jvm.classes[instr.a]
            rtc.statics[instr.b] = stack.pop()
        elif op is _INSTANCEOF:
            ref = stack.pop()
            stack.append(1 if self._is_instance(ref, instr.a) else 0)
        elif op is _CHECKCAST:
            ref = stack[-1]
            if ref is not None and not self._is_instance(ref, instr.a):
                raise ClassCastError(
                    f"{getattr(ref, 'class_name', type(ref).__name__)} -> {instr.a}"
                )

        # --- invocation -------------------------------------------------
        elif op is _MONITORENTER:
            ref = stack.pop()
            if ref is None:
                raise NullPointerError("monitorenter on null")
            if not self._monitor_enter(thread, ref):
                thread.block(reexec=False, reason="monitor enter")
                return cost  # blocked; waker advances pc (complete style)
        elif op is _MONITOREXIT:
            ref = stack.pop()
            if ref is None:
                raise NullPointerError("monitorexit on null")
            self._monitor_exit(thread, ref)

        # --- DSM pseudo-instructions --------------------------------------
        elif op is _DSM_STATICREF:
            hooks = self.jvm.hooks
            if hooks is None:
                raise JVMError(_NO_HOOKS)
            ref, extra = hooks.static_ref(thread, instr.a)
            if ref is None:
                thread.block(reexec=True, reason="static holder miss")
                return cost + extra
            stack.append(ref)
            frame.pc += 1
            return cost + extra

        else:  # pragma: no cover - exhaustive dispatch
            raise JVMError(f"unimplemented opcode {op.name}")

        frame.pc += 1
        return cost

    # ------------------------------------------------------------------
    @staticmethod
    def _test_zero(cond: str, v: Any) -> bool:
        if cond == "eq":
            return v == 0 or v is None
        if cond == "ne":
            return not (v == 0 or v is None)
        if v is None:
            raise NullPointerError(f"ordered compare on null ({cond})")
        if cond == "lt":
            return v < 0
        if cond == "ge":
            return v >= 0
        if cond == "gt":
            return v > 0
        if cond == "le":
            return v <= 0
        raise JVMError(f"bad IF condition {cond!r}")

    @staticmethod
    def _test_cmp(cond: str, a: Any, b: Any) -> bool:
        if cond == "eq":
            return a is b if isinstance(a, (Obj, ArrayObj)) or isinstance(b, (Obj, ArrayObj)) else a == b
        if cond == "ne":
            return not Interpreter._test_cmp("eq", a, b)
        if cond == "lt":
            return a < b
        if cond == "ge":
            return a >= b
        if cond == "gt":
            return a > b
        if cond == "le":
            return a <= b
        raise JVMError(f"bad IF_CMP condition {cond!r}")

    def _is_instance(self, ref: Any, class_name: str) -> bool:
        if ref is None:
            return False
        if class_name == self.jvm.object_class:
            return True
        if isinstance(ref, str):
            return class_name in (self.jvm.string_class, "str")
        if isinstance(ref, ArrayObj):
            return ref.class_name == class_name
        return ref.rtclass.is_subtype_of(class_name)

    # ------------------------------------------------------------------
    # Invocation / return
    # ------------------------------------------------------------------
    def _invoke(
        self,
        thread,
        frame: Frame,
        static_m: MethodInfo,
        target: MethodInfo,
    ) -> int:
        n = static_m.nargs
        args = frame.stack[len(frame.stack) - n:]
        del frame.stack[len(frame.stack) - n:]
        if target.is_native:
            fn = target.native_cache
            if fn is None:
                fn = self.jvm.native(target.klass, target.name)
                # Native implementations are identical (stateless, jvm
                # passed per call) across JVM instances, so the shared
                # MethodInfo may cache the first resolution.
                target.native_cache = fn
            result = fn(self.jvm, thread, args)
            if result is BLOCK:
                thread.block(reexec=False, reason=f"native {target.name}")
                return self.cost_model[cm.NATIVE]
            if result is not NO_VALUE:
                frame.stack.append(result)
            elif target.ret != "void":
                raise JVMError(
                    f"native {target.klass}.{target.name} returned no value"
                )
            frame.pc += 1
            return self.cost_model[cm.NATIVE]
        thread.frames.append(Frame(target, args))
        if self.jit is not None:
            self.jit.note_invoke(target)
        return 0

    def _return(self, thread, value: Any, has_value: bool) -> None:
        thread.frames.pop()
        if not thread.frames:
            thread.finish(value if has_value else None)
            return
        caller = thread.frames[-1]
        caller.pc += 1
        if has_value:
            caller.stack.append(value)

    # ------------------------------------------------------------------
    # Local monitors (un-instrumented mode)
    # ------------------------------------------------------------------
    def _monitor_enter(self, thread, ref: Any) -> bool:
        """Returns True if entered; False if the thread blocked."""
        mon = monitor_of(ref)
        if mon.owner is None:
            mon.owner = thread
            mon.count = 1
            return True
        if mon.owner is thread:
            mon.count += 1
            return True
        mon.entry_queue.append((thread, 1))
        return False

    def _monitor_exit(self, thread, ref: Any) -> None:
        mon = monitor_of(ref)
        if mon.owner is not thread:
            raise IllegalMonitorStateError("monitorexit by non-owner")
        mon.count -= 1
        if mon.count == 0:
            mon.owner = None
            self.grant_next(mon)

    def grant_next(self, mon) -> None:
        """Hand a free monitor to the next queued thread (if any)."""
        if mon.owner is None and mon.entry_queue:
            next_thread, restore = mon.entry_queue.popleft()
            mon.owner = next_thread
            mon.count = restore
            next_thread.complete(NO_VALUE)
