"""Tier-1 compiler: one rewritten bytecode method → one Python function.

The generated function executes the method's bytecode as *threaded
code*: the operand stack is mapped onto Python locals (``s0..sK``, one
per verified stack depth — the verifier's single-depth-per-pc invariant
makes this possible), constants are folded into literals, and the
simulated per-instruction cost is pre-summed per straight-line run and
charged with one addition at run entry.

The contract is **bit-identical observable behavior** versus the
interpreter: same results, same protocol traffic, same simulated time,
same exceptions.  That falls out of three rules:

* every op that can block or leave the frame (DSM checks, acquire/
  release, monitors, invokes) is a *special*: it gets the interpreter's
  exact budget test (``used >= budget``), calls the very same bound
  hook methods, and charges base + hook cost per instruction;
* a pre-summed run executes only when its whole cost fits the
  remaining budget — otherwise the function materializes the
  interpreter state (pc, operand stack, mutated locals) and returns
  ``R_BUDGET``, and the manager finishes the quantum with the plain
  interpreter, reproducing the interpreter's exact overshoot boundary;
* anything unresolvable at compile time becomes a deopt stub that
  materializes state and lets the interpreter execute that pc.

Compiled code inlines the §4.4 local-lock fast path (the uncontended
``DSM_ACQUIRE``/``DSM_RELEASE`` case) and calls whitelisted pure
natives (``Math.*`` etc.) without materializing the frame.

Exit reasons (second element of the ``(used_ns, reason)`` return):
"""

from __future__ import annotations

import functools
import math
from typing import Any, Dict, List, Optional, Set

from ..sim import cost_model as cm
from ..sim.node import StreamState
from ..jvm.bytecode import BRANCHES, TERMINATORS, Instr, Op
from ..jvm.classfile import MethodInfo
from ..jvm.errors import ClassCastError, JVMError, NullPointerError
from ..jvm.frame import Frame
from ..jvm.heap import ArrayObj, Obj
from ..jvm.interpreter import (
    BLOCK,
    NO_VALUE,
    Interpreter,
    java_ddiv,
    java_idiv,
    java_irem,
    jstr,
)
from .analysis import (
    SPECIAL_OPS,
    CompileError,
    MethodAnalysis,
    analyze,
    instr_cost,
)

# Exit reason codes returned by compiled functions.
R_BUDGET = 0          # quantum budget exhausted (interpreter tail runs)
R_BLOCK_READ = 1      # DSM read-check miss (re-exec style block)
R_BLOCK_WRITE = 2     # DSM write-check miss
R_BLOCK_STATIC = 3    # DSM static-holder miss
R_BLOCK_ACQUIRE = 4   # contended distributed lock
R_BLOCK_MONITOR = 5   # contended local monitor
R_BLOCK_NATIVE = 6    # native blocked the thread (e.g. wait, Serve.next)
R_CALL = 7            # callee not compiled — interpreter executes the invoke
R_RETURN = 8          # method returned (frame popped)
R_DEOPT = 9           # compile-time-unresolvable site — interpreter takes over

REASON_NAMES = (
    "budget", "block_read", "block_write", "block_static", "block_acquire",
    "block_monitor", "block_native", "call_exit", "return", "deopt",
)
N_REASONS = len(REASON_NAMES)

# Hard cap on generated statements; methods beyond it stay interpreted.
_MAX_STATEMENTS = 20000

# Nested compiled-to-compiled call depth cap (Python stack headroom);
# deeper recursion falls back to one interpreter step per call.
_MAX_CALL_DEPTH = 30

_ARITH_OPS = {
    Op.ADD: "+", Op.SUB: "-", Op.MUL: "*",
    Op.AND: "&", Op.OR: "|", Op.XOR: "^",
    Op.SHL: "<<", Op.SHR: ">>",
}


@functools.lru_cache(maxsize=256)
def _code_object(src: str, filename: str):
    """One code object per distinct generated source, per process: every
    node emits byte-identical source for a method unless its brand costs
    or config differ.  Code objects hold only literals; each node
    ``exec``s the shared one into its own environment."""
    return compile(src, filename, "exec")


def _is_pure_native(m: MethodInfo) -> bool:
    """Natives that are pure functions of (jvm, thread, args): never
    block, never return NO_VALUE, touch no frame — safe to call from
    compiled code without materializing the interpreter frame."""
    if m.ret == "void":
        return False
    if m.klass in ("Math", "javasplit.Math", "String", "javasplit.String"):
        return True
    return m.klass in ("Sys", "javasplit.Sys") and m.name in (
        "currentTimeMillis", "nanoTime")


class _Emitter:
    """Builds the source + globals of one compiled method."""

    def __init__(self, method: MethodInfo, agent) -> None:
        self.method = method
        self.agent = agent
        self.jvm = agent.jvm
        self.interp: Interpreter = self.jvm.interpreter
        self.ana: MethodAnalysis = analyze(method, self.jvm)
        self.code = method.code
        self.lines: List[str] = []
        self.env: Dict[str, Any] = {}
        self._const_names: Dict[int, str] = {}
        self._const_objs: List[Any] = []   # keep consts alive (id-keyed)
        self._const_seq = 0
        self._race = self.interp.race_hook
        self._deopt_pcs: Set[int] = set()
        self._field_idx: Dict[int, int] = {}
        self._bind_fixed()
        self._resolve_sites()
        self.entry_set = self._entries()

    # -- environment ---------------------------------------------------
    def _bind_fixed(self) -> None:
        ip = self.interp
        self.env.update(
            _JVME=JVMError, _NPE=NullPointerError, _CCE=ClassCastError,
            _idiv=java_idiv, _irem=java_irem, _ddiv=java_ddiv,
            _jstr=jstr, _fmod=math.fmod, _nan=math.nan, _isnan=math.isnan,
            _Frame=Frame, _Arr=ArrayObj,
            _RUN=StreamState.RUNNABLE, _NOV=NO_VALUE, _BLK=BLOCK,
            _jvm=self.jvm, _classes=self.jvm.classes,
            _isinst=ip._is_instance, _tcmp=Interpreter._test_cmp,
            _menter=ip._monitor_enter, _mexit=ip._monitor_exit,
            _new=self.jvm.new_instance, _newarr=self.jvm.new_array,
            _resolve=self.jvm.resolve_method, _native=self.jvm.native,
            _CACHE=self.agent.cache,
        )
        if self._race is not None:
            self.env["_race"] = self._race
        dsm = self.jvm.hooks
        ops = {i.op for i in self.code}
        if ops & {Op.DSM_READCHECK, Op.DSM_WRITECHECK, Op.DSM_STATICREF,
                  Op.DSM_ACQUIRE, Op.DSM_RELEASE}:
            if dsm is None:
                raise CompileError("DSM op without hooks installed")
            self.env.update(
                _readcheck=dsm.read_check, _writecheck=dsm.write_check,
                _staticref=dsm.static_ref, _acquire=dsm.acquire,
                _release=dsm.release, _stats=dsm.stats,
            )
            from ..dsm.objectstate import ObjState
            self.env["_LOCAL"] = ObjState.LOCAL
            self._lock_opt = bool(dsm.config.local_lock_opt)
            race_eng = getattr(dsm, "race", None)
            if race_eng is not None:
                self.env["_race_la"] = race_eng.on_local_acquired
                self.env["_race_lr"] = race_eng.on_local_released
            self._dsm_race = race_eng is not None
        else:
            self._lock_opt = False
            self._dsm_race = False

    def const(self, obj: Any, prefix: str = "K") -> str:
        name = self._const_names.get(id(obj))
        if name is None:
            name = f"_{prefix}{self._const_seq}"
            self._const_seq += 1
            self._const_names[id(obj)] = name
            self._const_objs.append(obj)
            self.env[name] = obj
        return name

    def lit(self, v: Any) -> str:
        if v is None or isinstance(v, (int, str)):
            return repr(v)
        if isinstance(v, float) and math.isfinite(v):
            return repr(v)
        return self.const(v)

    # -- compile-time resolution --------------------------------------
    def _resolve_sites(self) -> None:
        """Bind field indices and invoke targets; failures deopt."""
        for pc, instr in enumerate(self.code):
            if self.ana.depth_at[pc] is None:
                continue
            op = instr.op
            if op in (Op.GETFIELD, Op.PUTFIELD):
                idx = instr.cache
                if idx is None:
                    try:
                        idx = self.jvm.field_index(instr.a, instr.b)
                        instr.cache = idx
                    except Exception:
                        self._deopt_pcs.add(pc)
                        continue
                self._field_idx[pc] = idx
            elif op in (Op.INVOKEVIRTUAL, Op.INVOKESTATIC,
                        Op.INVOKESPECIAL):
                if self.ana.invoke_targets.get(pc) is None:
                    self._deopt_pcs.add(pc)

    def _entries(self) -> Set[int]:
        n = len(self.code)
        pcs = {0} | set(self.ana.branch_targets)
        for pc, instr in enumerate(self.code):
            if self.ana.depth_at[pc] is None:
                continue
            if instr.op in SPECIAL_OPS or pc in self._deopt_pcs:
                pcs.add(pc)
                if pc + 1 < n:
                    pcs.add(pc + 1)
        return {pc for pc in pcs if self.ana.depth_at[pc] is not None}

    # -- line helpers --------------------------------------------------
    def w(self, ind: int, text: str) -> None:
        self.lines.append("    " * ind + text)
        if len(self.lines) > _MAX_STATEMENTS:
            raise CompileError(
                f"{self.method.klass}.{self.method.name}: method too "
                f"large to compile")

    def _cost(self, instr: Instr) -> int:
        ip = self.interp
        return instr_cost(instr, ip._cost_plain, ip._cost_checked,
                          ip._cost_static)

    def _sync(self, ind: int, pc: int, depth: int,
              set_pc: bool = True) -> None:
        """Materialize the interpreter frame at (pc, depth)."""
        if set_pc:
            self.w(ind, f"frame.pc = {pc}")
        if depth:
            regs = ", ".join(f"s{i}" for i in range(depth))
            tail = "," if depth == 1 else ""
            self.w(ind, f"st[:] = ({regs}{tail})")
        else:
            self.w(ind, "del st[:]")
        for slot in sorted(self.ana.mutated_locals):
            self.w(ind, f"fl[{slot}] = l{slot}")

    def _flush_ret(self, ind: int, reason: str) -> None:
        self.w(ind, "thread.instructions += icount")
        self.w(ind, f"return used, {reason}")

    def _drain(self, ind: int) -> None:
        # Mirror the interpreter's per-step pending-cost drain (hook-
        # added cost; provably zero today, kept for contract fidelity).
        self.w(ind, "if thread.pending_cost:")
        self.w(ind + 1, "used += thread.pending_cost")
        self.w(ind + 1, "thread.pending_cost = 0")

    def _guard_special(self, ind: int, pc: int, depth: int) -> None:
        """The interpreter's exact one-instruction budget test."""
        self.w(ind, "if used >= budget:")
        self._sync(ind + 1, pc, depth)
        self._flush_ret(ind + 1, "0")

    # ==================================================================
    def compile(self):
        method = self.method
        fname = "_jit_fn"
        self.w(0, f"def {fname}(thread, frame, budget, depth):")
        self.w(1, "used = 0")
        self.w(1, "icount = 0")
        self.w(1, "st = frame.stack")
        self.w(1, "fl = frame.locals")
        for slot in sorted(self.ana.used_locals):
            self.w(1, f"l{slot} = fl[{slot}]")
        self.w(1, "pc = frame.pc")
        entries = sorted(
            self.entry_set,
            key=lambda e: (e not in self.ana.loop_headers, e))
        maxd = max((self.ana.depth_at[e] for e in self.entry_set),
                   default=0)
        if maxd:
            self.w(1, "_n = len(st)")
            kw = "if"
            for k in range(1, maxd + 1):
                self.w(1, f"{kw} _n == {k}:")
                self.w(2, "; ".join(f"s{i} = st[{i}]" for i in range(k)))
                kw = "elif"
        self.w(1, "try:")
        self.w(2, "while True:")
        kw = "if"
        for entry in entries:
            self.w(3, f"{kw} pc == {entry}:")
            self._emit_arm(entry)
            kw = "elif"
        self.w(3, "else:")
        self.w(4, "raise RuntimeError('jit: pc %d is not a compiled "
                  "entry of %s.%s' % (pc, "
                  f"{method.klass!r}, {method.name!r}))")
        # The interpreter records the failure against the *innermost*
        # frame only; _jit_failed keeps nested compiled calls from
        # re-recording it on the way out.
        self.w(1, "except _JVME as exc:")
        self.w(2, "thread.instructions += icount")
        self.w(2, "if not getattr(exc, '_jit_failed', False):")
        self.w(3, "exc._jit_failed = True")
        self.w(3, "frame.pc = pc")
        self.w(3, "thread.fail(exc, frame.where())")
        self.w(2, "raise")

        src = "\n".join(self.lines) + "\n"
        hits = _code_object.cache_info().hits
        code_obj = _code_object(src, f"<jit {method.klass}.{method.name}>")
        ns: Dict[str, Any] = {}
        exec(code_obj, self.env, ns)  # noqa: S102 - this *is* the JIT
        fn = ns[fname]
        fn.code_cache_hit = _code_object.cache_info().hits > hits
        fn.entries = frozenset(self.entry_set)
        fn.method = method
        fn.source = src
        fn.stats = [0] * N_REASONS
        fn.consts = self._const_objs
        return fn

    # ==================================================================
    def _emit_arm(self, entry: int) -> None:
        """Tail-duplicate from `entry` until control leaves the arm."""
        code = self.code
        ind = 4
        pc = entry
        d = self.ana.depth_at[entry]
        while True:
            instr = code[pc]
            op = instr.op
            if pc != entry and pc in self.entry_set:
                # Another arm owns this pc: dispatch instead of tail-
                # duplicating (keeps generated code linear in method
                # size; the emitted state is exactly that arm's entry
                # state, so the jump is free of re-materialization).
                self.w(ind, f"pc = {pc}")
                self.w(ind, "continue")
                return
            if pc in self._deopt_pcs:
                self._sync(ind, pc, d)
                self._flush_ret(ind, "9")
                return
            if op in SPECIAL_OPS:
                res = self._emit_special(ind, pc, instr, d)
                if res is None:
                    return
                d = res
                pc += 1
                continue
            # A pre-summed straight-line run of pure ops.
            end = pc
            total = 0
            n = len(code)
            while True:
                run_i = code[end]
                total += self._cost(run_i)
                is_ctl = (run_i.op in BRANCHES
                          or run_i.op in TERMINATORS)
                end += 1
                if is_ctl or end >= n:
                    break
                if (end in self.entry_set or end in self._deopt_pcs
                        or code[end].op in SPECIAL_OPS):
                    break
            self.w(ind, f"if used + {total} >= budget:")
            self._sync(ind + 1, pc, d)
            self._flush_ret(ind + 1, "0")
            self.w(ind, f"used += {total}")
            self.w(ind, f"icount += {end - pc}")
            arm_done = False
            for rpc in range(pc, end):
                ri = code[rpc]
                if ri.op in BRANCHES or ri.op in TERMINATORS:
                    nd = self._emit_control(ind, rpc, ri, d)
                    if nd is None:
                        arm_done = True
                    else:
                        d = nd
                else:
                    d = self._emit_pure(ind, rpc, ri, d)
            if arm_done:
                return
            pc = end

    # -- pure ops ------------------------------------------------------
    def _emit_pure(self, ind: int, pc: int, instr: Instr, d: int) -> int:
        op = instr.op
        w = self.w
        if op is Op.CONST:
            w(ind, f"s{d} = {self.lit(instr.a)}")
            return d + 1
        if op is Op.LOAD:
            w(ind, f"s{d} = l{instr.a}")
            return d + 1
        if op is Op.STORE:
            w(ind, f"l{instr.a} = s{d - 1}")
            return d - 1
        if op is Op.IINC:
            w(ind, f"l{instr.a} += {self.lit(instr.b)}")
            return d
        if op in _ARITH_OPS:
            w(ind, f"s{d - 2} = s{d - 2} {_ARITH_OPS[op]} s{d - 1}")
            return d - 1
        if op is Op.DIV:
            w(ind, f"pc = {pc}")
            w(ind, f"if isinstance(s{d - 2}, int) and "
                   f"isinstance(s{d - 1}, int):")
            w(ind + 1, f"s{d - 2} = _idiv(s{d - 2}, s{d - 1})")
            w(ind, "else:")
            w(ind + 1, f"s{d - 2} = _ddiv(float(s{d - 2}), "
                       f"float(s{d - 1}))")
            return d - 1
        if op is Op.REM:
            w(ind, f"pc = {pc}")
            w(ind, f"if isinstance(s{d - 2}, int) and "
                   f"isinstance(s{d - 1}, int):")
            w(ind + 1, f"s{d - 2} = _irem(s{d - 2}, s{d - 1})")
            w(ind, "else:")
            w(ind + 1, f"s{d - 2} = _fmod(s{d - 2}, s{d - 1}) "
                       f"if s{d - 1} != 0 else _nan")
            return d - 1
        if op is Op.NEG:
            w(ind, f"s{d - 1} = -s{d - 1}")
            return d
        if op is Op.USHR:
            w(ind, f"s{d - 2} = (s{d - 2} & 0xFFFFFFFFFFFFFFFF) "
                   f">> s{d - 1}")
            return d - 1
        if op is Op.CMP:
            w(ind, f"s{d - 2} = 0 if s{d - 2} == s{d - 1} else "
                   f"(-1 if s{d - 2} < s{d - 1} else 1)")
            return d - 1
        if op is Op.I2D:
            w(ind, f"s{d - 1} = float(s{d - 1})")
            return d
        if op is Op.D2I:
            w(ind, f"s{d - 1} = 0 if _isnan(s{d - 1}) else int(s{d - 1})")
            return d
        if op is Op.CONCAT:
            w(ind, f"s{d - 2} = _jstr(s{d - 2}) + _jstr(s{d - 1})")
            return d - 1
        if op is Op.POP:
            return d - 1
        if op is Op.DUP:
            w(ind, f"s{d} = s{d - 1}")
            return d + 1
        if op is Op.DUP_X1:
            w(ind, f"s{d - 2}, s{d - 1}, s{d} = "
                   f"s{d - 1}, s{d - 2}, s{d - 1}")
            return d + 1
        if op is Op.SWAP:
            w(ind, f"s{d - 2}, s{d - 1} = s{d - 1}, s{d - 2}")
            return d
        if op is Op.NEW:
            w(ind, f"pc = {pc}")
            w(ind, f"s{d} = _new({instr.a!r})")
            return d + 1
        if op is Op.NEWARRAY:
            w(ind, f"pc = {pc}")
            w(ind, f"s{d - 1} = _newarr({instr.a!r}, s{d - 1})")
            return d
        if op is Op.ARRAYLENGTH:
            w(ind, f"pc = {pc}")
            w(ind, f"if s{d - 1} is None:")
            w(ind + 1, "raise _NPE('arraylength on null')")
            w(ind, f"s{d - 1} = len(s{d - 1})")
            return d
        if op is Op.GETFIELD:
            w(ind, f"pc = {pc}")
            w(ind, f"if s{d - 1} is None:")
            w(ind + 1, f"raise _NPE('getfield {instr.a}.{instr.b}')")
            self._emit_race(ind, pc, instr, f"s{d - 1}",
                            repr(instr.b), "False")
            w(ind, f"s{d - 1} = s{d - 1}.fields[{self._field_idx[pc]}]")
            return d
        if op is Op.PUTFIELD:
            w(ind, f"pc = {pc}")
            w(ind, f"if s{d - 2} is None:")
            w(ind + 1, f"raise _NPE('putfield {instr.a}.{instr.b}')")
            self._emit_race(ind, pc, instr, f"s{d - 2}",
                            repr(instr.b), "True")
            w(ind, f"s{d - 2}.fields[{self._field_idx[pc]}] = s{d - 1}")
            return d - 2
        if op is Op.ARRLOAD:
            w(ind, f"pc = {pc}")
            w(ind, f"if s{d - 2} is None:")
            w(ind + 1, "raise _NPE('arrload on null')")
            self._emit_race(ind, pc, instr, f"s{d - 2}", f"s{d - 1}",
                            "False")
            w(ind, f"s{d - 2} = s{d - 2}.get(s{d - 1})")
            return d - 1
        if op is Op.ARRSTORE:
            w(ind, f"pc = {pc}")
            w(ind, f"if s{d - 3} is None:")
            w(ind + 1, "raise _NPE('arrstore on null')")
            self._emit_race(ind, pc, instr, f"s{d - 3}", f"s{d - 2}",
                            "True")
            w(ind, f"s{d - 3}.set(s{d - 2}, s{d - 1})")
            return d - 3
        if op is Op.GETSTATIC:
            w(ind, f"s{d} = _classes[{instr.a!r}].statics[{instr.b!r}]")
            return d + 1
        if op is Op.PUTSTATIC:
            w(ind, f"_classes[{instr.a!r}].statics[{instr.b!r}] "
                   f"= s{d - 1}")
            return d - 1
        if op is Op.INSTANCEOF:
            w(ind, f"s{d - 1} = 1 if _isinst(s{d - 1}, {instr.a!r}) "
                   f"else 0")
            return d
        if op is Op.CHECKCAST:
            w(ind, f"pc = {pc}")
            w(ind, f"if s{d - 1} is not None and "
                   f"not _isinst(s{d - 1}, {instr.a!r}):")
            w(ind + 1, f"raise _CCE('%s -> {instr.a}' % getattr(s{d - 1}, "
                       f"'class_name', type(s{d - 1}).__name__))")
            return d
        raise CompileError(
            f"{self.method.klass}.{self.method.name} pc={pc}: "
            f"unhandled pure op {op.name}")

    def _emit_race(self, ind: int, pc: int, instr: Instr, ref: str,
                   slot: str, is_write: str) -> None:
        # Mirror the interpreter's race observer exactly: only when a
        # detector is installed and the access carries a check brand.
        if self._race is None or not instr.checked:
            return
        iname = self.const(instr, "I")
        self.w(ind, f"frame.pc = {pc}")
        self.w(ind, f"_race(thread, {ref}, {slot}, {is_write}, "
                    f"frame, {iname})")

    # -- control -------------------------------------------------------
    def _emit_control(self, ind: int, pc: int, instr: Instr,
                      d: int) -> Optional[int]:
        """Branch/return inside a run; None = the arm is finished."""
        op = instr.op
        w = self.w
        if op is Op.GOTO:
            w(ind, f"pc = {instr.a}")
            w(ind, "continue")
            return None
        if op is Op.IF:
            cond = instr.a
            if cond == "eq":
                w(ind, f"if s{d - 1} == 0 or s{d - 1} is None:")
            elif cond == "ne":
                w(ind, f"if not (s{d - 1} == 0 or s{d - 1} is None):")
            else:
                w(ind, f"pc = {pc}")
                w(ind, f"if s{d - 1} is None:")
                w(ind + 1, f"raise _NPE('ordered compare on null "
                           f"({cond})')")
                pyop = {"lt": "<", "ge": ">=", "gt": ">", "le": "<="}[cond]
                w(ind, f"if s{d - 1} {pyop} 0:")
            w(ind + 1, f"pc = {instr.b}")
            w(ind + 1, "continue")
            return d - 1
        if op is Op.IF_CMP:
            cond = instr.a
            if cond == "eq":
                w(ind, f"if _tcmp('eq', s{d - 2}, s{d - 1}):")
            elif cond == "ne":
                w(ind, f"if not _tcmp('eq', s{d - 2}, s{d - 1}):")
            else:
                pyop = {"lt": "<", "ge": ">=", "gt": ">", "le": "<="}[cond]
                w(ind, f"if s{d - 2} {pyop} s{d - 1}:")
            w(ind + 1, f"pc = {instr.b}")
            w(ind + 1, "continue")
            return d - 2
        if op in (Op.RETURN, Op.RETVAL):
            val = f"s{d - 1}" if op is Op.RETVAL else "None"
            w(ind, "thread.frames.pop()")
            w(ind, "if not thread.frames:")
            w(ind + 1, f"thread.finish({val})")
            w(ind, "else:")
            w(ind + 1, "_c = thread.frames[-1]")
            w(ind + 1, "_c.pc += 1")
            if op is Op.RETVAL:
                w(ind + 1, f"_c.stack.append(s{d - 1})")
            self._drain(ind)
            self._flush_ret(ind, "8")
            return None
        raise CompileError(f"unhandled control op {op.name}")

    # -- specials ------------------------------------------------------
    def _emit_special(self, ind: int, pc: int, instr: Instr,
                      d: int) -> Optional[int]:
        """One blocking-capable op; returns depth after, None = arm ends."""
        op = instr.op
        if op is Op.DSM_READCHECK:
            return self._emit_readcheck(ind, pc, instr, d)
        if op is Op.DSM_WRITECHECK:
            return self._emit_writecheck(ind, pc, instr, d)
        if op is Op.DSM_STATICREF:
            return self._emit_staticref(ind, pc, instr, d)
        if op is Op.DSM_ACQUIRE:
            return self._emit_acquire(ind, pc, instr, d)
        if op is Op.DSM_RELEASE:
            return self._emit_release(ind, pc, instr, d)
        if op is Op.MONITORENTER:
            return self._emit_monitorenter(ind, pc, instr, d)
        if op is Op.MONITOREXIT:
            return self._emit_monitorexit(ind, pc, instr, d)
        if op in (Op.INVOKEVIRTUAL, Op.INVOKESTATIC, Op.INVOKESPECIAL):
            return self._emit_invoke(ind, pc, instr, d)
        raise CompileError(f"unhandled special {op.name}")

    def _emit_readcheck(self, ind, pc, instr, d):
        w = self.w
        self._guard_special(ind, pc, d)
        a = instr.a
        w(ind, f"pc = {pc}")
        w(ind, f"frame.pc = {pc}")
        w(ind, f"_r = s{d - 1 - a}")
        w(ind, "if _r is None:")
        w(ind + 1, "raise _NPE('read check on null')")
        idx = (f"(s{d - a} if isinstance(_r, _Arr) else None)"
               if a >= 1 else "None")
        w(ind, f"_ok, _x = _readcheck(thread, _r, {idx})")
        cost = self._cost(instr)
        w(ind, f"used += {cost} + _x" if cost else "used += _x")
        w(ind, "icount += 1")
        self._drain(ind)
        w(ind, "if not _ok:")
        self._sync(ind + 1, pc, d, set_pc=False)
        w(ind + 1, "thread.block(reexec=True, reason='read miss')")
        self._flush_ret(ind + 1, "1")
        return d

    def _emit_writecheck(self, ind, pc, instr, d):
        w = self.w
        self._guard_special(ind, pc, d)
        a = instr.a
        w(ind, f"pc = {pc}")
        w(ind, f"frame.pc = {pc}")
        w(ind, f"_r = s{d - 1 - a}")
        w(ind, "if _r is None:")
        w(ind + 1, "raise _NPE('write check on null')")
        val = f"s{d - 1 - instr.b}" if instr.b is not None else "None"
        idx = (f"(s{d - a} if isinstance(_r, _Arr) else None)"
               if a >= 2 else "None")
        w(ind, f"_ok, _x = _writecheck(thread, _r, {val}, {idx})")
        cost = self._cost(instr)
        w(ind, f"used += {cost} + _x" if cost else "used += _x")
        w(ind, "icount += 1")
        self._drain(ind)
        w(ind, "if not _ok:")
        self._sync(ind + 1, pc, d, set_pc=False)
        w(ind + 1, "thread.block(reexec=True, reason='write miss')")
        self._flush_ret(ind + 1, "2")
        return d

    def _emit_staticref(self, ind, pc, instr, d):
        w = self.w
        self._guard_special(ind, pc, d)
        w(ind, f"pc = {pc}")
        w(ind, f"frame.pc = {pc}")
        w(ind, f"_r, _x = _staticref(thread, {instr.a!r})")
        cost = self._cost(instr)
        w(ind, f"used += {cost} + _x" if cost else "used += _x")
        w(ind, "icount += 1")
        self._drain(ind)
        w(ind, "if _r is None:")
        self._sync(ind + 1, pc, d, set_pc=False)
        w(ind + 1, "thread.block(reexec=True, "
                   "reason='static holder miss')")
        self._flush_ret(ind + 1, "3")
        w(ind, f"s{d} = _r")
        return d + 1

    def _emit_acquire(self, ind, pc, instr, d):
        w = self.w
        self._guard_special(ind, pc, d)
        w(ind, f"pc = {pc}")
        w(ind, f"_r = s{d - 1}")
        w(ind, "if _r is None:")
        w(ind + 1, "raise _NPE('acquire on null')")
        cost = self._cost(instr)
        ll = self.jvm.cost_model[cm.LOCAL_LOCK_OP]
        if self._lock_opt:
            # §4.4 inline fast path: uncontended local lock, no hook
            # call at all — the exact happy path of DsmEngine.acquire.
            w(ind, "_h = _r.header")
            w(ind, "if _h is not None and _h.state == _LOCAL and "
                   "(_h.lock_owner is None or _h.lock_owner is thread):")
            w(ind + 1, "_h.lock_owner = thread")
            w(ind + 1, "_h.lock_count += 1")
            w(ind + 1, "_stats.local_acquires += 1")
            if self._dsm_race:
                w(ind + 1, "_race_la(thread, _h)")
            w(ind + 1, f"used += {cost + ll}")
            w(ind, "else:")
            self._emit_acquire_slow(ind + 1, pc, d, cost)
        else:
            self._emit_acquire_slow(ind, pc, d, cost)
        w(ind, "icount += 1")
        self._drain(ind)
        return d - 1

    def _emit_acquire_slow(self, ind, pc, d, cost):
        w = self.w
        # Complete-style block: the ref is popped before the hook runs,
        # and the waker advances the pc past the instruction.
        self.w(ind, f"frame.pc = {pc}")
        if d - 1:
            regs = ", ".join(f"s{i}" for i in range(d - 1))
            tail = "," if d - 1 == 1 else ""
            w(ind, f"st[:] = ({regs}{tail})")
        else:
            w(ind, "del st[:]")
        for slot in sorted(self.ana.mutated_locals):
            w(ind, f"fl[{slot}] = l{slot}")
        w(ind, "_ok, _x = _acquire(thread, _r)")
        w(ind, f"used += {cost} + _x" if cost else "used += _x")
        w(ind, "if not _ok:")
        w(ind + 1, "thread.block(reexec=False, reason='lock acquire')")
        w(ind + 1, "icount += 1")
        self._drain(ind + 1)
        self._flush_ret(ind + 1, "4")

    def _emit_release(self, ind, pc, instr, d):
        w = self.w
        self._guard_special(ind, pc, d)
        w(ind, f"pc = {pc}")
        w(ind, f"_r = s{d - 1}")
        w(ind, "if _r is None:")
        w(ind + 1, "raise _NPE('release on null')")
        cost = self._cost(instr)
        ll = self.jvm.cost_model[cm.LOCAL_LOCK_OP]
        if self._lock_opt:
            w(ind, "_h = _r.header")
            w(ind, "if _h is not None and _h.state == _LOCAL and "
                   "_h.lock_owner is thread and _h.lock_count > 0:")
            w(ind + 1, "_h.lock_count -= 1")
            w(ind + 1, "if _h.lock_count == 0:")
            w(ind + 2, "_h.lock_owner = None")
            if self._dsm_race:
                w(ind + 2, "_race_lr(thread, _h)")
            w(ind + 1, f"used += {cost + ll}")
            w(ind, "else:")
            self._emit_release_slow(ind + 1, pc, d, cost)
        else:
            self._emit_release_slow(ind, pc, d, cost)
        w(ind, "icount += 1")
        self._drain(ind)
        return d - 1

    def _emit_release_slow(self, ind, pc, d, cost):
        w = self.w
        self.w(ind, f"frame.pc = {pc}")
        if d - 1:
            regs = ", ".join(f"s{i}" for i in range(d - 1))
            tail = "," if d - 1 == 1 else ""
            w(ind, f"st[:] = ({regs}{tail})")
        else:
            w(ind, "del st[:]")
        for slot in sorted(self.ana.mutated_locals):
            w(ind, f"fl[{slot}] = l{slot}")
        w(ind, "_x = _release(thread, _r)")
        w(ind, f"used += {cost} + _x" if cost else "used += _x")

    def _emit_monitorenter(self, ind, pc, instr, d):
        w = self.w
        self._guard_special(ind, pc, d)
        w(ind, f"pc = {pc}")
        w(ind, f"_r = s{d - 1}")
        w(ind, "if _r is None:")
        w(ind + 1, "raise _NPE('monitorenter on null')")
        self._sync(ind, pc, d - 1)
        w(ind, f"used += {self._cost(instr)}")
        w(ind, "icount += 1")
        self._drain(ind)
        w(ind, "if not _menter(thread, _r):")
        w(ind + 1, "thread.block(reexec=False, reason='monitor enter')")
        self._flush_ret(ind + 1, "5")
        return d - 1

    def _emit_monitorexit(self, ind, pc, instr, d):
        w = self.w
        self._guard_special(ind, pc, d)
        w(ind, f"pc = {pc}")
        w(ind, f"_r = s{d - 1}")
        w(ind, "if _r is None:")
        w(ind + 1, "raise _NPE('monitorexit on null')")
        w(ind, "_mexit(thread, _r)")
        w(ind, f"used += {self._cost(instr)}")
        w(ind, "icount += 1")
        self._drain(ind)
        return d - 1

    # -- invokes -------------------------------------------------------
    def _emit_invoke(self, ind, pc, instr, d):
        static_m = self.ana.invoke_targets[pc]
        n = static_m.nargs
        base = self._cost(instr)
        self._guard_special(ind, pc, d)
        w = self.w
        if instr.op is Op.INVOKEVIRTUAL:
            p = len(static_m.params)
            w(ind, f"_rcv = s{d - 1 - p}")
            w(ind, "if _rcv is None:")
            w(ind + 1, f"pc = {pc}")
            w(ind + 1, f"raise _NPE('invoke {instr.a}.{instr.b} "
                       f"on null')")
            w(ind, f"pc = {pc}")
            w(ind, "if isinstance(_rcv, str):")
            w(ind + 1, f"_t = _resolve({self.jvm.string_class!r}, "
                       f"{instr.b!r})")
            w(ind, "elif isinstance(_rcv, _Arr):")
            w(ind + 1, f"_t = _resolve({self.jvm.object_class!r}, "
                       f"{instr.b!r})")
            w(ind, "else:")
            w(ind + 1, f"_t = _rcv.rtclass.vtable.get({instr.b!r})")
            w(ind + 1, "if _t is None:")
            w(ind + 2, f"_t = _resolve({instr.a!r}, {instr.b!r})")
            w(ind, "if _t.is_native:")
            self._emit_native(ind + 1, pc, d, n, static_m, base,
                              pure=False)
            w(ind, "else:")
            self._emit_direct_call(ind + 1, pc, d, n, static_m, base)
            return d - n + (0 if static_m.ret == "void" else 1)
        # INVOKESTATIC / INVOKESPECIAL: target known at compile time.
        tname = self.const(static_m, "M")
        w(ind, f"pc = {pc}")
        w(ind, f"_t = {tname}")
        if static_m.is_native:
            self._emit_native(ind, pc, d, n, static_m, base,
                              pure=_is_pure_native(static_m))
        else:
            self._emit_direct_call(ind, pc, d, n, static_m, base)
        return d - n + (0 if static_m.ret == "void" else 1)

    def _args(self, d: int, n: int) -> str:
        return "[" + ", ".join(f"s{i}" for i in range(d - n, d)) + "]"

    def _emit_native(self, ind, pc, d, n, static_m, base, pure):
        w = self.w
        cost = base + self.jvm.cost_model[cm.NATIVE]
        if not pure:
            # Materialize the frame first: a blocking native's waker
            # pushes the result onto the *real* stack via complete().
            self._sync(ind, pc, d - n)
        w(ind, "_nat = _t.native_cache")
        w(ind, "if _nat is None:")
        w(ind + 1, "_nat = _native(_t.klass, _t.name)")
        w(ind + 1, "_t.native_cache = _nat")
        w(ind, f"_res = _nat(_jvm, thread, {self._args(d, n)})")
        w(ind, f"used += {cost}")
        w(ind, "icount += 1")
        self._drain(ind)
        if pure:
            # Whitelisted: never blocks, never void — two identity
            # tests guard the contract without frame materialization.
            w(ind, "if _res is _BLK or _res is _NOV:")
            w(ind + 1, "raise RuntimeError('jit: pure native %s.%s "
                       "misbehaved' % (_t.klass, _t.name))")
            w(ind, f"s{d - n} = _res")
            return
        w(ind, "if _res is _BLK:")
        w(ind + 1, "thread.block(reexec=False, "
                   "reason='native ' + _t.name)")
        self._flush_ret(ind + 1, "6")
        if static_m.ret == "void":
            w(ind, "if _res is not _NOV:")
            w(ind + 1, "raise RuntimeError('jit: void native %s.%s "
                       "returned a value' % (_t.klass, _t.name))")
        else:
            w(ind, "if _res is _NOV:")
            w(ind + 1, "raise _JVME('native %s.%s returned no value' "
                       "% (_t.klass, _t.name))")
            w(ind, f"s{d - n} = _res")

    def _emit_direct_call(self, ind, pc, d, n, static_m, base):
        w = self.w
        w(ind, "_f = _CACHE.get(id(_t))")
        w(ind, f"if _f is None or _f is False or depth > "
               f"{_MAX_CALL_DEPTH}:")
        # R_CALL: nothing charged, nothing popped — the manager's one
        # forced interpreter step re-executes the whole invoke exactly.
        self._sync(ind + 1, pc, d)
        self._flush_ret(ind + 1, "7")
        self._sync(ind, pc, d - n)
        w(ind, f"used += {base}")
        w(ind, "icount += 1")
        w(ind, f"_nf = _Frame(_t, {self._args(d, n)})")
        w(ind, "thread.frames.append(_nf)")
        w(ind, "_cu, _cr = _f(thread, _nf, budget - used, depth + 1)")
        w(ind, "used += _cu")
        w(ind, "if _cr != 8 or thread.state is not _RUN or "
               "not thread.frames or thread.frames[-1] is not frame:")
        self._flush_ret(ind + 1, "_cr")
        if static_m.ret != "void":
            # The callee's inline return pushed the value onto our
            # materialized stack and advanced frame.pc past the invoke.
            w(ind, f"s{d - n} = st.pop()")


def compile_method(method: MethodInfo, agent):
    """Compile one method for one worker's JVM; raises CompileError."""
    return _Emitter(method, agent).compile()
