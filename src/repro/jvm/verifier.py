"""Lightweight structural bytecode verifier.

Catches compiler/rewriter bugs at class-load time rather than as weird
interpreter states: branch targets in range, consistent operand-stack
depths along all paths, no stack underflow, local indices in bounds, no
fall-off-the-end, and DSM pseudo-instructions only in instrumented
classes.

Method references are resolved through a class-file dictionary (arity is
needed for invoke stack effects); unresolvable references are an error —
a rewritten class referring to an un-rewritten one is exactly the kind of
bug this exists to catch.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from .bytecode import BRANCHES, CONDITIONS, DSM_OPS, TERMINATORS, Instr, Op
from .classfile import ClassFile, MethodInfo
from .errors import ClassFormatError

# Stack effect of every non-invoke opcode (invokes depend on the resolved
# method's arity).  The JIT's depth analysis reuses this table.
STACK_DELTA = {
    Op.CONST: 1, Op.LOAD: 1, Op.STORE: -1, Op.IINC: 0,
    Op.ADD: -1, Op.SUB: -1, Op.MUL: -1, Op.DIV: -1, Op.REM: -1,
    Op.NEG: 0, Op.SHL: -1, Op.SHR: -1, Op.USHR: -1,
    Op.AND: -1, Op.OR: -1, Op.XOR: -1, Op.CMP: -1,
    Op.I2D: 0, Op.D2I: 0, Op.CONCAT: -1,
    Op.POP: -1, Op.DUP: 1, Op.DUP_X1: 1, Op.SWAP: 0,
    Op.GOTO: 0, Op.IF: -1, Op.IF_CMP: -2,
    Op.NEW: 1, Op.GETFIELD: 0, Op.PUTFIELD: -2,
    Op.GETSTATIC: 1, Op.PUTSTATIC: -1,
    Op.INSTANCEOF: 0, Op.CHECKCAST: 0,
    Op.RETURN: 0, Op.RETVAL: -1,
    Op.NEWARRAY: 0, Op.ARRLOAD: -1, Op.ARRSTORE: -3, Op.ARRAYLENGTH: 0,
    Op.MONITORENTER: -1, Op.MONITOREXIT: -1,
    Op.DSM_READCHECK: 0, Op.DSM_WRITECHECK: 0,
    Op.DSM_ACQUIRE: -1, Op.DSM_RELEASE: -1, Op.DSM_STATICREF: 1,
}

_MIN_DEPTH = {
    # Minimum stack depth required *before* the instruction executes.
    Op.STORE: 1, Op.ADD: 2, Op.SUB: 2, Op.MUL: 2, Op.DIV: 2, Op.REM: 2,
    Op.NEG: 1, Op.SHL: 2, Op.SHR: 2, Op.USHR: 2, Op.AND: 2, Op.OR: 2,
    Op.XOR: 2, Op.CMP: 2, Op.I2D: 1, Op.D2I: 1, Op.CONCAT: 2,
    Op.POP: 1, Op.DUP: 1, Op.DUP_X1: 2, Op.SWAP: 2,
    Op.IF: 1, Op.IF_CMP: 2,
    Op.GETFIELD: 1, Op.PUTFIELD: 2, Op.PUTSTATIC: 1,
    Op.INSTANCEOF: 1, Op.CHECKCAST: 1, Op.RETVAL: 1,
    Op.NEWARRAY: 1, Op.ARRLOAD: 2, Op.ARRSTORE: 3, Op.ARRAYLENGTH: 1,
    Op.MONITORENTER: 1, Op.MONITOREXIT: 1,
    Op.DSM_ACQUIRE: 1, Op.DSM_RELEASE: 1,
}

INVOKES = (Op.INVOKEVIRTUAL, Op.INVOKESTATIC, Op.INVOKESPECIAL)


class Verifier:
    """Verifies class files against a resolution context."""

    def __init__(self, classfiles: Dict[str, ClassFile]) -> None:
        self._classfiles = classfiles

    # ------------------------------------------------------------------
    def verify_all(self) -> None:
        """Verify every class in the table."""
        for cf in self._classfiles.values():
            self.verify_class(cf)

    def verify_class(self, cf: ClassFile) -> None:
        """Verify all non-native methods of one class."""
        for method in cf.methods.values():
            if not method.is_native:
                self.verify_method(cf, method)

    # ------------------------------------------------------------------
    def _resolve_method(self, class_name: str, method_name: str) -> MethodInfo:
        """Walk the superclass chain in the class-file dictionary."""
        current: Optional[str] = class_name
        while current is not None:
            cf = self._classfiles.get(current)
            if cf is None:
                raise ClassFormatError(
                    f"reference to unknown class {current!r} "
                    f"(resolving {class_name}.{method_name})"
                )
            m = cf.methods.get(method_name)
            if m is not None:
                return m
            current = cf.super_name
        raise ClassFormatError(f"no method {class_name}.{method_name}")

    def _invoke_delta(self, instr: Instr) -> tuple[int, int]:
        m = self._resolve_method(instr.a, instr.b)
        pops = m.nargs
        pushes = 0 if m.ret == "void" else 1
        return pops, pushes

    # ------------------------------------------------------------------
    def verify_method(self, cf: ClassFile, method: MethodInfo) -> None:
        """Verify one method: branches, stack depths, locals, DSM ops."""
        code = method.code
        where = f"{cf.name}.{method.name}"
        if not code:
            raise ClassFormatError(f"{where}: empty code")
        n = len(code)
        if code[-1].op not in TERMINATORS:
            raise ClassFormatError(f"{where}: can fall off the end of code")

        # Per-pc stack depth, propagated over all paths.
        depth_at: list[Optional[int]] = [None] * n
        depth_at[0] = 0
        worklist = [0]
        while worklist:
            pc = worklist.pop()
            depth = depth_at[pc]
            assert depth is not None
            instr = code[pc]
            op = instr.op

            if op in DSM_OPS and not cf.instrumented:
                raise ClassFormatError(
                    f"{where} pc={pc}: DSM opcode {op.name} in an "
                    f"un-instrumented class"
                )
            if op in (Op.LOAD, Op.STORE, Op.IINC):
                if not isinstance(instr.a, int) or not (
                    0 <= instr.a < method.max_locals
                ):
                    raise ClassFormatError(
                        f"{where} pc={pc}: local index {instr.a!r} out of "
                        f"range (max_locals={method.max_locals})"
                    )
            if op in (Op.IF, Op.IF_CMP) and instr.a not in CONDITIONS:
                raise ClassFormatError(
                    f"{where} pc={pc}: bad condition {instr.a!r}"
                )
            if op in (Op.DSM_READCHECK, Op.DSM_WRITECHECK):
                if not isinstance(instr.a, int) or instr.a < 0 or depth <= instr.a:
                    raise ClassFormatError(
                        f"{where} pc={pc}: check depth {instr.a!r} exceeds "
                        f"stack depth {depth}"
                    )

            if op in INVOKES:
                pops, pushes = self._invoke_delta(instr)
                if depth < pops:
                    raise ClassFormatError(
                        f"{where} pc={pc}: stack underflow invoking "
                        f"{instr.a}.{instr.b} (depth {depth}, needs {pops})"
                    )
                new_depth = depth - pops + pushes
            else:
                need = _MIN_DEPTH.get(op, 0)
                if depth < need:
                    raise ClassFormatError(
                        f"{where} pc={pc}: stack underflow at {op.name} "
                        f"(depth {depth}, needs {need})"
                    )
                new_depth = depth + STACK_DELTA[op]

            # Successors
            succs = []
            if op in BRANCHES:
                target = instr.a if op is Op.GOTO else instr.b
                if not isinstance(target, int) or not (0 <= target < n):
                    raise ClassFormatError(
                        f"{where} pc={pc}: branch target {target!r} out of "
                        f"range"
                    )
                succs.append(target)
            if op not in TERMINATORS:
                succs.append(pc + 1)

            for s in succs:
                if depth_at[s] is None:
                    depth_at[s] = new_depth
                    worklist.append(s)
                elif depth_at[s] != new_depth:
                    raise ClassFormatError(
                        f"{where} pc={s}: inconsistent stack depth "
                        f"({depth_at[s]} vs {new_depth} arriving from pc "
                        f"{pc})"
                    )


def verify_classfiles(classfiles: Iterable[ClassFile]) -> None:
    """Verify a self-contained batch of class files."""
    table = {cf.name: cf for cf in classfiles}
    Verifier(table).verify_all()
