"""Structural guard: the per-bytecode and per-access paths read no enum
class attributes.

On Python 3.10/3.11 ``EnumType`` defines ``__getattr__``, so every
``Op.X`` / ``ObjState.X`` / ``StreamState.X`` read goes through the slow
attribute hook (several times a module-global read).  The hot paths
compare against module aliases bound once at import instead; this test
reads their bytecode and fails if someone folds an alias back into an
enum attribute read.  No timing involved.
"""

from __future__ import annotations

import dis
import types

import pytest

from repro.dsm.objectstate import DSMHeader
from repro.dsm.protocol import DsmEngine
from repro.jit.manager import JitAgent
from repro.jvm.bytecode import Op
from repro.jvm.interpreter import Interpreter
from repro.jvm.jvm import JThread
from repro.sim.node import Node

ENUMS = frozenset({"Op", "ObjState", "StreamState"})

HOT_PATHS = {
    "Interpreter.run": Interpreter.run,
    "Interpreter._execute": Interpreter._execute,
    "Interpreter.step": Interpreter.step,
    "JThread.run_quantum": JThread.run_quantum,
    "JitAgent.run_quantum": JitAgent.run_quantum,
    "JitAgent._run_quantum_timed": JitAgent._run_quantum_timed,
    "DsmEngine.read_check": DsmEngine.read_check,
    "DsmEngine.write_check": DsmEngine.write_check,
    "DsmEngine._region_read_check": DsmEngine._region_read_check,
    "DsmEngine._region_write_check": DsmEngine._region_write_check,
    "DsmEngine.acquire": DsmEngine.acquire,
    "DsmEngine.release": DsmEngine.release,
    "DSMHeader.is_local": DSMHeader.is_local.fget,
    "Node._cpu_loop": Node._cpu_loop,
}


def enum_attribute_reads(fn) -> list:
    """``Enum.MEMBER`` reads in ``fn`` and its nested code objects: a
    ``LOAD_GLOBAL``/``LOAD_DEREF`` of an enum class followed directly by
    an attribute load."""
    found = []
    pending = [fn.__code__]
    while pending:
        code = pending.pop()
        instrs = list(dis.get_instructions(code))
        for load, attr in zip(instrs, instrs[1:]):
            if (load.opname in ("LOAD_GLOBAL", "LOAD_DEREF")
                    and load.argval in ENUMS
                    and attr.opname in ("LOAD_ATTR", "LOAD_METHOD")):
                found.append(f"{load.argval}.{attr.argval}")
        pending.extend(c for c in code.co_consts
                       if isinstance(c, types.CodeType))
    return found


@pytest.mark.parametrize("name", sorted(HOT_PATHS))
def test_hot_path_reads_no_enum_attributes(name):
    assert enum_attribute_reads(HOT_PATHS[name]) == []


def _reads_op_global():
    return Op.ADD


def _reads_op_closure():
    from repro.sim.node import StreamState

    def inner():
        return StreamState.RUNNABLE
    return inner


def test_guard_detects_enum_reads():
    """The detector itself can fail: globals, closures, nested code."""
    assert enum_attribute_reads(_reads_op_global) == ["Op.ADD"]
    assert enum_attribute_reads(_reads_op_closure) == [
        "StreamState.RUNNABLE"]
