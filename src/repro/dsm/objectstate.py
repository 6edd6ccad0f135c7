"""Per-object DSM headers.

The paper's rewriter augments the top of each instrumented inheritance
tree with synthetic fields — ``__javasplit__state``,
``__javasplit__version``, ``__javasplit__locking_status``,
``__javasplit__global_id`` (Figure 2).  Our heap objects carry the same
information in a ``header`` slot (see :mod:`repro.jvm.heap` for why this
is equivalent); the access-check fast path reads ``header.state``.

States:

* ``LOCAL`` — never escaped its creating thread/node; not registered
  with the DSM.  Checks fall through; locking uses the §4.4 counter.
* ``HOME`` — this replica *is* the master copy (the node is the
  object's home).  Always valid.
* ``VALID`` — cached copy consistent with the required version.
* ``INVALID`` — cached copy invalidated by a write notice (or a fresh
  stub); the next access faults and fetches from home.
"""

from __future__ import annotations

import enum
from typing import Any, Optional


class ObjState(enum.IntEnum):
    LOCAL = 0
    HOME = 1
    VALID = 2
    INVALID = 3


# Bound once: on Python 3.10/3.11 ``EnumType.__getattr__`` sends every
# ``ObjState.X`` read through a slow attribute hook.  The access checks,
# acquire/release and the protocol handlers test these; keep them.
LOCAL, HOME, VALID, INVALID = (
    ObjState.LOCAL, ObjState.HOME, ObjState.VALID, ObjState.INVALID)


class DSMHeader:
    """DSM bookkeeping attached to every heap object in rewritten code."""

    __slots__ = (
        "state", "gid", "version", "twin", "lock_count", "lock_owner",
        "class_name", "race",
    )

    def __init__(self, class_name: str) -> None:
        self.state = LOCAL
        self.gid = 0                     # 0 = no global id yet (local)
        self.version = 0                 # scalar timestamp of this replica
        self.twin: Any = None            # pre-write copy (multiple-writer)
        # §4.4 local-object lock counter + owning thread.
        self.lock_count = 0
        self.lock_owner: Any = None
        self.class_name = class_name
        # Race-detector state for LOCAL objects (repro.race); None unless
        # the detector is enabled and the object has been observed.
        self.race: Any = None

    @property
    def is_local(self) -> bool:
        return self.state == LOCAL

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DSMHeader({self.class_name}, {self.state.name}, gid={self.gid:#x},"
            f" v={self.version})"
        )


def attach_header(obj: Any) -> DSMHeader:
    """Attach (or return the existing) DSM header of a heap object."""
    hdr = obj.header
    if hdr is None:
        hdr = DSMHeader(obj.class_name)
        obj.header = hdr
    return hdr


def header_of(obj: Any) -> Optional[DSMHeader]:
    return obj.header
