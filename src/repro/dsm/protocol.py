"""The MTS-HLRC protocol engine (§3).

One :class:`DsmEngine` per node.  It plays three roles at once:

1. **JVM hooks** — the DSM pseudo-instructions of rewritten bytecode
   land here: access checks (read/write miss handling), acquire/release
   (distributed monitors), static-holder resolution, allocation headers,
   thread spawn, wait/notify.
2. **Home node** — serves fetches from the master copies it hosts,
   applies incoming diffs (bumping per-object scalar versions), routes
   lock requests to current owners.
3. **Cache** — maintains replicas, twins, the write-notice table, and
   the per-node lock states.

Protocol summary (scalar-timestamp MTS-HLRC, the default):

* read miss  → FETCH_REQ to home → FETCH_REPLY(data, version); whole
  object granularity.
* first write after validation → twin; release → diffs batched per home
  → DIFF → DIFF_ACK(new versions) → write notices.
* lock transfer to a *remote* requester waits until *all* of this
  node's outstanding diffs are acknowledged (the scalar-timestamp fence
  of §3.1); the token then carries the notice **delta** relative to what
  it already delivered (bounded per-CU notices, §3.1), plus the request
  and wait queues (§3.2), so wait/notify stay communication-free.

The vector-timestamp baseline mode (``timestamp_mode="vector"``,
classic HLRC) skips the fence: notices name (writer, interval) pairs,
fetches carry the required vector and homes defer replies until the
required intervals have been applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..jvm.heap import ArrayObj, Obj
from ..jvm.interpreter import NO_VALUE
from ..jvm.jvm import JThread, JVM
from ..net.message import (HEADER_BYTES, M_LOC_BULK_REPLY, OBS_SPAN_KEY,
                           Message, estimate_size)
from ..net.message import (  # canonical registry lives with the codec
    M_CONSOLE, M_DIFF, M_DIFF_ACK, M_FETCH_REPLY, M_FETCH_REQ,
    M_FT_REDIFF, M_FT_REDIFF_ACK, M_LOCK_FWD, M_LOCK_REQ, M_OWNER_UPDATE,
    M_SPAWN, M_TOKEN)
from ..net.transport import Transport
from ..sim import cost_model as cm
from .diffs import (
    apply_diff,
    apply_region_diff,
    compute_diff,
    compute_region_diff,
    deserialize_region,
    make_region_twin,
    make_twin,
    serialize_region,
)
from .directory import ClassIdRegistry, GidAllocator, HomeDirectory, home_of
from .locks import LockRequest, LockToken, NodeLockState
from .objectstate import (HOME, INVALID, LOCAL, VALID, DSMHeader, ObjState,
                          attach_header)
from .serialization import ClassSpec, deserialize_any, serialize_any
from .write_notices import MODE_BOUNDED, Notice, NoticeTable

SCALAR = "scalar"
VECTOR = "vector"


class ProtocolError(RuntimeError):
    """A DSM invariant was violated (always a bug, never data)."""
    pass


@dataclass
class DsmConfig:
    """Protocol configuration: timestamp mode, notice storage, the local-lock fast path, and the array-region extension."""
    timestamp_mode: str = SCALAR          # 'scalar' (MTS-HLRC) | 'vector' (HLRC)
    notice_mode: str = MODE_BOUNDED       # 'bounded' | 'full' (A2 ablation)
    local_lock_opt: bool = True           # §4.4 lock-counter fast path
    # §4.3 extension: arrays longer than this many elements become
    # multiple coherency units of this region size (None = paper default,
    # one CU per array).
    array_region_elems: Optional[int] = None


@dataclass
class RegionInfo:
    """Per-node region bookkeeping for one region-granular array."""

    elems: int
    states: List[ObjState]
    versions: List[int]
    twins: Dict[int, list] = field(default_factory=dict)
    length_known: bool = True

    @property
    def n_regions(self) -> int:
        """Number of regions in the array."""
        return len(self.states)

    def bounds(self, region: int, total_len: int) -> Tuple[int, int]:
        """Element range [lo, hi) of one region."""
        lo = region * self.elems
        return lo, min(lo + self.elems, total_len)

    def region_of(self, index: int) -> int:
        """Region index containing an element index."""
        return index // self.elems


@dataclass
class DsmStats:
    """Per-node protocol counters, aggregated into run reports."""
    fetches: int = 0
    fetch_bytes: int = 0
    diffs_sent: int = 0
    diff_bytes: int = 0
    lock_requests: int = 0
    token_transfers: int = 0
    invalidations: int = 0
    promotions: int = 0
    local_acquires: int = 0
    shared_acquires: int = 0
    fence_waits: int = 0
    deferred_fetches: int = 0
    region_fetches: int = 0
    # ----- adaptive locality (src/repro/locality) ---------------------
    migrations_out: int = 0     # units this home granted away
    migrations_in: int = 0      # units this node became home of
    fwd_diffs: int = 0          # diff entries forwarded by an old home
    home_forwards: int = 0      # fetch/lock/owner messages re-routed
    prefetch_bulk: int = 0      # bulk-fetch messages issued
    prefetch_units: int = 0     # units installed from bulk replies
    prefetch_hits: int = 0      # demand fetches satisfied by a prefetch
    agg_frames: int = 0         # aggregate frames sent
    agg_subframes: int = 0      # logical messages carried inside them
    # ----- adaptive coherence policies (src/repro/policy) -------------
    pol_promotions: int = 0     # units promoted to a policy (home side)
    pol_demotions: int = 0      # units demoted back to invalidate
    pol_pushes: int = 0         # write-update unit copies pushed
    pol_push_installs: int = 0  # pushed copies installed by a reader
    pol_bcasts: int = 0         # read-mostly broadcast copies sent
    pol_bcast_installs: int = 0  # broadcast copies installed
    pol_grants: int = 0         # migratory ownership grants sent
    pol_grant_installs: int = 0  # migratory grants installed


@dataclass
class ThreadDsm:
    """Per-thread DSM state: the local interval counter."""

    interval: int = 0


class DsmEngine:
    """Per-node DSM: JVM hooks + protocol message handlers."""

    def __init__(
        self,
        jvm: JVM,
        transport: Transport,
        specs: Dict[str, ClassSpec],
        class_registry: ClassIdRegistry,
        config: Optional[DsmConfig] = None,
        choose_spawn_node: Optional[Callable[[], int]] = None,
        static_gids: Optional[Dict[str, Tuple[int, str]]] = None,
        console: Optional[List[str]] = None,
        master_node: int = 0,
    ) -> None:
        self.jvm = jvm
        self.node_id = transport.node_id
        self.transport = transport
        self.engine = jvm.node.engine
        self.cost_model = jvm.cost_model
        self.specs = specs
        self.registry = class_registry
        self.config = config or DsmConfig()
        self.choose_spawn_node = choose_spawn_node or (lambda: self.node_id)
        # class_name -> (gid, holder_class_name) for C_static holders
        self.static_gids = static_gids or {}
        self.console = console if console is not None else []
        self.master_node = master_node
        self.stats = DsmStats()

        # Optional runtime callback: a shipped thread began on this node
        # (used by the load balancer to retire in-flight placements).
        self.on_spawn_arrival: Optional[Callable[[int], None]] = None

        self.gids = GidAllocator(self.node_id)
        self.cache: Dict[int, Any] = {}
        # §4.3 extension: gid -> RegionInfo for region-granular arrays.
        self._regions: Dict[int, "RegionInfo"] = {}
        self.notice_table = NoticeTable(self.config.notice_mode)
        self.lock_states: Dict[int, NodeLockState] = {}
        self.lock_owner: Dict[int, int] = {}     # home role: gid -> owner node
        # keyed (gid, region); region None = whole object
        self._fetch_waiters: Dict[Tuple[int, Optional[int]], List[JThread]] = {}
        self._dirty: Set[int] = set()            # gids of twinned replicas
        self._dirty_home: Set[int] = set()       # gids of home-written masters
        self._threads: Dict[int, JThread] = {}
        # Node-level flush sequence: tags diffs/notices in vector mode (a
        # per-node monotonic interval id shared by all local threads).
        self._flush_seq = 0
        # Scalar-mode fence: outstanding diff-flush acks + deferred sends.
        self._outstanding_acks = 0
        self._fence_queue: List[Callable[[], None]] = []
        self._next_ack_id = 0
        # Vector mode: home-side applied intervals + deferred fetches,
        # cache-side seen intervals.
        self._applied: Dict[int, Dict[int, int]] = {}
        self._deferred_fetch: Dict[int, List[Message]] = {}
        self._replica_vc: Dict[int, Dict[int, int]] = {}
        # ------------------------------------------------------------------
        # Fault tolerance (src/repro/ft).  All of this is inert unless an
        # FtNodeAgent is attached as ``self.ft``:
        #   _home_map        re-homing indirection: origin node -> adoptive
        #                    home (gids name their origin in the high bits;
        #                    after recovery the buddy serves them)
        #   _pending_diffs   ack_id -> (home, payload, size) of unacked
        #                    flushes, so recovery can redirect them
        #   _blocked_on      tid -> (gid, restore) while a thread is blocked
        #                    on a lock grant, so recovery can re-issue lost
        #                    requests and stale re-grants can be detected
        #   _ft_token_freeze recovery is scanning for live tokens; no token
        #                    may leave this node until it finishes
        self.ft: Optional[Any] = None
        # ------------------------------------------------------------------
        # Adaptive locality (src/repro/locality).  Inert unless a
        # LocalityAgent is attached as ``self.locality``:
        #   _loc_dir        per-gid home redirects for migrated units
        #                   (epoch-guarded; consulted by home_node)
        #   _fetch_targets  where each in-flight fetch was actually sent
        #                   (a migrated unit's fetch may not target
        #                   home_of(gid)), for failure-recovery reissue
        self.locality: Optional[Any] = None
        # ------------------------------------------------------------------
        # Data-race detection (src/repro/race).  Inert unless a RaceAgent
        # is attached as ``self.race``: the hooks below feed it the
        # happens-before edges (lock grant/release, spawn, promote) and
        # interval boundaries; access events come from the interpreter.
        self.race: Optional[Any] = None
        # ------------------------------------------------------------------
        # Adaptive coherence policies (src/repro/policy).  Inert unless
        # a PolicyAgent is attached as ``self.policy``: the hooks below
        # feed its sharing-pattern classifier (fetch serves, diff
        # applies, home advances) and carry its per-unit protocol
        # actions (update pushes, read-mostly broadcasts, migratory
        # grants riding diff acks and lock tokens).
        self.policy: Optional[Any] = None
        # ------------------------------------------------------------------
        # Telemetry (src/repro/obs).  Inert unless an ObsAgent is
        # attached as ``self.obs``: the hooks below mark transaction
        # boundaries (fetch/flush/lock spans), thread stalls, and — only
        # with spans enabled — piggyback span ids on protocol payloads.
        self.obs: Optional[Any] = None
        self._loc_dir = HomeDirectory()
        self._fetch_targets: Dict[Tuple[int, Optional[int]], int] = {}
        self._home_map: Dict[int, int] = {}
        self._pending_diffs: Dict[int, Tuple[int, Dict[str, Any], int]] = {}
        self._blocked_on: Dict[int, Tuple[int, int]] = {}
        self._ft_token_freeze = False
        self._ft_frozen_sends: List[Callable[[], None]] = []

        for mtype, handler in (
            (M_FETCH_REQ, self._on_fetch_req),
            (M_FETCH_REPLY, self._on_fetch_reply),
            (M_DIFF, self._on_diff),
            (M_DIFF_ACK, self._on_diff_ack),
            (M_LOCK_REQ, self._on_lock_req),
            (M_LOCK_FWD, self._on_lock_fwd),
            (M_TOKEN, self._on_token),
            (M_OWNER_UPDATE, self._on_owner_update),
            (M_SPAWN, self._on_spawn),
            (M_CONSOLE, self._on_console),
            (M_FT_REDIFF, self._on_ft_rediff),
            (M_FT_REDIFF_ACK, self._on_ft_rediff_ack),
        ):
            transport.on(mtype, handler)

    # ==================================================================
    # Home-table indirection (fault tolerance)
    # ==================================================================
    def home_node(self, gid: int) -> int:
        """Current home of a gid: its origin node unless the locality
        subsystem migrated the unit, or the home died and its coherency
        units were adopted by a buddy (the two compose: a migrated
        unit's new home can itself die and be re-homed)."""
        if self.locality is not None:
            redirected = self._loc_dir.get(gid)
            if redirected is not None:
                return self._home_map.get(redirected, redirected)
        home = home_of(gid)
        return self._home_map.get(home, home)

    def set_gid_home(self, gid: int, home: int, epoch: int) -> bool:
        """Install a per-gid home redirect (locality migration).  Epoch-
        guarded: stale news never rolls a newer mapping back."""
        return self._loc_dir.set(gid, home, epoch)

    # ==================================================================
    # Setup helpers
    # ==================================================================
    def install_static_holder(self, class_name: str, gid: int, holder_class: str) -> Any:
        """Create a C_static master copy on this (the master) node."""
        rtc = self.jvm.lookup(holder_class)
        obj = Obj(rtc)
        hdr = attach_header(obj)
        hdr.gid = gid
        hdr.state = HOME
        hdr.version = 1
        self.cache[gid] = obj
        self.lock_owner[gid] = self.node_id
        st = self._lock_state(gid)
        st.token = LockToken(gid)
        return obj

    def reserve_gids(self, count: int) -> None:
        """Skip gids that were pre-assigned (static holders on master)."""
        for _ in range(count):
            self.gids.allocate()

    def thread_dsm(self, thread: JThread) -> ThreadDsm:
        """Per-thread DSM state, created on first use."""
        if thread.dsm is None:
            thread.dsm = ThreadDsm()
        return thread.dsm

    # ==================================================================
    # Resolver protocol (serialization callbacks)
    # ==================================================================
    def gid_for(self, ref: Any) -> int:
        """Resolver hook: global id of a ref, promoting if needed."""
        gid = self.promote(ref)
        if self.ft is not None:
            # Lazy-replication publish point: the ref is about to cross
            # the wire, so a survivor may come to depend on it.
            self.ft.on_ref_serialized(gid)
        return gid

    def class_id_for(self, class_name: str) -> int:
        """Resolver hook: wire id for a class name."""
        return self.registry.class_id_for(class_name)

    def class_name_for(self, class_id: int) -> str:
        """Resolver hook: class name for a wire id."""
        return self.registry.class_name_for(class_id)

    def replica_for(self, gid: int, class_name: str) -> Any:
        """Resolver hook: local replica for a gid (INVALID stub if new)."""
        obj = self.cache.get(gid)
        if obj is not None:
            return obj
        if self.home_node(gid) == self.node_id:
            raise ProtocolError(
                f"node {self.node_id} is home of gid {gid:#x} but has no "
                f"master copy"
            )
        if class_name.endswith("[]"):
            obj = ArrayObj(class_name[:-2], 0)
        else:
            obj = Obj(self.jvm.lookup(class_name))
        hdr = attach_header(obj)
        hdr.gid = gid
        hdr.state = INVALID
        hdr.version = 0
        self.cache[gid] = obj
        return obj

    # ==================================================================
    # Promotion: local -> shared (§2)
    # ==================================================================
    def promote(self, ref: Any) -> int:
        """Local -> shared: assign a gid; this node becomes the home."""
        hdr = attach_header(ref)
        if hdr.gid:
            return hdr.gid
        gid = self.gids.allocate()
        hdr.gid = gid
        hdr.state = HOME
        hdr.version = 1
        self.cache[gid] = ref
        region_elems = self.config.array_region_elems
        if (
            region_elems is not None
            and isinstance(ref, ArrayObj)
            and len(ref.data) > region_elems
        ):
            n = (len(ref.data) + region_elems - 1) // region_elems
            self._regions[gid] = RegionInfo(
                elems=region_elems,
                states=[HOME] * n,
                versions=[1] * n,
            )
        self.lock_owner[gid] = self.node_id
        st = self._lock_state(gid)
        st.token = LockToken(gid)
        # Carry over a §4.4 local-lock counter held at promotion time.
        if hdr.lock_count > 0 and hdr.lock_owner is not None:
            st.holder_tid = hdr.lock_owner.tid
            st.count = hdr.lock_count
        if self.race is not None:
            # Migrate header-local detector metadata into the home store
            # (must see hdr.race before it is cleared).
            self.race.on_promote(ref, hdr, gid)
        hdr.lock_count = 0
        hdr.lock_owner = None
        self.stats.promotions += 1
        if self.ft is not None:
            self.ft.on_promote(gid)
        return gid

    # ==================================================================
    # JVM hooks: allocation / threads
    # ==================================================================
    def on_new(self, obj: Any) -> None:
        """Allocation hook: attach a LOCAL DSM header."""
        attach_header(obj)  # starts LOCAL

    def on_thread_started(self, thread: JThread) -> None:
        """Track live threads for lock-grant completion."""
        self._threads[thread.tid] = thread
        self.thread_dsm(thread)

    def on_thread_finished(self, thread: JThread) -> None:
        """Drop finished threads from the live-thread map."""
        self._threads.pop(thread.tid, None)
        if self.ft is not None:
            tobj = thread.thread_obj
            if tobj is not None and tobj.header is not None \
                    and tobj.header.gid:
                self.ft.on_thread_done(tobj.header.gid)

    def _thread(self, tid: int) -> JThread:
        try:
            return self._threads[tid]
        except KeyError:
            raise ProtocolError(
                f"node {self.node_id}: no live thread {tid}"
            ) from None

    # ==================================================================
    # JVM hooks: access checks
    # ==================================================================
    def read_check(self, thread: JThread, ref: Any, index: Any = None) -> Tuple[bool, int]:
        """Hook behind DSM_READCHECK: pass through or fetch-and-block."""
        hdr: DSMHeader = ref.header
        if hdr is None:
            # Object allocated outside hook-aware paths (defensive).
            attach_header(ref)
            return True, 0
        if hdr.gid and hdr.gid in self._regions:
            return self._region_read_check(thread, ref, hdr, index)
        if hdr.state != INVALID:
            return True, 0
        self._start_fetch(thread, hdr)
        return False, self.cost_model[cm.PROTO_HANDLER_NS]

    def _region_read_check(self, thread, ref, hdr, index) -> Tuple[bool, int]:
        reg = self._regions[hdr.gid]
        if index is None:
            # ARRAYLENGTH (or a non-indexed touch): needs the true length.
            if reg.length_known:
                return True, 0
            region = 0
        else:
            region = reg.region_of(index)
            if not 0 <= region < reg.n_regions:
                return True, 0  # out of bounds: let the access raise
            if reg.states[region] != INVALID:
                return True, 0
        self._start_fetch(thread, hdr, region)
        return False, self.cost_model[cm.PROTO_HANDLER_NS]

    def write_check(self, thread: JThread, ref: Any, value: Any, index: Any = None) -> Tuple[bool, int]:
        """Hook behind DSM_WRITECHECK: twin, mark dirty, or fetch."""
        hdr: DSMHeader = ref.header
        if hdr is None:
            attach_header(ref)
            return True, 0
        state = hdr.state
        if state == LOCAL:
            return True, 0
        if hdr.gid and hdr.gid in self._regions:
            return self._region_write_check(thread, ref, hdr, index)
        if state == INVALID:
            self._start_fetch(thread, hdr)
            return False, self.cost_model[cm.PROTO_HANDLER_NS]
        if state == HOME:
            self._dirty_home.add(hdr.gid)
            return True, 0
        # VALID cached copy: twin before first write (multiple-writer).
        if hdr.twin is None:
            hdr.twin = make_twin(ref)
            self._dirty.add(hdr.gid)
        return True, 0

    def _region_write_check(self, thread, ref, hdr, index) -> Tuple[bool, int]:
        reg = self._regions[hdr.gid]
        if index is None:
            return True, 0  # defensive: non-indexed write cannot occur
        region = reg.region_of(index)
        if not 0 <= region < reg.n_regions:
            return True, 0  # out of bounds: let the access raise
        state = reg.states[region]
        if state == HOME:
            self._dirty_home.add((hdr.gid, region))
            return True, 0
        if state == INVALID:
            self._start_fetch(thread, hdr, region)
            return False, self.cost_model[cm.PROTO_HANDLER_NS]
        if region not in reg.twins:
            lo, hi = reg.bounds(region, len(ref.data))
            reg.twins[region] = make_region_twin(ref, lo, hi)
            self._dirty.add((hdr.gid, region))
        return True, 0

    def _start_fetch(self, thread: JThread, hdr: DSMHeader,
                     region: Optional[int] = None) -> None:
        gid = hdr.gid
        waiters = self._fetch_waiters.setdefault((gid, region), [])
        waiters.append(thread)
        if self.obs is not None:
            self.obs.on_fetch_block(thread, gid, region)
        if len(waiters) > 1:
            return  # request already in flight
        key = gid if region is None else (gid, region)
        payload: Dict[str, Any] = {"gid": gid, "region": region}
        if self.config.timestamp_mode == VECTOR:
            payload["required"] = self.notice_table.required_vector(key)
        else:
            payload["required"] = self.notice_table.required_scalar(key)
        if self.locality is not None:
            self._fetch_targets[(gid, region)] = self.home_node(gid)
            if self.locality.fetch_covered(gid, region):
                # A prefetch for this unit is already in flight; its bulk
                # reply will install the data and wake the waiters.
                if self.obs is not None:
                    self.obs.on_fetch_start(gid, region, None)
                return
        self.stats.fetches += 1
        if region is not None:
            self.stats.region_fetches += 1
        if self.obs is not None:
            self.obs.on_fetch_start(gid, region, payload)
        self.transport.send(self.home_node(gid), M_FETCH_REQ, payload)

    # ==================================================================
    # JVM hooks: synchronization
    # ==================================================================
    def acquire(self, thread: JThread, ref: Any) -> Tuple[bool, int]:
        """Hook behind DSM_ACQUIRE: counter fast path, local grant, queueing, or a lock request to the home node."""
        hdr: DSMHeader = ref.header
        if hdr.state == LOCAL:
            if self.config.local_lock_opt:
                # §4.4 fast path: a counter, cheaper than original Java.
                if hdr.lock_owner is None or hdr.lock_owner is thread:
                    hdr.lock_owner = thread
                    hdr.lock_count += 1
                    self.stats.local_acquires += 1
                    if self.race is not None:
                        self.race.on_local_acquired(thread, hdr)
                    return True, self.cost_model[cm.LOCAL_LOCK_OP]
            # Second thread contends: the object escapes.
            self.promote(ref)
        gid = hdr.gid
        st = self._lock_state(gid)
        cost = self.cost_model[cm.SHARED_ACQUIRE]
        self.stats.shared_acquires += 1
        if st.token is not None and not st.transit:
            if st.holder_tid is None:
                st.holder_tid = thread.tid
                st.count = 1
                if self.race is not None:
                    self.race.on_lock_granted(thread.tid, gid)
                return True, cost
            if st.holder_tid == thread.tid:
                st.count += 1
                return True, cost
            req = LockRequest(self.node_id, thread.tid, thread.priority)
            if self.obs is not None:
                req.obs_span = self.obs.on_lock_block(thread, gid)
            st.token.enqueue(req)
            self._blocked_on[thread.tid] = (gid, 1)
            return False, cost
        if st.token is not None and st.transit:
            # Token committed to a remote node but still fenced here: the
            # request joins the queue and travels with the token.
            req = LockRequest(self.node_id, thread.tid, thread.priority)
            if self.obs is not None:
                req.obs_span = self.obs.on_lock_block(thread, gid)
            st.token.enqueue(req)
            self._blocked_on[thread.tid] = (gid, 1)
            return False, cost
        # No token here: route through the home node.
        self.stats.lock_requests += 1
        self._blocked_on[thread.tid] = (gid, 1)
        payload = {
            "gid": gid,
            "node": self.node_id,
            "tid": thread.tid,
            "priority": thread.priority,
            "restore": 1,
        }
        if self.obs is not None:
            sid = self.obs.on_lock_block(thread, gid)
            if sid is not None:
                payload[OBS_SPAN_KEY] = sid
        self.transport.send(self.home_node(gid), M_LOCK_REQ, payload)
        return False, cost

    def release(self, thread: JThread, ref: Any) -> int:
        """Hook behind DSM_RELEASE: end the interval (flush diffs) and hand the token to the next requester."""
        hdr: DSMHeader = ref.header
        if hdr.state == LOCAL:
            if hdr.lock_owner is not thread or hdr.lock_count <= 0:
                raise ProtocolError("release of unheld local lock")
            hdr.lock_count -= 1
            if hdr.lock_count == 0:
                hdr.lock_owner = None
                if self.race is not None:
                    self.race.on_local_released(thread, hdr)
            return self.cost_model[cm.LOCAL_LOCK_OP]
        gid = hdr.gid
        st = self._lock_state(gid)
        if st.holder_tid != thread.tid:
            raise ProtocolError(
                f"monitorexit by non-owner (gid {gid:#x}, thread "
                f"{thread.tid}, holder {st.holder_tid})"
            )
        cost = self.cost_model[cm.SHARED_RELEASE]
        st.count -= 1
        if st.count > 0:
            return cost
        st.holder_tid = None
        if self.race is not None:
            self.race.on_lock_released(thread.tid, gid)
        self.end_interval(thread)
        self._service_queue(st)
        return cost

    # ------------------------------------------------------------------
    # wait / notify (invoked through rewritten natives)
    # ------------------------------------------------------------------
    def dsm_wait(self, thread: JThread, ref: Any) -> None:
        """Object.wait over the token's wait queue (communication-free, §3.2)."""
        hdr: DSMHeader = ref.header
        if hdr.is_local:
            # wait() implies another thread will notify: the object
            # escapes its creating thread now.
            if hdr.lock_owner is not thread or hdr.lock_count <= 0:
                raise ProtocolError("wait() by non-owner")
            self.promote(ref)
        gid = hdr.gid
        st = self._lock_state(gid)
        if st.holder_tid != thread.tid or st.token is None:
            raise ProtocolError("wait() by non-owner")
        saved = st.count
        st.holder_tid = None
        st.count = 0
        req = LockRequest(self.node_id, thread.tid, thread.priority,
                          restore_count=saved)
        if self.obs is not None:
            req.obs_span = self.obs.on_lock_block(thread, gid, kind="wait")
        st.token.park_waiter(req)
        self._blocked_on[thread.tid] = (gid, saved)
        if self.race is not None:
            self.race.on_lock_released(thread.tid, gid)
        # wait() is a release point.
        self.end_interval(thread)
        self._service_queue(st)

    def dsm_notify(self, thread: JThread, ref: Any, all_: bool) -> None:
        """Object.notify/notifyAll over the token's wait queue."""
        hdr: DSMHeader = ref.header
        if hdr.is_local:
            # Owner notifying a local object: no one can be waiting on a
            # never-escaped object, so this is a no-op.
            if hdr.lock_owner is not thread or hdr.lock_count <= 0:
                raise ProtocolError("notify() by non-owner")
            return
        st = self._lock_state(hdr.gid)
        if st.holder_tid != thread.tid or st.token is None:
            raise ProtocolError("notify() by non-owner")
        if all_:
            st.token.notify_all()
        else:
            st.token.notify_one()

    # ------------------------------------------------------------------
    # Thread spawn (rewritten Thread.start)
    # ------------------------------------------------------------------
    def spawn(self, thread: JThread, tobj: Any, priority: int) -> int:
        """Ship a Thread object to the node chosen by the load balancer."""
        gid = self.promote(tobj)
        self._check_and_set_started(thread, tobj)
        target = self.choose_spawn_node()
        payload = {
            "gid": gid,
            "class_name": tobj.class_name,
            "priority": priority,
        }
        if self.ft is not None:
            self.ft.on_spawn(gid, tobj.class_name, priority, target)
        if self.race is not None:
            # Fork edge: ship the parent's clock to the child.
            payload["race"] = self.race.on_spawn_ship(thread, gid)
            if target == self.node_id:
                self.race.note_spawn_vc(gid, payload["race"])
        if target == self.node_id:
            self._local_spawn(gid, tobj.class_name, priority)
        else:
            # Spawning publishes the Thread object's current state: flush
            # it so the remote node's fetch observes the constructor's
            # writes (the spawn itself is a release-like event).
            self.end_interval(thread)
            self.transport.send(target, M_SPAWN, payload)
        return target

    def _check_and_set_started(self, thread: JThread, tobj: Any) -> None:
        """Double-start detection on the rewritten Thread's ``started``
        flag.  The starter is almost always the creator (home), so the
        flag is locally readable; for the exotic case of starting a
        stale remote replica the check is best-effort."""
        from ..jvm.errors import JavaRuntimeError

        hdr: DSMHeader = tobj.header
        try:
            idx = self.jvm.field_index("javasplit.Thread", "started")
        except Exception:  # pragma: no cover - Thread class always linked
            return
        if hdr.state != INVALID and tobj.fields[idx]:
            raise JavaRuntimeError("thread already started")
        ok, _ = self.write_check(thread, tobj, 1)
        if ok:
            tobj.fields[idx] = 1

    def _local_spawn(self, gid: int, class_name: str, priority: int) -> None:
        obj = self.replica_for(gid, class_name)
        run = obj.rtclass.method("__runWrapper")
        from ..jvm.frame import Frame
        jt = JThread(self.jvm, Frame(run, [obj]), thread_obj=obj,
                     priority=priority,
                     name=f"{class_name}-{gid & 0xFFFF:x}")
        self.jvm.live_jthreads[id(obj)] = jt
        if self.race is not None:
            self.race.on_thread_begin(jt, gid)
        self.jvm.call_function(jt)
        if self.ft is not None:
            self.ft.on_thread_start(gid)
        if self.on_spawn_arrival is not None:
            self.on_spawn_arrival(self.node_id)

    def _on_spawn(self, msg: Message) -> None:
        p = msg.payload
        if self.race is not None:
            self.race.note_spawn_vc(p["gid"], p.get("race"))
        self._local_spawn(p["gid"], p["class_name"], p["priority"])

    # ------------------------------------------------------------------
    # Console forwarding (rewritten Sys.print — §4.1 wrapped native I/O)
    # ------------------------------------------------------------------
    def print_line(self, text: str) -> None:
        """Console output wrapper: forwards lines to the master node."""
        self.jvm.println(text)
        if self.node_id == self.master_node:
            self.console.append(text)
        else:
            self.transport.send(self.master_node, M_CONSOLE, {"text": text})

    def _on_console(self, msg: Message) -> None:
        self.console.append(msg.payload["text"])

    # ------------------------------------------------------------------
    # Static holders (§4.2)
    # ------------------------------------------------------------------
    def static_ref(self, thread: JThread, class_name: str) -> Tuple[Any, int]:
        """Hook behind DSM_STATICREF: the node's cached C_static replica."""
        entry = self.static_gids.get(class_name)
        if entry is None:
            raise ProtocolError(f"no static holder registered for {class_name}")
        gid, holder_class = entry
        obj = self.cache.get(gid)
        if obj is None:
            obj = self.replica_for(gid, holder_class)
        return obj, 0

    # ==================================================================
    # Interval end: diff flush (multiple-writer LRC)
    # ==================================================================
    def end_interval(self, thread: JThread) -> None:
        """Release point: flush this node's pending diffs (§3)."""
        tds = self.thread_dsm(thread)
        tds.interval += 1
        self._flush(list(self._dirty), flush_home=True)
        if self.race is not None:
            # Ship buffered access events not carried by this interval's
            # diffs (the agent piggybacked on same-destination M_DIFFs).
            self.race.on_end_interval(thread)

    def _flush(self, gids, flush_home: bool) -> None:
        """Flush pending writes: diffs of the given cached replicas to
        their homes, plus (optionally) version bumps of home-written
        masters.  Tagged with a node-level monotonic interval."""
        self._flush_seq += 1
        interval = self._flush_seq
        by_home: Dict[int, List[Tuple[Any, bytes, Optional[int]]]] = {}
        for entry in gids:
            if entry not in self._dirty:
                continue
            self._dirty.discard(entry)
            if isinstance(entry, tuple):
                gid, region = entry
                obj = self.cache[gid]
                reg = self._regions[gid]
                twin = reg.twins.pop(region, None)
                if twin is None:
                    continue
                lo, _hi = reg.bounds(region, len(obj.data))
                diff = compute_region_diff(obj, lo, twin, self)
                if diff is None:
                    continue
                by_home.setdefault(
                    self.home_node(gid), []).append((gid, diff, region))
                continue
            gid = entry
            obj = self.cache[gid]
            hdr: DSMHeader = obj.header
            twin = hdr.twin
            hdr.twin = None
            if twin is None:
                continue
            diff = compute_diff(obj, twin, self.specs.get(self._spec_key(obj)), self)
            if diff is None:
                continue
            by_home.setdefault(self.home_node(gid), []).append((gid, diff, None))
        if flush_home:
            # Home-written masters: bump version locally, notice at once.
            advanced: List[Tuple[Any, int]] = []
            for entry in list(self._dirty_home):
                self._dirty_home.discard(entry)
                if isinstance(entry, tuple):
                    gid, region = entry
                    reg = self._regions[gid]
                    reg.versions[region] += 1
                    key = (gid, region)
                    version = reg.versions[region]
                else:
                    gid = entry
                    obj = self.cache[gid]
                    hdr = obj.header
                    hdr.version += 1
                    key = gid
                    version = hdr.version
                advanced.append((key, version))
                if self.config.timestamp_mode == VECTOR:
                    self._applied.setdefault(key, {})[self.node_id] = interval
                    self.notice_table.add(Notice(key, interval, self.node_id))
                else:
                    self.notice_table.add(Notice(key, version))
            if advanced and self.ft is not None:
                self.ft.on_home_advance(advanced)
            if advanced and self.policy is not None:
                # Promoted units the home itself wrote: push fresh
                # copies (write-update) or broadcast (read-mostly).
                self.policy.on_home_advance(advanced)
        for home, entries in by_home.items():
            ack_id = self._next_ack_id
            self._next_ack_id += 1
            self._outstanding_acks += 1
            payload = {
                "entries": list(entries),
                "ack_id": ack_id,
                "writer": self.node_id,
                "interval": interval,
            }
            self.stats.diffs_sent += len(entries)
            size = HEADER_BYTES + sum(14 + len(d) for _, d, _r in entries)
            if self.obs is not None:
                size += self.obs.on_flush(home, ack_id, payload,
                                          len(entries), size - HEADER_BYTES)
            self.stats.diff_bytes += size
            self._pending_diffs[ack_id] = (home, payload, size)
            if self.config.timestamp_mode == VECTOR:
                # No fence: the notice is known locally right away.
                for gid, _, region in entries:
                    key = gid if region is None else (gid, region)
                    self.notice_table.add(Notice(key, interval, self.node_id))
            self.transport.send(home, M_DIFF, payload, size_bytes=size)

    def _spec_key(self, obj: Any) -> str:
        return obj.class_name

    def _apply_diff_entries(self, p: Dict[str, Any]) -> List[Tuple[Any, int]]:
        """Apply one diff payload's entries to local masters; returns the
        (key, new_version) acks.  Shared by the M_DIFF handler and the
        recovery-time M_FT_REDIFF handler."""
        acks: List[Tuple[Any, int]] = []
        writer = p["writer"]
        interval = p["interval"]
        for gid, diff, region in p["entries"]:
            obj = self.cache.get(gid)
            if obj is None:
                raise ProtocolError(
                    f"diff for unknown master gid {gid:#x} at node "
                    f"{self.node_id}"
                )
            hdr: DSMHeader = obj.header
            if region is not None:
                reg = self._regions[gid]
                lo, _hi = reg.bounds(region, len(obj.data))
                apply_region_diff(obj, lo, diff, self)
                reg.versions[region] += 1
                key: Any = (gid, region)
                version = reg.versions[region]
            else:
                apply_diff(obj, self.specs.get(self._spec_key(obj)), diff, self)
                hdr.version += 1
                key = gid
                version = hdr.version
            acks.append((key, version))
            if self.config.timestamp_mode == VECTOR:
                applied = self._applied.setdefault(key, {})
                applied[writer] = max(applied.get(writer, 0), interval)
                self.notice_table.add(Notice(key, interval, writer))
                self._retry_deferred_fetches(key)
            else:
                self.notice_table.add(Notice(key, version))
        return acks

    def _on_diff(self, msg: Message) -> None:
        p = msg.payload
        if self.locality is not None and self.locality.intercept_diff(msg):
            # Some entries name units migrated away: the locality agent
            # split the batch, forwarded the remote parts, and will send
            # one combined M_DIFF_ACK when everything is applied.
            return
        acks = self._apply_diff_entries(p)
        if self.ft is not None:
            self.ft.on_home_advance(acks)
        ack_payload: Dict[str, Any] = {"ack_id": p["ack_id"],
                                       "versions": acks}
        if self.locality is not None:
            grants = self.locality.consider_migration(msg)
            if grants:
                ack_payload["migrate"] = grants
        if self.policy is not None:
            # Classifier feed + write-time policy actions; migratory
            # bootstrap grants ride the same fenced M_DIFF_ACK field as
            # locality migration grants (install_grants applies both).
            pol_grants = self.policy.on_diff_applied(msg)
            if pol_grants:
                ack_payload.setdefault("migrate", []).extend(pol_grants)
        delay = self.cost_model[cm.PROTO_HANDLER_NS]
        if self.obs is not None:
            now = self.engine.now
            self.obs.on_diff_apply(msg.src, p["ack_id"], len(p["entries"]),
                                   now, now + delay)
        self.engine.schedule(delay, lambda: self.transport.send(
            msg.src, M_DIFF_ACK, ack_payload
        ))

    def _on_diff_ack(self, msg: Message) -> None:
        if self.obs is not None:
            self.obs.on_diff_ack(msg.payload["ack_id"])
        self._pending_diffs.pop(msg.payload["ack_id"], None)
        for key, version in msg.payload["versions"]:
            self.notice_table.add(Notice(key, version))
        if self.locality is not None:
            grants = msg.payload.get("migrate")
            if grants:
                self.locality.install_grants(msg.src, grants)
        self._outstanding_acks -= 1
        if self._outstanding_acks < 0:  # pragma: no cover - defensive
            raise ProtocolError("diff ack underflow")
        if self._outstanding_acks == 0:
            queue, self._fence_queue = self._fence_queue, []
            for action in queue:
                action()

    # ------------------------------------------------------------------
    # Recovery: pending diffs redirected to an adoptive home
    # ------------------------------------------------------------------
    def _on_ft_rediff(self, msg: Message) -> None:
        """Adoptive-home side: apply a diff whose original home died
        before acknowledging it.  Content-idempotent even if the dead
        home had already applied it (diffs carry absolute slot values),
        so at worst the version inflates — versions only ever need to be
        monotonic."""
        p = msg.payload
        if self.locality is not None and self.locality.intercept_rediff(msg):
            return
        acks = self._apply_diff_entries(p)
        if self.ft is not None:
            self.ft.on_home_advance(acks)
        delay = self.cost_model[cm.PROTO_HANDLER_NS]
        self.engine.schedule(delay, lambda: self.transport.send(
            msg.src, M_FT_REDIFF_ACK,
            {"ack_id": p["ack_id"], "versions": acks}
        ))

    def _on_ft_rediff_ack(self, msg: Message) -> None:
        ack_id = msg.payload["ack_id"]
        if ack_id not in self._pending_diffs:
            return  # the original home's ack won the race; already settled
        if self.obs is not None:
            self.obs.on_diff_ack(ack_id)
        del self._pending_diffs[ack_id]
        for key, version in msg.payload["versions"]:
            self.notice_table.add(Notice(key, version))
        self._outstanding_acks -= 1
        if self._outstanding_acks == 0:
            queue, self._fence_queue = self._fence_queue, []
            for action in queue:
                action()

    def ft_redirect_pending(self, dead: int, new_home: int) -> int:
        """Re-send every unacked diff that was destined for ``dead`` to
        its adoptive home.  Returns the number of redirected flushes."""
        redirected = 0
        for ack_id in sorted(self._pending_diffs):
            home, payload, size = self._pending_diffs[ack_id]
            if home != dead:
                continue
            self._pending_diffs[ack_id] = (new_home, payload, size)
            self.transport.send(new_home, M_FT_REDIFF, payload,
                                size_bytes=size)
            redirected += 1
        return redirected

    def _when_fence_clear(self, action: Callable[[], None]) -> None:
        """Run ``action`` once all outstanding diffs are acked (§3.1's
        scalar-timestamp lock-transfer delay).  Vector mode never waits."""
        if self.config.timestamp_mode == VECTOR or self._outstanding_acks == 0:
            action()
        else:
            self.stats.fence_waits += 1
            self._fence_queue.append(action)

    # ==================================================================
    # Fetch handling
    # ==================================================================
    def _on_fetch_req(self, msg: Message) -> None:
        gid = msg.payload["gid"]
        region = msg.payload.get("region")
        if self.locality is not None and self.locality.redirect_fetch(msg):
            return  # unit migrated away: forwarded to the current home
        obj = self.cache.get(gid)
        if obj is None:
            raise ProtocolError(
                f"fetch for unknown gid {gid:#x} at home {self.node_id}"
            )
        if gid in self._regions and region is None:
            region = 0  # regioned array touched without an index
        key = gid if region is None else (gid, region)
        if self.config.timestamp_mode == VECTOR:
            required: Dict[int, int] = msg.payload["required"]
            applied = self._applied.get(key, {})
            if any(applied.get(w, 0) < v for w, v in required.items()):
                self.stats.deferred_fetches += 1
                self._deferred_fetch.setdefault(key, []).append(msg)
                return
        # A forwarded request names the original requester; a direct one
        # is answered to its sender.
        requester = msg.payload.get("requester", msg.src)
        if self.policy is not None:
            self.policy.on_fetch_served(requester, gid, region, obj)
        self._serve_fetch(requester, obj, region)

    def _retry_deferred_fetches(self, key: Any) -> None:
        queue = self._deferred_fetch.get(key)
        if not queue:
            return
        applied = self._applied.get(key, {})
        gid = key[0] if isinstance(key, tuple) else key
        region = key[1] if isinstance(key, tuple) else None
        still = []
        for msg in queue:
            required = msg.payload["required"]
            if any(applied.get(w, 0) < v for w, v in required.items()):
                still.append(msg)
            else:
                self._serve_fetch(msg.src, self.cache[gid], region)
        self._deferred_fetch[key] = still

    def _serve_fetch(self, requester: int, obj: Any,
                     region: Optional[int] = None) -> None:
        hdr: DSMHeader = obj.header
        gid = hdr.gid
        if self.ft is not None:
            # Replicate BEFORE the reply leaves: anything a survivor can
            # have observed must be reconstructible from the buddy.
            self.ft.on_serve(gid, region)
        payload: Dict[str, Any] = {
            "gid": gid,
            "class_name": obj.class_name,
            "region": region,
        }
        if region is not None:
            reg = self._regions[gid]
            lo, hi = reg.bounds(region, len(obj.data))
            data = serialize_region(obj, lo, hi, self)
            payload["version"] = reg.versions[region]
            payload["total_len"] = len(obj.data)
            payload["region_elems"] = reg.elems
            key: Any = (gid, region)
        else:
            data = serialize_any(obj, self.specs.get(self._spec_key(obj)), self)
            payload["version"] = hdr.version
            key = gid
        payload["data"] = data
        if self.config.timestamp_mode == VECTOR:
            payload["applied"] = dict(self._applied.get(key, {}))
        size = HEADER_BYTES + 24 + len(data)
        self.stats.fetch_bytes += size
        delay = (
            self.cost_model[cm.PROTO_HANDLER_NS]
            + len(data) * self.cost_model[cm.SERIALIZE_PER_BYTE_NS]
        )
        if self.obs is not None:
            now = self.engine.now
            self.obs.on_fetch_serve(requester, gid, region, now, now + delay,
                                    size)
        self.engine.schedule(delay, lambda: self.transport.send(
            requester, M_FETCH_REPLY, payload, size_bytes=size
        ))

    def _on_fetch_reply(self, msg: Message) -> None:
        p = msg.payload
        gid, region = self._install_unit(p)
        if self.locality is not None:
            self._fetch_targets.pop((gid, region), None)
        waiters = self._fetch_waiters.pop((gid, region), [])
        extra: List[JThread] = []
        if region == 0:
            # A no-index (length) waiter may also be parked on region 0.
            extra = self._fetch_waiters.pop((gid, None), [])
        if self.obs is not None:
            self.obs.on_fetch_done(gid, region,
                                   [t.tid for t in waiters + extra],
                                   msg.size_bytes)
        for thread in waiters:
            thread.wake()
        for thread in extra:
            thread.wake()

    def _install_unit(self, p: Dict[str, Any]) -> Tuple[int, Optional[int]]:
        """Install one fetched coherency unit payload into the local
        cache (shared by fetch replies and prefetch bulk replies)."""
        gid = p["gid"]
        region = p.get("region")
        obj = self.cache.get(gid)
        if obj is None:
            obj = self.replica_for(gid, p["class_name"])
        hdr: DSMHeader = obj.header
        if region is not None:
            reg = self._regions.get(gid)
            total_len = p["total_len"]
            if reg is None:
                elems = p["region_elems"]
                n = (total_len + elems - 1) // elems
                reg = RegionInfo(
                    elems=elems,
                    states=[INVALID] * n,
                    versions=[0] * n,
                    length_known=True,
                )
                self._regions[gid] = reg
            if len(obj.data) != total_len:
                from ..jvm.classfile import default_value
                obj.data = [default_value(obj.elem_type)] * total_len
            lo, _hi = reg.bounds(region, total_len)
            deserialize_region(obj, lo, p["data"], self)
            reg.states[region] = VALID
            reg.versions[region] = p["version"]
            reg.twins.pop(region, None)
            reg.length_known = True
            hdr.state = VALID  # "present"; regions carry the truth
            key: Any = (gid, region)
        else:
            deserialize_any(obj, self.specs.get(self._spec_key(obj)), p["data"], self)
            hdr.version = p["version"]
            hdr.state = VALID
            hdr.twin = None
            key = gid
        if self.config.timestamp_mode == VECTOR:
            self._replica_vc[key] = dict(p.get("applied", {}))
        return gid, region

    # ==================================================================
    # Adaptive-locality primitives (driven by repro.locality)
    # ==================================================================
    def _serve_bulk(self, requester: int, gids: List[int]) -> List[Dict[str, Any]]:
        """Answer one prefetch bulk-fetch: serialize every requested
        whole-object unit this node masters into a single reply frame.
        The reply always echoes the requested gids so the requester can
        retire its in-flight bookkeeping even for units served elsewhere.
        Returns the units served (for external cross-checking)."""
        units: List[Dict[str, Any]] = []
        total = 0
        for gid in gids:
            obj = self.cache.get(gid)
            if obj is None or gid in self._regions:
                continue
            hdr = obj.header
            if hdr is None or hdr.state != HOME:
                continue
            if self.ft is not None:
                self.ft.on_serve(gid, None)
            unit = self.ft_serialize_unit(gid)
            if unit is None:  # pragma: no cover - defensive
                continue
            units.append(unit)
            total += len(unit["data"])
        size = HEADER_BYTES + sum(24 + len(u["data"]) for u in units)
        self.stats.fetch_bytes += size
        payload = {"requested": list(gids), "units": units}
        delay = (
            self.cost_model[cm.PROTO_HANDLER_NS]
            + total * self.cost_model[cm.SERIALIZE_PER_BYTE_NS]
        )
        self.engine.schedule(delay, lambda: self.transport.send(
            requester, M_LOC_BULK_REPLY, payload, size_bytes=size
        ))
        return units

    def _loc_grant_unit(self, gid: int) -> Optional[Dict[str, Any]]:
        """Serialize a mastered unit for a migration grant and demote
        the local copy to an invalid replica (the grantee becomes the
        home).  A pending home write is published first so the grant
        carries a committed version, mirroring the release-time flush."""
        obj = self.cache.get(gid)
        if obj is None:
            return None
        hdr: DSMHeader = obj.header
        if hdr is None or hdr.state != HOME:
            return None
        if gid in self._dirty_home:
            self._dirty_home.discard(gid)
            hdr.version += 1
            self.notice_table.add(Notice(gid, hdr.version))
            if self.ft is not None:
                self.ft.on_home_advance([(gid, hdr.version)])
        unit = self.ft_serialize_unit(gid)
        if unit is None:  # pragma: no cover - defensive
            return None
        hdr.state = INVALID
        hdr.twin = None
        return unit

    # ==================================================================
    # Invalidation
    # ==================================================================
    def _apply_notices(self, notices: List[Notice]) -> None:
        # Merge into the table for onward propagation; but decide
        # invalidation against each REPLICA's version, never the table:
        # diff acks advance the table without refreshing the replica, so
        # table advancement is not a proxy for replica freshness.
        self.notice_table.add_all(notices)
        to_flush = []
        to_invalidate = []
        for notice in notices:
            key = notice.gid
            region: Optional[int] = None
            gid = key
            if isinstance(key, tuple):
                gid, region = key
            obj = self.cache.get(gid)
            if obj is None:
                continue
            hdr: DSMHeader = obj.header
            if region is not None:
                reg = self._regions.get(gid)
                if reg is None or reg.states[region] != VALID:
                    continue
                if self.config.timestamp_mode == VECTOR:
                    seen = self._replica_vc.get(key, {})
                    if seen.get(notice.writer, 0) >= notice.version:
                        continue
                elif reg.versions[region] >= notice.version:
                    continue
            else:
                if hdr.state != VALID:
                    continue
                if self.config.timestamp_mode == VECTOR:
                    seen = self._replica_vc.get(key, {})
                    if seen.get(notice.writer, 0) >= notice.version:
                        continue
                elif hdr.version >= notice.version:
                    continue
            # A dirty replica's pending local writes are committed program
            # actions: flush the diff home *before* invalidating, or the
            # multiple-writer merge loses them.
            if key in self._dirty:
                to_flush.append(key)
            if key not in to_invalidate:
                to_invalidate.append(key)
        if to_flush:
            self._flush(to_flush, flush_home=False)
        for key in to_invalidate:
            if isinstance(key, tuple):
                gid, region = key
                reg = self._regions[gid]
                reg.states[region] = INVALID
                reg.twins.pop(region, None)
            else:
                hdr = self.cache[key].header
                hdr.state = INVALID
                hdr.twin = None
            self.stats.invalidations += 1

    # ==================================================================
    # Lock choreography
    # ==================================================================
    def _lock_state(self, gid: int) -> NodeLockState:
        st = self.lock_states.get(gid)
        if st is None:
            st = NodeLockState(gid)
            self.lock_states[gid] = st
        return st

    def _on_lock_req(self, msg: Message) -> None:
        """Home role: route the request to the current owner (§3.2)."""
        p = msg.payload
        gid = p["gid"]
        if self.locality is not None \
                and self.locality.redirect_lock_req(msg):
            return  # unit migrated away: re-routed to the current home
        owner = self.lock_owner.get(gid)
        if owner is None:
            raise ProtocolError(
                f"lock request for unregistered gid {gid:#x}"
            )
        if owner == self.node_id:
            self._on_lock_fwd(msg)
        else:
            if self.obs is not None:
                self.obs.on_lock_route(p, owner)
            self.transport.send(owner, M_LOCK_FWD, dict(p))

    def _on_lock_fwd(self, msg: Message) -> None:
        p = msg.payload
        gid = p["gid"]
        st = self._lock_state(gid)
        if st.token is not None:
            req = LockRequest(
                p["node"], p["tid"], p["priority"],
                restore_count=p.get("restore", 1),
            )
            if self.obs is not None:
                self.obs.on_lock_enqueue(p, req)
            st.token.enqueue(req)
            self._service_queue(st)
            return
        # Token has moved on: chase it.
        target = st.last_sent_to
        if target is None:
            if self.node_id == self.home_node(gid):
                target = self.lock_owner.get(gid)
            if target is None or target == self.node_id:
                if (self.ft is not None
                        and self.node_id != self.home_node(gid)):
                    # Routing hint wiped by failure recovery: fall back
                    # to the (possibly adoptive) home, which re-routes
                    # via its owner table.
                    target = self.home_node(gid)
                else:
                    raise ProtocolError(
                        f"node {self.node_id} cannot route lock request "
                        f"for gid {gid:#x}"
                    )
        if self.obs is not None:
            self.obs.on_lock_route(p, target)
        self.transport.send(target, M_LOCK_FWD, dict(p))

    def _service_queue(self, st: NodeLockState) -> None:
        """Grant a free token to the next queued requester, if any."""
        if st.token is None or st.transit or st.holder_tid is not None:
            return
        while True:
            req = st.token.peek_next()
            if req is None:
                return
            if req.node == self.node_id:
                st.token.pop_next()
                if self.ft is not None:
                    # A recovery re-issue can produce a second grant for a
                    # request that was already satisfied; the thread is no
                    # longer blocked on this lock, so skip it.
                    entry = self._blocked_on.get(req.thread_id)
                    if entry is None or entry[0] != st.gid:
                        continue
                    st.count = entry[1]
                else:
                    st.count = req.restore_count
                st.holder_tid = req.thread_id
                self._blocked_on.pop(req.thread_id, None)
                if self.race is not None:
                    self.race.on_lock_granted(req.thread_id, st.gid)
                if self.obs is not None:
                    self.obs.on_lock_granted(req.thread_id, st.gid)
                self._thread(req.thread_id).complete(NO_VALUE)
                return
            if self._ft_token_freeze:
                # Recovery is scanning for live tokens: hold the token
                # here; the orchestrator re-services every queue after.
                return
            # Remote transfer: fence on outstanding diffs (scalar mode).
            st.token.pop_next()
            st.transit = True
            st.pending_grant = req
            if (self.obs is not None
                    and self.config.timestamp_mode != VECTOR
                    and self._outstanding_acks > 0):
                self.obs.on_fence_enter(st.gid, req)
            self._when_fence_clear(lambda: self._send_token(st, req))
            return

    def _send_token(self, st: NodeLockState, req: LockRequest) -> None:
        token = st.token
        assert token is not None
        if self.ft is not None and req.node in self.transport.dead_peers:
            # The grantee died while this transfer waited on the fence:
            # keep the token and serve the next live requester instead.
            st.transit = False
            st.pending_grant = None
            self._service_queue(st)
            return
        if self._ft_token_freeze:
            # Recovery is counting live tokens; commit the send but hold
            # the frame until the freeze lifts.
            self._ft_frozen_sends.append(
                lambda: self._send_token(st, req))
            return
        # Per-receiver delta: what THIS node's table has that the token
        # has not yet delivered to req.node specifically.
        per_receiver = token.seen_notices.setdefault(req.node, {})
        if self.config.timestamp_mode == VECTOR:
            delta = self.notice_table.delta_since_vector(per_receiver)
        else:
            delta = self.notice_table.delta_since(per_receiver)
        if self.obs is None:
            queue_wire = [
                (r.node, r.thread_id, r.priority, r.seq, r.restore_count)
                for r in token.queue
            ]
            waitq_wire = [
                (r.node, r.thread_id, r.priority, r.seq, r.restore_count)
                for r in token.waitq
            ]
        else:
            # 6th element: each queued request's causal span id, so the
            # acquire chain survives the token migration (billed by
            # on_token_send only when spans are actually on).
            queue_wire = [
                (r.node, r.thread_id, r.priority, r.seq, r.restore_count,
                 r.obs_span)
                for r in token.queue
            ]
            waitq_wire = [
                (r.node, r.thread_id, r.priority, r.seq, r.restore_count,
                 r.obs_span)
                for r in token.waitq
            ]
        payload = {
            "gid": token.gid,
            "grant": (req.node, req.thread_id, req.priority, req.restore_count),
            "queue": queue_wire,
            "waitq": waitq_wire,
            "seen": {n: dict(m) for n, m in token.seen_notices.items()},
            "delta": [(n.gid, n.version, n.writer) for n in delta],
        }
        size = HEADER_BYTES + token.wire_size() + sum(n.wire_size() for n in delta)
        if self.race is not None:
            # HB edge: ship this node's view of the lock's release clock.
            vc = self.race.lock_vc_wire(token.gid)
            payload["race"] = vc
            size += 8 + estimate_size(vc)
        if self.obs is not None:
            size += self.obs.on_token_send(token.gid, req, payload)
        if self.policy is not None:
            # Migratory policy: the unit's master may travel with the
            # token (``pol_grant`` field); the grant's bytes are billed
            # onto the token frame.
            size += self.policy.on_token_send(token.gid, req, payload)
        st.token = None
        st.transit = False
        st.pending_grant = None
        st.last_sent_to = req.node
        self.stats.token_transfers += 1
        self.transport.send(req.node, M_TOKEN, payload, size_bytes=size)

    def _on_token(self, msg: Message) -> None:
        p = msg.payload
        gid = p["gid"]
        st = self._lock_state(gid)
        if self.obs is not None:
            self.obs.on_token_arrive(p, gid)
        token = LockToken(gid)
        # Queue entries are 5-tuples, or 6-tuples (…, obs_span) when the
        # sender had telemetry attached; parse both.
        token.queue = [
            LockRequest(e[0], e[1], e[2], e[3], e[4],
                        obs_span=e[5] if len(e) > 5 else None)
            for e in p["queue"]
        ]
        token.waitq = [
            LockRequest(e[0], e[1], e[2], e[3], e[4],
                        obs_span=e[5] if len(e) > 5 else None)
            for e in p["waitq"]
        ]
        token.seen_notices = {n: dict(m) for n, m in p["seen"].items()}
        if self.race is not None:
            # Install the lock clock carried with the token (absent on a
            # recovery re-issue: the detector runs degraded after a kill).
            self.race.install_lock_vc(gid, p.get("race"))
        st.token = token
        st.last_sent_to = None
        if self.policy is not None:
            # Install a token-borne migratory master FIRST: the fresh
            # master makes the delta's own notice for the unit a no-op
            # and the owner update below resolves locally.
            self.policy.on_token_arrive(p)
        # Acquire-side of the sync point: invalidate per the notice delta.
        notices = [Notice(g, v, w) for g, v, w in p["delta"]]
        self._apply_notices(notices)
        if self.locality is not None:
            # Sharing-pattern prefetch: bulk-fetch the units this delta
            # just invalidated (they are the acquirer's likely next reads).
            self.locality.on_token_notices(notices)
        # Tell the home who owns the lock now.
        home = self.home_node(gid)
        if home != self.node_id:
            self.transport.send(home, M_OWNER_UPDATE, {
                "gid": gid, "owner": self.node_id,
            })
        else:
            self.lock_owner[gid] = self.node_id
        node, tid, _prio, restore = p["grant"]
        if node != self.node_id:  # pragma: no cover - defensive
            raise ProtocolError("token granted to the wrong node")
        if self.ft is not None:
            entry = self._blocked_on.get(tid)
            if entry is None or entry[0] != gid:
                # Stale grant from a recovery re-issue: the thread was
                # already granted (and may have moved on).  Keep the
                # token and serve whoever is actually waiting.
                self._service_queue(st)
                return
            restore = entry[1]
        st.holder_tid = tid
        st.count = restore
        self._blocked_on.pop(tid, None)
        if self.race is not None:
            self.race.on_lock_granted(tid, gid)
        if self.obs is not None:
            self.obs.on_lock_granted(tid, gid)
        self._thread(tid).complete(NO_VALUE)

    def _on_owner_update(self, msg: Message) -> None:
        p = msg.payload
        if self.locality is not None \
                and self.locality.redirect_owner_update(msg):
            return  # unit migrated away: re-routed to the current home
        self.lock_owner[p["gid"]] = p["owner"]

    # ==================================================================
    # Fault-tolerance recovery primitives (driven by repro.ft.recovery)
    # ==================================================================
    def ft_serialize_unit(self, key: Any) -> Optional[Dict[str, Any]]:
        """Serialize one home coherency unit for buddy replication, in
        the same format a fetch reply uses."""
        gid, region = key if isinstance(key, tuple) else (key, None)
        obj = self.cache.get(gid)
        if obj is None:
            return None
        unit: Dict[str, Any] = {
            "gid": gid,
            "region": region,
            "class_name": obj.class_name,
        }
        if region is not None:
            reg = self._regions.get(gid)
            if reg is None:
                return None
            lo, hi = reg.bounds(region, len(obj.data))
            unit["data"] = serialize_region(obj, lo, hi, self)
            unit["version"] = reg.versions[region]
            unit["total_len"] = len(obj.data)
            unit["region_elems"] = reg.elems
        else:
            unit["data"] = serialize_any(
                obj, self.specs.get(self._spec_key(obj)), self)
            unit["version"] = obj.header.version
        return unit

    def ft_home_keys(self) -> List[Any]:
        """Keys of every coherency unit this node is (origin) home of."""
        keys: List[Any] = []
        for gid, obj in self.cache.items():
            hdr = obj.header
            if hdr is None or home_of(gid) != self.node_id:
                continue
            reg = self._regions.get(gid)
            if reg is not None:
                keys.extend((gid, r) for r in range(reg.n_regions))
            elif hdr.state == HOME:
                keys.append(gid)
        return keys

    def ft_install_master(self, unit: Dict[str, Any]) -> None:
        """Adopt one replicated coherency unit as a local master.  Local
        uncommitted writes to a cached replica of the same unit are
        merged back on top (they are program actions the multiple-writer
        protocol has not lost yet)."""
        gid = unit["gid"]
        region = unit["region"]
        obj = self.cache.get(gid)
        if obj is None:
            class_name = unit["class_name"]
            if class_name.endswith("[]"):
                obj = ArrayObj(class_name[:-2], 0)
            else:
                obj = Obj(self.jvm.lookup(class_name))
            hdr = attach_header(obj)
            hdr.gid = gid
            hdr.state = INVALID
            hdr.version = 0
            self.cache[gid] = obj
        hdr = obj.header
        if region is not None:
            total_len = unit["total_len"]
            reg = self._regions.get(gid)
            if reg is None:
                elems = unit["region_elems"]
                n = (total_len + elems - 1) // elems
                reg = RegionInfo(
                    elems=elems,
                    states=[INVALID] * n,
                    versions=[0] * n,
                    length_known=True,
                )
                self._regions[gid] = reg
            if len(obj.data) != total_len:
                from ..jvm.classfile import default_value
                obj.data = [default_value(obj.elem_type)] * total_len
            lo, _hi = reg.bounds(region, total_len)
            twin = reg.twins.pop(region, None)
            local_diff = None
            if twin is not None:
                local_diff = compute_region_diff(obj, lo, twin, self)
                self._dirty.discard((gid, region))
            deserialize_region(obj, lo, unit["data"], self)
            reg.states[region] = HOME
            reg.versions[region] = max(reg.versions[region],
                                       unit["version"])
            hdr.state = HOME
            if local_diff is not None:
                apply_region_diff(obj, lo, local_diff, self)
                self._dirty_home.add((gid, region))
        else:
            spec = self.specs.get(self._spec_key(obj))
            twin = hdr.twin
            hdr.twin = None
            local_diff = None
            if twin is not None:
                local_diff = compute_diff(obj, twin, spec, self)
                self._dirty.discard(gid)
            deserialize_any(obj, spec, unit["data"], self)
            hdr.version = max(hdr.version, unit["version"])
            hdr.state = HOME
            if local_diff is not None:
                apply_diff(obj, spec, local_diff, self)
                self._dirty_home.add(gid)

    def ft_set_home(self, origin: int, new_home: int) -> None:
        """Point the home table of a failed origin node at its buddy."""
        self._home_map[origin] = new_home

    def ft_set_token_freeze(self, frozen: bool) -> None:
        """Freeze/unfreeze outbound token transfers.  Unfreezing flushes
        transfers the fence released during the freeze and re-services
        every lock queue."""
        self._ft_token_freeze = frozen
        if frozen:
            return
        sends, self._ft_frozen_sends = self._ft_frozen_sends, []
        for action in sends:
            action()
        for gid in sorted(self.lock_states):
            self._service_queue(self.lock_states[gid])

    def ft_purge_dead(self, dead: int) -> None:
        """Drop every trace of a dead node from local lock state: its
        queued requests and parked waiters can never be granted, and
        routing hints pointing at it would black-hole lock requests."""
        for gid in sorted(self.lock_states):
            st = self.lock_states[gid]
            if st.last_sent_to == dead:
                st.last_sent_to = None
            token = st.token
            if token is None:
                continue
            token.queue = [r for r in token.queue if r.node != dead]
            token.waitq = [r for r in token.waitq if r.node != dead]
            token.seen_notices.pop(dead, None)

    def ft_reissue_fetches(self, dead: int) -> int:
        """Re-send fetch requests that were in flight to a dead home;
        the adoptive home answers them from the replica store."""
        reissued = 0
        for (gid, region), waiters in list(self._fetch_waiters.items()):
            if not waiters:
                continue
            # Migrated units' fetches may have targeted a node other
            # than home_of(gid); _fetch_targets records where each
            # in-flight (or prefetch-covered) fetch actually went.
            if self.locality is not None:
                target_was = self._fetch_targets.get(
                    (gid, region), home_of(gid))
            else:
                target_was = home_of(gid)
            if target_was != dead:
                continue
            key = gid if region is None else (gid, region)
            payload: Dict[str, Any] = {"gid": gid, "region": region}
            if self.config.timestamp_mode == VECTOR:
                payload["required"] = self.notice_table.required_vector(key)
            else:
                payload["required"] = self.notice_table.required_scalar(key)
            self.stats.fetches += 1
            target = self.home_node(gid)
            if self.locality is not None:
                self._fetch_targets[(gid, region)] = target
            self.transport.send(target, M_FETCH_REQ, payload)
            reissued += 1
        return reissued

    def ft_reissue_blocked(self) -> int:
        """Re-issue lock requests for locally blocked threads whose
        request (or parked-waiter record) may have died with the failed
        node.  Duplicates are suppressed by the token queues' per-thread
        dedup; a re-grant of an already-granted request is skipped by
        the stale-grant check.  A waiter parked on a lost token wakes
        spuriously — legal, Java wait loops re-check their condition."""
        reissued = 0
        for tid in sorted(self._blocked_on):
            gid, restore = self._blocked_on[tid]
            thread = self._threads.get(tid)
            if thread is None:
                continue
            st = self.lock_states.get(gid)
            if st is not None and st.token is not None:
                if st.token.holds_request(self.node_id, tid):
                    continue  # original record survived with the token
                # Token is local (possibly freshly re-issued) but the
                # request record died with the old holder: requeue here.
                st.token.enqueue(LockRequest(
                    self.node_id, tid, thread.priority,
                    restore_count=restore,
                ))
                reissued += 1
                continue
            self.stats.lock_requests += 1
            self.transport.send(self.home_node(gid), M_LOCK_REQ, {
                "gid": gid,
                "node": self.node_id,
                "tid": tid,
                "priority": thread.priority,
                "restore": restore,
            })
            reissued += 1
        return reissued

    # ==================================================================
    # Introspection / testing helpers
    # ==================================================================
    def replica(self, gid: int) -> Any:
        """Introspection: the local replica for a gid, if any."""
        return self.cache.get(gid)

    def quiesced(self) -> bool:
        """No fences pending and no parked fetch waiters."""
        return self._outstanding_acks == 0 and not self._fetch_waiters
