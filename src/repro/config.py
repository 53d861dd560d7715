"""Configuration dataclasses and paper-parameter presets.

All defaults come from Table 2 of the paper and the prose of Section 5:

* 2 TB total memory behind 8 host ports (16 GB DRAM / 64 GB NVM cubes),
* 256 banks per stack split over 4 quadrants,
* DRAM timings tRCD=12 ns, tCL=6 ns, tRP=14 ns, tRAS=33 ns,
* NVM timings tRCD=40 ns, tCL=10 ns, tWR=320 ns,
* 16-bit links at 15 Gbps with a 2 ns SerDes latency per traversal,
* data packets 5x the size of control packets,
* 1 ns penalty for requests arriving at the wrong quadrant,
* network energy 5 pJ/bit/hop; DRAM 12 pJ/bit; NVM 12 / 120 pJ/bit (r/w),
* 256 B address interleaving across ports and cubes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.errors import ConfigError
from repro.ras.plan import FaultPlan
from repro.units import BYTE, GIB_BYTES, TIB_BYTES, ns


# ---------------------------------------------------------------------------
# Link / packet parameters
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LinkConfig:
    """A point-to-point SerDes link between packages (or to the host)."""

    lanes: int = 16
    lane_gbps: float = 15.0
    serdes_latency_ps: int = ns(2.0)
    propagation_ps: int = 0
    input_buffer_packets: int = 8
    # The paper's packages are joined by a *single* 16-bit link whose
    # bandwidth is shared by both directions (Section 5); responses are
    # prioritized on it (Section 3.2).  True gives each direction its
    # own serializer instead.
    full_duplex: bool = False

    def validate(self) -> None:
        if self.lanes <= 0 or self.lane_gbps <= 0:
            raise ConfigError("lanes and lane_gbps must be positive")
        if self.input_buffer_packets < 1:
            raise ConfigError("input_buffer_packets must be at least 1")


@dataclass(frozen=True)
class InterposerLinkConfig(LinkConfig):
    """Wide, short link across a silicon interposer (inside a MetaCube).

    No SerDes is needed on-interposer; the link is much wider than the
    external 16-lane SerDes link, so serialization time is small.
    """

    lanes: int = 128
    lane_gbps: float = 8.0
    serdes_latency_ps: int = ns(0.5)
    full_duplex: bool = True  # interposer wires are point-to-point pairs


@dataclass(frozen=True)
class PacketConfig:
    """Packet sizing: data packets are 5x control packets (Section 3.2)."""

    control_bytes: int = 16
    data_multiplier: int = 5
    payload_bytes: int = 64  # one cache line of data per read/write

    @property
    def control_bits(self) -> int:
        return self.control_bytes * BYTE

    @property
    def data_bits(self) -> int:
        return self.control_bytes * self.data_multiplier * BYTE

    def validate(self) -> None:
        if self.control_bytes <= 0 or self.data_multiplier < 1:
            raise ConfigError("packet sizes must be positive")


# ---------------------------------------------------------------------------
# Memory technologies
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MemTechConfig:
    """Timing and energy model of one memory technology."""

    name: str
    capacity_bytes: int
    trcd_ps: int
    tcl_ps: int
    trp_ps: int
    tras_ps: int
    twr_ps: int
    read_energy_pj_per_bit: float
    write_energy_pj_per_bit: float
    needs_refresh: bool = True
    refresh_interval_ps: int = 0
    refresh_duration_ps: int = 0
    is_nonvolatile: bool = False
    # Row buffers per bank.  PCM-style NVMs decouple sensing from
    # buffering and afford several row buffers per bank (Lee et al.,
    # ISCA'09 — the paper's reference [28]); DRAM keeps one.
    row_buffers: int = 1

    def validate(self) -> None:
        if self.row_buffers < 1:
            raise ConfigError(f"{self.name}: need at least one row buffer")
        if self.capacity_bytes <= 0:
            raise ConfigError(f"{self.name}: capacity must be positive")
        for label, value in (
            ("tRCD", self.trcd_ps),
            ("tCL", self.tcl_ps),
            ("tRP", self.trp_ps),
            ("tWR", self.twr_ps),
        ):
            if value < 0:
                raise ConfigError(f"{self.name}: {label} cannot be negative")
        if self.needs_refresh and self.refresh_interval_ps <= 0:
            raise ConfigError(f"{self.name}: refreshing tech needs an interval")

    def write_recovery_ps(self) -> int:
        """Bank occupancy after a write completes (dominant for PCM)."""
        return self.twr_ps


def dram_tech(capacity_gib: int = 16) -> MemTechConfig:
    """Baseline HBM-like DRAM cube (Table 2)."""
    return MemTechConfig(
        name="DRAM",
        capacity_bytes=capacity_gib * GIB_BYTES,
        trcd_ps=ns(12),
        tcl_ps=ns(6),
        trp_ps=ns(14),
        tras_ps=ns(33),
        twr_ps=ns(15),
        read_energy_pj_per_bit=12.0,
        write_energy_pj_per_bit=12.0,
        needs_refresh=True,
        refresh_interval_ps=ns(7800),
        refresh_duration_ps=ns(350),
        is_nonvolatile=False,
    )


def nvm_tech(capacity_gib: int = 64) -> MemTechConfig:
    """PCM-like NVM cube: 4x density, slower array, 10x write energy."""
    return MemTechConfig(
        name="NVM",
        capacity_bytes=capacity_gib * GIB_BYTES,
        trcd_ps=ns(40),
        tcl_ps=ns(10),
        trp_ps=ns(0),
        tras_ps=ns(0),
        twr_ps=ns(320),
        read_energy_pj_per_bit=12.0,
        write_energy_pj_per_bit=120.0,
        needs_refresh=False,
        refresh_interval_ps=0,
        refresh_duration_ps=0,
        is_nonvolatile=True,
        row_buffers=4,
    )


# ---------------------------------------------------------------------------
# Cube organization
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CubeConfig:
    """Internal organization of a memory cube (HMC-like)."""

    num_quadrants: int = 4
    banks_per_stack: int = 256
    external_ports: int = 4
    row_bytes: int = 2048
    wrong_quadrant_penalty_ps: int = ns(1.0)
    controller_queue_depth: int = 32
    # Controller scheduling: "fcfs" issues strictly in arrival order
    # (one blocked head stalls the quadrant, as in simple vault
    # controllers); "frfcfs" lets ready requests bypass a blocked head.
    scheduling: str = "fcfs"

    @property
    def banks_per_quadrant(self) -> int:
        return self.banks_per_stack // self.num_quadrants

    def scaled_banks_per_quadrant(self, scale: float) -> int:
        """Banks per quadrant under ``capacity_scale`` (at least one).

        The cubes and the host address map both size themselves from
        this, so every decoded bank index exists.
        """
        return max(1, int(self.banks_per_quadrant * scale))

    def validate(self) -> None:
        if self.num_quadrants <= 0:
            raise ConfigError("cube needs at least one quadrant")
        if self.banks_per_stack % self.num_quadrants:
            raise ConfigError("banks must divide evenly across quadrants")
        if self.external_ports < 2:
            raise ConfigError("cube needs >= 2 external ports to form networks")
        if self.scheduling not in ("fcfs", "frfcfs"):
            raise ConfigError(f"unknown scheduling policy {self.scheduling!r}")
        if self.controller_queue_depth < 1:
            raise ConfigError("controller_queue_depth must be at least 1")


# ---------------------------------------------------------------------------
# Host / APU
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HostConfig:
    """The APU side: memory ports, windows, and address interleaving."""

    num_ports: int = 8
    interleave_bytes: int = 256
    max_outstanding_per_port: int = 64
    # Writes retire from the core's perspective once handed to the
    # memory system ("off the critical path", Section 4.2); the store
    # buffer bounds how many may be in flight concurrently.
    store_buffer_entries: int = 64
    inject_queue_depth: int = 64
    read_priority_injection: bool = False
    # On-chip latency between the coherence point (L2/directory) and the
    # memory port, each direction.  Part of every end-to-end memory
    # latency the paper reports; common to all MN configurations.
    port_latency_ps: int = 50_000
    # GPU wavefronts retire loads in order: a window slot frees only
    # once all older reads have also returned, so *tail* latency (what
    # unfair arbitration inflates and distance-based arbitration fixes)
    # throttles the core, not just the mean.
    inorder_retire: bool = True

    def validate(self) -> None:
        if self.num_ports <= 0:
            raise ConfigError("host needs at least one memory port")
        if self.interleave_bytes & (self.interleave_bytes - 1):
            raise ConfigError("interleave granularity must be a power of two")
        if self.max_outstanding_per_port < 1:
            raise ConfigError("window must allow at least one request")
        if self.store_buffer_entries < 1:
            raise ConfigError("store_buffer_entries must be at least 1")
        if self.inject_queue_depth < 1:
            raise ConfigError("inject_queue_depth must be at least 1")


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EnergyConfig:
    network_pj_per_bit_hop: float = 5.0


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ObsConfig:
    """Opt-in observability: latency attribution and event tracing.

    Everything here defaults to *off*; the simulator's hot paths then pay
    at most a ``None``/flag check per event (the obs-off cell of
    ``benchmarks/bench_engine.py``).

    ``attribution`` makes every transaction accumulate timestamped
    latency segments (see :mod:`repro.obs.attribution`), which surface as
    per-segment histograms on the result's collector.  ``trace`` attaches
    a ring-buffered :class:`repro.obs.TraceRecorder` to the engine,
    links, routers and queues; with ``trace_dir`` set, each run dumps
    ``trace_<label>_<workload>.jsonl`` and a Chrome-loadable
    ``trace_<label>_<workload>.json`` there.  Note that cache-served
    (warm) runs do not re-simulate and therefore do not rewrite traces.

    ``attribution_sample = N`` records segments for a deterministic
    1-in-N subset of transactions (stride sampling; the phase derives
    from ``config.seed``, so reruns sample the same transactions).
    Sampled-in transactions record *exact* segments — sampling shrinks
    the histogram population, it never estimates durations — and the
    simulated schedule is bit-identical to an attribution-off run.
    ``trace_sample = N`` rings every Nth event only, while the
    whole-run aggregates (link busy/bits, queue peaks, replay and
    overload counters) remain exact counts.
    """

    attribution: bool = False
    attribution_sample: int = 1
    trace: bool = False
    trace_ring: int = 1 << 16
    trace_sample: int = 1
    trace_dir: Optional[str] = None
    # Also record every engine event dispatch (very chatty; floods the
    # ring long before link/queue events would).
    trace_engine_events: bool = False

    @property
    def enabled(self) -> bool:
        return self.attribution or self.trace

    @property
    def attribution_narrowed(self) -> bool:
        """Attribution covers a sample of transactions, not all of them."""
        return self.attribution and self.attribution_sample > 1

    def validate(self) -> None:
        if self.trace_ring < 1:
            raise ConfigError("trace ring capacity must be at least 1")
        if self.attribution_sample < 1:
            raise ConfigError("attribution_sample must be at least 1")
        if self.trace_sample < 1:
            raise ConfigError("trace_sample must be at least 1")


# ---------------------------------------------------------------------------
# Overload robustness (host-edge deadlines, retry, admission control)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OverloadConfig:
    """Host-edge overload behaviour: deadlines, retry, load shedding.

    Everything defaults to *off*: a default instance adds no events, no
    counters in results, and is omitted from job digests entirely, so
    pre-overload digests and golden corpora stay bit-identical.

    ``deadline_ps`` arms an end-to-end timer per generated request.  A
    request still queued at the host edge when its deadline fires is
    abandoned (the client gave up while it waited for admission); a
    request already in service is cancelled — its window slot and
    directory claim are released, any in-flight packets become stale and
    are dropped on arrival — and retried after a deterministic
    exponential backoff (``retry_backoff_ps * 2**attempt``) up to
    ``max_retries`` times before it is abandoned for good.

    ``shed_high`` / ``shed_low`` are hysteresis watermarks over the
    requests *in the system* (host-edge backlog plus outstanding): when
    the count reaches ``shed_high`` at an arrival, admission closes and
    new requests are counted as shed until it falls back to
    ``shed_low``.  This bounds the backlog at ``shed_high`` and turns
    goodput collapse into a plateau (see ``docs/ras.md``).
    """

    #: End-to-end request deadline; 0 disables timeouts entirely.
    deadline_ps: int = 0
    #: Retry budget for requests cancelled in service (0 = no retries).
    max_retries: int = 0
    #: Backoff before retry ``k`` is re-queued: ``retry_backoff_ps << k``.
    retry_backoff_ps: int = ns(200)
    #: Admission closes when pending + outstanding reaches this; 0
    #: disables shedding.
    shed_high: int = 0
    #: Admission reopens once pending + outstanding falls to this.
    shed_low: int = 0

    @property
    def deadlines_enabled(self) -> bool:
        return self.deadline_ps > 0

    @property
    def shedding_enabled(self) -> bool:
        return self.shed_high > 0

    @property
    def enabled(self) -> bool:
        return self.deadlines_enabled or self.shedding_enabled

    def validate(self) -> None:
        if self.deadline_ps < 0:
            raise ConfigError("overload: deadline_ps cannot be negative")
        if self.max_retries < 0:
            raise ConfigError("overload: max_retries cannot be negative")
        if self.retry_backoff_ps < 0:
            raise ConfigError("overload: retry_backoff_ps cannot be negative")
        if self.shed_high < 0:
            raise ConfigError("overload: shed_high cannot be negative")
        if self.shed_low < 0:
            raise ConfigError("overload: shed_low cannot be negative")
        if self.shed_high and self.shed_low > self.shed_high:
            raise ConfigError(
                "overload: shed_low must not exceed shed_high "
                f"({self.shed_low} > {self.shed_high})"
            )
        if self.max_retries and not self.deadlines_enabled:
            raise ConfigError(
                "overload: max_retries needs a deadline to trigger retries"
            )


# ---------------------------------------------------------------------------
# Arbitration / topology identifiers
# ---------------------------------------------------------------------------
ARBITER_ROUND_ROBIN = "round_robin"
ARBITER_DISTANCE = "distance"
ARBITER_DISTANCE_ENHANCED = "distance_enhanced"
ARBITER_AGE = "age"
ARBITER_GLOBAL_WEIGHTED = "global_weighted"

VALID_ARBITERS = (
    ARBITER_ROUND_ROBIN,
    ARBITER_DISTANCE,
    ARBITER_DISTANCE_ENHANCED,
    ARBITER_AGE,
    ARBITER_GLOBAL_WEIGHTED,
)

TOPOLOGY_CHAIN = "chain"
TOPOLOGY_RING = "ring"
TOPOLOGY_TREE = "tree"
TOPOLOGY_SKIPLIST = "skiplist"
TOPOLOGY_METACUBE = "metacube"

VALID_TOPOLOGIES = (
    TOPOLOGY_CHAIN,
    TOPOLOGY_RING,
    TOPOLOGY_TREE,
    TOPOLOGY_SKIPLIST,
    TOPOLOGY_METACUBE,
)

NVM_LAST = "last"
NVM_FIRST = "first"

# Peer-to-peer copy destination patterns (see SystemConfig.p2p_pattern)
P2P_NEIGHBOR = "neighbor"
P2P_SHUFFLE = "shuffle"
P2P_PROMOTE = "promote"

VALID_P2P_PATTERNS = (P2P_NEIGHBOR, P2P_SHUFFLE, P2P_PROMOTE)


# ---------------------------------------------------------------------------
# Top-level system configuration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to instantiate one memory-network simulation.

    A simulation models **one host port's MN**; ports serve disjoint
    address slices (Section 2.3), so per-port behaviour composes to the
    full system.  ``host.num_ports`` still matters: it divides the total
    capacity (setting the per-port cube count) and concentrates the
    workload's offered load onto fewer injectors when reduced.
    """

    topology: str = TOPOLOGY_CHAIN
    total_capacity_bytes: int = 2 * TIB_BYTES
    dram_fraction: float = 1.0  # fraction of capacity from DRAM
    nvm_placement: str = NVM_LAST
    arbiter: str = ARBITER_ROUND_ROBIN
    link: LinkConfig = field(default_factory=LinkConfig)
    interposer_link: LinkConfig = field(default_factory=InterposerLinkConfig)
    packet: PacketConfig = field(default_factory=PacketConfig)
    cube: CubeConfig = field(default_factory=CubeConfig)
    host: HostConfig = field(default_factory=HostConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    dram: MemTechConfig = field(default_factory=dram_tech)
    nvm: MemTechConfig = field(default_factory=nvm_tech)
    metacube_arity: int = 4
    seed: int = 20170624  # ISCA'17 opening day
    capacity_scale: float = 1.0  # Fig 14: scale capacity w/ same cube count
    # Section 5.3 skip-list refinement: during write bursts at the system
    # port, writes are temporarily re-admitted to the short skip paths.
    write_skip_hysteresis: bool = False
    hysteresis_hi: float = 0.60
    hysteresis_lo: float = 0.45
    hysteresis_window: int = 64
    # RAS experiments (the paper's footnote 3): links listed here are
    # treated as failed and removed before routes are computed.  Routing
    # fails loudly if a cube becomes unreachable (chains cannot tolerate
    # failures; rings and skip-lists can).
    failed_links: Tuple[Tuple[int, int], ...] = ()
    # Runtime fault plan (repro.ras): transient link bit errors with
    # retry-buffer replay and permanent failures scheduled *mid-run*,
    # which degrade gracefully instead of raising.  Default off.
    ras: FaultPlan = field(default_factory=FaultPlan)
    # Host-edge overload behaviour (repro host.port): end-to-end request
    # deadlines with bounded retry, and admission-control watermarks that
    # shed load once the edge backlog crosses shed_high.  Default off;
    # a default instance is omitted from job digests entirely.
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    # Fraction of transactions excluded from latency/energy statistics
    # as cache/queue warm-up (they are still simulated and still count
    # toward runtime).
    warmup_fraction: float = 0.0
    # Destination-selection pattern for peer-to-peer copies (NOM-style
    # cube-to-cube DMA; active only when the workload's p2p_fraction is
    # non-zero): "neighbor" copies to the next cube in address-map
    # order, "shuffle" to the farthest rotation (bisection stress), and
    # "promote" moves lines to the opposite memory tier (hot-page
    # promotion NVM -> DRAM, with DRAM -> NVM demotions making room).
    p2p_pattern: str = P2P_NEIGHBOR

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.topology not in VALID_TOPOLOGIES:
            raise ConfigError(f"unknown topology {self.topology!r}")
        if self.arbiter not in VALID_ARBITERS:
            raise ConfigError(f"unknown arbiter {self.arbiter!r}")
        if not 0.0 <= self.dram_fraction <= 1.0:
            raise ConfigError("dram_fraction must be within [0, 1]")
        if self.nvm_placement not in (NVM_LAST, NVM_FIRST):
            raise ConfigError(f"unknown NVM placement {self.nvm_placement!r}")
        if self.capacity_scale <= 0:
            raise ConfigError("capacity_scale must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError("warmup_fraction must be in [0, 1)")
        if self.p2p_pattern not in VALID_P2P_PATTERNS:
            raise ConfigError(f"unknown p2p pattern {self.p2p_pattern!r}")
        for name in ("link", "interposer_link"):
            try:
                getattr(self, name).validate()
            except ConfigError as exc:
                raise ConfigError(f"{name}: {exc}") from None
        self.obs.validate()
        self.ras.validate()
        self.overload.validate()
        self.packet.validate()
        self.cube.validate()
        self.host.validate()
        self.dram.validate()
        self.nvm.validate()
        # the per-port capacity must decompose into whole cubes
        self.cube_counts()
        self._validate_failed_links()

    def _validate_failed_links(self) -> None:
        """Structural checks on ``failed_links`` and the RAS fault plan.

        Runs after :meth:`cube_counts` so the node-id range is known:
        node 0 is the host, cubes are 1..N, and MetaCube interface-chip
        switches follow the cubes.
        """
        max_node = self.cubes_per_port
        if self.topology == TOPOLOGY_METACUBE:
            arity = max(self.metacube_arity, 1)
            max_node += -(-self.cubes_per_port // arity)  # switch count
        seen = set()
        for pair in self.failed_links:
            if len(pair) != 2:
                raise ConfigError(f"failed link {pair!r} must be a node pair")
            a, b = pair
            for node in (a, b):
                if not isinstance(node, int):
                    raise ConfigError(
                        f"failed link {pair!r}: endpoints must be node ids"
                    )
                if not 0 <= node <= max_node:
                    raise ConfigError(
                        f"failed link {pair!r}: node {node} is out of range "
                        f"(this topology has nodes 0..{max_node})"
                    )
            if a == b:
                raise ConfigError(f"failed link {pair!r} is a self-loop")
            key = frozenset((a, b))
            if key in seen:
                raise ConfigError(f"duplicate failed link {a}-{b}")
            seen.add(key)
        for a, b, _time in self.ras.link_failures:
            for node in (a, b):
                if node > max_node:
                    raise ConfigError(
                        f"ras: link failure {a}-{b}: node {node} is out of "
                        f"range (this topology has nodes 0..{max_node})"
                    )
        for cube, _time in self.ras.cube_failures:
            if cube > self.cubes_per_port:
                raise ConfigError(
                    f"ras: cube failure {cube}: this topology has cubes "
                    f"1..{self.cubes_per_port}"
                )

    # ------------------------------------------------------------------
    @property
    def per_port_capacity_bytes(self) -> int:
        return self.total_capacity_bytes // self.host.num_ports

    def cube_counts(self) -> Tuple[int, int]:
        """Return ``(num_dram_cubes, num_nvm_cubes)`` for one port.

        The ratio is expressed by *capacity* (Section 3.3): a 50% MN has
        half its bytes in DRAM cubes and half in NVM cubes.
        """
        per_port = self.per_port_capacity_bytes
        dram_bytes = per_port * self.dram_fraction
        nvm_bytes = per_port - dram_bytes
        n_dram = dram_bytes / self.dram.capacity_bytes
        n_nvm = nvm_bytes / self.nvm.capacity_bytes
        if abs(n_dram - round(n_dram)) > 1e-9 or abs(n_nvm - round(n_nvm)) > 1e-9:
            raise ConfigError(
                f"capacity split {self.dram_fraction:.2f} does not decompose "
                f"into whole cubes ({n_dram:.3f} DRAM, {n_nvm:.3f} NVM)"
            )
        n_dram_i, n_nvm_i = int(round(n_dram)), int(round(n_nvm))
        if n_dram_i + n_nvm_i == 0:
            raise ConfigError("configuration yields zero memory cubes")
        return n_dram_i, n_nvm_i

    @property
    def cubes_per_port(self) -> int:
        d, n = self.cube_counts()
        return d + n

    # ------------------------------------------------------------------
    def label(self) -> str:
        """Paper-style label, e.g. ``50%-T (NVM-L)``."""
        percent = int(round(self.dram_fraction * 100))
        letter = {
            TOPOLOGY_CHAIN: "C",
            TOPOLOGY_RING: "R",
            TOPOLOGY_TREE: "T",
            TOPOLOGY_SKIPLIST: "SL",
            TOPOLOGY_METACUBE: "MC",
        }[self.topology]
        base = f"{percent}%-{letter}"
        if 0 < self.dram_fraction < 1:
            suffix = "L" if self.nvm_placement == NVM_LAST else "F"
            base += f" (NVM-{suffix})"
        return base

    def with_(self, **changes) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def with_obs(self, **changes) -> "SystemConfig":
        """Return a copy with observability fields replaced."""
        return replace(self, obs=replace(self.obs, **changes))

    def with_ras(self, **changes) -> "SystemConfig":
        """Return a copy with fault-plan (RAS) fields replaced."""
        return replace(self, ras=replace(self.ras, **changes))

    def with_overload(self, **changes) -> "SystemConfig":
        """Return a copy with overload (deadline/shedding) fields replaced."""
        return replace(self, overload=replace(self.overload, **changes))


_LABEL_RE = re.compile(
    r"^\s*(?P<pct>\d+)%-(?P<topo>C|R|T|SL|MC)"
    r"(?:\s*\(NVM-(?P<plc>[LF])\))?\s*$",
    re.IGNORECASE,
)

_LETTER_TO_TOPOLOGY = {
    "C": TOPOLOGY_CHAIN,
    "R": TOPOLOGY_RING,
    "T": TOPOLOGY_TREE,
    "SL": TOPOLOGY_SKIPLIST,
    "MC": TOPOLOGY_METACUBE,
}


def parse_label(label: str, base: Optional[SystemConfig] = None) -> SystemConfig:
    """Parse a paper-style config label like ``"50%-T (NVM-L)"``.

    ``base`` supplies every parameter the label does not encode.
    """
    match = _LABEL_RE.match(label)
    if match is None:
        raise ConfigError(f"cannot parse configuration label {label!r}")
    base = base or SystemConfig()
    fraction = int(match.group("pct")) / 100.0
    topology = _LETTER_TO_TOPOLOGY[match.group("topo").upper()]
    placement = base.nvm_placement
    if match.group("plc"):
        placement = NVM_LAST if match.group("plc").upper() == "L" else NVM_FIRST
    return base.with_(
        topology=topology, dram_fraction=fraction, nvm_placement=placement
    )
