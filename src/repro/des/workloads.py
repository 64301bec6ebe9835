"""AI-collective workload generators for the packet-level DES.

A workload is a small state machine the engine drives by callback:
:meth:`Workload.initial` yields the flows released at time zero and
:meth:`Workload.on_complete` is invoked whenever a flow finishes,
returning the flows it unblocks. Barrier-synchronized collectives
(ring/tree AllReduce, all-to-all rounds) and dependency chains
(pipeline-parallel microbatches) fall out naturally; the engine never
needs to know what a "round" is.

All generators are deterministic: flow ids, orderings and any random
choices (mice probes) derive from the constructor arguments and the
seed alone, which is what makes same-seed DES replays bit-identical.

The catalogue (also the ``workload.kind`` values of the scenario
schema, see ``docs/des.md``):

``uniform_pairs``
    Every ordered terminal pair sends one fixed-size flow — the
    steady-state load of the differential tests, mirroring the all-pairs
    pattern :mod:`repro.simulator.congestion` counts statically.
``ring_allreduce``
    2(P-1) barrier-synchronized ring steps over chunks of ``1/P`` of the
    payload (reduce-scatter + all-gather), rank *i* → rank *i+1*.
``tree_allreduce``
    Binomial-tree reduce to rank 0 followed by the mirrored broadcast,
    ⌈log₂P⌉ rounds each way.
``alltoall``
    P-1 shift rounds (round *k*: rank *i* → rank *i+k* mod P) with a
    barrier between rounds — the data-parallel shuffle.
``tp_pp``
    Mixed tensor-parallel + pipeline-parallel job: terminals partitioned
    into pipeline stages; each microbatch does a TP ring pass inside its
    stage, then a PP activation flow to the next stage, with microbatch
    *m+1* admitted as soon as stage 0 finishes *m* (1F1B-style overlap).
``mice``
    Seeded random single-packet probes over a start window — the
    latency canaries large RDMA flows squash.

:class:`PatternWorkload` (Figure 2's drain) and :class:`BernoulliWorkload`
(the saturation sweep's sources) take a traffic pattern: not scenario kinds.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.exceptions import SimulationError
from repro.network.fabric import Fabric
from repro.utils.prng import make_rng


@dataclass(frozen=True)
class Flow:
    """One source→destination transfer, released at absolute ``start``."""

    fid: int
    src: int
    dst: int
    size_bytes: int
    start: float = 0.0
    tag: str = ""


def _participants(fabric: Fabric, participants=None, minimum: int = 2) -> list[int]:
    ranks = (
        [int(t) for t in fabric.terminals]
        if participants is None
        else [int(t) for t in participants]
    )
    for t in ranks:
        if fabric.term_index[t] < 0:
            raise SimulationError(f"workload participant {t} is not a terminal")
    if len(set(ranks)) != len(ranks):
        raise SimulationError("workload participants contain duplicates")
    if len(ranks) < minimum:
        raise SimulationError(
            f"workload needs >= {minimum} participants, got {len(ranks)}"
        )
    return ranks


class Workload(ABC):
    """Callback-driven flow generator (see module docstring)."""

    #: registry key / report label; subclasses override
    name: str = "abstract"

    def __init__(self, fid_offset: int = 0):
        self._next_fid = fid_offset

    def _flow(self, src: int, dst: int, size: int, start: float, tag: str = "") -> Flow:
        self._next_fid += 1
        return Flow(
            fid=self._next_fid, src=src, dst=dst,
            size_bytes=max(1, int(size)), start=start, tag=tag,
        )

    @abstractmethod
    def initial(self) -> list[Flow]:
        """Flows released when the simulation starts."""

    def on_complete(self, flow: Flow, t: float) -> list[Flow]:
        """Flows unblocked by ``flow`` finishing at time ``t``."""
        return []

    def describe(self) -> dict:
        return {"kind": self.name}


class UniformPairsWorkload(Workload):
    """Every ordered terminal pair sends one ``size_bytes`` flow.

    ``stagger_s`` spaces the releases deterministically (pair-sorted
    order) to avoid a single time-zero burst when desired.
    """

    name = "uniform_pairs"

    def __init__(
        self,
        fabric: Fabric,
        size_bytes: int = 4096,
        stagger_s: float = 0.0,
        participants=None,
        fid_offset: int = 0,
    ):
        super().__init__(fid_offset)
        self.ranks = _participants(fabric, participants)
        self.size_bytes = int(size_bytes)
        self.stagger_s = float(stagger_s)

    def initial(self) -> list[Flow]:
        flows = []
        i = 0
        for src in self.ranks:
            for dst in self.ranks:
                if src == dst:
                    continue
                flows.append(
                    self._flow(src, dst, self.size_bytes, i * self.stagger_s, "pair")
                )
                i += 1
        return flows

    def describe(self) -> dict:
        return {
            "kind": self.name, "pairs": len(self.ranks) * (len(self.ranks) - 1),
            "size_bytes": self.size_bytes,
        }


class _BarrierRounds(Workload):
    """Shared core for barrier-synchronized round-based collectives.

    Subclasses implement :meth:`round_flows`; round *r+1* is released
    ``compute_s`` after the last flow of round *r* completes.
    """

    def __init__(self, rounds: int, compute_s: float = 0.0, fid_offset: int = 0):
        super().__init__(fid_offset)
        self.rounds = int(rounds)
        self.compute_s = float(compute_s)
        self._round = 0
        self._outstanding = 0

    @abstractmethod
    def round_flows(self, r: int, start: float) -> list[Flow]:
        """The flows of round ``r`` (may be empty; empty ends the job)."""

    def _release(self, r: int, start: float) -> list[Flow]:
        flows = self.round_flows(r, start)
        self._round = r
        self._outstanding = len(flows)
        return flows

    def initial(self) -> list[Flow]:
        return self._release(0, 0.0)

    def on_complete(self, flow: Flow, t: float) -> list[Flow]:
        self._outstanding -= 1
        if self._outstanding > 0 or self._round + 1 >= self.rounds:
            return []
        return self._release(self._round + 1, t + self.compute_s)


class RingAllReduceWorkload(_BarrierRounds):
    """Ring AllReduce: 2(P-1) steps of rank *i* → rank *i+1* chunks."""

    name = "ring_allreduce"

    def __init__(
        self,
        fabric: Fabric,
        size_bytes: int = 1 << 20,
        compute_s: float = 0.0,
        participants=None,
        fid_offset: int = 0,
    ):
        self.ranks = _participants(fabric, participants)
        self.size_bytes = int(size_bytes)
        self.chunk = max(1, self.size_bytes // len(self.ranks))
        super().__init__(2 * (len(self.ranks) - 1), compute_s, fid_offset)

    def round_flows(self, r: int, start: float) -> list[Flow]:
        ranks = self.ranks
        phase = "rs" if r < len(ranks) - 1 else "ag"
        return [
            self._flow(
                ranks[i], ranks[(i + 1) % len(ranks)], self.chunk, start,
                f"{phase}:{r}",
            )
            for i in range(len(ranks))
        ]

    def describe(self) -> dict:
        return {
            "kind": self.name, "participants": len(self.ranks),
            "size_bytes": self.size_bytes, "steps": self.rounds,
        }


class TreeAllReduceWorkload(_BarrierRounds):
    """Binomial-tree reduce to rank 0, then the mirrored broadcast."""

    name = "tree_allreduce"

    def __init__(
        self,
        fabric: Fabric,
        size_bytes: int = 1 << 20,
        compute_s: float = 0.0,
        participants=None,
        fid_offset: int = 0,
    ):
        self.ranks = _participants(fabric, participants)
        self.size_bytes = int(size_bytes)
        self.depth = max(1, math.ceil(math.log2(len(self.ranks))))
        super().__init__(2 * self.depth, compute_s, fid_offset)

    def round_flows(self, r: int, start: float) -> list[Flow]:
        ranks = self.ranks
        p = len(ranks)
        flows = []
        if r < self.depth:  # reduce: odd multiples of 2^r send down
            half, full, tag = 1 << r, 1 << (r + 1), f"reduce:{r}"
            senders = [(i, i - half) for i in range(half, p, full)]
        else:  # broadcast mirrors the reduce, top round first
            rr = 2 * self.depth - 1 - r
            half, full, tag = 1 << rr, 1 << (rr + 1), f"bcast:{rr}"
            senders = [(i - half, i) for i in range(half, p, full)]
        for src_i, dst_i in senders:
            flows.append(self._flow(ranks[src_i], ranks[dst_i], self.size_bytes, start, tag))
        return flows

    def describe(self) -> dict:
        return {
            "kind": self.name, "participants": len(self.ranks),
            "size_bytes": self.size_bytes, "rounds": self.rounds,
        }


class AllToAllWorkload(_BarrierRounds):
    """Data-parallel all-to-all as P-1 barrier-synchronized shift rounds."""

    name = "alltoall"

    def __init__(
        self,
        fabric: Fabric,
        size_bytes: int = 65536,
        compute_s: float = 0.0,
        participants=None,
        fid_offset: int = 0,
    ):
        self.ranks = _participants(fabric, participants)
        self.size_bytes = int(size_bytes)
        super().__init__(len(self.ranks) - 1, compute_s, fid_offset)

    def round_flows(self, r: int, start: float) -> list[Flow]:
        ranks = self.ranks
        p = len(ranks)
        return [
            self._flow(ranks[i], ranks[(i + r + 1) % p], self.size_bytes, start,
                       f"shift:{r + 1}")
            for i in range(p)
        ]

    def describe(self) -> dict:
        return {
            "kind": self.name, "participants": len(self.ranks),
            "size_bytes": self.size_bytes, "rounds": self.rounds,
        }


class TPPPWorkload(Workload):
    """Mixed tensor-parallel + pipeline-parallel training job.

    Terminals are partitioned into ``num_stages`` pipeline stages of
    ``tp_size`` ranks each (stage *s* = ranks ``[s*tp_size, (s+1)*tp_size)``).
    Per microbatch *m* and stage *s*: a TP ring pass inside the stage
    (every member sends ``tp_bytes`` to its group neighbour), then one
    ``pp_bytes`` activation flow from the stage head to the next stage's
    head. Stage 0 admits microbatch *m+1* as soon as its own TP pass for
    *m* completes, so successive microbatches overlap down the pipeline.
    """

    name = "tp_pp"

    def __init__(
        self,
        fabric: Fabric,
        tp_size: int = 2,
        microbatches: int = 4,
        tp_bytes: int = 262144,
        pp_bytes: int = 65536,
        participants=None,
        fid_offset: int = 0,
    ):
        super().__init__(fid_offset)
        ranks = _participants(fabric, participants)
        if tp_size < 2:
            raise SimulationError("tp_pp needs tp_size >= 2 (a TP ring)")
        if len(ranks) < 2 * tp_size:
            raise SimulationError(
                f"tp_pp needs >= 2 stages: {len(ranks)} terminals / tp_size {tp_size}"
            )
        self.tp_size = int(tp_size)
        self.num_stages = len(ranks) // self.tp_size
        self.stages = [
            ranks[s * self.tp_size:(s + 1) * self.tp_size]
            for s in range(self.num_stages)
        ]
        self.microbatches = int(microbatches)
        if self.microbatches < 1:
            raise SimulationError("tp_pp needs microbatches >= 1")
        self.tp_bytes = int(tp_bytes)
        self.pp_bytes = int(pp_bytes)
        self._tp_left: dict[tuple[int, int], int] = {}  # (stage, mb) -> flows left

    def _tp_round(self, s: int, m: int, start: float) -> list[Flow]:
        group = self.stages[s]
        self._tp_left[(s, m)] = len(group)
        return [
            self._flow(group[i], group[(i + 1) % len(group)], self.tp_bytes, start,
                       f"tp:{s}:{m}")
            for i in range(len(group))
        ]

    def initial(self) -> list[Flow]:
        return self._tp_round(0, 0, 0.0)

    def on_complete(self, flow: Flow, t: float) -> list[Flow]:
        kind, s, m = flow.tag.split(":")
        s, m = int(s), int(m)
        out: list[Flow] = []
        if kind == "tp":
            self._tp_left[(s, m)] -= 1
            if self._tp_left[(s, m)] > 0:
                return []
            del self._tp_left[(s, m)]
            if s + 1 < self.num_stages:
                out.append(
                    self._flow(self.stages[s][0], self.stages[s + 1][0],
                               self.pp_bytes, t, f"pp:{s}:{m}")
                )
            if s == 0 and m + 1 < self.microbatches:
                out.extend(self._tp_round(0, m + 1, t))
        else:  # pp arrival unblocks the next stage's TP pass
            out.extend(self._tp_round(s + 1, m, t))
        return out

    def describe(self) -> dict:
        return {
            "kind": self.name, "stages": self.num_stages, "tp_size": self.tp_size,
            "microbatches": self.microbatches,
            "tp_bytes": self.tp_bytes, "pp_bytes": self.pp_bytes,
        }


class MiceProbeWorkload(Workload):
    """Seeded random single-packet latency probes over a start window."""

    name = "mice"

    def __init__(
        self,
        fabric: Fabric,
        count: int = 64,
        size_bytes: int = 256,
        window_s: float = 1e-3,
        seed=0,
        participants=None,
        fid_offset: int = 0,
    ):
        super().__init__(fid_offset)
        self.ranks = _participants(fabric, participants)
        if count < 1:
            raise SimulationError("mice workload needs count >= 1")
        self.count = int(count)
        self.size_bytes = int(size_bytes)
        self.window_s = float(window_s)
        self.seed = seed

    def initial(self) -> list[Flow]:
        rng = make_rng(self.seed)
        flows = []
        p = len(self.ranks)
        for _ in range(self.count):
            i = int(rng.integers(p))
            j = int(rng.integers(p - 1))
            if j >= i:
                j += 1
            start = float(rng.random()) * self.window_s
            flows.append(
                self._flow(self.ranks[i], self.ranks[j], self.size_bytes, start, "mouse")
            )
        return flows

    def describe(self) -> dict:
        return {
            "kind": self.name, "count": self.count, "size_bytes": self.size_bytes,
            "window_s": self.window_s,
        }


class PatternWorkload(Workload):
    """Every ``(src, dst)`` pair of a traffic pattern sends one
    ``size_bytes`` flow at time zero — a closed-loop drain."""

    name = "pattern"

    def __init__(self, pattern, size_bytes: int):
        super().__init__()
        self.pattern = [(int(s), int(d)) for s, d in pattern]
        self.size_bytes = int(size_bytes)

    def initial(self) -> list[Flow]:
        return [self._flow(s, d, self.size_bytes, 0.0, "pattern") for s, d in self.pattern]


class BernoulliWorkload(Workload):
    """Open-loop Bernoulli sources at integer cycle times.

    At every cycle ``1..cycles`` each source of ``pattern`` starts one
    single-packet flow with probability ``rate``, taking its destinations
    round-robin; ``flows`` holds the whole seeded schedule.
    """

    name = "bernoulli"

    def __init__(self, pattern, rate: float, cycles: int, size_bytes: int = 1, seed=None):
        super().__init__()
        if not 0 < rate <= 1:
            raise SimulationError(f"rate must be in (0, 1], got {rate}")
        dests: dict[int, list[int]] = {}
        for s, d in pattern:
            dests.setdefault(int(s), []).append(int(d))
        self.sources = list(dests.items())
        fires = make_rng(seed).random((cycles, len(self.sources))) < rate
        sent = [0] * len(self.sources)
        self.flows = []
        for row, i in zip(*fires.nonzero()):  # cycle by cycle, source by source
            src, dsts = self.sources[i]
            self.flows.append(self._flow(src, dsts[sent[i] % len(dsts)], size_bytes, row + 1.0))
            sent[i] += 1

    def initial(self) -> list[Flow]:
        return self.flows


@dataclass
class CompositeWorkload(Workload):
    """Run several workloads concurrently (e.g. a collective + mice probes).

    Completion callbacks are dispatched to the sub-workload that created
    the flow; give each part a distinct ``fid_offset`` (``compose`` does)
    so flow ids never collide.
    """

    parts: list[Workload] = field(default_factory=list)
    name: str = "composite"

    def __post_init__(self):
        self._owner: dict[int, Workload] = {}

    def _adopt(self, part: Workload, flows: list[Flow]) -> list[Flow]:
        for f in flows:
            if f.fid in self._owner:
                raise SimulationError(
                    f"composite workload: duplicate flow id {f.fid} "
                    "(parts need distinct fid_offset)"
                )
            self._owner[f.fid] = part
        return flows

    def initial(self) -> list[Flow]:
        out: list[Flow] = []
        for part in self.parts:
            out.extend(self._adopt(part, part.initial()))
        return out

    def on_complete(self, flow: Flow, t: float) -> list[Flow]:
        part = self._owner[flow.fid]
        return self._adopt(part, part.on_complete(flow, t))

    def describe(self) -> dict:
        return {"kind": self.name, "parts": [p.describe() for p in self.parts]}


#: workload registry: scenario ``workload.kind`` → constructor
WORKLOADS: dict[str, type[Workload]] = {
    UniformPairsWorkload.name: UniformPairsWorkload,
    RingAllReduceWorkload.name: RingAllReduceWorkload,
    TreeAllReduceWorkload.name: TreeAllReduceWorkload,
    AllToAllWorkload.name: AllToAllWorkload,
    TPPPWorkload.name: TPPPWorkload,
    MiceProbeWorkload.name: MiceProbeWorkload,
}

#: fid spacing between composite parts — far above any realistic flow count
_FID_STRIDE = 1_000_000


def make_workload(kind: str, fabric: Fabric, **params) -> Workload:
    """Build a workload by registry ``kind``.

    ``kind="composite"`` takes ``parts=[{kind: ..., ...}, ...]`` and
    assigns non-overlapping fid ranges automatically.
    """
    if kind == "composite":
        specs = params.pop("parts", None)
        if params:
            raise SimulationError(
                f"composite workload got unknown options {sorted(params)}"
            )
        if not specs:
            raise SimulationError("composite workload needs a non-empty 'parts' list")
        parts = []
        for i, spec in enumerate(specs):
            spec = dict(spec)
            sub_kind = spec.pop("kind", None)
            if sub_kind == "composite":
                raise SimulationError("composite workloads cannot nest")
            spec.setdefault("fid_offset", i * _FID_STRIDE)
            parts.append(make_workload(sub_kind, fabric, **spec))
        return CompositeWorkload(parts=parts)
    cls = WORKLOADS.get(kind)
    if cls is None:
        known = sorted([*WORKLOADS, "composite"])
        raise SimulationError(f"unknown workload kind {kind!r}; known: {known}")
    try:
        return cls(fabric, **params)
    except TypeError as err:
        raise SimulationError(f"bad options for workload {kind!r}: {err}") from err
