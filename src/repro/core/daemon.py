"""``DarpaDaemon`` — a deterministic async serving daemon for fleets.

Every layer so far serves ONE session at a time: ``DarpaService`` is a
per-session callback object, and the fleet runners replay sessions
back-to-back (or in shard processes).  This module refactors that into
the long-running service the ROADMAP's "async serving daemon" arc asks
for: a discrete-event scheduler on the simulated clock
(:class:`repro.android.clock.SimulatedClock`) multiplexing many device
sessions through shared batched-inference workers, with the full
robustness surface an always-on fleet needs:

- **admission control** — a :class:`TokenBucket` (integer micro-token
  state, no float accumulation) gates arrivals; rejected sessions get
  typed :class:`RejectionRecord` entries (``rate_limited``,
  ``queue_full``, ``drained``) instead of silent drops;
- **bounded priority lanes** — per-lane FIFO queues with hard capacity
  (:class:`LaneConfig`); the interactive lane is served strictly before
  background replays.  Backpressure is propagated to the session as
  *deferred screenshot capture*: an admitted session waits in its lane
  and its deferral is recorded (``deferred_ms``) rather than the
  session being dropped;
- **deadline-aware load shedding** — a session whose queue wait exceeds
  ``shed_deadline_ms`` is not dropped: it runs **degraded**, straight
  through the FraudDroid heuristic (``DarpaConfig.force_degraded``),
  so the user still gets decorations-by-metadata on time;
- **graceful drain** — after ``drain_at_ms`` the daemon stops accepting
  (typed ``drained`` rejections), flushes every in-flight batch, and
  emits a versioned ``drain.json`` manifest;
- **crash-safe checkpoint/resume** — each completed session is written
  as one idempotent artifact part file set plus one line in a versioned
  ``journal.jsonl``.  A killed run (``max_batches`` simulates the kill)
  resumes with ``resume=True``: the schedule is *replayed* — scheduling
  decisions are a pure function of (config, arrival schedule, fault
  seed) and never depend on execution results — and journaled sessions
  are skipped, so the finished artifacts are byte-identical to an
  uninterrupted run;
- **cross-batch request coalescing** — the sessions of one scheduler
  batch run in lockstep coordinator threads
  (:class:`CoalescingCoordinator`): whenever several sessions have an
  inference pending at the same round, their screenshots are folded
  into ONE ``detect_screens`` call — one ``InferencePlan`` forward,
  whose per-image GEMMs make it bit-identical to the per-image path.

**Determinism argument.**  Scheduling (fleet time) and execution
(session time) are two separate clocks.  The daemon's clock decides
*when* and *in what state* (normal vs degraded) each global session
index runs; the session itself replays on its own device clock with
every random stream keyed to the global index (``monkey_seed = 1000 +
index``), exactly as the sequential runner does.  Because scheduling
decisions never read execution results, and every tie on the fleet
clock is broken by timer-schedule order, the outcome assignment is a
pure function of the configuration — independent of worker count,
thread interleaving, or how many times the run was killed and resumed.
When nothing is shed or degraded (offered load within capacity, zero
faults), every session executes exactly the sequential call, so the
merged ``trace.jsonl``/``metrics.jsonl``/``telemetry.json`` are
byte-identical to :func:`repro.bench.parallel.run_darpa_over_fleet_parallel`.
Scheduling records live in a separate ``daemon.json`` precisely so the
telemetry artifacts stay comparable.

Worker faults (seeded stall/crash mid-batch, satellite of the fault
plan) are drawn ONCE per formed batch, *before* any session in it
executes: a crashed batch is re-enqueued at the head of its lane
without having touched any telemetry, so nothing is double-counted.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.android.clock import SimulatedClock
from repro.android.faults import FaultInjector, FaultPlan
from repro.rundir import (
    DAEMON,
    DRAIN,
    JOURNAL,
    RunDirectoryError,
    RunListing,
    recover_jsonl,
    write_json,
)

#: Schema version of ``journal.jsonl`` (header line).
JOURNAL_VERSION = 1
#: Schema version of ``daemon.json`` and ``drain.json``.
DAEMON_ARTIFACT_VERSION = 1

#: Seed offset of the daemon's worker-fault stream.  Prime, and
#: distinct from the per-session offset (``7919 * (monkey_seed + 1)``
#: in :func:`repro.bench.experiments.run_darpa_session`), so worker
#: faults never correlate with any session's injected faults.
WORKER_FAULT_SEED_OFFSET = 104729

#: Hard ceiling on formed batches per offered session — a crash-looping
#: fault plan (worker_crash_rate ~ 1.0) must fail loudly, not livelock.
_MAX_BATCH_FACTOR = 1000


class JournalError(ValueError):
    """The resume journal is missing, corrupt, or from another run."""


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

class TokenBucket:
    """A token bucket on the simulated clock with integer state.

    Tokens are kept in integer micro-tokens and refilled lazily from
    the elapsed simulated time, so the bucket never accumulates float
    error and two replays of the same schedule make identical
    admit/reject decisions.
    """

    SCALE = 1_000_000  # micro-tokens per token

    def __init__(self, rate_per_s: float, burst: int, clock: SimulatedClock):
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.clock = clock
        #: Micro-tokens granted per simulated millisecond.
        self.rate_micro_per_ms = int(round(rate_per_s * self.SCALE / 1000.0))
        self.capacity_micro = int(burst) * self.SCALE
        self.tokens_micro = self.capacity_micro  # starts full
        self._last_ms = clock.now_ms

    def _refill(self) -> None:
        now = self.clock.now_ms
        elapsed = now - self._last_ms
        if elapsed > 0:
            grant = int(round(elapsed * self.rate_micro_per_ms))
            self.tokens_micro = min(self.capacity_micro,
                                    self.tokens_micro + grant)
            self._last_ms = now

    @property
    def tokens(self) -> float:
        """Current whole-token balance (refilled to now)."""
        self._refill()
        return self.tokens_micro / self.SCALE

    def try_take(self) -> bool:
        """Take one token if available; never blocks."""
        self._refill()
        if self.tokens_micro >= self.SCALE:
            self.tokens_micro -= self.SCALE
            return True
        return False


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaneConfig:
    """One bounded priority lane.  Tuple order in
    :attr:`DaemonConfig.lanes` IS the priority order."""

    name: str
    capacity: int = 256

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("lane name cannot be empty")
        if self.capacity < 1:
            raise ValueError("lane capacity must be >= 1")


#: The stock lane pair: interactive screens before background replays.
DEFAULT_LANES: Tuple[LaneConfig, ...] = (
    LaneConfig("interactive", capacity=256),
    LaneConfig("background", capacity=256),
)


@dataclass(frozen=True)
class DaemonConfig:
    """The daemon's scheduling policy, all in simulated fleet time."""

    #: Session ``i`` arrives at ``i * inter_arrival_ms`` — the offered
    #: load knob the bench sweeps.
    inter_arrival_ms: float = 120.0
    #: Token-bucket admission: sustained sessions/second and burst size.
    admission_rate_per_s: float = 50.0
    admission_burst: int = 16
    #: Priority lanes, highest priority first.
    lanes: Tuple[LaneConfig, ...] = DEFAULT_LANES
    #: Every Nth offered session is a background replay (routed to the
    #: ``background`` lane); 0 routes everything interactive.
    background_every: int = 0
    #: Shared batched-inference workers and the largest coalesced batch.
    workers: int = 2
    batch_max: int = 4
    #: Simulated service time of one coalesced batch.
    batch_service_ms: float = 250.0
    #: Queue wait beyond which a session is served degraded (FraudDroid
    #: fallback) instead of through the CNN queue; 0 disables shedding.
    shed_deadline_ms: float = 2000.0

    def __post_init__(self) -> None:
        if self.inter_arrival_ms < 0:
            raise ValueError("inter_arrival_ms cannot be negative")
        if self.admission_rate_per_s <= 0:
            raise ValueError("admission_rate_per_s must be positive")
        if self.admission_burst < 1:
            raise ValueError("admission_burst must be >= 1")
        if not self.lanes:
            raise ValueError("need at least one lane")
        names = [lane.name for lane in self.lanes]
        if len(set(names)) != len(names):
            raise ValueError("lane names must be unique")
        if self.background_every < 0:
            raise ValueError("background_every cannot be negative")
        if self.background_every and "background" not in names:
            raise ValueError("background_every needs a 'background' lane")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.batch_service_ms < 0:
            raise ValueError("batch_service_ms cannot be negative")
        if self.shed_deadline_ms < 0:
            raise ValueError("shed_deadline_ms cannot be negative")

    def lane_of(self, index: int) -> str:
        """Deterministic lane routing of global session ``index``."""
        if (self.background_every
                and index % self.background_every == self.background_every - 1):
            return "background"
        return self.lanes[0].name

    def to_dict(self) -> Dict[str, object]:
        return {
            "inter_arrival_ms": self.inter_arrival_ms,
            "admission_rate_per_s": self.admission_rate_per_s,
            "admission_burst": self.admission_burst,
            "lanes": [{"name": lane.name, "capacity": lane.capacity}
                      for lane in self.lanes],
            "background_every": self.background_every,
            "workers": self.workers,
            "batch_max": self.batch_max,
            "batch_service_ms": self.batch_service_ms,
            "shed_deadline_ms": self.shed_deadline_ms,
        }


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

#: Typed admission-rejection kinds.
REJECTION_KINDS = ("rate_limited", "queue_full", "drained")

#: Terminal outcomes of an offered session.  Every offered session ends
#: in exactly one of these (the proptest trichotomy invariant).
OUTCOMES = ("decorated", "degraded", "shed")


@dataclass(frozen=True)
class RejectionRecord:
    """One typed admission rejection (the session's outcome is shed)."""

    index: int
    at_ms: float
    lane: str
    kind: str

    def to_dict(self) -> Dict[str, object]:
        return {"index": self.index, "at_ms": self.at_ms,
                "lane": self.lane, "kind": self.kind}


@dataclass
class SessionSchedule:
    """Fleet-time scheduling trace of one offered session."""

    index: int
    lane: str
    arrival_ms: float
    outcome: str = ""            # one of OUTCOMES once terminal
    start_ms: Optional[float] = None
    finish_ms: Optional[float] = None
    batch_id: Optional[int] = None

    @property
    def deferred_ms(self) -> float:
        """Backpressure surfaced to the session: how long its screen
        capture was deferred in the lane before a worker took it."""
        if self.start_ms is None:
            return 0.0
        return self.start_ms - self.arrival_ms

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index, "lane": self.lane,
            "arrival_ms": self.arrival_ms, "outcome": self.outcome,
            "start_ms": self.start_ms, "finish_ms": self.finish_ms,
            "deferred_ms": self.deferred_ms, "batch_id": self.batch_id,
        }


@dataclass
class BatchRecord:
    """One formed batch: who ran, on which worker, with which fault."""

    batch_id: int
    worker: int
    lane: str
    formed_ms: float
    indices: List[int]
    fault: str = "ok"            # ok | stall | crash
    fault_delay_ms: float = 0.0
    finish_ms: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "batch_id": self.batch_id, "worker": self.worker,
            "lane": self.lane, "formed_ms": self.formed_ms,
            "indices": list(self.indices), "fault": self.fault,
            "fault_delay_ms": self.fault_delay_ms,
            "finish_ms": self.finish_ms,
        }


@dataclass
class DaemonReport:
    """What one ``run()`` did, for callers and the bench."""

    completed: bool
    killed: bool
    drained_early: bool
    sim_end_ms: float
    counters: Dict[str, int]
    outcomes: Dict[int, str]
    schedules: List[SessionSchedule]
    rejections: List[RejectionRecord]
    batches: List[BatchRecord]
    coalesced_occupancies: List[int] = field(default_factory=list)
    results: Dict[int, object] = field(default_factory=dict)
    resumed_indices: Tuple[int, ...] = ()

    @property
    def shed_rate(self) -> float:
        offered = self.counters.get("offered", 0)
        return (self.counters.get("shed", 0) / offered) if offered else 0.0

    @property
    def mean_batch_occupancy(self) -> float:
        sizes = [len(b.indices) for b in self.batches if b.fault != "crash"]
        return (sum(sizes) / len(sizes)) if sizes else 0.0


# ---------------------------------------------------------------------------
# Cross-batch request coalescing
# ---------------------------------------------------------------------------

class _Slot:
    """Lockstep state of one session thread."""

    __slots__ = ("resume", "yielded", "request", "response", "done",
                 "error", "result")

    def __init__(self):
        self.resume = threading.Event()
        self.yielded = threading.Event()
        self.request: Optional[Tuple] = None
        self.response = None
        self.done = False
        self.error: Optional[BaseException] = None
        self.result = None


class _CoalescingProxy:
    """Per-session detector facade: ``detect_screen`` parks the request
    with the coordinator and blocks until the folded batch answer."""

    def __init__(self, slot: _Slot):
        self._slot = slot

    def detect_screen(self, screen_image,
                      conf_threshold: Optional[float] = None):
        slot = self._slot
        slot.request = (screen_image, conf_threshold)
        slot.yielded.set()
        slot.resume.wait()
        slot.resume.clear()
        response = slot.response
        slot.response = None
        return response


class CoalescingCoordinator:
    """Runs a batch of session jobs in strict-lockstep threads, folding
    concurrently-pending inferences into single ``detect_screens`` calls.

    Exactly one thread runs at any instant: the coordinator steps the
    sessions round-robin in batch order, each step running one session
    until its next inference request (or completion).  When the round
    ends, all pending screenshots go through ONE shared
    ``detector.detect_screens`` call — one plan forward — and the
    per-image results are handed back in slot order.  The strict
    handoff makes the interleaving a deterministic function of the
    batch, and the PR 6 guarantee (``detect_screens`` bit-identical to
    per-image ``detect_screen``) makes every session's result
    bit-identical to running it alone.
    """

    def __init__(self, detector):
        if not hasattr(detector, "detect_screens"):
            raise TypeError("coalescing needs a detect_screens detector")
        self.detector = detector
        #: Sessions folded per coalesced inference round, in order.
        self.occupancies: List[int] = []

    def run_batch(self, jobs: Sequence) -> List[object]:
        """``jobs[i]`` is a callable ``(proxy) -> result``; returns the
        results in job order."""
        slots = [_Slot() for _ in jobs]
        threads = []
        for slot, job in zip(slots, jobs):
            thread = threading.Thread(
                target=self._session_body, args=(slot, job), daemon=True)
            threads.append(thread)
            thread.start()
        live = list(range(len(jobs)))
        while live:
            pending: List[int] = []
            for i in list(live):
                slot = slots[i]
                slot.resume.set()
                slot.yielded.wait()
                slot.yielded.clear()
                if slot.done:
                    live.remove(i)
                else:
                    pending.append(i)
            if pending:
                self._serve_round(slots, pending)
        for thread in threads:
            thread.join()
        for slot in slots:
            if slot.error is not None:
                raise slot.error
        return [slot.result for slot in slots]

    @staticmethod
    def _session_body(slot: _Slot, job) -> None:
        slot.resume.wait()
        slot.resume.clear()
        try:
            slot.result = job(_CoalescingProxy(slot))
        except Exception as exc:  # surfaced by run_batch
            slot.error = exc
        finally:
            slot.done = True
            slot.yielded.set()

    def _serve_round(self, slots: Sequence[_Slot],
                     pending: Sequence[int]) -> None:
        requests = [slots[i].request for i in pending]
        images = [req[0] for req in requests]
        conf = requests[0][1]
        if any(req[1] != conf for req in requests):
            raise ValueError(
                "cannot coalesce inferences with mismatched conf_threshold "
                "settings")
        batched = self.detector.detect_screens(images, conf_threshold=conf)
        self.occupancies.append(len(pending))
        for i, detections in zip(pending, batched):
            slots[i].request = None
            slots[i].response = detections
            # The thread is resumed by the next round's step.


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------

@dataclass
class _Worker:
    """One shared batched-inference worker slot."""

    worker_id: int
    busy: bool = False


class DarpaDaemon:
    """Long-running fleet server: admission, lanes, batches, resume.

    ``sessions`` is the fleet (global index = list position); execution
    of an admitted session is exactly the sequential runner's call
    (:func:`repro.bench.experiments.run_darpa_session` with
    ``monkey_seed = 1000 + index``), so any session's artifacts are
    independent of every scheduling decision except its own outcome.
    """

    def __init__(
        self,
        sessions: Sequence,
        detector,
        config: Optional[DaemonConfig] = None,
        ct_ms: float = 200.0,
        mode: str = "full",
        conf_threshold: Optional[float] = None,
        frauddroid=None,
        fault_plan: Optional[FaultPlan] = None,
        darpa_kwargs: Optional[Dict] = None,
        out_dir: Optional[str] = None,
        trace: bool = False,
        keep_results: bool = True,
        coalesce: Optional[bool] = None,
    ):
        from repro.bench.experiments import DEFAULT_CONF_THRESHOLD

        self.sessions = list(sessions)
        self.detector = detector
        self.config = config or DaemonConfig()
        self.ct_ms = ct_ms
        self.mode = mode
        self.conf_threshold = (DEFAULT_CONF_THRESHOLD
                               if conf_threshold is None else conf_threshold)
        self.frauddroid = frauddroid
        self.fault_plan = fault_plan
        self.darpa_kwargs = dict(darpa_kwargs or {})
        self.out_dir = out_dir
        self.trace = trace or out_dir is not None
        self.keep_results = keep_results
        if coalesce is None:
            coalesce = (not isinstance(detector, str)
                        and hasattr(detector, "detect_screens")
                        and mode in ("detect", "full"))
        self.coalesce = bool(coalesce)

    # -- fingerprinting -------------------------------------------------

    def fingerprint(self) -> str:
        """Digest tying a journal to one exact run configuration."""
        from repro.bench.provenance import config_hash

        plan = None
        if self.fault_plan is not None:
            plan = {name: getattr(self.fault_plan, name)
                    for name in sorted(self.fault_plan.__dataclass_fields__)}
        return config_hash({
            "daemon": self.config.to_dict(),
            "ct_ms": self.ct_ms,
            "mode": self.mode,
            "conf_threshold": self.conf_threshold,
            "n_sessions": len(self.sessions),
            "fault_plan": plan,
            "darpa_kwargs": dict(sorted(self.darpa_kwargs.items())),
            "trace": self.trace,
        })

    def _session_fault_plan(self) -> Optional[FaultPlan]:
        """The fault plan as the *sessions* see it: worker stall/crash
        rates are daemon-level and stripped before the plan travels into
        :func:`run_darpa_session` — a worker-only plan must be
        bit-inert inside every session (a null session plan means no
        ``FaultyDetector`` wrapper, hence unchanged traces)."""
        if self.fault_plan is None:
            return None
        session_plan = replace(self.fault_plan,
                               worker_stall_rate=0.0, worker_crash_rate=0.0)
        return None if session_plan.is_null else session_plan

    # -- journal --------------------------------------------------------

    def _journal_path(self) -> str:
        assert self.out_dir is not None
        return os.path.join(self.out_dir, JOURNAL)

    def _read_journal(self) -> Tuple[int, ...]:
        """Completed global indices of the killed run being resumed.

        A torn final append counts as not journaled: that session
        re-runs and overwrites its parts (see ``_journal_completed``).
        """
        path = self._journal_path()
        if not os.path.exists(path):
            raise JournalError(f"no journal to resume at {path}")
        try:
            records = recover_jsonl(path)
        except RunDirectoryError as exc:
            raise JournalError(f"corrupt journal: {exc}")
        if not records:
            raise JournalError(f"empty journal at {path}")
        header = records[0]
        if header.get("kind") != "darpa-daemon-journal":
            raise JournalError("not a daemon journal")
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal version {header.get('version')} != "
                f"{JOURNAL_VERSION}")
        if header.get("fingerprint") != self.fingerprint():
            raise JournalError(
                "journal was written by a different run configuration")
        done = {record.get("index") for record in records[1:]}
        if not all(isinstance(index, int) for index in done):
            raise JournalError("corrupt journal: entry without an index")
        return tuple(sorted(done))  # type: ignore[type-var]

    def _start_journal(self) -> None:
        with open(self._journal_path(), "w") as fp:
            fp.write(json.dumps({
                "kind": "darpa-daemon-journal",
                "version": JOURNAL_VERSION,
                "fingerprint": self.fingerprint(),
                "n_sessions": len(self.sessions),
            }, sort_keys=True) + "\n")

    def _journal_completed(self, index: int) -> None:
        # One line per completed session, appended AFTER its part files
        # are on disk: a kill between the two leaves an orphan part that
        # the resume simply overwrites (idempotent), never a journal
        # entry without artifacts.
        with open(self._journal_path(), "a") as fp:
            fp.write(json.dumps({"index": index}) + "\n")
            fp.flush()

    def _reset_out_dir(self) -> None:
        assert self.out_dir is not None
        os.makedirs(self.out_dir, exist_ok=True)
        for name in RunListing.scan(self.out_dir).stale():
            os.remove(os.path.join(self.out_dir, name))

    # -- the run --------------------------------------------------------

    def run(self, resume: bool = False, drain_at_ms: Optional[float] = None,
            max_batches: Optional[int] = None) -> DaemonReport:
        """Serve the whole fleet; returns the scheduling report.

        ``drain_at_ms`` starts a graceful drain at that fleet time:
        later arrivals are rejected (``drained``), in-flight batches
        flush, and a ``drain.json`` manifest is emitted.

        ``max_batches`` kills the daemon after that many *completed*
        batches — mid-run, without merging artifacts — which is how the
        bench and CI simulate a crash.  ``resume=True`` picks a killed
        run back up from its journal; the finished artifacts are
        byte-identical to a never-killed run.
        """
        config = self.config
        completed_before: Tuple[int, ...] = ()
        if self.out_dir is not None:
            if resume:
                completed_before = self._read_journal()
            else:
                self._reset_out_dir()
                self._start_journal()
        elif resume:
            raise JournalError("resume requires out_dir")
        skip = set(completed_before)

        clock = SimulatedClock()
        bucket = TokenBucket(config.admission_rate_per_s,
                             config.admission_burst, clock)
        lanes: Dict[str, Deque[SessionSchedule]] = {
            lane.name: deque() for lane in config.lanes}
        capacity = {lane.name: lane.capacity for lane in config.lanes}
        workers = [_Worker(i) for i in range(config.workers)]
        injector: Optional[FaultInjector] = None
        if self.fault_plan is not None and not self.fault_plan.is_null:
            worker_plan = replace(
                self.fault_plan,
                seed=self.fault_plan.seed + WORKER_FAULT_SEED_OFFSET)
            injector = FaultInjector(worker_plan, clock)

        schedules: Dict[int, SessionSchedule] = {}
        rejections: List[RejectionRecord] = []
        batches: List[BatchRecord] = []
        occupancies: List[int] = []
        results: Dict[int, object] = {}
        counters: Dict[str, int] = {
            "offered": 0, "admitted": 0, "completed": 0,
            "decorated": 0, "degraded": 0, "shed": 0,
            "shed_rate_limited": 0, "shed_queue_full": 0, "shed_drained": 0,
            "batches_formed": 0, "batches_completed": 0,
            "worker_crashes": 0, "worker_stalls": 0,
            "coalesced_rounds": 0, "coalesced_requests": 0,
            "deferred_sessions": 0,
        }
        state = {"draining": False, "stopped": False, "batch_seq": 0,
                 "completed_batches": 0, "drained_early": False}
        event_times: List[float] = []

        def at(delay_ms: float, callback) -> None:
            heapq.heappush(event_times, clock.now_ms + delay_ms)
            clock.schedule(delay_ms, callback)

        def reject(index: int, lane: str, kind: str) -> None:
            entry = schedules[index]
            entry.outcome = "shed"
            rejections.append(RejectionRecord(
                index=index, at_ms=clock.now_ms, lane=lane, kind=kind))
            counters["shed"] += 1
            counters[f"shed_{kind}"] += 1

        def arrive(index: int) -> None:
            counters["offered"] += 1
            lane = config.lane_of(index)
            entry = SessionSchedule(index=index, lane=lane,
                                    arrival_ms=clock.now_ms)
            schedules[index] = entry
            if state["draining"]:
                reject(index, lane, "drained")
                return
            if len(lanes[lane]) >= capacity[lane]:
                reject(index, lane, "queue_full")
                return
            if not bucket.try_take():
                reject(index, lane, "rate_limited")
                return
            counters["admitted"] += 1
            lanes[lane].append(entry)
            dispatch()

        def free_worker() -> Optional[_Worker]:
            for worker in workers:
                if not worker.busy:
                    return worker
            return None

        def next_lane() -> Optional[str]:
            for lane in config.lanes:       # declaration order = priority
                if lanes[lane.name]:
                    return lane.name
            return None

        def dispatch() -> None:
            while True:
                worker = free_worker()
                lane = next_lane()
                if worker is None or lane is None:
                    return
                if (counters["batches_formed"]
                        >= _MAX_BATCH_FACTOR * max(1, len(self.sessions))):
                    raise RuntimeError(
                        "batch formation runaway (crash-looping fault plan?)")
                batch_entries: List[SessionSchedule] = []
                while lanes[lane] and len(batch_entries) < config.batch_max:
                    batch_entries.append(lanes[lane].popleft())
                state["batch_seq"] += 1
                record = BatchRecord(
                    batch_id=state["batch_seq"], worker=worker.worker_id,
                    lane=lane, formed_ms=clock.now_ms,
                    indices=[e.index for e in batch_entries])
                batches.append(record)
                counters["batches_formed"] += 1
                fault, delay = ("ok", 0.0)
                if injector is not None:
                    fault, delay = injector.worker_batch_fault()
                record.fault, record.fault_delay_ms = fault, delay
                worker.busy = True
                if fault == "crash":
                    # The batch never ran: put its sessions back at the
                    # head of the lane in their original order (FIFO is
                    # preserved) and bring the worker back after the
                    # restart delay.  No telemetry was touched, so
                    # nothing can be double-counted.
                    counters["worker_crashes"] += 1
                    lanes[lane].extendleft(reversed(batch_entries))
                    at(delay, lambda w=worker: restart(w))
                    continue
                if fault == "stall":
                    counters["worker_stalls"] += 1
                service_ms = config.batch_service_ms + delay
                at(service_ms,
                   lambda e=batch_entries, r=record, w=worker:
                   complete(e, r, w))

        def restart(worker: _Worker) -> None:
            worker.busy = False
            dispatch()

        def complete(batch_entries: List[SessionSchedule],
                     record: BatchRecord, worker: _Worker) -> None:
            if state["stopped"]:
                return
            record.finish_ms = clock.now_ms
            for entry in batch_entries:
                entry.start_ms = record.formed_ms
                entry.finish_ms = clock.now_ms
                entry.batch_id = record.batch_id
                degraded = bool(
                    config.shed_deadline_ms
                    and entry.deferred_ms > config.shed_deadline_ms)
                entry.outcome = "degraded" if degraded else "decorated"
                counters[entry.outcome] += 1
                if entry.deferred_ms > 0:
                    counters["deferred_sessions"] += 1
            self._execute_batch(batch_entries, skip, results,
                                counters, occupancies)
            counters["completed"] += len(batch_entries)
            counters["batches_completed"] += 1
            state["completed_batches"] += 1
            if (max_batches is not None
                    and state["completed_batches"] >= max_batches):
                state["stopped"] = True     # simulated kill -9
                return
            worker.busy = False
            dispatch()

        def start_drain() -> None:
            state["draining"] = True
            state["drained_early"] = True

        if drain_at_ms is not None:
            # Scheduled before the arrivals so a same-instant arrival is
            # already refused (timer ties break by schedule order).
            at(drain_at_ms, start_drain)
        for index in range(len(self.sessions)):
            at(index * config.inter_arrival_ms, lambda i=index: arrive(i))

        # The discrete-event loop: hop to the next scheduled instant and
        # let the clock fire everything due there.  A "killed" daemon
        # simply stops hopping — pending timers die with the process.
        while event_times and not state["stopped"]:
            t = heapq.heappop(event_times)
            if t > clock.now_ms:
                clock.advance(t - clock.now_ms)
            else:
                clock.advance(0.0)

        killed = bool(state["stopped"])
        ordered = [schedules[i] for i in sorted(schedules)]
        report = DaemonReport(
            completed=not killed,
            killed=killed,
            drained_early=bool(state["drained_early"]),
            sim_end_ms=clock.now_ms,
            counters=counters,
            outcomes={e.index: e.outcome for e in ordered if e.outcome},
            schedules=ordered,
            rejections=rejections,
            batches=batches,
            coalesced_occupancies=occupancies,
            results=results,
            resumed_indices=completed_before,
        )
        if not killed:
            self._check_terminal(report)
        if self.out_dir is not None and not killed:
            self._write_artifacts(report)
        return report

    @staticmethod
    def _check_terminal(report: DaemonReport) -> None:
        """Liveness: a finished run left no session without an outcome."""
        hung = [e.index for e in report.schedules
                if e.outcome not in OUTCOMES]
        if hung:
            raise RuntimeError(f"sessions without terminal outcome: {hung}")

    # -- execution ------------------------------------------------------

    def _execute_batch(self, batch_entries: Sequence[SessionSchedule],
                       skip: set, results: Dict[int, object],
                       counters: Dict[str, int],
                       occupancies: List[int]) -> None:
        """Run a completed batch's sessions and checkpoint each one.

        Journaled sessions of a resumed run are skipped — their part
        files already exist; everything about *scheduling* was already
        re-decided identically by the replay, so skipping execution is
        the only difference between a resumed and an uninterrupted run.
        """
        from repro.bench.experiments import run_darpa_session
        from repro.bench.parallel import write_session_part

        todo = [entry for entry in batch_entries if entry.index not in skip]
        session_plan = self._session_fault_plan()

        def session_kwargs(entry: SessionSchedule) -> Dict:
            kwargs = dict(self.darpa_kwargs)
            if entry.outcome == "degraded":
                kwargs["force_degraded"] = True
                kwargs.setdefault("fallback_to_heuristic", True)
            return kwargs

        executed: List[Tuple[SessionSchedule, object]] = []
        if self.coalesce and len(todo) > 1:
            coordinator = CoalescingCoordinator(self.detector)

            def make_job(entry: SessionSchedule):
                def job(proxy):
                    return run_darpa_session(
                        self.sessions[entry.index], proxy, ct_ms=self.ct_ms,
                        mode=self.mode, monkey_seed=1000 + entry.index,
                        frauddroid=self.frauddroid,
                        conf_threshold=self.conf_threshold,
                        fault_plan=session_plan,
                        darpa_kwargs=session_kwargs(entry),
                        trace=self.trace)
                return job

            outputs = coordinator.run_batch([make_job(e) for e in todo])
            counters["coalesced_rounds"] += len(coordinator.occupancies)
            counters["coalesced_requests"] += sum(coordinator.occupancies)
            occupancies.extend(coordinator.occupancies)
            executed = list(zip(todo, outputs))
        else:
            for entry in todo:
                result = run_darpa_session(
                    self.sessions[entry.index], self.detector,
                    ct_ms=self.ct_ms, mode=self.mode,
                    monkey_seed=1000 + entry.index,
                    frauddroid=self.frauddroid,
                    conf_threshold=self.conf_threshold,
                    fault_plan=session_plan,
                    darpa_kwargs=session_kwargs(entry),
                    trace=self.trace)
                executed.append((entry, result))

        executed.sort(key=lambda item: item[0].index)
        for entry, result in executed:
            if self.out_dir is not None:
                write_session_part(self.out_dir, entry.index, result)
                self._journal_completed(entry.index)
            if self.keep_results:
                results[entry.index] = result

    # -- artifacts ------------------------------------------------------

    def _write_artifacts(self, report: DaemonReport) -> None:
        """daemon.json + drain.json, then the merged fleet artifacts.

        Scheduling records go to ``daemon.json``, NEVER into
        ``telemetry.json`` — the telemetry artifacts must stay
        byte-comparable to the sequential runner's.
        """
        from repro.bench.parallel import merge_trace_artifacts

        assert self.out_dir is not None
        daemon_payload = {
            "version": DAEMON_ARTIFACT_VERSION,
            "fingerprint": self.fingerprint(),
            "config": self.config.to_dict(),
            "counters": dict(sorted(report.counters.items())),
            "shed_rate": report.shed_rate,
            "mean_batch_occupancy": report.mean_batch_occupancy,
            "coalesced_occupancies": list(report.coalesced_occupancies),
            "sessions": [e.to_dict() for e in report.schedules],
            "rejections": [r.to_dict() for r in report.rejections],
            "batches": [b.to_dict() for b in report.batches],
        }
        write_json(os.path.join(self.out_dir, DAEMON), daemon_payload)
        drain_payload = {
            "version": DAEMON_ARTIFACT_VERSION,
            "fingerprint": self.fingerprint(),
            "drained_at_ms": report.sim_end_ms,
            "forced": report.drained_early,
            "offered": report.counters["offered"],
            "completed": report.counters["completed"],
            "shed": report.counters["shed"],
            "queues_flushed": True,
        }
        write_json(os.path.join(self.out_dir, DRAIN), drain_payload)
        if self.trace and report.counters["completed"]:
            merge_trace_artifacts(self.out_dir)


__all__ = [
    "JOURNAL_VERSION",
    "DAEMON_ARTIFACT_VERSION",
    "JournalError",
    "TokenBucket",
    "LaneConfig",
    "DEFAULT_LANES",
    "DaemonConfig",
    "REJECTION_KINDS",
    "OUTCOMES",
    "RejectionRecord",
    "SessionSchedule",
    "BatchRecord",
    "DaemonReport",
    "CoalescingCoordinator",
    "DarpaDaemon",
]
