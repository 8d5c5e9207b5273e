"""The batched multi-session serving engine.

One deployment server hosts many concurrent user sessions.  Served
naively, each session pays the full per-interval pipeline alone; this
engine multiplexes them through a single vectorized step per tick:

1. **prepare** — each session triages its own inputs
   (:meth:`~repro.service.MoLocService.prepare_interval`): sanitization,
   IMU checks, mode selection, motion extraction.  Motion extraction and
   IMU checks are pure in the segment (plus calibration state), so the
   engine memoizes them across sessions — concurrent users replaying
   the same recorded walk share the work — and computes the tick's memo
   misses in one call of the batched motion kernel
   (:func:`~repro.motion.kernel.segment_motions`).
2. **match** — all prepared fingerprints stack into one ``(B, L, A)``
   tensor and reduce with a single einsum against the cached mean
   matrix (:class:`~repro.serving.scheduler.BatchMatcher`), behind a
   content-addressed candidate cache.
3. **transitions** — Eq. 5/6 evaluate off the precomputed dense motion
   tensor behind a whole-vector LRU
   (:class:`~repro.serving.transitions.TransitionEvaluator`).
4. **complete** — each session finishes its own interval
   (:meth:`~repro.service.MoLocService.complete_interval`): posterior
   fusion, retention, stride personalization, watchdogs, health — and
   coasting sessions dispatch through the existing robustness fallback
   chain untouched.

Every per-session computation runs through the *same* service objects
and the *same* arithmetic as the sequential path, so the engine is
bitwise-equivalent to calling ``service.on_interval`` per session — the
golden-trace tests in ``tests/serving/`` assert exactly that, fault
injection included.

On top of the batching, the engine is *fault-isolated per session*: an
exception raised while preparing or completing one session's interval
quarantines that session (exponential backoff, N-strike eviction —
see :class:`~repro.serving.session.QuarantinePolicy`) instead of
aborting the batch; :meth:`BatchedServingEngine.tick_detailed` reports
the partial outcome.  Sequence numbers on
:class:`IntervalEvent` make duplicate deliveries idempotent and drop
stale reordered ones.  A per-tick time budget
(``tick_budget_s``) sheds late completions to the WiFi-only fast path,
and :meth:`BatchedServingEngine.checkpoint` /
:meth:`BatchedServingEngine.restore` serialize the whole multi-session
state for crash recovery (see :mod:`repro.serving.checkpoint` for the
write-ahead log that makes recovery kill-anywhere exact).

The engine is instrumented end to end through
:mod:`repro.observability`: tick latency and batch-size histograms,
per-phase span timing, cache and memo hit/miss counters, quarantine
and shed counters, and one registry all sessions count into — all
surfaced by :meth:`BatchedServingEngine.metrics_snapshot` as one
JSON-serializable document (see ``docs/observability.md`` for the
schema).
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import MoLocConfig
from ..core.fingerprint import FingerprintDatabase
from ..core.matching import Candidate
from ..core.motion_db import MotionDatabase
from ..db.epochs import EpochSnapshot, EpochalDatabase, Update
from ..io.serialize import fix_from_dict, fix_to_dict
from ..motion.kernel import SegmentMotion, segment_motions
from ..observability import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    SpanTracer,
)
from ..robustness.health import FaultType, ServingMode
from ..robustness.sanitizer import check_imu
from ..robustness.service import ResilientMoLocService, ResilientPreparedInterval
from ..sensors.imu import ImuSegment, IntervalEvent
from ..service import MoLocService, PrecomputedInputs, PreparedInterval
from .scheduler import BatchMatcher, MatchRequest
from .session import QuarantinePolicy, SessionManager, SessionRecord
from .transitions import TransitionEvaluator

__all__ = [
    "IntervalEvent",
    "SessionFault",
    "TickOutcome",
    "BatchedServingEngine",
    "CHECKPOINT_FORMAT_VERSION",
    "EPOCHAL_CHECKPOINT_FORMAT_VERSION",
    "METRICS_SCHEMA_VERSION",
]

_PHASES = ("prepare", "match", "transitions", "complete")

CHECKPOINT_FORMAT_VERSION = 1
"""The pre-epoch checkpoint format; still what non-epochal engines
write, byte for byte, so existing checkpoints and the empty aligned
documents the cluster reshard fabricates stay valid."""

EPOCHAL_CHECKPOINT_FORMAT_VERSION = 2
"""Version 2 adds the ``epoch`` key: the full current epoch snapshot
(id, checksum, contents), written only by engines serving an
:class:`~repro.db.epochs.EpochalDatabase`.  A version-1 checkpoint
restores into an epochal engine with an implicit epoch-0 pin."""

METRICS_SCHEMA_VERSION = 3
"""Stamp of engine and cluster metrics documents; 3 made ``sessions``
one registry whose counters never go backwards."""

# Exceptions that must never be swallowed by per-session isolation:
# they signal process-level failure (exhausted memory, a blown stack),
# not a fault scoped to one session's inputs.
_NON_ISOLABLE = (MemoryError, RecursionError)


@dataclass(frozen=True)
class SessionFault:
    """One session's failure during one tick.

    Attributes:
        session_id: The faulting session.
        phase: Which phase raised (``prepare`` / ``match`` /
            ``complete``).
        error: ``repr`` of the exception.
        strikes: The session's consecutive-fault count after this one.
        action: ``"quarantined"`` or ``"evicted"``.
        backoff_ticks: Quarantine length granted (0 when evicted).
    """

    session_id: str
    phase: str
    error: str
    strikes: int
    action: str
    backoff_ticks: int


@dataclass(frozen=True)
class TickOutcome:
    """The full report of one tick's partial success.

    ``fixes`` aligns with the event list: a fix object where the event
    was served (or answered from the duplicate cache), None where it
    was not (faulted, quarantined, or dropped as stale).  The remaining
    fields say *why* each non-served slot is empty.

    Attributes:
        fixes: One entry per event, in event order.
        served: Session ids served fresh this tick (includes shed ones).
        faulted: Per-session failures, in event order.
        quarantined: Session ids skipped because they were quarantined.
        duplicates: Session ids answered idempotently from the cache.
        stale: Session ids whose event was dropped as out-of-order.
        shed: Session ids degraded to the WiFi-only fast path by the
            tick budget.
        evicted: Session ids removed after reaching the strike limit.
        unroutable: Session ids the engine does not know — e.g. events
            stranded in an upstream queue after their session was
            evicted by strike-out.  Dropped without touching any state,
            so one dead session's backlog cannot abort a healthy batch.
        trust_masked: Session ids whose fix this tick carried the
            ``ROGUE_AP_MASKED`` fault — their trust monitor benched at
            least one AP (or demoted the whole scan).  Per-tick attack
            attribution for dashboards and the red-team bench.
    """

    fixes: List[object]
    served: Tuple[str, ...]
    faulted: Tuple[SessionFault, ...]
    quarantined: Tuple[str, ...]
    duplicates: Tuple[str, ...]
    stale: Tuple[str, ...]
    shed: Tuple[str, ...]
    evicted: Tuple[str, ...]
    unroutable: Tuple[str, ...] = ()
    trust_masked: Tuple[str, ...] = ()


class BatchedServingEngine:
    """Serves many MoLoc sessions through one vectorized step per tick.

    Args:
        fingerprint_db: The fingerprint database all sessions share.
        motion_db: The motion database all sessions share.
        config: The algorithm configuration all sessions share; the
            engine's caches assume it, so sessions registered with a
            different config are rejected.
        matcher: Batch matcher override (defaults to one over
            ``fingerprint_db``).
        transitions: Transition evaluator override (defaults to one
            over ``motion_db`` and ``config``).
        motion_memo_size: Entry cap for each cross-session memo (the
            motion-extraction memo and the IMU-check memo; 0 disables
            both).  Full memos evict their least-recently-used entry —
            never the whole table — and keep the ref-pinning guarantee:
            a segment object stays referenced for as long as any memo
            entry is keyed on its ``id()``, so a recycled id can never
            alias a dead key.
        estimate_cache_size: Entries in the posterior (Eq. 7) LRU.
        metrics: Registry for the engine's own metrics (a fresh one
            when omitted).  Default-constructed matchers and transition
            evaluators get their own registries, sessions count into
            :attr:`session_metrics` (enabled when ``metrics`` is); all
            of them surface through :meth:`metrics_snapshot`.
        quarantine: Fault-isolation policy (strikes, backoff, eviction);
            defaults to :class:`~repro.serving.session.QuarantinePolicy`.
        tick_budget_s: Optional per-tick wall-clock budget.  Once a
            tick's completion loop crosses it, remaining motion-assisted
            completions are shed to the WiFi-only fast path (resilient
            sessions flag the fix ``DEADLINE_SHED``); None disables
            shedding.
        clock: Monotonic time source for tick timing and the budget.
            Injectable so deadline behavior is testable without real
            sleeps, and so the chaos harness can model latency spikes.
        fault_injector: Optional hook ``(phase, session_id) -> None``
            called before each session's work in each phase; exceptions
            it raises are handled exactly like session faults.  The
            chaos harness installs its schedule here; None (the
            default) costs nothing.
    """

    def __init__(
        self,
        fingerprint_db: FingerprintDatabase,
        motion_db: MotionDatabase,
        config: MoLocConfig = MoLocConfig(),
        matcher: Optional[BatchMatcher] = None,
        transitions: Optional[TransitionEvaluator] = None,
        motion_memo_size: int = 4096,
        estimate_cache_size: int = 16384,
        metrics: Optional[MetricsRegistry] = None,
        quarantine: Optional[QuarantinePolicy] = None,
        tick_budget_s: Optional[float] = None,
        clock: Callable[[], float] = time.perf_counter,
        fault_injector: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if motion_memo_size < 0:
            raise ValueError(
                f"motion_memo_size must be >= 0, got {motion_memo_size}"
            )
        if estimate_cache_size < 0:
            raise ValueError(
                f"estimate_cache_size must be >= 0, got {estimate_cache_size}"
            )
        if tick_budget_s is not None and tick_budget_s <= 0:
            raise ValueError(
                f"tick_budget_s must be positive or None, got {tick_budget_s}"
            )
        if isinstance(fingerprint_db, EpochalDatabase):
            if matcher is not None:
                raise ValueError(
                    "matcher override is not supported with an epochal "
                    "database; the engine keys matchers by epoch"
                )
            self._epochal: Optional[EpochalDatabase] = fingerprint_db
            self._fingerprint_db = fingerprint_db.database
        else:
            self._epochal = None
            self._fingerprint_db = fingerprint_db
        self._motion_db = motion_db
        self._config = config
        self.sessions = SessionManager()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.session_metrics = MetricsRegistry(enabled=self.metrics.enabled)
        self.matcher = matcher or BatchMatcher(self._fingerprint_db)
        # Matchers are epoch-keyed: each epoch's content-addressed
        # candidate cache is isolated behind its own matcher, so a flip
        # can never serve candidates computed against another epoch's
        # mean matrix (bitwise determinism is *per epoch*).
        self._matchers: Dict[int, BatchMatcher] = {
            (0 if self._epochal is None else self._epochal.epoch_id): self.matcher
        }
        self.transitions = transitions or TransitionEvaluator(
            motion_db, config
        )
        self.quarantine_policy = quarantine or QuarantinePolicy()
        self.tick_budget_s = tick_budget_s
        self.clock = clock
        self.fault_injector = fault_injector
        self._tick_index = 0
        self._motion_memo_size = motion_memo_size
        # (segment identity, motion_state_key) -> (measurement, steps),
        # LRU.  _motion_refs pins each segment object while _ref_pins
        # counts the memo entries keyed on its id() — the pin drops only
        # when the *last* such entry is evicted, so a recycled id() can
        # never alias a dead key.
        self._motion_memo: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._imu_checks: "OrderedDict[int, Tuple[bool, tuple, Optional[str]]]" = OrderedDict()
        self._motion_refs: Dict[int, ImuSegment] = {}
        self._ref_pins: Dict[int, int] = {}
        # Posterior cache: (candidates, prior, motion, retention) fully
        # determine the evaluated estimate, so sessions at the same
        # phase of the same walk share one immutable result.
        self._estimate_cache_size = estimate_cache_size
        self._estimate_cache: "OrderedDict[tuple, object]" = OrderedDict()
        self.tracer = SpanTracer(self.metrics, prefix="engine.phase")
        self._c_ticks = self.metrics.counter("engine.ticks")
        self._c_intervals = self.metrics.counter("engine.intervals")
        self._c_est_hits = self.metrics.counter("engine.estimate_cache.hits")
        self._c_est_misses = self.metrics.counter(
            "engine.estimate_cache.misses"
        )
        self._c_est_evictions = self.metrics.counter(
            "engine.estimate_cache.evictions"
        )
        self._c_motion_hits = self.metrics.counter("engine.memo.motion_hits")
        self._c_motion_misses = self.metrics.counter(
            "engine.memo.motion_misses"
        )
        self._c_imu_hits = self.metrics.counter("engine.memo.imu_hits")
        self._c_imu_misses = self.metrics.counter("engine.memo.imu_misses")
        self._c_memo_evictions = self.metrics.counter("engine.memo.evictions")
        self._c_faults = self.metrics.counter("engine.quarantine.faults")
        self._c_quarantined = self.metrics.counter(
            "engine.quarantine.entered"
        )
        self._c_quarantine_skips = self.metrics.counter(
            "engine.quarantine.skipped"
        )
        self._c_evictions = self.metrics.counter(
            "engine.quarantine.evictions"
        )
        self._c_recoveries = self.metrics.counter(
            "engine.quarantine.recoveries"
        )
        self._c_seq_duplicates = self.metrics.counter(
            "engine.sequence.duplicates"
        )
        self._c_seq_stale = self.metrics.counter("engine.sequence.stale")
        self._c_seq_gaps = self.metrics.counter("engine.sequence.gaps")
        self._c_unroutable = self.metrics.counter("engine.unroutable")
        self._c_shed = self.metrics.counter("engine.deadline.shed")
        self._c_trust_masked = self.metrics.counter(
            "engine.trust.masked_sessions"
        )
        self._h_tick = self.metrics.histogram("engine.tick.latency_s")
        self._h_batch = self.metrics.histogram(
            "engine.tick.batch_size", DEFAULT_SIZE_BUCKETS
        )
        self._g_sessions = self.metrics.gauge("engine.sessions")
        # Checkpoint serialization sits on the cluster's migration and
        # recovery hot path, so its cost is measured like any other:
        # document size plus encode/restore wall clock.
        self._h_ckpt_bytes = self.metrics.histogram(
            "checkpoint.bytes", DEFAULT_BYTE_BUCKETS
        )
        self._h_ckpt_encode = self.metrics.histogram(
            "checkpoint.encode_seconds"
        )
        self._h_ckpt_restore = self.metrics.histogram(
            "checkpoint.restore_seconds"
        )

    @property
    def config(self) -> MoLocConfig:
        """The shared algorithm configuration."""
        return self._config

    @property
    def fingerprint_db(self) -> FingerprintDatabase:
        """The database the engine currently serves against.

        For an epochal engine this is the current epoch's snapshot;
        session services must be constructed against exactly this
        object (see :meth:`add_session`).
        """
        return self._fingerprint_db

    @property
    def epochal_db(self) -> Optional[EpochalDatabase]:
        """The epochal database, or None for a frozen deployment."""
        return self._epochal

    @property
    def epoch_id(self) -> int:
        """The epoch currently served (0 for a non-epochal engine)."""
        return 0 if self._epochal is None else self._epochal.epoch_id

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------

    def _bind_epoch(self, snapshot: EpochSnapshot) -> None:
        """Rebind serving state to a (newly current) epoch snapshot.

        Only ever called between ticks: the new epoch's database becomes
        the identity sessions are checked against, matching flips to the
        epoch's own matcher (fresh caches unless this epoch was served
        before), and every live session's localizer is re-pointed so
        the very next interval matches against the new field.
        """
        self._fingerprint_db = snapshot.database
        matcher = self._matchers.get(snapshot.epoch_id)
        if matcher is None:
            matcher = BatchMatcher(snapshot.database)
            self._matchers[snapshot.epoch_id] = matcher
        self.matcher = matcher
        for record in self.sessions:
            record.service.localizer.fingerprint_db = snapshot.database

    def advance_epoch(
        self,
        updates: Optional[Sequence[Update]] = None,
        expected_checksum: Optional[str] = None,
    ) -> EpochSnapshot:
        """Compact updates into the next epoch and flip serving to it.

        Args:
            updates: The batch to compact; defaults to (and then clears)
                the epochal database's pending log.
            expected_checksum: Optional agreement check — the flip
                aborts (no state change) if the staged epoch's content
                checksum differs, which is how a cluster worker proves
                it computed the same epoch as every other shard.

        Raises:
            ValueError: if the engine has no epochal database, an update
                is inconsistent with the current epoch, or the staged
                checksum does not match ``expected_checksum``.
        """
        if self._epochal is None:
            raise ValueError(
                "engine serves a frozen database; construct it with an "
                "EpochalDatabase to advance epochs"
            )
        staged = self._epochal.stage(updates)
        if (
            expected_checksum is not None
            and staged.checksum != expected_checksum
        ):
            raise ValueError(
                f"staged epoch {staged.epoch_id} checksum "
                f"{staged.checksum[:12]}… does not match expected "
                f"{expected_checksum[:12]}…"
            )
        if updates is None:
            self._epochal.log.clear()
        self._epochal.adopt(staged)
        self._bind_epoch(staged)
        return staged

    def adopt_epoch(self, snapshot: EpochSnapshot) -> None:
        """Flip serving to an externally produced epoch snapshot.

        The recovery/handoff seam: a checkpoint or a cluster commit
        carries a fully built snapshot rather than an update batch.
        Idempotent when the snapshot is already current.

        Raises:
            ValueError: if the engine has no epochal database or a
                retained epoch id reappears with different contents.
        """
        if self._epochal is None:
            raise ValueError(
                "engine serves a frozen database; construct it with an "
                "EpochalDatabase to adopt epochs"
            )
        self._epochal.adopt(snapshot)
        self._bind_epoch(self._epochal.current)

    @property
    def estimate_cache_hits(self) -> int:
        """Intervals served straight from the posterior cache."""
        return self._c_est_hits.value

    @property
    def estimate_cache_misses(self) -> int:
        """Matchable intervals that evaluated Eq. 6/7 themselves."""
        return self._c_est_misses.value

    @property
    def ticks_served(self) -> int:
        """How many ticks :meth:`tick` has processed."""
        return self._c_ticks.value

    @property
    def tick_index(self) -> int:
        """The durable tick counter (survives checkpoint/restore).

        Unlike :attr:`ticks_served` this is *state*, not a metric: the
        quarantine expiries reference it and the write-ahead log is
        indexed by it, so :meth:`restore` resumes it while the metrics
        registry restarts fresh.
        """
        return self._tick_index

    @property
    def intervals_served(self) -> int:
        """Total intervals served across all sessions."""
        return self._c_intervals.value

    @property
    def last_tick_phases(self) -> Dict[str, float]:
        """Per-phase wall-clock seconds of the most recent tick.

        Keys are ``prepare`` / ``match`` / ``transitions`` /
        ``complete``; the four are disjoint and sum to (almost exactly)
        the tick latency.  ``transitions`` is accumulated across the
        per-session completion loop and excluded from ``complete``.
        """
        return {
            name: self.tracer.last[name]
            for name in _PHASES
            if name in self.tracer.last
        }

    # ------------------------------------------------------------------
    # Observability surface
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        """Everything the serving stack measures, as one JSON document.

        Returns:
            ``{"schema": 3, "engine": ..., "matcher": ...,
            "transitions": ..., "sessions": ...}``, one registry's
            snapshot each.  ``sessions`` is :attr:`session_metrics`:
            removed sessions' counts stay, and its two gauges are the
            maximum over live resilient sessions of their coasting
            streak and quarantined AP count (None without trust).
        """
        sessions = self.session_metrics.snapshot()
        resilient = [
            record.service
            for record in self.sessions
            if isinstance(record.service, ResilientMoLocService)
        ]
        if resilient and self.session_metrics.enabled:
            sessions["gauges"] = {
                "service.coasting_streak": max(
                    service.coasting_streak for service in resilient
                ),
                "service.trust.quarantined_aps": max(
                    (
                        len(service.trust.quarantined_ap_ids)
                        for service in resilient
                        if service.trust is not None
                    ),
                    default=None,
                ),
            }
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "engine": self.metrics.snapshot(),
            "matcher": self.matcher.metrics.snapshot(),
            "transitions": self.transitions.metrics.snapshot(),
            "sessions": sessions,
        }

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def add_session(
        self, session_id: str, service: MoLocService
    ) -> SessionRecord:
        """Register a per-user service under an id.

        Raises:
            ValueError: for a duplicate id, a service bound to a
                different fingerprint database, or a config that does
                not match the engine's (the caches assume one config).
        """
        return self.admit(
            SessionRecord(session_id=session_id, service=service)
        )

    def _check_admissible(
        self, session_id: str, service: MoLocService
    ) -> None:
        """Raise the ValueError :meth:`admit` would raise, if any."""
        if session_id in self.sessions:
            raise ValueError(f"session {session_id!r} already registered")
        if service.fingerprint_db is not self._fingerprint_db:
            raise ValueError(
                "session service uses a different fingerprint database "
                "than the engine"
            )
        if service.localizer.config != self._config:
            raise ValueError(
                "session service config differs from the engine's; the "
                "engine's transition caches assume a single config"
            )

    def admit(self, record: SessionRecord) -> SessionRecord:
        """Register a built session record (see :meth:`build_session`).

        Every admission path ends here and binds the session's metrics
        to :attr:`session_metrics`.

        Raises:
            ValueError: as :meth:`add_session`.
        """
        self._check_admissible(record.session_id, record.service)
        record.service.bind_metrics(self.session_metrics)
        self.sessions.insert(record)
        self._g_sessions.set(len(self.sessions))
        return record

    def remove_session(self, session_id: str) -> None:
        """Drop a session (ends the underlying service session)."""
        self.sessions.remove(session_id)
        self._g_sessions.set(len(self.sessions))

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Serialize the engine's full multi-session state.

        The checkpoint carries everything a fresh engine needs to
        resume serving with bitwise-identical estimate streams: every
        session's service state (retained candidates, calibration,
        stride, robustness rolling state), the serving bookkeeping
        (sequence numbers, strike counts, quarantine expiries, the
        cached last fix for duplicate replies), and the durable tick
        index.  Deliberately *not* carried: metrics (observability
        restarts fresh), caches and memos (value-transparent — a cold
        cache recomputes bitwise-equal results), and deployment objects
        (databases, config, services themselves — :meth:`restore` takes
        a factory for those).

        Returns:
            A JSON-compatible dict (round-trips through
            :func:`repro.io.serialize.save_json`).
        """
        return self._checkpoint()[0]

    def checkpoint_json(self) -> str:
        """:meth:`checkpoint` as ``json.dumps(..., sort_keys=True)`` text.

        The document is encoded once, by the same call that sizes it for
        the ``checkpoint.bytes`` histogram, so a caller that writes the
        checkpoint to disk pays for one encoding, not two.
        """
        return self._checkpoint()[1]

    def _checkpoint(self) -> Tuple[Dict[str, object], str]:
        started = time.perf_counter()
        document = {
            "format_version": (
                CHECKPOINT_FORMAT_VERSION
                if self._epochal is None
                else EPOCHAL_CHECKPOINT_FORMAT_VERSION
            ),
            "kind": "engine_checkpoint",
            "tick_index": self._tick_index,
            "sessions": [
                self._session_entry(record) for record in self.sessions
            ],
        }
        if self._epochal is not None:
            # The epoch travels *with* the checkpoint (contents, not
            # just the id): a handoff target or a recovering process
            # must serve the exact epoch this state was produced
            # against, even if it never computed that epoch itself.
            document["epoch"] = self._epochal.current.to_dict()
        encoded = json.dumps(document, sort_keys=True)
        self._h_ckpt_encode.observe(time.perf_counter() - started)
        self._h_ckpt_bytes.observe(len(encoded.encode("utf-8")))
        return document, encoded

    def _session_entry(self, record: SessionRecord) -> Dict[str, object]:
        """One session's full serving state as a checkpoint entry."""
        return {
            "session_id": record.session_id,
            "service": record.service.state_dict(),
            "intervals_served": record.intervals_served,
            "last_sequence": record.last_sequence,
            "strikes": record.strikes,
            "quarantined_until": record.quarantined_until,
            "last_fix": (
                None
                if record.last_fix is None
                else fix_to_dict(record.last_fix)
            ),
        }

    def checkpoint_session(self, session_id: str) -> Dict[str, object]:
        """One session's checkpoint entry (the migration handoff unit).

        The entry is exactly one element of a full checkpoint's
        ``sessions`` list: :meth:`load_session` on another engine (or
        another process's engine) resumes the session bitwise — state,
        sequence gating, quarantine bookkeeping, and the cached
        duplicate answer all travel with it.

        Raises:
            KeyError: for an unknown session id.
        """
        started = time.perf_counter()
        entry = self._session_entry(self.sessions.get(session_id))
        encoded = json.dumps(entry, sort_keys=True)
        self._h_ckpt_encode.observe(time.perf_counter() - started)
        self._h_ckpt_bytes.observe(len(encoded.encode("utf-8")))
        return entry

    def load_session(
        self,
        entry: Dict[str, object],
        make_service: Callable[[str], MoLocService],
    ) -> SessionRecord:
        """Register one session from a checkpoint entry.

        The inverse of :meth:`checkpoint_session`; :meth:`restore` is a
        loop of these.  Equivalent to :meth:`build_session` then
        :meth:`admit`.

        Raises:
            ValueError: for a duplicate session id or a service bound
                to different databases/config (see :meth:`add_session`).
        """
        return self.admit(self.build_session(entry, make_service))

    def build_session(
        self,
        entry: Dict[str, object],
        make_service: Callable[[str], MoLocService],
    ) -> SessionRecord:
        """The session a checkpoint entry describes, not yet registered.

        ``make_service`` builds the fresh service the entry's state is
        loaded into (same kind, same databases and config — the entry
        carries state, not the deployment).  Every check :meth:`admit`
        makes is made here too, so a caller can validate an admission
        (and log it durably) before the engine changes at all.

        Raises:
            ValueError: for a duplicate session id or a service bound
                to different databases/config (see :meth:`add_session`),
                and whatever the entry's malformed fields raise.
        """
        started = time.perf_counter()
        session_id = entry["session_id"]
        service = make_service(session_id)
        service.load_state_dict(entry["service"])
        self._check_admissible(session_id, service)
        last_sequence = entry["last_sequence"]
        last_fix = entry["last_fix"]
        record = SessionRecord(
            session_id=session_id,
            service=service,
            intervals_served=int(entry["intervals_served"]),
            last_fix=None if last_fix is None else fix_from_dict(last_fix),
            last_sequence=(
                None if last_sequence is None else int(last_sequence)
            ),
            strikes=int(entry["strikes"]),
            quarantined_until=int(entry["quarantined_until"]),
        )
        self._h_ckpt_restore.observe(time.perf_counter() - started)
        return record

    def restore(
        self,
        checkpoint: Dict[str, object],
        make_service: Callable[[str], MoLocService],
    ) -> None:
        """Load a :meth:`checkpoint` into this (fresh) engine.

        Args:
            checkpoint: A dict produced by :meth:`checkpoint`.
            make_service: Factory called once per checkpointed session
                id; it must construct the same *kind* of service
                against the same databases and config the crashed
                process used (the checkpoint carries state, not the
                deployment).  The restored state is then loaded into
                the fresh service via ``load_state_dict``.

        Raises:
            ValueError: for a wrong kind/version, or if this engine
                already has sessions (restore targets a fresh engine).
        """
        if checkpoint.get("kind") != "engine_checkpoint":
            raise ValueError(
                "expected an 'engine_checkpoint' document, got "
                f"{checkpoint.get('kind')!r}"
            )
        version = checkpoint.get("format_version")
        if version == CHECKPOINT_FORMAT_VERSION:
            epoch_payload = None
        elif version == EPOCHAL_CHECKPOINT_FORMAT_VERSION:
            epoch_payload = checkpoint["epoch"]
        elif (
            isinstance(version, int)
            and version > EPOCHAL_CHECKPOINT_FORMAT_VERSION
        ):
            raise ValueError(
                f"checkpoint version {version} is newer than this build "
                f"supports (max {EPOCHAL_CHECKPOINT_FORMAT_VERSION}); "
                "upgrade the serving code before restoring it"
            )
        else:
            raise ValueError(
                f"unsupported checkpoint version {version} (supported: "
                f"{CHECKPOINT_FORMAT_VERSION}.."
                f"{EPOCHAL_CHECKPOINT_FORMAT_VERSION})"
            )
        if len(self.sessions):
            raise ValueError(
                "restore requires a fresh engine; this one already has "
                f"{len(self.sessions)} session(s)"
            )
        # Bind the epoch *before* loading sessions: make_service builds
        # against the engine's current database, and add_session checks
        # identity against it.
        if epoch_payload is not None:
            if self._epochal is None:
                raise ValueError(
                    "checkpoint carries an epoch pin but the engine "
                    "serves a frozen database; construct it with an "
                    "EpochalDatabase to restore epochal checkpoints"
                )
            self.adopt_epoch(EpochSnapshot.from_dict(epoch_payload))
        elif self._epochal is not None and self._epochal.epoch_id != 0:
            # A pre-epoch (version 1) checkpoint loads with an implicit
            # epoch-0 pin, mirroring the pre-trust convention.
            self.adopt_epoch(self._epochal.snapshot(0))
        for entry in checkpoint["sessions"]:
            self.load_session(entry, make_service)
        self._tick_index = int(checkpoint["tick_index"])

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def tick(self, events: Sequence[IntervalEvent]) -> List[object]:
        """Serve one interval for every event, batched.

        Args:
            events: At most one event per session (a session's interval
                N+1 depends on N's completed state, so duplicates in one
                tick are a scheduling bug).

        Returns:
            One entry per event, in event order — a
            :class:`~repro.core.localizer.LocationEstimate` for plain
            sessions, a :class:`~repro.robustness.ResilientFix` for
            resilient ones; exactly what ``service.on_interval`` would
            have returned.  A slot is None when its session could not
            be served this tick (faulted and quarantined, already
            quarantined, a stale out-of-order delivery, or an
            unroutable event naming a session the engine does not know
            — e.g. stranded upstream after a strike-out eviction); see
            :meth:`tick_detailed` for the full report.

        Raises:
            ValueError: for two events naming the same session.
        """
        return self.tick_detailed(events).fixes

    def tick_detailed(self, events: Sequence[IntervalEvent]) -> TickOutcome:
        """Serve one tick and report its partial outcome.

        Identical serving behavior to :meth:`tick`; additionally
        reports which sessions were served, faulted, quarantined,
        answered idempotently, dropped as stale or unroutable, shed to
        the fast path, or evicted.
        """
        tick_started = self.clock()
        self._tick_index += 1
        tick_index = self._tick_index
        deadline = (
            None
            if self.tick_budget_s is None
            else tick_started + self.tick_budget_s
        )
        seen = set()
        for event in events:
            if event.session_id in seen:
                raise ValueError(
                    f"session {event.session_id!r} appears twice in one "
                    "tick; intervals of one session are sequential"
                )
            seen.add(event.session_id)

        n = len(events)
        fixes: List[object] = [None] * n
        records: List[Optional[SessionRecord]] = [None] * n
        prepared_list: List[Optional[PreparedInterval]] = [None] * n
        served: List[str] = []
        faulted: List[SessionFault] = []
        quarantined: List[str] = []
        duplicates: List[str] = []
        stale: List[str] = []
        shed: List[str] = []
        evicted: List[str] = []
        unroutable: List[str] = []
        trust_masked: List[str] = []

        def session_fault(slot: int, phase: str, error: Exception) -> None:
            """Strike, quarantine or evict the faulting session."""
            record = records[slot]
            prepared_list[slot] = None
            record.strikes += 1
            self._c_faults.inc()
            if record.strikes >= self.quarantine_policy.max_strikes:
                action, backoff = "evicted", 0
                self.remove_session(record.session_id)
                evicted.append(record.session_id)
                self._c_evictions.inc()
            else:
                action = "quarantined"
                backoff = self.quarantine_policy.backoff_ticks(
                    record.session_id, record.strikes
                )
                record.quarantined_until = tick_index + backoff
                self._c_quarantined.inc()
            faulted.append(
                SessionFault(
                    session_id=record.session_id,
                    phase=phase,
                    error=repr(error),
                    strikes=record.strikes,
                    action=action,
                    backoff_ticks=backoff,
                )
            )

        # Phase 1: per-session triage (+ shared motion extraction).
        # Admission gates run first: events for sessions the engine no
        # longer knows (stranded upstream after an eviction) are
        # dropped as unroutable, duplicate deliveries are answered from
        # the cached fix without touching session state (even during
        # quarantine — answering re-faults nothing), quarantined
        # sessions are skipped until their backoff expires (the retry
        # is simply their next event), stale ones are dropped.
        with self.tracer.span("prepare"):
            motions = self._segment_motions(events)
            for slot, event in enumerate(events):
                if event.session_id not in self.sessions:
                    unroutable.append(event.session_id)
                    self._c_unroutable.inc()
                    continue
                record = self.sessions.get(event.session_id)
                records[slot] = record
                sequence = event.sequence
                if sequence is not None and record.last_sequence is not None:
                    if sequence == record.last_sequence:
                        fixes[slot] = record.last_fix
                        duplicates.append(event.session_id)
                        self._c_seq_duplicates.inc()
                        continue
                if record.quarantined_until >= tick_index:
                    quarantined.append(event.session_id)
                    self._c_quarantine_skips.inc()
                    continue
                if sequence is not None and record.last_sequence is not None:
                    if sequence < record.last_sequence:
                        stale.append(event.session_id)
                        self._c_seq_stale.inc()
                        continue
                    if sequence > record.last_sequence + 1:
                        self._c_seq_gaps.inc()
                try:
                    if self.fault_injector is not None:
                        self.fault_injector("prepare", event.session_id)
                    precomputed = self._precompute(
                        record.service, event.imu, motions
                    )
                    prepared_list[slot] = record.service.prepare_interval(
                        event.scan, event.imu, precomputed=precomputed
                    )
                except _NON_ISOLABLE:
                    raise
                except Exception as error:
                    session_fault(slot, "prepare", error)

        # Phase 2: one einsum for every matchable fingerprint.
        with self.tracer.span("match"):
            requests: List[MatchRequest] = []
            request_slots: List[int] = []
            match_keys: List[Optional[tuple]] = [None] * n
            for slot, (record, prepared) in enumerate(
                zip(records, prepared_list)
            ):
                if prepared is None or prepared.fingerprint is None:
                    continue
                try:
                    if self.fault_injector is not None:
                        self.fault_injector("match", record.session_id)
                except _NON_ISOLABLE:
                    raise
                except Exception as error:
                    session_fault(slot, "match", error)
                    continue
                request = MatchRequest(
                    fingerprint=prepared.fingerprint,
                    k=(
                        prepared.k
                        if prepared.k is not None
                        else record.service.localizer.config.k
                    ),
                    active_aps=(
                        None
                        if prepared.active_aps is None
                        else tuple(bool(a) for a in prepared.active_aps)
                    ),
                )
                requests.append(request)
                request_slots.append(slot)
                match_keys[slot] = (
                    request.fingerprint.rss,
                    request.active_aps,
                    request.k,
                )
            matched: List[Optional[Tuple[Candidate, ...]]] = [None] * n
            for slot, candidates in zip(
                request_slots, self.matcher.match_batch(requests)
            ):
                matched[slot] = candidates

        # Phases 3+4: cached Eq. 7 posteriors (cached Eq. 6 transitions
        # on a posterior miss), then per-session completion in event
        # order (state mutation order matches the sequential loop).
        # Transition evaluation is interleaved with completion, so its
        # time is accumulated here and reported as its own phase.  Once
        # the completion loop crosses the tick deadline, remaining
        # motion-assisted completions shed their transition evaluation
        # and serve WiFi-only.
        transitions_s = 0.0
        complete_started = self.clock()
        for slot, event in enumerate(events):
            prepared = prepared_list[slot]
            if prepared is None:
                continue
            record = records[slot]
            service = record.service
            candidates = matched[slot]
            match_key = match_keys[slot]
            try:
                if self.fault_injector is not None:
                    self.fault_injector("complete", event.session_id)
                if (
                    deadline is not None
                    and prepared.motion is not None
                    and candidates is not None
                    and self.clock() > deadline
                ):
                    # Over budget: serve this interval from fingerprints
                    # alone.  Dropping the motion skips Eq. 6 transition
                    # evaluation — the expensive part of completion —
                    # and resilient fixes carry the DEADLINE_SHED flag
                    # so callers know the answer is degraded, not wrong.
                    prepared.motion = None
                    if isinstance(prepared, ResilientPreparedInterval):
                        prepared.mode = ServingMode.WIFI_ONLY
                        prepared.faults.append(FaultType.DEADLINE_SHED)
                    shed.append(event.session_id)
                    self._c_shed.inc()
                if candidates is None:
                    fix = service.complete_interval(prepared)
                else:
                    localizer = service.localizer
                    prior = localizer.retained_candidates
                    motion = prepared.motion
                    # The motion element carries the speed state: two
                    # sessions at different estimated speeds (or dwell
                    # verdicts) score transitions differently and must
                    # not share a cached posterior.
                    estimate_key = (
                        self.epoch_id,
                        match_key,
                        None if prior is None else tuple(prior),
                        (
                            None
                            if motion is None or prior is None
                            else (
                                motion.direction_deg,
                                motion.offset_m,
                                prepared.beta_scale,
                                prepared.dwell,
                            )
                        ),
                        localizer.retention,
                    )
                    cached = self._estimate_cache.get(estimate_key)
                    if cached is not None:
                        self._estimate_cache.move_to_end(estimate_key)
                        self._c_est_hits.inc()
                        fix = service.complete_interval(
                            prepared, estimate=cached
                        )
                    else:
                        self._c_est_misses.inc()
                        transition_probabilities = None
                        if motion is not None and prior is not None:
                            span_started = time.perf_counter()
                            transition_probabilities = (
                                self.transitions.evaluate(
                                    prior,
                                    [c.location_id for c in candidates],
                                    motion,
                                    prepared.beta_scale,
                                    prepared.dwell,
                                )
                            )
                            transitions_s += (
                                time.perf_counter() - span_started
                            )
                        fix = service.complete_interval(
                            prepared,
                            candidates=candidates,
                            transition_probabilities=transition_probabilities,
                        )
                        if self._estimate_cache_size > 0:
                            estimate = getattr(fix, "estimate", fix)
                            self._estimate_cache[estimate_key] = estimate
                            if (
                                len(self._estimate_cache)
                                > self._estimate_cache_size
                            ):
                                self._estimate_cache.popitem(last=False)
                                self._c_est_evictions.inc()
            except _NON_ISOLABLE:
                raise
            except Exception as error:
                session_fault(slot, "complete", error)
                continue
            record.intervals_served += 1
            record.last_fix = fix
            if event.sequence is not None:
                record.last_sequence = event.sequence
            if record.strikes:
                # A full successful interval clears the strike count:
                # quarantine punishes *consecutive* failures only.
                record.strikes = 0
                self._c_recoveries.inc()
            fixes[slot] = fix
            served.append(event.session_id)
            health = getattr(fix, "health", None)
            if health is not None and FaultType.ROGUE_AP_MASKED in health.faults:
                trust_masked.append(event.session_id)
                self._c_trust_masked.inc()
        complete_s = self.clock() - complete_started - transitions_s
        self.tracer.record("transitions", transitions_s)
        self.tracer.record("complete", complete_s)

        self._c_ticks.inc()
        self._c_intervals.inc(len(served) + len(duplicates))
        self._h_batch.observe(n)
        self._h_tick.observe(self.clock() - tick_started)
        return TickOutcome(
            fixes=fixes,
            served=tuple(served),
            faulted=tuple(faulted),
            quarantined=tuple(quarantined),
            duplicates=tuple(duplicates),
            stale=tuple(stale),
            shed=tuple(shed),
            evicted=tuple(evicted),
            unroutable=tuple(unroutable),
            trust_masked=tuple(trust_masked),
        )

    def replay_tick(self, events: Sequence[IntervalEvent]) -> TickOutcome:
        """Re-serve an already-served tick without advancing the index.

        The cluster supervisor's recovery seam: after a worker dies
        mid-tick and is recovered from checkpoint + WAL, the
        coordinator re-delivers the interrupted tick to collect its
        fixes.  Every event in such a re-delivery carries the sequence
        number of the session's last served interval, so the engine
        answers the whole batch idempotently from the duplicate cache —
        but :meth:`tick` would still advance the durable tick index,
        drifting this engine's quarantine timeline and WAL indexing one
        tick ahead of the rest of the cluster for good.  This method
        serves the batch with the same semantics and leaves
        :attr:`tick_index` where it was.
        """
        self._tick_index -= 1
        return self.tick_detailed(events)

    # ------------------------------------------------------------------
    # Shared per-segment work
    # ------------------------------------------------------------------

    def _pin(self, imu: ImuSegment) -> None:
        """Count one more memo entry keyed on this segment's id()."""
        segment_id = id(imu)
        self._motion_refs[segment_id] = imu
        self._ref_pins[segment_id] = self._ref_pins.get(segment_id, 0) + 1

    def _unpin(self, segment_id: int) -> None:
        """Release one memo entry's pin; drop the ref on the last one."""
        remaining = self._ref_pins[segment_id] - 1
        if remaining:
            self._ref_pins[segment_id] = remaining
        else:
            del self._ref_pins[segment_id]
            del self._motion_refs[segment_id]

    def _segment_motions(
        self, events: Sequence[IntervalEvent]
    ) -> Dict[int, SegmentMotion]:
        """One kernel call for the tick's memo misses, keyed on segment id().

        A segment is computed when its IMU check is not memoized, or
        when a calibrated session's motion under its current state key
        is not.  Nothing here touches session or memo state.  Should the
        kernel raise, no row is returned and :meth:`_precompute`
        computes each segment alone, inside its session's fault
        isolation, so one malformed segment faults only its own session.
        """
        if self._motion_memo_size == 0:
            return {}
        pending: Dict[int, ImuSegment] = {}
        for event in events:
            imu = event.imu
            if (
                imu is None
                or id(imu) in pending
                or event.session_id not in self.sessions
            ):
                continue
            segment_id = id(imu)
            service = self.sessions.get(event.session_id).service
            if segment_id not in self._imu_checks or (
                service.is_calibrated
                and (segment_id, service.motion_state_key) not in self._motion_memo
            ):
                pending[segment_id] = imu
        try:
            return dict(zip(pending, segment_motions(list(pending.values()))))
        except _NON_ISOLABLE:
            raise
        except Exception:
            return {}

    def _precompute(
        self,
        service: MoLocService,
        imu: Optional[ImuSegment],
        motions: Optional[Dict[int, SegmentMotion]] = None,
    ) -> Optional[PrecomputedInputs]:
        """Memoized IMU check + motion extraction for one session's segment.

        On a memo miss the check and the session-dependent part of the
        extraction run over the segment's row of ``motions`` (the tick's
        kernel call); a segment missing there (an eviction earlier in
        this tick, or no ``motions`` given) is computed alone.

        Both memos are LRU: a full memo evicts its single oldest entry
        (releasing that entry's ref pin) before inserting — entries
        inserted for the current segment are therefore never collateral
        damage, and cross-session sharing survives the capacity
        boundary.
        """
        if imu is None or self._motion_memo_size == 0:
            return None
        segment_id = id(imu)
        motion_row = None if motions is None else motions.get(segment_id)
        imu_check = self._imu_checks.get(segment_id)
        if imu_check is not None:
            self._imu_checks.move_to_end(segment_id)
            self._c_imu_hits.inc()
        else:
            if motion_row is None:
                motion_row = segment_motions([imu])[0]
            imu_check = check_imu(imu, motion_row)
            if len(self._imu_checks) >= self._motion_memo_size:
                evicted_id, _ = self._imu_checks.popitem(last=False)
                self._unpin(evicted_id)
                self._c_memo_evictions.inc()
            self._imu_checks[segment_id] = imu_check
            self._pin(imu)
            self._c_imu_misses.inc()
        motion = None
        if service.is_calibrated and (
            not isinstance(service, ResilientMoLocService) or imu_check[0]
        ):
            key = (segment_id, service.motion_state_key)
            motion = self._motion_memo.get(key)
            if motion is not None:
                self._motion_memo.move_to_end(key)
                self._c_motion_hits.inc()
            else:
                motion = service.extract_motion(imu, motion_row)
                if len(self._motion_memo) >= self._motion_memo_size:
                    evicted_key, _ = self._motion_memo.popitem(last=False)
                    self._unpin(evicted_key[0])
                    self._c_memo_evictions.inc()
                self._motion_memo[key] = motion
                self._pin(imu)
                self._c_motion_misses.inc()
        return PrecomputedInputs(imu_check=imu_check, motion=motion)
