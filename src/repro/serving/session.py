"""Session bookkeeping for the batched serving engine.

A :class:`SessionManager` owns the per-user serving state: one
:class:`~repro.service.MoLocService` (or
:class:`~repro.robustness.ResilientMoLocService`) per connected user,
plus serving statistics, message-ordering state, and the quarantine
bookkeeping the engine's per-session fault isolation maintains.  The
engine looks sessions up by id each tick; the manager is deliberately
dumb about *how* intervals are served — that is the engine's job.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..service import MoLocService

__all__ = ["QuarantinePolicy", "SessionRecord", "SessionManager"]


@dataclass(frozen=True)
class QuarantinePolicy:
    """How the engine isolates and retries a faulting session.

    A session that raises during its own prepare/complete work earns a
    *strike* and is quarantined — its events are skipped — for an
    exponentially growing number of ticks, after which the next event
    is the retry.  A successful interval clears the strike count; a
    session that reaches ``max_strikes`` is evicted entirely.

    The backoff jitter is *hash-derived*, not drawn from a stateful
    RNG: ``blake2b(jitter_seed, session_id, strikes)`` decides whether
    one extra tick is added.  Determinism here matters twice — chaos
    runs must be exactly reproducible from a seed, and a restored
    checkpoint must make the same backoff decisions as the crashed
    process without having to serialize RNG state.

    Attributes:
        max_strikes: Consecutive faults after which the session is
            evicted instead of quarantined.
        backoff_base_ticks: Quarantine length after the first strike.
        backoff_cap_ticks: Upper bound on the exponential backoff.
        jitter_seed: Seed mixed into the per-session jitter hash.
    """

    max_strikes: int = 3
    backoff_base_ticks: int = 1
    backoff_cap_ticks: int = 8
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_strikes < 1:
            raise ValueError(f"max_strikes must be >= 1, got {self.max_strikes}")
        if self.backoff_base_ticks < 1:
            raise ValueError(
                f"backoff_base_ticks must be >= 1, got {self.backoff_base_ticks}"
            )
        if self.backoff_cap_ticks < self.backoff_base_ticks:
            raise ValueError(
                "backoff_cap_ticks must be >= backoff_base_ticks, got "
                f"{self.backoff_cap_ticks} < {self.backoff_base_ticks}"
            )

    def backoff_ticks(self, session_id: str, strikes: int) -> int:
        """Quarantine length (in ticks) after the given strike count."""
        if strikes < 1:
            raise ValueError(f"strikes must be >= 1, got {strikes}")
        backoff = min(
            self.backoff_cap_ticks,
            self.backoff_base_ticks * (2 ** (strikes - 1)),
        )
        digest = hashlib.blake2b(
            f"{self.jitter_seed}:{session_id}:{strikes}".encode(),
            digest_size=2,
        ).digest()
        return backoff + (int.from_bytes(digest, "big") & 1)


@dataclass
class SessionRecord:
    """One connected user session.

    Attributes:
        session_id: The caller-chosen identifier.
        service: The per-user service owning all localization state.
        intervals_served: How many intervals the engine served this
            session (matches the service's own fix count unless the
            service was used outside the engine too).
        last_fix: The most recent fix the engine produced for this
            session, if any.  Doubles as the idempotent answer to a
            duplicate delivery of the last-served sequence number.
        last_sequence: The sequence number of the most recent
            *successfully served* event, or None if the session has
            never served a sequenced event.
        strikes: Consecutive faults without a successful interval.
        quarantined_until: Tick index through which the session's
            events are skipped (0 = not quarantined).
    """

    session_id: str
    service: MoLocService
    intervals_served: int = 0
    last_fix: Optional[object] = field(default=None, repr=False)
    last_sequence: Optional[int] = None
    strikes: int = 0
    quarantined_until: int = 0


class SessionManager:
    """Registry of live sessions, keyed by session id."""

    def __init__(self) -> None:
        self._sessions: Dict[str, SessionRecord] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def __iter__(self) -> Iterator[SessionRecord]:
        return iter(self._sessions.values())

    @property
    def session_ids(self) -> List[str]:
        """Live session ids, in registration order."""
        return list(self._sessions)

    def insert(self, record: SessionRecord) -> SessionRecord:
        """Register a built record (restored state included).

        Engines admit through
        :meth:`~repro.serving.engine.BatchedServingEngine.admit`, which
        checks the record and binds its metrics before inserting it.

        Raises:
            ValueError: if its id is already registered.
        """
        if record.session_id in self._sessions:
            raise ValueError(
                f"session {record.session_id!r} already registered"
            )
        self._sessions[record.session_id] = record
        return record

    def get(self, session_id: str) -> SessionRecord:
        """Look a session up.

        Raises:
            KeyError: for an unknown id.
        """
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"no session {session_id!r}") from None

    def remove(self, session_id: str, end_service_session: bool = True) -> None:
        """Deregister a session.

        Args:
            session_id: The session to drop.
            end_service_session: Whether to also reset the underlying
                service's session state (``end_session``); pass False to
                keep the service usable elsewhere.

        Raises:
            KeyError: for an unknown id.
        """
        record = self.get(session_id)
        del self._sessions[session_id]
        if end_service_session:
            record.service.end_session()
