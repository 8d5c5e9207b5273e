"""Crash-safe persistence for the batched serving engine.

Two pieces make serving kill-anywhere recoverable:

* :meth:`~repro.serving.engine.BatchedServingEngine.checkpoint` — a
  point-in-time snapshot of every session's full state (see the method
  for what is and is not carried);
* the :class:`WriteAheadLog` here — every tick's events, epoch flip,
  session admission and removal, serialized and flushed to disk
  *before* the engine acts on it, plus a marker naming each checkpoint
  (by content digest) at the point it was taken.

Recovery (:func:`recover_engine`) loads the newest checkpoint into a
fresh engine and replays the logged records after the checkpoint's
marker, in file order.  Because serving is deterministic in (session
state, events), the replay regenerates the post-checkpoint fix stream
*bitwise* — the kill-at-every-tick test in
``tests/serving/test_checkpoint.py`` asserts exactly that for every
possible crash point, and ``tests/cluster/test_recovery.py`` for every
admission and removal.

Two determinism caveats the replay handles:

* the tick *budget* is load-dependent (wall clock), so
  :func:`recover_engine` disables it during replay — recovery re-serves
  what the crashed process served, it does not re-shed;
* fault injectors are left installed: a deterministic chaos schedule
  keyed on the tick index re-injects the same faults at the same ticks,
  reproducing the same quarantine decisions.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..db.epochs import Update, update_from_dict, update_to_dict
from ..io.serialize import imu_segment_from_dict, imu_segment_to_dict
from ..sensors.imu import ImuSegment
from ..service import MoLocService
from .engine import BatchedServingEngine, IntervalEvent

__all__ = [
    "WAL_FORMAT_VERSION",
    "checkpoint_digest",
    "event_to_dict",
    "event_from_dict",
    "WriteAheadLog",
    "recover_engine",
]

#: Version 2 added session admission/removal records and checkpoint
#: markers.  Version 1 lines (ticks and epoch flips, unchanged in shape)
#: still read, so a log written before the upgrade recovers.
WAL_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, WAL_FORMAT_VERSION)


def checkpoint_digest(text: str) -> str:
    """The content digest a WAL checkpoint marker names a checkpoint by.

    Args:
        text: The checkpoint's JSON text, exactly as written to disk
            (:meth:`~repro.serving.engine.BatchedServingEngine.checkpoint_json`).
    """
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def event_to_dict(event: IntervalEvent) -> Dict[str, object]:
    """Serialize one interval event (JSON floats round-trip bit-exactly)."""
    return {
        "session_id": event.session_id,
        "scan": (
            None if event.scan is None else [float(v) for v in event.scan]
        ),
        "imu": None if event.imu is None else imu_segment_to_dict(event.imu),
        "sequence": event.sequence,
    }


def event_from_dict(
    payload: Dict[str, object],
    imu_from_dict: Callable[
        [Dict[str, object]], ImuSegment
    ] = imu_segment_from_dict,
) -> IntervalEvent:
    """Rebuild an interval event written by :func:`event_to_dict`.

    Args:
        payload: The serialized event.
        imu_from_dict: How to rebuild the IMU payload.  The default
            decodes a fresh segment; a decoder that *interns* repeated
            payloads (:class:`~repro.cluster.worker.SegmentInternPool`)
            preserves the object sharing the engine's identity-keyed
            motion memos rely on.
    """
    scan = payload["scan"]
    imu = payload["imu"]
    sequence = payload["sequence"]
    return IntervalEvent(
        session_id=payload["session_id"],
        scan=None if scan is None else [float(v) for v in scan],
        imu=None if imu is None else imu_from_dict(imu),
        sequence=None if sequence is None else int(sequence),
    )


class WriteAheadLog:
    """An append-only log of everything that changes serving state.

    Usage discipline: append a record *before* the engine acts on it.
    Then a crash mid-act loses no input — on recovery the logged records
    replay against the last checkpoint and the interrupted act simply
    runs again.

    Each line is one JSON record, ``{"v": 2, "tick": <index>, ...}``,
    where ``tick`` is the engine's
    :attr:`~repro.serving.engine.BatchedServingEngine.tick_index` the
    record belongs to, and exactly one more key says what it is:

    * ``"events"`` — a tick's interval events (:meth:`append`); ``tick``
      is the index the tick is served under (1-based, the engine's
      index *after* the tick);
    * ``"epoch"`` — an epoch flip committed after that tick
      (:meth:`append_epoch`);
    * ``"admit"`` — a session admitted after that tick, as its
      checkpoint entry (:meth:`append_admission`);
    * ``"remove"`` — the id of a session removed after that tick
      (:meth:`append_removal`);
    * ``"checkpoint"`` — the content digest of a checkpoint taken at
      exactly this point of the log (:meth:`append_checkpoint`), so
      recovery knows which records the checkpoint already folds.

    Args:
        path: The log file; created (with parents) if missing, appended
            to if present.  A pre-existing file that does not end in a
            newline lost its tail to a crash mid-append: the torn
            fragment is truncated away before appending, so a recovered
            process never concatenates its first new record onto it
            (which would silently lose *that* record on the next replay).
        fsync: Whether to fsync after every append.  True is the
            durability contract (survives OS crash, not just process
            crash); tests may pass False for speed.
    """

    def __init__(self, path: Union[str, Path], fsync: bool = True) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._trim_torn_tail()
        self._handle = self._path.open("a", encoding="utf-8")

    def _trim_torn_tail(self) -> None:
        """Truncate a partial final line left by a crash mid-append.

        The torn fragment's tick was never served (append-before-serve
        discipline), so dropping it loses nothing — and keeping it
        would corrupt the *next* append into one undecodable line,
        silently losing a tick that WAS served.
        """
        if not self._path.exists():
            return
        with self._path.open("rb+") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            # Scan backwards for the last newline; everything after it
            # is the torn fragment.
            cut = 0
            pos = size
            chunk = 4096
            while pos > 0:
                start = max(0, pos - chunk)
                handle.seek(start)
                data = handle.read(pos - start)
                index = data.rfind(b"\n")
                if index != -1:
                    cut = start + index + 1
                    break
                pos = start
            handle.truncate(cut)
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())

    @property
    def path(self) -> Path:
        """The log file."""
        return self._path

    def _write(self, tick_index: int, **record: object) -> None:
        """Durably append one record line."""
        line = json.dumps(
            {"v": WAL_FORMAT_VERSION, "tick": tick_index, **record},
            sort_keys=True,
        )
        self._handle.write(line + "\n")
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    def append(
        self, tick_index: int, events: Sequence[IntervalEvent]
    ) -> None:
        """Durably log one tick's events (call before serving them)."""
        self._write(
            tick_index, events=[event_to_dict(event) for event in events]
        )

    def append_epoch(
        self,
        tick_index: int,
        target_epoch: int,
        checksum: str,
        updates: Sequence[Update],
    ) -> None:
        """Durably log an epoch flip committed after ``tick_index``.

        Written *before* the flip is applied (same append-before-act
        discipline as ticks), so a process killed mid-commit replays the
        flip on recovery and lands on the same epoch it promised the
        cluster.  Only epochal deployments ever write these lines.
        """
        self._write(
            tick_index,
            epoch={
                "target": target_epoch,
                "checksum": checksum,
                "updates": [update_to_dict(u) for u in updates],
            },
        )

    def append_admission(
        self, tick_index: int, entry: Dict[str, object]
    ) -> None:
        """Durably log a session admitted after ``tick_index``.

        ``entry`` is the session's checkpoint entry (the unit
        :meth:`~repro.serving.engine.BatchedServingEngine.load_session`
        takes); log it only once the engine has validated it
        (:meth:`~repro.serving.engine.BatchedServingEngine.build_session`),
        so every logged admission replays.
        """
        self._write(tick_index, admit=entry)

    def append_removal(self, tick_index: int, session_id: str) -> None:
        """Durably log a session removed after ``tick_index``."""
        self._write(tick_index, remove=session_id)

    def append_checkpoint(self, tick_index: int, digest: str) -> None:
        """Mark where a checkpoint is taken (call before writing it).

        Recovery from that checkpoint replays exactly the records after
        its marker.  A crash between the marker and the checkpoint's
        write leaves the older checkpoint on disk, whose own marker
        sits earlier in the log, so the replay is exact either way.

        Args:
            tick_index: The engine's tick index at the checkpoint.
            digest: :func:`checkpoint_digest` of the checkpoint text.
        """
        self._write(tick_index, checkpoint=digest)

    def close(self) -> None:
        """Close the underlying file handle."""
        self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _payloads(self) -> List[Dict[str, object]]:
        """Every record line, JSON-decoded and version-checked."""
        if not self._path.exists():
            return []
        self._handle.flush()
        with self._path.open("r", encoding="utf-8") as handle:
            lines = handle.readlines()
        payloads = []
        for number, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                if number == len(lines):
                    continue
                raise ValueError(
                    f"corrupt WAL: undecodable line {number} of "
                    f"{len(lines)} in {self._path} — a logged record is "
                    "unrecoverable, refusing to replay past it"
                ) from error
            version = payload.get("v")
            if version not in _READABLE_VERSIONS:
                raise ValueError(
                    f"unsupported WAL version {version} "
                    f"(supported: {', '.join(map(str, _READABLE_VERSIONS))})"
                )
            payloads.append(payload)
        return payloads

    @staticmethod
    def _decode(payload: Dict[str, object]) -> Tuple[str, int, object]:
        tick = int(payload["tick"])
        for kind in ("epoch", "admit", "remove", "checkpoint"):
            if kind in payload:
                return kind, tick, payload[kind]
        return (
            "tick",
            tick,
            [event_from_dict(entry) for entry in payload["events"]],
        )

    def records(self) -> Iterator[Tuple[str, int, object]]:
        """Yield every logged record in file order.

        Each record is ``(kind, tick_index, payload)``:

        * ``("tick", t, events)`` for a served tick;
        * ``("epoch", t, {"target", "checksum", "updates"})`` for an
          epoch flip committed after tick ``t``;
        * ``("admit", t, entry)`` / ``("remove", t, session_id)`` for a
          session admitted / removed after tick ``t``;
        * ``("checkpoint", t, digest)`` for a checkpoint marker.

        Only a torn *final* line (the process died mid-write) is
        tolerated and skipped: its record was by construction never
        acted on.  An undecodable line anywhere *else* means a logged
        record was corrupted, and skipping it would replay into a
        silently divergent state — so it raises instead.

        Raises:
            ValueError: for an undecodable non-final line (mid-file
                corruption), or a *well-formed* line of an unsupported
                version (format drift is an error, torn tails are not).
        """
        for payload in self._payloads():
            yield self._decode(payload)

    def records_after(
        self, tick_index: int, marker: Optional[str] = None
    ) -> Iterator[Tuple[str, int, object]]:
        """Records a recovery from a checkpoint must act on, in order.

        Args:
            tick_index: The checkpoint's tick index.
            marker: The checkpoint's :func:`checkpoint_digest`.  When
                the log holds a marker with this digest, the records
                after the last such marker are yielded — exactly the
                ones the checkpoint does not fold.

        Without a matching marker (a checkpoint written by a caller
        that does not log markers), the checkpoint is taken to fold
        everything logged up to its tick: ticks, admissions and
        removals strictly after the index are yielded, plus epoch flips
        at *or* after it — a flip logged at the checkpoint's own tick
        may or may not already be folded in, so it is yielded and the
        consumer skips it when the checkpoint's epoch already covers it.
        Checkpoint markers themselves are never yielded.
        """
        payloads = self._payloads()
        start = None
        if marker is not None:
            for index, payload in enumerate(payloads):
                if payload.get("checkpoint") == marker:
                    start = index + 1
        if start is not None:
            for payload in payloads[start:]:
                if "checkpoint" not in payload:
                    yield self._decode(payload)
            return
        for payload in payloads:
            if "checkpoint" in payload:
                continue
            tick = int(payload["tick"])
            if tick > tick_index or (
                "epoch" in payload and tick == tick_index
            ):
                yield self._decode(payload)


def recover_engine(
    engine: BatchedServingEngine,
    checkpoint: Union[Dict[str, object], str, None],
    wal: WriteAheadLog,
    make_service: Callable[[str], MoLocService],
) -> int:
    """Restore a checkpoint into a fresh engine and replay the WAL tail.

    Args:
        engine: A freshly constructed engine (same databases/config as
            the crashed one; no sessions yet).
        checkpoint: The newest available
            :meth:`~repro.serving.engine.BatchedServingEngine.checkpoint`,
            as the document or as the JSON text written to disk (the
            text's digest finds its WAL marker exactly; a document is
            digested in its ``sort_keys`` encoding).  ``None`` when no
            checkpoint was ever written: the whole log replays onto the
            fresh engine.
        wal: The write-ahead log the crashed process appended to.
        make_service: Per-session service factory, as in
            :meth:`~repro.serving.engine.BatchedServingEngine.restore`.

    Returns:
        The number of ticks replayed from the log.

    Admissions and removals replay in file order between the ticks, so
    the recovered engine hosts the same sessions, registered in the
    same order, as the crashed one.  The tick budget is suspended for
    the replay: shedding is a load-shedding response to *live*
    overload, and replaying a backlog as fast as possible must not
    re-shed (or shed differently than) the original run — determinism
    of the recovered state wins.
    """
    if checkpoint is None:
        tail = wal.records()
    else:
        if isinstance(checkpoint, str):
            text, checkpoint = checkpoint, json.loads(checkpoint)
        else:
            text = json.dumps(checkpoint, sort_keys=True)
        engine.restore(checkpoint, make_service)
        tail = wal.records_after(engine.tick_index, checkpoint_digest(text))
    budget, engine.tick_budget_s = engine.tick_budget_s, None
    replayed = 0
    try:
        # Checkpoint markers fall through every branch: they only
        # locate checkpoints.
        for kind, _, payload in tail:
            if kind == "tick":
                engine.tick(payload)
                replayed += 1
            elif kind == "admit":
                engine.load_session(payload, make_service)
            elif kind == "remove":
                engine.remove_session(payload)
            elif kind == "epoch":
                target = int(payload["target"])
                if target <= engine.epoch_id:
                    # Already folded into the checkpoint (or replayed
                    # earlier in this recovery) — commit is idempotent.
                    continue
                engine.advance_epoch(
                    updates=[
                        update_from_dict(entry)
                        for entry in payload["updates"]
                    ],
                    expected_checksum=payload["checksum"],
                )
    finally:
        engine.tick_budget_s = budget
    return replayed
