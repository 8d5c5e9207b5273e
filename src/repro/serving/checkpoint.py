"""Crash-safe persistence for the batched serving engine.

Two pieces make serving kill-anywhere recoverable:

* :meth:`~repro.serving.engine.BatchedServingEngine.checkpoint` — a
  point-in-time snapshot of every session's full state (see the method
  for what is and is not carried);
* the :class:`WriteAheadLog` here — every tick's events, serialized and
  flushed to disk *before* the tick is served.

Recovery (:func:`recover_engine`) loads the newest checkpoint into a
fresh engine and replays the logged events after the checkpoint's tick
index.  Because serving is deterministic in (session state, events),
the replay regenerates the post-checkpoint fix stream *bitwise* — the
kill-at-every-tick test in ``tests/serving/test_checkpoint.py`` asserts
exactly that for every possible crash point.

Two determinism caveats the replay handles:

* the tick *budget* is load-dependent (wall clock), so
  :func:`recover_engine` disables it during replay — recovery re-serves
  what the crashed process served, it does not re-shed;
* fault injectors are left installed: a deterministic chaos schedule
  keyed on the tick index re-injects the same faults at the same ticks,
  reproducing the same quarantine decisions.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict, Iterator, Sequence, Tuple, Union

from ..db.epochs import Update, update_from_dict, update_to_dict
from ..io.serialize import imu_segment_from_dict, imu_segment_to_dict
from ..sensors.imu import ImuSegment
from ..service import MoLocService
from .engine import BatchedServingEngine, IntervalEvent

__all__ = [
    "WAL_FORMAT_VERSION",
    "event_to_dict",
    "event_from_dict",
    "WriteAheadLog",
    "recover_engine",
]

WAL_FORMAT_VERSION = 1


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
    """An append-only, per-tick event log (JSON lines).

    Usage discipline: call :meth:`append` with a tick's events *before*
    handing them to the engine.  Then a crash mid-tick loses no input —
    on recovery the logged events replay against the last checkpoint
    and the interrupted tick simply runs again.

    Each line is one tick:
    ``{"v": 1, "tick": <index>, "events": [...]}`` where ``tick`` is
    the engine tick index the events were served under (1-based,
    matching :attr:`~repro.serving.engine.BatchedServingEngine.tick_index`
    after the tick).

    Args:
        path: The log file; created (with parents) if missing, appended
            to if present.  A pre-existing file that does not end in a
            newline lost its tail to a crash mid-append: the torn
            fragment is truncated away before appending, so a recovered
            process never concatenates its first new tick onto it (which
            would silently lose *that* tick on the next replay).
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

    def append(
        self, tick_index: int, events: Sequence[IntervalEvent]
    ) -> None:
        """Durably log one tick's events (call before serving them)."""
        line = json.dumps(
            {
                "v": WAL_FORMAT_VERSION,
                "tick": tick_index,
                "events": [event_to_dict(event) for event in events],
            },
            sort_keys=True,
        )
        self._handle.write(line + "\n")
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

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
        cluster.  Only epochal deployments ever write these lines; a
        pre-epoch WAL stays byte-stable.
        """
        line = json.dumps(
            {
                "v": WAL_FORMAT_VERSION,
                "tick": tick_index,
                "epoch": {
                    "target": target_epoch,
                    "checksum": checksum,
                    "updates": [update_to_dict(u) for u in updates],
                },
            },
            sort_keys=True,
        )
        self._handle.write(line + "\n")
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the underlying file handle."""
        self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def records(self) -> Iterator[Tuple[str, int, object]]:
        """Yield every logged record in file order.

        Each record is ``("tick", tick_index, events)`` for a served
        tick or ``("epoch", tick_index, payload)`` for an epoch flip
        committed after that tick, where ``payload`` is the decoded
        ``{"target", "checksum", "updates"}`` dict.  Only a torn
        *final* line (the process died mid-write) is tolerated and
        skipped: its record was by construction never acted on.  An
        undecodable line anywhere *else* means a served record was
        corrupted, and skipping it would replay into a silently
        divergent state — so it raises instead.

        Raises:
            ValueError: for an undecodable non-final line (mid-file
                corruption), or a *well-formed* line of an unsupported
                version (format drift is an error, torn tails are not).
        """
        if not self._path.exists():
            return
        self._handle.flush()
        with self._path.open("r", encoding="utf-8") as handle:
            lines = handle.readlines()
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
                    f"{len(lines)} in {self._path} — a served tick is "
                    "unrecoverable, refusing to replay past it"
                ) from error
            version = payload.get("v")
            if version != WAL_FORMAT_VERSION:
                raise ValueError(
                    f"unsupported WAL version {version} "
                    f"(supported: {WAL_FORMAT_VERSION})"
                )
            if "epoch" in payload:
                yield "epoch", int(payload["tick"]), payload["epoch"]
            else:
                yield (
                    "tick",
                    int(payload["tick"]),
                    [event_from_dict(entry) for entry in payload["events"]],
                )

    def records_after(
        self, tick_index: int
    ) -> Iterator[Tuple[str, int, object]]:
        """Records a recovery from tick ``tick_index`` must act on.

        Tick records strictly after the index, plus epoch flips at *or*
        after it: a flip logged at the checkpoint's own tick may or may
        not already be folded into the checkpoint (the crash could land
        between the flip and the next checkpoint write), so it is
        yielded and the consumer skips it when the checkpoint's epoch
        already covers it.
        """
        for kind, tick, payload in self.records():
            if kind == "tick" and tick > tick_index:
                yield kind, tick, payload
            elif kind == "epoch" and tick >= tick_index:
                yield kind, tick, payload


def recover_engine(
    engine: BatchedServingEngine,
    checkpoint: Dict[str, object],
    wal: WriteAheadLog,
    make_service: Callable[[str], MoLocService],
) -> int:
    """Restore a checkpoint into a fresh engine and replay the WAL tail.

    Args:
        engine: A freshly constructed engine (same databases/config as
            the crashed one; no sessions yet).
        checkpoint: The newest available
            :meth:`~repro.serving.engine.BatchedServingEngine.checkpoint`.
        wal: The write-ahead log the crashed process appended to.
        make_service: Per-session service factory, as in
            :meth:`~repro.serving.engine.BatchedServingEngine.restore`.

    Returns:
        The number of ticks replayed from the log.

    The tick budget is suspended for the replay: shedding is a
    load-shedding response to *live* overload, and replaying a backlog
    as fast as possible must not re-shed (or shed differently than) the
    original run — determinism of the recovered state wins.
    """
    engine.restore(checkpoint, make_service)
    budget, engine.tick_budget_s = engine.tick_budget_s, None
    replayed = 0
    try:
        for kind, _, payload in wal.records_after(engine.tick_index):
            if kind == "epoch":
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
                continue
            engine.tick(payload)
            replayed += 1
    finally:
        engine.tick_budget_s = budget
    return replayed
