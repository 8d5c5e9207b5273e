"""The shard worker: one serving engine behind a JSON message loop.

A :class:`ShardWorker` owns one
:class:`~repro.serving.engine.BatchedServingEngine` plus the durable
files that make it kill-anywhere recoverable — a
:class:`~repro.serving.checkpoint.WriteAheadLog` and a checkpoint file
— and exposes everything through :meth:`ShardWorker.handle_line`: one
versioned JSON request line in, one versioned JSON response line out
(:mod:`repro.cluster.messages`).  The worker is transport-agnostic on
purpose: :class:`~repro.cluster.transport.LocalShard` calls
``handle_line`` in-process and :class:`~repro.cluster.transport.ProcessShard`
calls it from a spawned child's receive loop, and because both push
every message through the same encode/decode pair, the in-process
transport is an honest double for the multiprocess one.

Durability discipline (the kill-at-every-tick and
kill-at-every-admission tests prove it exact):

* every ``tick`` request's events, every epoch commit, and every
  ``add_session`` / ``remove_session`` is appended to the WAL *before*
  the engine acts and before the response is sent, so a crash mid-op
  loses nothing that was acknowledged.  An admission is validated
  (the session built from its entry) before it is logged, so every
  logged admission replays;
* the checkpoint file is rewritten (atomically: temp file + ``rename``)
  every ``checkpoint_every`` ticks, and at migration handoff, restore
  and epoch commit.  Each write first logs a marker carrying the
  checkpoint's content digest, which tells recovery exactly which
  records the checkpoint folds — admissions logged at the
  checkpoint's own tick included;
* on construction, a worker that finds its checkpoint file or a
  non-empty WAL recovers itself: restore the checkpoint (if any),
  replay the WAL after its marker
  (:func:`~repro.serving.checkpoint.recover_engine`).  A first boot
  finds neither and reports ``recovered: false``.  Supervised respawn
  is therefore just "build the worker again from the same spec".

Re-delivery after recovery: when the coordinator re-sends the tick a
dead worker never answered, the tick index is *at or below* the
recovered engine's (the WAL replay already served it).  The worker
routes that request through
:meth:`~repro.serving.engine.BatchedServingEngine.replay_tick`, which
answers every sequenced event idempotently from the duplicate cache
without advancing the durable tick index — bitwise the same fixes,
no timeline drift.  Admissions and removals are idempotent in the same
way: re-admitting a hosted session with exactly its current state, or
removing a session the shard no longer hosts, is acknowledged without
a new record.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List

from ..db.epochs import EpochSnapshot, update_from_dict
from ..io.serialize import imu_segment_from_dict
from ..sensors.imu import ImuSegment
from ..serving.checkpoint import (
    WriteAheadLog,
    checkpoint_digest,
    event_from_dict,
    recover_engine,
)
from ..serving.clock import LogicalClock
from ..serving.engine import BatchedServingEngine
from ..service import MoLocService
from .bootstrap import build_engine
from .messages import (
    ClusterWireError,
    decode_message,
    encode_message,
    outcome_to_dict,
)

__all__ = ["SegmentInternPool", "ShardWorker"]


class SegmentInternPool:
    """Content-addressed rebuild cache for wire-decoded IMU segments.

    The engine's cross-session motion memos key on segment *identity*
    (:meth:`~repro.serving.engine.BatchedServingEngine._precompute`):
    in one process, sessions replaying the same recorded walk share
    literal segment objects, so one step-count and heading extraction
    serves them all.  Naive JSON decoding breaks that — every event
    gets a fresh object and the memos never hit, which is why an
    uninterned 1-shard cluster burns several times the single engine's
    CPU on identical batches.  The pool rebuilds each distinct payload
    once and hands every repeat the same object; keyed by the payload's
    canonical encoding, so only bit-identical segments are ever shared.

    Args:
        size: LRU entry cap (0 disables interning entirely; every call
            then decodes fresh).
    """

    def __init__(self, size: int = 4096) -> None:
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        self._size = size
        self._segments: "OrderedDict[str, ImuSegment]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._segments)

    def rebuild(self, payload: Dict[str, object]) -> ImuSegment:
        """The one shared segment for this payload (decoding on a miss)."""
        if self._size == 0:
            return imu_segment_from_dict(payload)
        key = json.dumps(payload, sort_keys=True)
        segment = self._segments.get(key)
        if segment is not None:
            self._segments.move_to_end(key)
            return segment
        segment = imu_segment_from_dict(payload)
        if len(self._segments) >= self._size:
            self._segments.popitem(last=False)
        self._segments[key] = segment
        return segment


class ShardWorker:
    """One shard: an engine, its durable files, and a message handler.

    Args:
        spec: A :func:`~repro.cluster.bootstrap.shard_spec` dict.  The
            worker recovers itself from the spec's checkpoint file and
            WAL when either holds anything (a respawn); otherwise it
            starts empty (first boot).
    """

    def __init__(self, spec: Dict[str, object]) -> None:
        self.spec = spec
        self.shard_id: str = spec["shard_id"]
        self._checkpoint_path = Path(spec["checkpoint_path"])
        self._checkpoint_every = int(spec["checkpoint_every"])
        self._segments = SegmentInternPool()
        self._staged_epoch: "EpochSnapshot | None" = None
        engine, make_service = build_engine(spec)
        self.engine: BatchedServingEngine = engine
        self._make_service: Callable[[str], MoLocService] = make_service
        self.recovered_ticks = 0
        self.wal = WriteAheadLog(spec["wal_path"], fsync=bool(spec["fsync"]))
        checkpoint = (
            self._checkpoint_path.read_text(encoding="utf-8")
            if self._checkpoint_path.exists()
            else None
        )
        self.recovered = (
            checkpoint is not None or self.wal.path.stat().st_size > 0
        )
        if self.recovered:
            self.recovered_ticks = recover_engine(
                self.engine, checkpoint, self.wal, self._make_service
            )

    # ------------------------------------------------------------------
    # Durable checkpoint
    # ------------------------------------------------------------------

    def write_checkpoint(self) -> None:
        """Atomically persist the engine's current checkpoint.

        Its WAL marker is logged first (see
        :meth:`~repro.serving.checkpoint.WriteAheadLog.append_checkpoint`);
        the file holds exactly
        :meth:`~repro.serving.engine.BatchedServingEngine.checkpoint_json`.
        """
        text = self.engine.checkpoint_json()
        self.wal.append_checkpoint(
            self.engine.tick_index, checkpoint_digest(text)
        )
        tmp = self._checkpoint_path.with_suffix(
            self._checkpoint_path.suffix + ".tmp"
        )
        tmp.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._checkpoint_path)

    def close(self) -> None:
        """Release the WAL file handle (clean shutdown only)."""
        self.wal.close()

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def handle_line(self, line: str) -> str:
        """One request line in, one response line out (never raises).

        Errors — malformed messages, unknown ops, engine rejections —
        come back as ``{"ok": false, "error": ...}`` responses, so a
        bad request cannot take the worker (and every session it
        hosts) down with it.
        """
        try:
            request = decode_message(line)
            response = self.handle(request)
        except Exception as error:  # noqa: BLE001 - the loop must survive
            response = {"ok": False, "error": repr(error)}
        return encode_message(response)

    def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        """Dispatch one decoded request to its operation."""
        op = request.get("op")
        if op == "ping":
            return {
                "ok": True,
                "shard_id": self.shard_id,
                "tick": self.engine.tick_index,
                "sessions": self.engine.sessions.session_ids,
                "recovered": self.recovered,
                "recovered_ticks": self.recovered_ticks,
            }
        if op == "add_session":
            return self._handle_add_session(request["entry"])
        if op == "remove_session":
            return self._handle_remove_session(request["session_id"])
        if op == "tick":
            return self._handle_tick(request)
        if op == "handoff":
            return self._handle_handoff(request)
        if op == "restore":
            self.engine.restore(request["checkpoint"], self._make_service)
            self.write_checkpoint()
            return {"ok": True, "tick": self.engine.tick_index}
        if op == "checkpoint":
            self.write_checkpoint()
            return {"ok": True, "path": str(self._checkpoint_path)}
        if op == "metrics":
            return {"ok": True, "metrics": self.engine.metrics_snapshot()}
        if op == "advance_clock":
            # Deterministic deployments drive their shard engines'
            # logical clocks over the wire, so deadline behavior can be
            # scripted (and reproduced) across any process boundary.
            clock = self.engine.clock
            if not isinstance(clock, LogicalClock):
                raise ClusterWireError(
                    f"shard {self.shard_id!r} runs a wall clock; "
                    "advance_clock requires a spec with clock='logical'"
                )
            return {"ok": True, "now_s": clock.advance(float(request["dt_s"]))}
        if op == "epoch_status":
            epochal = self.engine.epochal_db
            status: Dict[str, object] = {
                "ok": True,
                "epochal": epochal is not None,
                "epoch": self.engine.epoch_id,
            }
            if epochal is not None:
                status["snapshot"] = epochal.current.to_dict()
            return status
        if op == "epoch_prepare":
            return self._handle_epoch_prepare(request)
        if op == "epoch_commit":
            return self._handle_epoch_commit(request)
        if op == "epoch_abort":
            target = int(request["target"])
            if (
                self._staged_epoch is not None
                and self._staged_epoch.epoch_id == target
            ):
                self._staged_epoch = None
            return {"ok": True, "epoch": self.engine.epoch_id}
        if op == "shutdown":
            return {"ok": True, "bye": True}
        raise ClusterWireError(f"unknown cluster op {op!r}")

    def _require_epochal(self):
        epochal = self.engine.epochal_db
        if epochal is None:
            raise ClusterWireError(
                f"shard {self.shard_id!r} serves a frozen database; epoch "
                "ops require a spec with epochal=true"
            )
        return epochal

    def _handle_epoch_prepare(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        """Phase one of the cluster flip: stage epoch N+1, prove it.

        Pure — no durable or serving state changes, so a prepare that
        never commits (straggler timeout, checksum disagreement) leaves
        the shard exactly where it was.  Idempotent under supervised
        re-delivery: a target this shard already committed (it recovered
        past the flip) answers with the committed checksum.
        """
        epochal = self._require_epochal()
        target = int(request["target"])
        if target <= self.engine.epoch_id:
            committed = epochal.snapshot(target)
            return {
                "ok": True,
                "epoch": self.engine.epoch_id,
                "checksum": committed.checksum,
                "committed": True,
            }
        if target != self.engine.epoch_id + 1:
            raise ClusterWireError(
                f"shard {self.shard_id!r} at epoch {self.engine.epoch_id} "
                f"cannot prepare epoch {target}; only the next epoch is "
                "valid"
            )
        updates = [update_from_dict(entry) for entry in request["updates"]]
        staged = epochal.stage(updates)
        self._staged_epoch = staged
        return {
            "ok": True,
            "epoch": self.engine.epoch_id,
            "checksum": staged.checksum,
            "committed": False,
        }

    def _handle_epoch_commit(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        """Phase two: durably log the flip, then serve the new epoch.

        The commit carries the update batch, so a worker respawned
        between prepare and commit (its staged snapshot died with it)
        re-stages and commits in one step.  Idempotent: an
        already-committed target just re-proves its checksum.  The WAL
        record is appended *before* the flip is applied — a kill between
        the two replays the flip on recovery.
        """
        epochal = self._require_epochal()
        target = int(request["target"])
        checksum = str(request["checksum"])
        if target <= self.engine.epoch_id:
            committed = epochal.snapshot(target)
            if committed.checksum != checksum:
                raise ClusterWireError(
                    f"shard {self.shard_id!r} committed epoch {target} as "
                    f"{committed.checksum[:12]}… but the coordinator "
                    f"expects {checksum[:12]}…; refusing to split-brain"
                )
            return {"ok": True, "epoch": self.engine.epoch_id}
        updates = [update_from_dict(entry) for entry in request["updates"]]
        staged = self._staged_epoch
        if staged is None or staged.epoch_id != target:
            staged = epochal.stage(updates)
        if staged.checksum != checksum:
            raise ClusterWireError(
                f"shard {self.shard_id!r} staged epoch {target} as "
                f"{staged.checksum[:12]}… but the coordinator expects "
                f"{checksum[:12]}…; aborting the flip"
            )
        self.wal.append_epoch(
            self.engine.tick_index, target, checksum, updates
        )
        self.engine.adopt_epoch(staged)
        self._staged_epoch = None
        self.write_checkpoint()
        return {"ok": True, "epoch": self.engine.epoch_id}

    def _handle_add_session(
        self, entry: Dict[str, object]
    ) -> Dict[str, object]:
        """Build the session, log the admission, then register it.

        A session this shard already hosts is a supervised re-delivery
        (the worker died after logging, before replying) when its
        current state is exactly the entry: acknowledged, not re-logged.
        Any other duplicate is refused.
        """
        session_id = entry["session_id"]
        if session_id in self.engine.sessions:
            hosted = self.engine.checkpoint_session(session_id)
            if json.dumps(hosted, sort_keys=True) != json.dumps(
                entry, sort_keys=True
            ):
                raise ClusterWireError(
                    f"shard {self.shard_id!r} already hosts session "
                    f"{session_id!r} in a different state"
                )
            return {"ok": True, "session_id": session_id}
        record = self.engine.build_session(entry, self._make_service)
        self.wal.append_admission(self.engine.tick_index, entry)
        self.engine.admit(record)
        return {"ok": True, "session_id": session_id}

    def _handle_remove_session(self, session_id: str) -> Dict[str, object]:
        """Log the removal, then drop the session (idempotent)."""
        if session_id in self.engine.sessions:
            self.wal.append_removal(self.engine.tick_index, session_id)
            self.engine.remove_session(session_id)
        return {"ok": True}

    def _handle_tick(self, request: Dict[str, object]) -> Dict[str, object]:
        tick = int(request["tick"])
        events = [
            event_from_dict(entry, imu_from_dict=self._segments.rebuild)
            for entry in request["events"]
        ]
        current = self.engine.tick_index
        if tick == current:
            # The coordinator is re-delivering the tick this worker (or
            # its predecessor) served but never acknowledged: answer
            # idempotently without advancing the durable index.
            outcome = self.engine.replay_tick(events)
            replayed = True
        elif tick == current + 1:
            self.wal.append(tick, events)
            outcome = self.engine.tick_detailed(events)
            replayed = False
            if self._checkpoint_every and tick % self._checkpoint_every == 0:
                self.write_checkpoint()
        else:
            raise ClusterWireError(
                f"shard {self.shard_id!r} at tick {current} cannot serve "
                f"tick {tick}; only the next tick or a re-delivery of the "
                "current one is valid"
            )
        return {
            "ok": True,
            "tick": self.engine.tick_index,
            "replayed": replayed,
            "outcome": outcome_to_dict(outcome),
        }

    def _handle_handoff(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        session_ids: List[str] = list(request["session_ids"])
        entries = [
            self.engine.checkpoint_session(session_id)
            for session_id in session_ids
        ]
        for session_id in session_ids:
            self.engine.remove_session(session_id)
        self.write_checkpoint()
        return {"ok": True, "entries": entries}
