"""Copy-on-write database epochs and the crowdsourced update log.

MoLoc's deployment story is a *crowdsourced, evolving* fingerprint
database, but everything downstream of :class:`FingerprintDatabase`
(the batch matcher's content-addressed caches, the WAL's bitwise replay
contract, cluster handoff) depends on the database being frozen.  This
module reconciles the two:

* An :class:`EpochSnapshot` is one immutable database version — a
  monotonic ``epoch_id`` plus a sha256 content checksum over the
  canonical JSON serialization, so two snapshots agree on the checksum
  iff they serialize identically (floats round-trip bit-exactly).
* Updates — crowdsourced :class:`Observation` scans, AP lifecycle
  events (:class:`ApRemoved` / :class:`ApRestored` /
  :class:`ApRepowered`), seasonal :class:`DriftDelta` offsets —
  accumulate in an :class:`UpdateLog` while serving continues against
  the current epoch.
* :func:`apply_updates` compacts a batch of updates into a *new*
  database.  It is deterministic and order-insensitive: updates are
  re-sorted into a canonical order before application and observations
  at the same location fold through a symmetric bounded-weight merge,
  so the result is a pure function of (snapshot contents, update
  multiset).  Every shard of a cluster can therefore stage the same
  flip independently and prove agreement by checksum alone.

The AP vector length is fixed per deployment: an AP "appearing" is the
restoration of a previously floored slot (:class:`ApRestored`), never a
change of ``n_aps`` — scans and masks keep their shape across epochs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.fingerprint import (
    RSS_CEILING_DBM,
    RSS_FLOOR_DBM,
    Fingerprint,
    FingerprintDatabase,
)
from ..core.localizer import LocationEstimate
from ..io.serialize import fingerprint_db_from_dict, fingerprint_db_to_dict

__all__ = [
    "DB_FORMAT_VERSION",
    "DEFAULT_SURVEY_WEIGHT",
    "DEFAULT_OBSERVATION_WEIGHT_CAP",
    "CONFIRMED_FIX_PROBABILITY",
    "Observation",
    "ApRemoved",
    "ApRestored",
    "ApRepowered",
    "DriftDelta",
    "Update",
    "update_to_dict",
    "update_from_dict",
    "apply_updates",
    "database_checksum",
    "EpochSnapshot",
    "UpdateLog",
    "EpochalDatabase",
]

DB_FORMAT_VERSION = 1

DEFAULT_SURVEY_WEIGHT = 8.0
"""Effective sample weight the surveyed mean carries in the
observation merge: the prior that keeps one noisy crowdsourced scan
from rewriting a location's fingerprint."""

DEFAULT_OBSERVATION_WEIGHT_CAP = 32.0
"""Upper bound on the combined weight of one epoch's observations at a
single location, so an observation flood (or a replay attack that
slips past the trust layer) has bounded influence per compaction."""

CONFIRMED_FIX_PROBABILITY = 0.95
"""Posterior probability a motion-confirmed fix needs before
:meth:`EpochalDatabase.record_fix` turns its scan into an
:class:`Observation`."""


def _clip(value: float) -> float:
    return min(max(float(value), RSS_FLOOR_DBM), RSS_CEILING_DBM)


def _check_ap(ap_id: int, n_aps: int) -> None:
    if not 0 <= ap_id < n_aps:
        raise ValueError(f"ap_id {ap_id} out of range for {n_aps}-AP database")


# ----------------------------------------------------------------------
# Update kinds
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Observation:
    """One crowdsourced scan attributed to a known reference location.

    Folds into the next epoch via the bounded-weight merge: all of an
    epoch's observations at a location are averaged per AP and combined
    with the stored mean at ``survey_weight`` vs
    ``min(n, observation_weight_cap)`` — symmetric, so batch order
    never matters.
    """

    location_id: int
    rss: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.location_id < 0:
            raise ValueError(f"location_id must be >= 0, got {self.location_id}")
        rss = tuple(float(v) for v in self.rss)
        if not rss or not all(math.isfinite(v) for v in rss):
            raise ValueError("observation rss must be non-empty and finite")
        object.__setattr__(self, "rss", rss)


@dataclass(frozen=True)
class ApRemoved:
    """AP ``ap_id`` disappeared: its column floors, its stds zero."""

    ap_id: int

    def __post_init__(self) -> None:
        if self.ap_id < 0:
            raise ValueError(f"ap_id must be >= 0, got {self.ap_id}")


@dataclass(frozen=True)
class ApRestored:
    """AP ``ap_id`` reappeared with per-location resurveyed readings.

    ``values`` holds ``(location_id, dbm)`` pairs; locations not listed
    keep their current (typically floored) reading.  Pairs are stored
    sorted by location id, one per location.
    """

    ap_id: int
    values: Tuple[Tuple[int, float], ...]

    def __post_init__(self) -> None:
        if self.ap_id < 0:
            raise ValueError(f"ap_id must be >= 0, got {self.ap_id}")
        pairs = sorted(
            (int(lid), float(dbm)) for lid, dbm in self.values
        )
        if not pairs:
            raise ValueError("ApRestored needs at least one (location, dbm) pair")
        if len({lid for lid, _ in pairs}) != len(pairs):
            raise ValueError("ApRestored values list a location twice")
        if not all(math.isfinite(dbm) for _, dbm in pairs):
            raise ValueError("ApRestored readings must be finite")
        object.__setattr__(self, "values", tuple(pairs))


@dataclass(frozen=True)
class ApRepowered:
    """AP ``ap_id`` was power-cycled: non-floored readings shift (clipped)."""

    ap_id: int
    shift_db: float

    def __post_init__(self) -> None:
        if self.ap_id < 0:
            raise ValueError(f"ap_id must be >= 0, got {self.ap_id}")
        if not math.isfinite(self.shift_db) or self.shift_db == 0.0:
            raise ValueError(
                f"shift_db must be a finite non-zero dB shift, got {self.shift_db}"
            )


@dataclass(frozen=True)
class DriftDelta:
    """Seasonal drift: one dB offset per AP, applied to non-floored slots."""

    offsets_db: Tuple[float, ...]

    def __post_init__(self) -> None:
        offsets = tuple(float(v) for v in self.offsets_db)
        if not offsets or not all(math.isfinite(v) for v in offsets):
            raise ValueError("drift offsets must be non-empty and finite")
        object.__setattr__(self, "offsets_db", offsets)


Update = Union[Observation, ApRemoved, ApRestored, ApRepowered, DriftDelta]

_UPDATE_TYPES: Tuple[type, ...] = (
    Observation,
    ApRemoved,
    ApRestored,
    ApRepowered,
    DriftDelta,
)

# Canonical application order across kinds.  Observations fold first
# (against the surveyed field, before lifecycle rewrites), then
# repowers, removals, restorations, and drift.  Within a kind the
# canonical JSON breaks ties, so any permutation of the same update
# multiset compacts identically.
_KIND_RANK = {
    "observation": 0,
    "ap_repowered": 1,
    "ap_removed": 2,
    "ap_restored": 3,
    "drift": 4,
}


def update_to_dict(update: Update) -> Dict[str, Any]:
    """Serialize one update to its JSON-compatible wire form."""
    if isinstance(update, Observation):
        return {
            "kind": "observation",
            "location_id": update.location_id,
            "rss": list(update.rss),
        }
    if isinstance(update, ApRemoved):
        return {"kind": "ap_removed", "ap_id": update.ap_id}
    if isinstance(update, ApRestored):
        return {
            "kind": "ap_restored",
            "ap_id": update.ap_id,
            "values": [[lid, dbm] for lid, dbm in update.values],
        }
    if isinstance(update, ApRepowered):
        return {
            "kind": "ap_repowered",
            "ap_id": update.ap_id,
            "shift_db": update.shift_db,
        }
    if isinstance(update, DriftDelta):
        return {"kind": "drift", "offsets_db": list(update.offsets_db)}
    raise TypeError(f"not a database update: {update!r}")


def update_from_dict(payload: Dict[str, Any]) -> Update:
    """Rebuild whichever update kind :func:`update_to_dict` wrote."""
    kind = payload.get("kind")
    if kind == "observation":
        return Observation(
            location_id=int(payload["location_id"]),
            rss=tuple(float(v) for v in payload["rss"]),
        )
    if kind == "ap_removed":
        return ApRemoved(ap_id=int(payload["ap_id"]))
    if kind == "ap_restored":
        return ApRestored(
            ap_id=int(payload["ap_id"]),
            values=tuple(
                (int(lid), float(dbm)) for lid, dbm in payload["values"]
            ),
        )
    if kind == "ap_repowered":
        return ApRepowered(
            ap_id=int(payload["ap_id"]),
            shift_db=float(payload["shift_db"]),
        )
    if kind == "drift":
        return DriftDelta(
            offsets_db=tuple(float(v) for v in payload["offsets_db"])
        )
    raise ValueError(f"unknown database update kind {kind!r}")


def _canonical_order(updates: Sequence[Update]) -> List[Update]:
    keyed = []
    for update in updates:
        payload = update_to_dict(update)
        keyed.append(
            (
                _KIND_RANK[payload["kind"]],
                json.dumps(payload, sort_keys=True),
                update,
            )
        )
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [update for _, _, update in keyed]


def apply_updates(
    database: FingerprintDatabase,
    updates: Sequence[Update],
    *,
    survey_weight: float = DEFAULT_SURVEY_WEIGHT,
    observation_weight_cap: float = DEFAULT_OBSERVATION_WEIGHT_CAP,
) -> FingerprintDatabase:
    """Compact a batch of updates into a new database (pure function).

    Deterministic and permutation-insensitive: the batch is re-sorted
    into canonical order and same-location observations merge
    symmetrically (``math.fsum`` per AP column), so the result depends
    only on the input database and the update *multiset*.

    Raises:
        ValueError: for an update inconsistent with the database (an
            unknown location, an out-of-range AP id, a scan or drift
            vector of the wrong length).
    """
    ordered = _canonical_order(updates)
    n_aps = database.n_aps
    means: Dict[int, List[float]] = {
        lid: list(database.fingerprint_of(lid).rss)
        for lid in database.location_ids
    }
    stds: Dict[int, List[float]] = {}
    for lid in database.location_ids:
        try:
            stds[lid] = list(database.std_of(lid))
        except KeyError:
            pass

    observations: Dict[int, List[Tuple[float, ...]]] = {}
    for update in ordered:
        if not isinstance(update, Observation):
            continue
        if update.location_id not in means:
            raise ValueError(
                f"observation for unknown location {update.location_id}"
            )
        if len(update.rss) != n_aps:
            raise ValueError(
                f"observation has {len(update.rss)} APs, database stores {n_aps}"
            )
        observations.setdefault(update.location_id, []).append(update.rss)
    for lid in sorted(observations):
        scans = observations[lid]
        weight = min(float(len(scans)), observation_weight_cap)
        folded = [
            math.fsum(column) / len(scans) for column in zip(*scans)
        ]
        means[lid] = [
            _clip(
                (survey_weight * mean + weight * obs)
                / (survey_weight + weight)
            )
            for mean, obs in zip(means[lid], folded)
        ]

    for update in ordered:
        if isinstance(update, Observation):
            continue
        if isinstance(update, ApRepowered):
            _check_ap(update.ap_id, n_aps)
            for row in means.values():
                if row[update.ap_id] > RSS_FLOOR_DBM:
                    row[update.ap_id] = _clip(
                        row[update.ap_id] + update.shift_db
                    )
        elif isinstance(update, ApRemoved):
            _check_ap(update.ap_id, n_aps)
            for row in means.values():
                row[update.ap_id] = RSS_FLOOR_DBM
            for row in stds.values():
                row[update.ap_id] = 0.0
        elif isinstance(update, ApRestored):
            _check_ap(update.ap_id, n_aps)
            for lid, dbm in update.values:
                if lid not in means:
                    raise ValueError(
                        f"ApRestored names unknown location {lid}"
                    )
                means[lid][update.ap_id] = _clip(dbm)
        elif isinstance(update, DriftDelta):
            if len(update.offsets_db) != n_aps:
                raise ValueError(
                    f"drift vector has {len(update.offsets_db)} offsets, "
                    f"database stores {n_aps} APs"
                )
            for row in means.values():
                for ap_id, offset in enumerate(update.offsets_db):
                    if offset != 0.0 and row[ap_id] > RSS_FLOOR_DBM:
                        row[ap_id] = _clip(row[ap_id] + offset)
        else:
            raise TypeError(f"not a database update: {update!r}")

    return FingerprintDatabase(
        {lid: Fingerprint.from_values(row) for lid, row in means.items()},
        {lid: tuple(row) for lid, row in stds.items()} or None,
    )


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


def database_checksum(database: FingerprintDatabase) -> str:
    """A bit-level content fingerprint of a database.

    Sha256 over the canonical (sorted-keys) JSON of the serialized
    database; two databases agree iff they serialize identically, sign
    of zero and all.
    """
    payload = fingerprint_db_to_dict(database)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


@dataclass(frozen=True)
class EpochSnapshot:
    """One immutable database version: id, contents, content checksum."""

    epoch_id: int
    database: FingerprintDatabase
    checksum: str

    @classmethod
    def of(cls, epoch_id: int, database: FingerprintDatabase) -> "EpochSnapshot":
        """Snapshot a database at the given epoch id."""
        if epoch_id < 0:
            raise ValueError(f"epoch_id must be >= 0, got {epoch_id}")
        return cls(epoch_id, database, database_checksum(database))

    def to_dict(self) -> Dict[str, Any]:
        """Serialize the snapshot (contents included) to plain JSON."""
        return {
            "kind": "db_epoch",
            "format_version": DB_FORMAT_VERSION,
            "epoch_id": self.epoch_id,
            "checksum": self.checksum,
            "database": fingerprint_db_to_dict(self.database),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EpochSnapshot":
        """Rebuild a snapshot, verifying the checksum against contents."""
        if payload.get("kind") != "db_epoch":
            raise ValueError(
                f"expected a 'db_epoch' document, got {payload.get('kind')!r}"
            )
        version = payload.get("format_version")
        if version != DB_FORMAT_VERSION:
            raise ValueError(
                f"unsupported db_epoch version {version} "
                f"(supported: {DB_FORMAT_VERSION})"
            )
        database = fingerprint_db_from_dict(payload["database"])
        snapshot = cls.of(int(payload["epoch_id"]), database)
        if snapshot.checksum != payload["checksum"]:
            raise ValueError(
                f"epoch {snapshot.epoch_id} contents do not match their "
                f"checksum (stored {payload['checksum'][:12]}…, "
                f"recomputed {snapshot.checksum[:12]}…)"
            )
        return snapshot


# ----------------------------------------------------------------------
# The update log and the epochal database
# ----------------------------------------------------------------------


class UpdateLog:
    """Pending updates accumulated between epoch advances."""

    def __init__(self, updates: Iterable[Update] = ()) -> None:
        self._pending: List[Update] = []
        for update in updates:
            self.record(update)

    def record(self, update: Update) -> None:
        """Append one update to the pending batch."""
        if not isinstance(update, _UPDATE_TYPES):
            raise TypeError(f"not a database update: {update!r}")
        self._pending.append(update)

    @property
    def pending(self) -> Tuple[Update, ...]:
        """The pending batch, in arrival order."""
        return tuple(self._pending)

    def __len__(self) -> int:
        return len(self._pending)

    def clear(self) -> None:
        """Drop the pending batch (after it compacted into an epoch)."""
        self._pending.clear()

    def to_dict(self) -> Dict[str, Any]:
        """Serialize the pending batch to plain JSON."""
        return {
            "kind": "db_update_log",
            "format_version": DB_FORMAT_VERSION,
            "updates": [update_to_dict(u) for u in self._pending],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "UpdateLog":
        """Rebuild an update log from its serialized form."""
        if payload.get("kind") != "db_update_log":
            raise ValueError(
                f"expected a 'db_update_log' document, "
                f"got {payload.get('kind')!r}"
            )
        version = payload.get("format_version")
        if version != DB_FORMAT_VERSION:
            raise ValueError(
                f"unsupported db_update_log version {version} "
                f"(supported: {DB_FORMAT_VERSION})"
            )
        return cls(update_from_dict(u) for u in payload["updates"])


class EpochalDatabase:
    """A fingerprint database versioned as copy-on-write epochs.

    Epoch 0 is the survey-time database, frozen.  Updates accumulate in
    :attr:`log`; :meth:`advance_epoch` compacts them into epoch N+1.
    Every produced epoch stays retrievable by id (sessions and replay
    pin to epochs), and the *current* epoch is what new work serves
    against.

    Args:
        base: The survey database (becomes epoch 0), or an existing
            snapshot to resume from (cluster handoff / recovery).
        survey_weight: See :func:`apply_updates`.
        observation_weight_cap: See :func:`apply_updates`.
    """

    def __init__(
        self,
        base: Union[FingerprintDatabase, EpochSnapshot],
        *,
        survey_weight: float = DEFAULT_SURVEY_WEIGHT,
        observation_weight_cap: float = DEFAULT_OBSERVATION_WEIGHT_CAP,
    ) -> None:
        if isinstance(base, FingerprintDatabase):
            snapshot = EpochSnapshot.of(0, base)
        elif isinstance(base, EpochSnapshot):
            snapshot = base
        else:
            raise TypeError(
                "base must be a FingerprintDatabase or an EpochSnapshot, "
                f"got {type(base).__name__}"
            )
        self._snapshots: Dict[int, EpochSnapshot] = {snapshot.epoch_id: snapshot}
        self._current = snapshot
        self.log = UpdateLog()
        self._survey_weight = float(survey_weight)
        self._observation_weight_cap = float(observation_weight_cap)

    @property
    def current(self) -> EpochSnapshot:
        """The epoch new work serves against."""
        return self._current

    @property
    def epoch_id(self) -> int:
        """The current epoch id."""
        return self._current.epoch_id

    @property
    def database(self) -> FingerprintDatabase:
        """The current epoch's database."""
        return self._current.database

    @property
    def checksum(self) -> str:
        """The current epoch's content checksum."""
        return self._current.checksum

    def snapshot(self, epoch_id: int) -> EpochSnapshot:
        """A retained epoch by id.

        Raises:
            KeyError: for an epoch this database never produced (or one
                dropped by a handoff that only carried the current one).
        """
        try:
            return self._snapshots[epoch_id]
        except KeyError:
            raise KeyError(
                f"epoch {epoch_id} is not retained "
                f"(have: {sorted(self._snapshots)})"
            ) from None

    def record(self, update: Update) -> None:
        """Queue one update for the next epoch advance."""
        self.log.record(update)

    def record_fix(self, estimate: LocationEstimate, scan: Fingerprint) -> bool:
        """Queue a served fix's scan as an :class:`Observation`, if trusted.

        This is crowdsourced maintenance (paper Sec. III-B): a confident
        fix pairs a fresh scan with a believed location.  Only a
        motion-confirmed fix (``estimate.used_motion``) whose
        ``estimate.probability`` reaches :data:`CONFIRMED_FIX_PROBABILITY`
        counts — a fingerprint-only fix can be a confident twin mistake,
        and a split posterior is twin confusion that must not poison the
        database.

        Returns:
            Whether an observation was queued.
        """
        if (
            not estimate.used_motion
            or estimate.probability < CONFIRMED_FIX_PROBABILITY
        ):
            return False
        self.record(Observation(estimate.location_id, scan.rss))
        return True

    def stage(self, updates: Optional[Sequence[Update]] = None) -> EpochSnapshot:
        """Preview epoch N+1 without changing any state (pure).

        The cluster flip's *prepare* phase: every shard stages
        independently and the coordinator compares checksums before
        anyone commits.

        Args:
            updates: The batch to compact; defaults to the pending log.
        """
        batch = self.log.pending if updates is None else tuple(updates)
        compacted = apply_updates(
            self._current.database,
            batch,
            survey_weight=self._survey_weight,
            observation_weight_cap=self._observation_weight_cap,
        )
        return EpochSnapshot.of(self._current.epoch_id + 1, compacted)

    def advance_epoch(
        self, updates: Optional[Sequence[Update]] = None
    ) -> EpochSnapshot:
        """Compact pending updates into epoch N+1 and make it current.

        Deterministic and order-insensitive over the update batch (see
        :func:`apply_updates`).  When ``updates`` is omitted the pending
        log is compacted and cleared; an explicit batch leaves the log
        untouched (the cluster commit path, where the coordinator owns
        the batch).
        """
        snapshot = self.stage(updates)
        if updates is None:
            self.log.clear()
        self._snapshots[snapshot.epoch_id] = snapshot
        self._current = snapshot
        return snapshot

    def adopt(self, snapshot: EpochSnapshot) -> None:
        """Make an externally produced snapshot current (recovery path).

        Used when a checkpoint or handoff carries an epoch this process
        never computed.  Re-adopting a retained epoch id is idempotent
        but must agree on the checksum.

        Raises:
            ValueError: if a retained epoch id reappears with different
                contents, or the snapshot would move the epoch backwards
                past a retained epoch.
        """
        existing = self._snapshots.get(snapshot.epoch_id)
        if existing is not None:
            if existing.checksum != snapshot.checksum:
                raise ValueError(
                    f"epoch {snapshot.epoch_id} re-adopted with different "
                    f"contents ({existing.checksum[:12]}… vs "
                    f"{snapshot.checksum[:12]}…)"
                )
            self._current = existing
            return
        self._snapshots[snapshot.epoch_id] = snapshot
        self._current = snapshot
