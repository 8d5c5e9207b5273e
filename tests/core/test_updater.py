"""Adaptive fingerprint maintenance through database epochs.

MoLoc's fixes feed the :class:`EpochalDatabase` they are served from:
``record_fix`` turns a trusted fix into one :class:`Observation`, and
``advance_epoch`` folds the batch into the next epoch's database, which
the next walk's localizer is bound to.
"""

from __future__ import annotations

import pytest

from repro.core.config import MoLocConfig
from repro.core.fingerprint import Fingerprint, FingerprintDatabase
from repro.core.localizer import MoLocLocalizer
from repro.core.motion_db import MotionDatabase, PairStatistics
from repro.db.epochs import (
    CONFIRMED_FIX_PROBABILITY,
    DEFAULT_SURVEY_WEIGHT,
    EpochalDatabase,
    Observation,
)
from repro.motion.rlm import MotionMeasurement

EAST_5M = MotionMeasurement(90.0, 5.0)
_PAIR = PairStatistics(90.0, 5.0, 5.0, 0.3, 10)
# One observation against the survey prior: it moves a mean by this
# share of the gap.
_ONE_OBSERVATION = 1.0 / (DEFAULT_SURVEY_WEIGHT + 1.0)


@pytest.fixture()
def db() -> FingerprintDatabase:
    """Locations 1 and 2 are 5 m apart; 3 is a fingerprint twin of 2."""
    return FingerprintDatabase.from_samples(
        {
            1: [[-50.0, -60.0], [-52.0, -58.0]],
            2: [[-70.0, -40.0], [-68.0, -42.0]],
            3: [[-69.0, -41.0], [-69.0, -41.0]],
        }
    )


def bound(epochal: EpochalDatabase, twins: bool = False) -> MoLocLocalizer:
    """MoLoc serving the current epoch (walks 1 -> 2, or 1 -> 2 or 3)."""
    pairs = {(1, 2): _PAIR}
    if twins:
        pairs[(1, 3)] = _PAIR
    return MoLocLocalizer(
        epochal.database, MotionDatabase(pairs), MoLocConfig(k=2)
    )


def serve_walk(epochal: EpochalDatabase, start, end) -> bool:
    """One walk 1 -> 2 with the given scans; whether the fix was kept."""
    moloc = bound(epochal)
    moloc.locate(Fingerprint.from_values(start))
    scan = Fingerprint.from_values(end)
    return epochal.record_fix(moloc.locate(scan, EAST_5M), scan)


class TestValidation:
    def test_unknown_location(self, db):
        epochal = EpochalDatabase(db)
        epochal.record(Observation(99, (-50.0, -60.0)))
        with pytest.raises(ValueError, match="unknown location"):
            epochal.advance_epoch()

    def test_scan_length_mismatch(self, db):
        epochal = EpochalDatabase(db)
        epochal.record(Observation(1, (-50.0,)))
        with pytest.raises(ValueError, match="APs"):
            epochal.advance_epoch()


class TestGating:
    def test_low_confidence_rejected(self, db):
        """A split posterior between twins is confusion, not survey data."""
        epochal = EpochalDatabase(db)
        moloc = bound(epochal, twins=True)
        moloc.locate(Fingerprint.from_values([-51.0, -59.0]))
        scan = Fingerprint.from_values([-69.0, -41.0])
        estimate = moloc.locate(scan, EAST_5M)
        assert estimate.used_motion
        assert estimate.probability < CONFIRMED_FIX_PROBABILITY
        assert not epochal.record_fix(estimate, scan)
        assert len(epochal.log) == 0
        assert epochal.advance_epoch().checksum == epochal.snapshot(0).checksum

    def test_high_confidence_applied(self, db):
        epochal = EpochalDatabase(db)
        assert serve_walk(epochal, [-51.0, -59.0], [-59.0, -49.0])
        assert epochal.log.pending == (Observation(2, (-59.0, -49.0)),)
        updated = epochal.advance_epoch().database.fingerprint_of(2)
        assert updated.rss[0] == pytest.approx(-69.0 + 10.0 * _ONE_OBSERVATION)
        assert updated.rss[1] == pytest.approx(-41.0 - 8.0 * _ONE_OBSERVATION)

    def test_other_locations_untouched(self, db):
        epochal = EpochalDatabase(db)
        assert serve_walk(epochal, [-51.0, -59.0], [-59.0, -49.0])
        after = epochal.advance_epoch().database
        assert after.fingerprint_of(1) == db.fingerprint_of(1)
        assert after.fingerprint_of(3) == db.fingerprint_of(3)

    def test_statistics_preserved_through_update(self, db):
        epochal = EpochalDatabase(db)
        assert serve_walk(epochal, [-51.0, -59.0], [-59.0, -49.0])
        after = epochal.advance_epoch().database
        for location_id in (1, 2, 3):
            assert after.std_of(location_id) == db.std_of(location_id)


class TestConvergence:
    def test_repeated_observations_converge_to_new_truth(self, db):
        """AP 0 loses 8 dB: each walk's confirmed fix at location 2
        pulls the next epoch's mean toward the new field, and the
        untouched AP stays put."""
        means = [db.fingerprint_of(2).rss[0]]
        epochal = EpochalDatabase(db)
        for _ in range(60):
            assert serve_walk(epochal, [-59.0, -59.0], [-77.0, -41.0])
            epochal.advance_epoch()
            means.append(epochal.database.fingerprint_of(2).rss[0])
        assert means[1] == pytest.approx(-69.0 - 8.0 * _ONE_OBSERVATION)
        assert all(new < old for old, new in zip(means, means[1:]))
        final = epochal.database.fingerprint_of(2)
        assert final.rss[0] == pytest.approx(-77.0, abs=0.05)
        assert final.rss[1] == pytest.approx(-41.0)

    def test_single_bad_fix_barely_moves_database(self, db):
        """Poisoning resistance: one wrong confident observation shifts
        the entry by at most a ninth of the scan gap."""
        epochal = EpochalDatabase(db)
        epochal.record(Observation(1, (-90.0, -20.0)))
        moved = epochal.advance_epoch().database.fingerprint_of(1)
        assert abs(moved.rss[0] - (-51.0)) <= 39.0 * _ONE_OBSERVATION + 1e-9


class TestAdaptiveLocalizer:
    def test_initial_fix_never_feeds_back(self, db):
        """Fingerprint-only fixes can be confident twin mistakes."""
        epochal = EpochalDatabase(db)
        scan = Fingerprint.from_values([-51.0, -59.0])
        estimate = bound(epochal).locate(scan)
        assert estimate.probability >= CONFIRMED_FIX_PROBABILITY
        assert not epochal.record_fix(estimate, scan)
        assert len(epochal.log) == 0

    def test_confident_motion_fix_feeds_back(self, db):
        epochal = EpochalDatabase(db)
        moloc = bound(epochal)
        moloc.locate(Fingerprint.from_values([-51.0, -59.0]))
        scan = Fingerprint.from_values([-68.0, -42.0])
        estimate = moloc.locate(scan, EAST_5M)
        assert estimate.location_id == 2
        assert epochal.record_fix(estimate, scan)
        epochal.advance_epoch()
        # The next walk's localizer serves the new epoch.
        assert bound(epochal).fingerprint_db is epochal.snapshot(1).database
        assert epochal.database.fingerprint_of(2) != db.fingerprint_of(2)
