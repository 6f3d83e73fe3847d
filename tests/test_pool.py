"""Pool partition invariants and the cycle protocol."""

from collections import Counter

import pytest

from aldet.boxes import BoxCorner
from aldet import pool as pool_module
from aldet.dataset import Dataset, make_synthetic_dataset
from aldet.evaluation import map50
from aldet.pool import (
    Pool,
    RunConfig,
    commit_selection,
    init_pool,
    run_cycles,
    with_pseudo,
)
from aldet.pseudo_label import PseudoLabel
from aldet.sim_detector import DetectorInterface, SyntheticDetector, SyntheticDetectorConfig


def ids(n, prefix="img"):
    return [f"{prefix}_{i:04d}" for i in range(n)]


def a_pl(image_id):
    return PseudoLabel(image_id, BoxCorner(0, 0, 10, 10), 1, 0.995)


class TestPoolType:
    def test_partition_invariants(self):
        with pytest.raises(ValueError, match="overlap"):
            Pool(frozenset({"a", "b"}), frozenset({"b", "c"}))
        with pytest.raises(ValueError, match="non-pool"):
            Pool(frozenset({"a"}), frozenset({"b"}), {"a": (a_pl("a"),)})
        with pytest.raises(ValueError):
            Pool(frozenset(), frozenset(), {}, cycle=-1)

    def test_counts(self):
        pool = Pool(frozenset({"a"}), frozenset({"b", "c"}), {"b": (a_pl("b"), a_pl("b"))})
        assert pool.n_pseudo_labels == 2
        assert pool.all_ids == {"a", "b", "c"}


class TestInitPool:
    def test_sizes(self):
        pool = init_pool(ids(100), 20, seed=0)
        assert len(pool.labeled) == 20
        assert len(pool.unlabeled) == 80
        assert pool.cycle == 0
        assert pool.labeled | pool.unlabeled == set(ids(100))

    def test_protocol_sizes(self):
        # VOC-style: 16551 ids, budget 2000
        pool = init_pool(ids(16551), 2000, seed=1)
        assert len(pool.labeled) == 2000
        assert len(pool.unlabeled) == 14551

    def test_exhaustion(self):
        pool = init_pool(ids(10), 10, seed=0)
        assert pool.unlabeled == frozenset()

    def test_budget_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            init_pool(ids(10), 11, seed=0)

    def test_seed_determinism(self):
        assert init_pool(ids(50), 10, seed=7) == init_pool(ids(50), 10, seed=7)
        assert init_pool(ids(50), 10, seed=7) != init_pool(ids(50), 10, seed=8)


class TestCommitSelection:
    def test_moves_ids_and_bumps_cycle(self):
        pool = init_pool(ids(100), 20, seed=0)
        chosen = sorted(pool.unlabeled)[:10]
        after = commit_selection(pool, chosen)
        assert after.cycle == 1
        assert len(after.labeled) == 30
        assert len(after.unlabeled) == 70
        assert set(chosen) <= after.labeled

    def test_drops_pseudo_entries_of_selected(self):
        pool = init_pool(ids(10), 2, seed=0)
        target = sorted(pool.unlabeled)[0]
        pool = with_pseudo(pool, {target: [a_pl(target)]})
        after = commit_selection(pool, [target])
        assert target not in after.pseudo

    def test_empty_selection(self):
        pool = init_pool(ids(10), 2, seed=0)
        after = commit_selection(pool, [])
        assert after.labeled == pool.labeled
        assert after.cycle == pool.cycle + 1

    def test_double_commit_rejected(self):
        pool = init_pool(ids(10), 2, seed=0)
        target = sorted(pool.unlabeled)[0]
        pool = commit_selection(pool, [target])
        with pytest.raises(ValueError, match="already labeled or unknown"):
            commit_selection(pool, [target])

    def test_unknown_id_rejected(self):
        pool = init_pool(ids(10), 2, seed=0)
        with pytest.raises(ValueError, match="already labeled or unknown"):
            commit_selection(pool, ["stranger"])


def small_world(n_train=60, n_test=30, n_classes=3, seed=0):
    train = make_synthetic_dataset(n_train, n_classes, seed=seed, id_prefix="tr")
    test = make_synthetic_dataset(n_test, n_classes, seed=seed + 1000, id_prefix="te")
    world = Dataset(train.classes, train.images + test.images)
    return train, test, world


def make_detector(world, **overrides):
    defaults = dict(
        n_classes=world.n_classes,
        accuracy=0.7,
        flip_robustness=0.85,
        temperature=0.12,
        skill_gain_per_labeled=0.01,
        seed=3,
    )
    defaults.update(overrides)
    return SyntheticDetector(SyntheticDetectorConfig(**defaults), world)


class TestRunCycles:
    def test_report_count_and_growth(self):
        train, test, world = small_world()
        pool = init_pool(train.image_ids, 10, seed=0)
        cfg = RunConfig(cycles=3, budget_per_cycle=5, strategy="unified", seed=0)
        reports = run_cycles(pool, make_detector(world), cfg, train, test)
        assert len(reports) == 4
        assert [r.n_labeled for r in reports] == [10, 15, 20, 25]
        assert [r.cycle for r in reports] == [0, 1, 2, 3]

    def test_selected_at_most_once(self):
        train, test, world = small_world()
        pool = init_pool(train.image_ids, 10, seed=0)
        cfg = RunConfig(cycles=4, budget_per_cycle=5, strategy="unified", seed=0)
        reports = run_cycles(pool, make_detector(world), cfg, train, test)
        all_selected = [i for r in reports for i in r.selected]
        assert len(all_selected) == len(set(all_selected)) == 20

    def test_pl_switch(self):
        train, test, world = small_world()
        pool = init_pool(train.image_ids, 10, seed=0)
        cfg = RunConfig(cycles=2, budget_per_cycle=5, strategy="unified", seed=0, pl_enabled=False)
        reports = run_cycles(pool, make_detector(world), cfg, train, test)
        assert all(r.pl_count == 0 for r in reports)
        assert all(r.pl_ratio == 0.0 for r in reports)

    def test_pl_off_drops_pseudo_labels_of_given_pool(self):
        # a stale pseudo-label in the given pool is dropped before cycle 0
        train, test, world = small_world()
        pool = init_pool(train.image_ids, 10, seed=0)
        stale = sorted(pool.unlabeled)[0]
        pool = with_pseudo(pool, {stale: [a_pl(stale)]})
        seen = []
        cfg = RunConfig(cycles=2, budget_per_cycle=5, seed=0, pl_enabled=False)
        reports = run_cycles(pool, PoolSpy(make_detector(world), seen), cfg, train, test)
        assert [(r.cycle, r.pl_count, r.pl_correctness) for r in reports] == [
            (0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0)
        ]
        assert seen == [0, 0, 0]

    def test_reproducible(self):
        train, test, world = small_world()
        cfg = RunConfig(cycles=3, budget_per_cycle=5, strategy="unified", seed=4)
        a = run_cycles(init_pool(train.image_ids, 10, 4), make_detector(world), cfg, train, test)
        b = run_cycles(init_pool(train.image_ids, 10, 4), make_detector(world), cfg, train, test)
        assert a == b

    def test_random_strategy_seeded(self):
        train, test, world = small_world()
        cfg1 = RunConfig(cycles=2, budget_per_cycle=5, strategy="random", seed=1)
        cfg2 = RunConfig(cycles=2, budget_per_cycle=5, strategy="random", seed=2)
        a = run_cycles(init_pool(train.image_ids, 10, 0), make_detector(world), cfg1, train, test)
        b = run_cycles(init_pool(train.image_ids, 10, 0), make_detector(world), cfg2, train, test)
        assert a[1].selected != b[1].selected

    def test_pl_stats_populated(self):
        train, test, world = small_world()
        pool = init_pool(train.image_ids, 10, seed=0)
        cfg = RunConfig(cycles=2, budget_per_cycle=5, strategy="unified", seed=0, tau=0.9)
        reports = run_cycles(pool, make_detector(world), cfg, train, test)
        assert any(r.pl_count > 0 for r in reports)
        for r in reports:
            assert 0.0 <= r.pl_ratio <= 1.0
            assert 0.0 <= r.pl_correctness <= 1.0
            assert len(r.pseudo_labels) == r.pl_count

    def test_unified_targets_fragile_class(self):
        # with one flip-fragile class injected, the unified strategy selects
        # strictly more images of that class than random selection does
        train = make_synthetic_dataset(80, 3, seed=7, objects_per_image=(1, 1), id_prefix="tr")
        test = make_synthetic_dataset(20, 3, seed=1007, objects_per_image=(1, 1), id_prefix="te")
        world = Dataset(train.classes, train.images + test.images)
        det = make_detector(
            world,
            accuracy={1: 0.3, 2: 0.85, 3: 0.85},
            flip_robustness={1: 0.2, 2: 0.95, 3: 0.95},
        )

        def fragile_selected(strategy):
            cfg = RunConfig(cycles=2, budget_per_cycle=10, strategy=strategy, seed=0)
            reports = run_cycles(init_pool(train.image_ids, 10, 0), det, cfg, train, test)
            return sum(
                1
                for r in reports
                for i in r.selected
                if train[i].objects[0].class_id == 1
            )

        assert fragile_selected("unified") > fragile_selected("random")

    def test_pool_mismatch_rejected(self):
        train, test, world = small_world()
        pool = init_pool(train.image_ids[:-1], 5, seed=0)
        cfg = RunConfig(cycles=1, budget_per_cycle=2, seed=0)
        with pytest.raises(ValueError, match="do not match"):
            run_cycles(pool, make_detector(world), cfg, train, test)


class CountingDetector(DetectorInterface):
    """Delegates to a detector and counts predict calls per (version, image_id, flipped)."""

    def __init__(self, inner, calls):
        self.inner, self.calls = inner, calls

    def predict(self, image_id, flipped=False):
        self.calls[(self.inner.version, image_id, flipped)] += 1
        return self.inner.predict(image_id, flipped)

    def update(self, pool):
        return CountingDetector(self.inner.update(pool), self.calls)


class PoolSpy(DetectorInterface):
    """Delegates to a detector and records the pseudo-label count of every pool it trains on."""

    def __init__(self, inner, seen):
        self.inner, self.seen = inner, seen

    def predict(self, image_id, flipped=False):
        return self.inner.predict(image_id, flipped)

    def update(self, pool):
        self.seen.append(pool.n_pseudo_labels)
        return PoolSpy(self.inner.update(pool), self.seen)


class TestSinglePass:
    """Each detector version predicts each view of each image at most once."""

    CYCLES = 3

    def run(self, monkeypatch, pl_enabled):
        train, test, world = small_world()
        evaluations = []

        def counting_map50(*args, **kwargs):
            evaluations.append(1)
            return map50(*args, **kwargs)

        monkeypatch.setattr(pool_module, "map50", counting_map50)
        calls = Counter()
        pool = init_pool(train.image_ids, 10, seed=0)
        cfg = RunConfig(cycles=self.CYCLES, budget_per_cycle=5, seed=0, tau=0.9,
                        pl_enabled=pl_enabled)
        reports = run_cycles(pool, CountingDetector(make_detector(world), calls), cfg, train, test)
        assert set(calls.values()) == {1}

        def predicted(version, ids, flipped):
            return {i for v, i, f in calls if v == version and f == flipped and i in ids}

        train_ids, test_ids = set(train.image_ids), set(test.image_ids)
        assert len(evaluations) == self.CYCLES + 1
        for v in range(self.CYCLES + 2):
            assert predicted(v, test_ids, False) == (test_ids if v > 0 else set())
        labeled = set(pool.labeled)
        for t, rep in enumerate(reports):
            scored = {s.image_id for s in rep.scores}
            assert predicted(t, train_ids, True) == scored
            labeled |= set(rep.selected)
            # version t + 1 is trained at the end of cycle t
            originals = predicted(t + 1, train_ids, False)
            if pl_enabled:
                assert originals == train_ids - labeled
            else:
                following = reports[t + 1].scores if t < self.CYCLES else ()
                assert originals == {s.image_id for s in following}
        return reports

    def test_pseudo_labels_on(self, monkeypatch):
        reports = self.run(monkeypatch, pl_enabled=True)
        assert any(r.pl_count for r in reports)

    def test_pseudo_labels_off(self, monkeypatch):
        self.run(monkeypatch, pl_enabled=False)
