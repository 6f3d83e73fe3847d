"""Pool partition invariants and the cycle protocol."""

import gc
import inspect
import re
import sys
import weakref
from collections import Counter
from dataclasses import replace

import pytest
from oracles import (
    chunk_of, dataset_of, fresh_stream_predict, image_scores, log_resets, per_image_post_nms, per_image_unified_score,
)

from aldet import acquisition, boxes, sim_detector
from aldet.acquisition import AcquisitionConfig
from aldet import pool as pool_module
from aldet.dataset import Dataset, make_synthetic_dataset
from aldet.evaluation import map50
from aldet.pool import (
    PL_STRATEGIES,
    Pool,
    RunConfig,
    commit_selection,
    init_pool,
    pseudo_label_pool,
    run_cycles,
    score_pool,
    with_pseudo,
)
from aldet.pseudo_label import PseudoLabels
from aldet.sim_detector import DetectorInterface, SyntheticDetector, SyntheticDetectorConfig


def logging_call(fn, name, log):
    """``fn``, appending ``name`` to ``log`` on every call."""

    def call(*args, **kwargs):
        log.append(name)
        return fn(*args, **kwargs)

    return call


def ids(n, prefix="img"):
    return [f"{prefix}_{i:04d}" for i in range(n)]


def some_pls(image_id, n=1):
    return PseudoLabels([image_id] * n, [[0, 0, 10, 10]] * n, [1] * n, [0.995] * n)


class TestPoolType:
    def test_partition_invariants(self):
        with pytest.raises(ValueError, match="overlap"):
            Pool(frozenset({"a", "b"}), frozenset({"b", "c"}))
        with pytest.raises(ValueError, match="non-pool"):
            Pool(frozenset({"a"}), frozenset({"b"}), some_pls("a"))
        with pytest.raises(ValueError):
            Pool(frozenset(), frozenset(), cycle=-1)

    def test_counts(self):
        pool = Pool(frozenset({"a"}), frozenset({"b", "c"}), some_pls("b", 2))
        assert len(pool.pseudo) == 2
        assert pool.all_ids == {"a", "b", "c"}

    def test_pseudo_rows_held_stably_in_id_order(self):
        pls = PseudoLabels(["c", "b", "c", "b"], [[0, 0, 1, 1]] * 4, [1, 2, 3, 4], [0.9] * 4)
        pool = Pool(frozenset(), frozenset({"b", "c"}), pls)
        assert pool.pseudo == pls.take([1, 3, 0, 2])
        # a set already in id order is kept as it is
        assert with_pseudo(pool, pool.pseudo).pseudo is pool.pseudo


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

    def test_negative_budget(self):
        with pytest.raises(ValueError, match=r"^initial budget must be non-negative, got -1$"):
            init_pool(["a", "b"], -1, 0)

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
        target, other = sorted(pool.unlabeled)[:2]
        pool = with_pseudo(pool, PseudoLabels.concat([some_pls(target, 2), some_pls(other), some_pls(target)]))
        after = commit_selection(pool, [target])
        assert after.pseudo == some_pls(other)

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
    world = Dataset.concat([train, test])
    return train, test, world


def make_detector(world, **overrides):
    defaults = dict(
        accuracy=0.7,
        flip_robustness=0.85,
        temperature=0.12,
        skill_gain_per_labeled=0.01,
        seed=3,
    )
    defaults.update(overrides)
    return SyntheticDetector(SyntheticDetectorConfig(**defaults), world)


class TestRunConfig:
    def test_every_bad_field_reported_at_once(self):
        with pytest.raises(ValueError) as err:
            RunConfig(cycles=0, budget_per_cycle=-1, strategy="bogus", tau=float("nan"))
        assert str(err.value) == (
            "cycles: need at least one cycle, got 0; budget_per_cycle: must be non-negative, got -1; "
            "strategy: must be one of ('random', 'entropy', 'inconsistency', 'unified'), got 'bogus'; "
            "tau: must be in (0, 1), got nan"
        )

    @pytest.mark.parametrize("knob, value", [
        ("pl_strategy", "top"), ("pl_topk_fraction", 0.0), ("pl_topk_fraction", float("nan")),
    ])
    def test_pseudo_label_settings_checked(self, knob, value):
        with pytest.raises(ValueError, match=f"^{knob}: "):
            RunConfig(cycles=1, budget_per_cycle=1, **{knob: value})


class TestPseudoLabelPool:
    def test_unknown_strategy_rejected(self):
        # a typo must not silently fall back to top-k
        with pytest.raises(ValueError, match=re.escape(f"must be one of {PL_STRATEGIES}, got 'bogus'")):
            pseudo_label_pool([], "bogus", 0.5, 0.2)
        for strategy in PL_STRATEGIES:
            assert pseudo_label_pool([], strategy, 0.5, 0.2) == PseudoLabels()


class TestRunCycles:
    def test_report_count_and_growth(self):
        train, test, world = small_world()
        pool = init_pool(train.image_ids, 10, seed=0)
        cfg = RunConfig(cycles=3, budget_per_cycle=5, strategy="unified", seed=0)
        reports = list(run_cycles(pool, make_detector(world), cfg, train, test))
        assert len(reports) == 4
        assert [r.n_labeled for r in reports] == [10, 15, 20, 25]
        assert [r.cycle for r in reports] == [0, 1, 2, 3]

    def test_selected_at_most_once(self):
        train, test, world = small_world()
        pool = init_pool(train.image_ids, 10, seed=0)
        cfg = RunConfig(cycles=4, budget_per_cycle=5, strategy="unified", seed=0)
        reports = list(run_cycles(pool, make_detector(world), cfg, train, test))
        all_selected = [i for r in reports for i in r.selected]
        assert len(all_selected) == len(set(all_selected)) == 20

    def test_pl_switch(self):
        train, test, world = small_world()
        pool = init_pool(train.image_ids, 10, seed=0)
        cfg = RunConfig(cycles=2, budget_per_cycle=5, strategy="unified", seed=0, pl_enabled=False)
        reports = list(run_cycles(pool, make_detector(world), cfg, train, test))
        assert all(r.pl_count == 0 for r in reports)
        assert all(r.pl_ratio == 0.0 for r in reports)

    def test_pl_off_drops_pseudo_labels_of_given_pool(self):
        # a stale pseudo-label in the given pool is dropped before cycle 0
        train, test, world = small_world()
        pool = init_pool(train.image_ids, 10, seed=0)
        stale = sorted(pool.unlabeled)[0]
        pool = with_pseudo(pool, some_pls(stale))
        seen = []
        cfg = RunConfig(cycles=2, budget_per_cycle=5, seed=0, pl_enabled=False)
        reports = list(run_cycles(pool, PoolSpy(make_detector(world), seen), cfg, train, test))
        assert [(r.cycle, r.pl_count, r.pl_correctness) for r in reports] == [
            (0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0)
        ]
        assert seen == [0, 0, 0]

    def test_evaluation_reads_the_nms_config(self):
        # the golden runs' NMS settings leave mAP unchanged, so pin it here:
        # a score floor above every detection's score leaves nothing to rank
        train, test, world = small_world()
        maps = []
        for floor in (0.01, 0.999):
            cfg = RunConfig(cycles=1, budget_per_cycle=5, seed=0,
                            acquisition=AcquisitionConfig(nms_score_floor=floor))
            pool = init_pool(train.image_ids, 10, seed=0)
            detector = make_detector(world, temperature=0.5)
            maps.append(list(run_cycles(pool, detector, cfg, train, test))[0].evaluation.map50)
        assert maps[0] > 0.0 and maps[1] == 0.0

    def test_reproducible(self):
        train, test, world = small_world()
        cfg = RunConfig(cycles=3, budget_per_cycle=5, strategy="unified", seed=4)
        a = list(run_cycles(init_pool(train.image_ids, 10, 4), make_detector(world), cfg, train, test))
        b = list(run_cycles(init_pool(train.image_ids, 10, 4), make_detector(world), cfg, train, test))
        assert a == b

    def test_random_strategy_seeded(self):
        train, test, world = small_world()
        cfg1 = RunConfig(cycles=2, budget_per_cycle=5, strategy="random", seed=1)
        cfg2 = RunConfig(cycles=2, budget_per_cycle=5, strategy="random", seed=2)
        a = list(run_cycles(init_pool(train.image_ids, 10, 0), make_detector(world), cfg1, train, test))
        b = list(run_cycles(init_pool(train.image_ids, 10, 0), make_detector(world), cfg2, train, test))
        assert a[1].selected != b[1].selected

    def test_pl_stats_populated(self):
        train, test, world = small_world()
        pool = init_pool(train.image_ids, 10, seed=0)
        cfg = RunConfig(cycles=2, budget_per_cycle=5, strategy="unified", seed=0, tau=0.9)
        reports = list(run_cycles(pool, make_detector(world), cfg, train, test))
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
        world = Dataset.concat([train, test])
        det = make_detector(
            world,
            accuracy={1: 0.3, 2: 0.85, 3: 0.85},
            flip_robustness={1: 0.2, 2: 0.95, 3: 0.95},
        )

        def fragile_selected(strategy):
            cfg = RunConfig(cycles=2, budget_per_cycle=10, strategy=strategy, seed=0)
            reports = list(run_cycles(init_pool(train.image_ids, 10, 0), det, cfg, train, test))
            return sum(
                1
                for r in reports
                for i in r.selected
                if train[i].class_ids[0] == 1
            )

        assert fragile_selected("unified") > fragile_selected("random")

    def test_one_cycle_per_report(self):
        # the detector trained in cycle 0 is version 1; until cycle 0's report
        # is asked for nothing is predicted. When it arrives, version 1 has
        # predicted the pool's original and flipped views (scoring the pool
        # for cycle 1) and the test set's originals, and cycle 1 has not
        # started: no later version predicts
        assert inspect.isgeneratorfunction(run_cycles)
        train, test, world = small_world()
        pool = init_pool(train.image_ids, 10, seed=0)
        calls = Counter()
        detector = CountingDetector(make_detector(world), calls, [], [])
        reports = run_cycles(pool, detector, RunConfig(cycles=2, budget_per_cycle=5, seed=0), train, test)
        assert not calls
        assert next(reports).cycle == 0
        assert {(v, f) for v, _, f in calls} == {(1, False), (1, True)}
        assert {i for _, i, f in calls if not f} == pool.unlabeled | set(test.image_ids)
        assert {i for _, i, f in calls if f} == pool.unlabeled
        assert [r.cycle for r in reports] == [1, 2]

    def test_pool_mismatch_rejected(self):
        train, test, world = small_world()
        pool = init_pool(train.image_ids[:-1], 5, seed=0)
        cfg = RunConfig(cycles=1, budget_per_cycle=2, seed=0)
        with pytest.raises(ValueError, match="do not match"):
            list(run_cycles(pool, make_detector(world), cfg, train, test))

    @pytest.mark.parametrize("cycles, budget, feasible", [(5, 11, True), (4, 14, False), (1, 56, False)])
    def test_budget_beyond_the_pool_rejected_before_any_predict(self, cycles, budget, feasible):
        # 55 unlabeled images: every cycle's selection fits, or the first next() raises
        train, test, world = small_world()
        pool = init_pool(train.image_ids, 5, seed=0)
        calls = Counter()
        detector = CountingDetector(make_detector(world), calls, [], [])
        reports = run_cycles(pool, detector, RunConfig(cycles=cycles, budget_per_cycle=budget, seed=0), train, test)
        if feasible:
            assert [r.n_labeled for r in reports][-1] == 60
            return
        with pytest.raises(ValueError, match=rf"^budget exceeds pool: {cycles} cycles of {budget} images > "
                                             r"55 unlabeled images$"):
            next(reports)
        assert not calls


class CountingDetector(DetectorInterface):
    """Delegates to a detector, counts predictions per (version, image_id,
    flipped), and records each predict call's chunk and the calls that the
    ``log`` gained during it."""

    def __init__(self, inner, calls, chunks, log):
        self.inner, self.calls, self.chunks, self.log = inner, calls, chunks, log

    def predict(self, image_ids, flipped=False):
        for image_id in image_ids:
            self.calls[(self.inner.version, image_id, flipped)] += 1
        start = len(self.log)
        pred = self.inner.predict(image_ids, flipped)
        self.chunks.append((tuple(image_ids), Counter(self.log[start:])))
        return pred

    def update(self, pool):
        return CountingDetector(self.inner.update(pool), self.calls, self.chunks, self.log)


class PoolSpy(DetectorInterface):
    """Delegates to a detector and records the pseudo-label count of every pool it trains on."""

    def __init__(self, inner, seen):
        self.inner, self.seen = inner, seen

    def predict(self, image_ids, flipped=False):
        return self.inner.predict(image_ids, flipped)

    def update(self, pool):
        self.seen.append(len(pool.pseudo))
        return PoolSpy(self.inner.update(pool), self.seen)


class TestSinglePass:
    """Each detector version predicts each view of each image at most once,
    in chunks, and each prediction goes through NMS once, as part of a
    chunk."""

    CYCLES = 3

    def run(self, monkeypatch, pl_enabled):
        # a pool that holds a full chunk after the initial 10 and every budget
        train, test, world = small_world(n_train=acquisition.CHUNK_IMAGES + 28)
        evaluations = []

        def counting_map50(*args, **kwargs):
            evaluations.append(1)
            return map50(*args, **kwargs)

        monkeypatch.setattr(pool_module, "map50", counting_map50)
        post_nms, nms, through_nms, nms_calls = acquisition.post_nms, boxes.nms, [], []
        # the array work of a prediction: logged per call, grouped per chunk by CountingDetector
        log = []
        for module, name in ((sim_detector, "_softmax"), (boxes, "checked_probs"), (boxes, "checked_boxes")):
            monkeypatch.setattr(module, name, logging_call(getattr(module, name), name, log))

        def counting_post_nms(pred, *args, **kwargs):
            through_nms.extend(pred.image_ids)
            return post_nms(pred, *args, **kwargs)

        def counting_nms(*args, **kwargs):
            nms_calls.append(1)
            return nms(*args, **kwargs)

        # every aldet module that imported either by name
        for name, module in list(sys.modules.items()):
            if name.startswith("aldet."):
                for attr, fn, counting in (("post_nms", post_nms, counting_post_nms),
                                           ("nms", nms, counting_nms)):
                    if getattr(module, attr, None) is fn:
                        monkeypatch.setattr(module, attr, counting)
        calls, chunks = Counter(), []
        pool = init_pool(train.image_ids, 10, seed=0)
        cfg = RunConfig(cycles=self.CYCLES, budget_per_cycle=5, seed=0, tau=0.9,
                        pl_enabled=pl_enabled)
        detector = CountingDetector(make_detector(world), calls, chunks, log)
        reports = list(run_cycles(pool, detector, cfg, train, test))
        assert set(calls.values()) == {1}
        # The detector predicts chunks of up to CHUNK_IMAGES images, and
        # builds each chunk's arrays once: one softmax, one distribution
        # check and one box check per chunk, not per image; the chunk is
        # built directly: there is no joining of per-image predictions.
        assert len(chunks) < sum(calls.values())
        assert all(0 < len(ids) <= acquisition.CHUNK_IMAGES for ids, _ in chunks)
        assert any(len(ids) == acquisition.CHUNK_IMAGES for ids, _ in chunks)
        once = Counter(["_softmax", "checked_probs", "checked_boxes"])
        assert all(work == once for _, work in chunks)
        assert not hasattr(boxes.PredictionChunk, "of")
        # every prediction passes through NMS once; one NMS call per chunk
        assert len(through_nms) == sum(calls.values())
        assert 0 < len(nms_calls) < len(through_nms)

        def predicted(version, ids, flipped):
            return {i for v, i, f in calls if v == version and f == flipped and i in ids}

        train_ids, test_ids = set(train.image_ids), set(test.image_ids)
        assert len(evaluations) == self.CYCLES + 1
        for v in range(self.CYCLES + 2):
            assert predicted(v, test_ids, False) == (test_ids if v > 0 else set())
        labeled = set(pool.labeled)
        for t, rep in enumerate(reports):
            scored = set(rep.scores.image_ids.tolist())
            assert predicted(t, train_ids, True) == scored
            labeled |= set(rep.selected)
            # version t + 1 is trained at the end of cycle t
            originals = predicted(t + 1, train_ids, False)
            if pl_enabled:
                assert originals == train_ids - labeled
            else:
                following = reports[t + 1].scores.image_ids.tolist() if t < self.CYCLES else ()
                assert originals == set(following)
        return reports

    def test_pseudo_labels_on(self, monkeypatch):
        reports = self.run(monkeypatch, pl_enabled=True)
        assert any(r.pl_count for r in reports)

    def test_pseudo_labels_off(self, monkeypatch):
        self.run(monkeypatch, pl_enabled=False)


class TestOnePass:
    """Each detector version makes one pass over the sorted pool: it predicts
    a chunk's flipped view right after the chunk's original view, scores the
    chunk and hands it on to pseudo-labelling before it predicts the next
    chunk."""

    CFG = dict(cycles=3, budget_per_cycle=10, seed=0, tau=0.9)
    N_TRAIN = 4 * acquisition.CHUNK_IMAGES - 8  # a pool of about four chunks after the initial 10

    def test_no_image_replays_its_original_stream(self, monkeypatch):
        # With pseudo-labels on, stream 0 (the original view's draws) is
        # reset once per original image predicted: each flipped image takes
        # its ground-truth logits from the original-view call just before
        # it, instead of replaying its stream.
        train, test, world = small_world(n_train=self.N_TRAIN)
        resets = log_resets(monkeypatch, world.image_ids)
        calls = Counter()
        detector = CountingDetector(make_detector(world, fp_rate=1.0), calls, [], [])
        cfg = RunConfig(**self.CFG, pl_enabled=True)
        reports = list(run_cycles(init_pool(train.image_ids, 10, 0), detector, cfg, train, test))
        assert all(r.pl_count for r in reports) and all(r.scores for r in reports[1:])
        assert Counter(image_id for image_id, tag in resets if tag == 0) == Counter(
            image_id for _, image_id, flipped in calls.elements() if not flipped)

    @pytest.mark.parametrize("pl_enabled, pl_strategy", [(True, "threshold"), (True, "topk"), (False, "threshold")])
    def test_holds_one_chunk_of_the_pools_predictions(self, monkeypatch, pl_enabled, pl_strategy):
        # Whenever the detector predicts, at most one chunk of the pool's
        # post-NMS original views is alive, over a pool of four chunks.
        train, test, world = small_world(n_train=self.N_TRAIN)
        train_ids, post_nms, made = set(train.image_ids), acquisition.post_nms, []

        def tracked(chunk, cfg):
            out = post_nms(chunk, cfg)
            if not chunk.flipped and out.image_ids[0] in train_ids:
                made.append(weakref.ref(out))
            return out

        predict, alive = SyntheticDetector.predict, []

        def spy(self, image_ids, flipped=False):
            gc.collect()
            alive.append(sum(ref() is not None for ref in made))
            return predict(self, image_ids, flipped)

        monkeypatch.setattr(acquisition, "post_nms", tracked)
        monkeypatch.setattr(SyntheticDetector, "predict", spy)
        cfg = RunConfig(**self.CFG, pl_enabled=pl_enabled, pl_strategy=pl_strategy)
        reports = list(run_cycles(init_pool(train.image_ids, 10, 0), make_detector(world), cfg, train, test))
        assert any(r.pl_count for r in reports) == pl_enabled
        assert len(made) > 4 and max(alive) == 1  # several passes of four chunks


def test_score_pool_across_chunks_equals_per_image_code():
    # A pool of more than two chunks whose size is no multiple of the chunk
    # size, with false positives so that NMS suppresses and matching competes.
    n = 2 * acquisition.CHUNK_IMAGES + 7
    train, _, world = small_world(n_train=n)
    det = make_detector(world, fp_rate=3.0)
    cfg = AcquisitionConfig()
    originals = list(acquisition.post_nms_stream(det.predict, train.image_ids, cfg))
    per_image = [per_image_post_nms(fresh_stream_predict(det, world, i), cfg) for i in train.image_ids]
    assert originals == [chunk_of(group) for group in acquisition.chunked(per_image)]
    scores = image_scores(score_pool(iter(originals), det.predict, cfg))
    expected = [
        per_image_unified_score(o, per_image_post_nms(fresh_stream_predict(det, world, o.image_ids[0], True), cfg), 0.5)
        for o in per_image
    ]
    assert [(s.image_id, s.entropy.hex(), s.inconsistency.hex()) for s in scores] == [
        (s.image_id, s.entropy.hex(), s.inconsistency.hex()) for s in expected
    ]


class TestCoordinateFrames:
    """A flipped view that was not mapped back holds mirrored boxes: every
    stage that compares boxes with the original images refuses it, naming
    its first image, where it once read it without error."""

    data = make_synthetic_dataset(64, 5, 3)
    ids = data.image_ids[:32]
    cfg = AcquisitionConfig()
    REFUSED = "chunk of image 'img_0000' is in the flipped frame, expected the original frame"

    def views(self):
        det = SyntheticDetector(SyntheticDetectorConfig(), self.data)
        original = acquisition.post_nms(det.predict(self.ids), self.cfg)
        flipped = det.predict(self.ids, flipped=True)
        # NMS alone keeps the flipped frame; post_nms maps the view back
        mirrored = flipped.with_detections(boxes.nms(flipped.detections, self.cfg.nms_iou, self.cfg.nms_score_floor))
        return det, original, mirrored, acquisition.post_nms(flipped, self.cfg)

    def test_scoring_refuses_a_chunk_in_the_flipped_frame(self):
        _, original, mirrored, unflipped = self.views()
        assert mirrored.flipped and not unflipped.flipped
        assert len(acquisition.unified_score(original, unflipped)) == 32
        with pytest.raises(ValueError, match=re.escape(self.REFUSED)):
            acquisition.unified_score(original, mirrored)

    def test_evaluation_refuses_a_chunk_in_the_flipped_frame(self):
        _, original, mirrored, _ = self.views()
        pool_module.evaluate([original], self.data)
        with pytest.raises(ValueError, match=re.escape(self.REFUSED)):
            pool_module.evaluate([original, mirrored], self.data)

    @pytest.mark.parametrize("strategy", PL_STRATEGIES)
    def test_pseudo_labelling_refuses_a_chunk_in_the_flipped_frame(self, strategy):
        _, original, mirrored, _ = self.views()
        assert len(pseudo_label_pool([original], strategy, 0.9, 0.2))
        with pytest.raises(ValueError, match=re.escape(self.REFUSED)):
            pseudo_label_pool([mirrored], strategy, 0.9, 0.2)

    def test_post_nms_stream_refuses_a_source_that_answers_an_original_request_flipped(self):
        # post_nms would mirror such a chunk: evaluated against these images,
        # it read mAP 0.016 where the detector's own chunks read 0.654
        det, images = self.views()[0], dataset_of(self.data.classes, self.data.images[:32])

        def flipped_original(image_ids):
            return replace(det.predict(image_ids), flipped=True)

        assert pool_module.evaluate(acquisition.post_nms_stream(det.predict, self.ids, self.cfg), images).map50 > 0.6
        with pytest.raises(ValueError, match=re.escape(self.REFUSED)):
            pool_module.evaluate(acquisition.post_nms_stream(flipped_original, self.ids, self.cfg), images)

    def test_score_pool_refuses_a_source_that_answers_a_flipped_request_unflipped(self):
        # a chunk source written before chunks carried their frame gives the
        # flipped view's boxes in a chunk marked as the original frame
        det, original, _, _ = self.views()

        def old_contract(image_ids, flipped=False):
            return replace(det.predict(image_ids, flipped), flipped=False)

        assert len(score_pool([original], det.predict, self.cfg)) == 32
        with pytest.raises(ValueError, match="chunk of image 'img_0000' is in the original frame, expected the "
                                             "flipped frame"):
            score_pool([original], old_contract, self.cfg)


def test_no_image_record_is_built_by_loading_the_loop_or_evaluation(tmp_path, monkeypatch):
    # The dataset is one column set: loading it, a run with pseudo-labels,
    # skill gains and the audit, and map50 gather ground truth by position
    # and build no per-image record, which only dataset.images and
    # dataset[id] make, on demand.
    from aldet import formats
    from aldet.dataset import ImageRecord
    from aldet.pseudo_label import audit_pl_correctness

    built, init = [], ImageRecord.__init__
    monkeypatch.setattr(ImageRecord, "__init__", lambda self, *args: built.append(args[0]) or init(self, *args))
    train, test, _ = small_world()
    formats.save_dataset(train, tmp_path / "train.json")
    formats.save_dataset(test, tmp_path / "test.json")
    train, test = formats.load_dataset(tmp_path / "train.json"), formats.load_dataset(tmp_path / "test.json")
    det = make_detector(Dataset.concat([train, test]), skill_gain_per_pseudo=0.01)
    cfg = RunConfig(cycles=2, budget_per_cycle=5, tau=0.5)
    reports = list(run_cycles(init_pool(train.image_ids, 10, seed=0), det, cfg, train, test))
    assert sum(rep.pl_count for rep in reports) > 0
    chunk = det.predict(test.image_ids)
    map50(chunk.detections, [chunk.image_ids[k] for k in chunk.detections.image.tolist()], test)
    audit_pl_correctness(reports[-1].pseudo_labels, train)
    assert built == []
    assert len(train.images) == len(built) == len(train)  # the count sees the views
