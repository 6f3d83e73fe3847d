"""Synthetic detector: determinism, flip coherence, and the low-accuracy /
low-robustness regime that motivates the unified acquisition score."""

import numpy as np
import pytest
from oracles import chunk_bits, chunk_of, dataset_of, fresh_stream_predict, image_scores, log_resets

from aldet.acquisition import AcquisitionConfig, post_nms, unified_score
from aldet.boxes import encode_boxes, hflip, iou, nms
from aldet.dataset import Dataset, ImageRecord, make_synthetic_dataset
from aldet.pool import Pool, init_pool
from aldet.pseudo_label import extract_pseudo_labels
from aldet import sim_detector
from aldet.sim_detector import SyntheticDetector, SyntheticDetectorConfig


def detector(dataset, **overrides):
    defaults = dict(seed=5)
    defaults.update(overrides)
    return SyntheticDetector(SyntheticDetectorConfig(**defaults), dataset)


def score(det, image_id):
    """Acquisition score of one image at the default settings."""
    cfg = AcquisitionConfig()
    [s] = image_scores(unified_score(
        post_nms(det.predict([image_id]), cfg),
        post_nms(det.predict([image_id], True), cfg),
    ))
    return s


@pytest.fixture(scope="module")
def world():
    return make_synthetic_dataset(40, 4, seed=1)


class TestConfig:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            SyntheticDetectorConfig(accuracy=1.2)
        with pytest.raises(ValueError):
            SyntheticDetectorConfig(temperature=0.0)
        # K is the detector's dataset's, and a dataset has at least one class
        with pytest.raises(ValueError, match="at least one foreground class"):
            Dataset((), ())

    @pytest.mark.parametrize("knob, value", [
        ("accuracy", float("nan")),
        ("accuracy", {1: 0.5, 2: float("nan"), 3: 0.5}),
        ("accuracy", {1: 0.5, 9: 1.5}),  # checked value by value, without a K
        ("flip_robustness", {1: -0.1}),
        ("flip_robustness", float("nan")),
        ("temperature", float("nan")),
        ("logit_noise", float("nan")),
        ("box_noise", float("nan")),
        ("fp_rate", float("nan")),
        ("skill_gain_per_labeled", float("nan")),
        ("skill_gain_per_pseudo", float("nan")),
        ("accuracy_ceiling", 5.0),
        ("accuracy_ceiling", float("nan")),
        ("robustness_ceiling", -0.1),
        ("robustness_ceiling", float("nan")),
    ])
    def test_nan_and_out_of_range_rejected(self, knob, value):
        # NaN passes a test of the form x < lo or x > hi; every check must fail it
        with pytest.raises(ValueError, match=knob):
            SyntheticDetectorConfig(**{knob: value})

    def test_per_class_mapping_must_cover(self, world):
        # The config knows no K; the detector checks a mapping against its
        # dataset's classes 1..4.
        cfg = SyntheticDetectorConfig(accuracy={1: 0.5})
        with pytest.raises(ValueError, match=r"accuracy mapping must cover classes 1\.\.4 exactly"):
            SyntheticDetector(cfg, world)
        with pytest.raises(ValueError, match=r"flip_robustness mapping must cover classes 1\.\.4 exactly"):
            detector(world, flip_robustness=dict.fromkeys(range(1, 6), 0.5))
        accuracy = {1: 0.5, 2: 0.9, 3: 0.1, 4: 1.0}
        det = detector(world, accuracy=accuracy)
        assert det.config.accuracy == accuracy
        assert [det.class_accuracy(c) for c in range(1, 5)] == [0.5, 0.9, 0.1, 1.0]

    def test_per_class_settings_read_once_per_detector(self, world, monkeypatch):
        calls = []
        per_class = sim_detector._per_class
        monkeypatch.setattr(sim_detector, "_per_class", lambda *a: calls.append(a[2]) or per_class(*a))
        det = detector(world, skill_gain_per_labeled=0.01)
        pool = init_pool(world.image_ids, 10, seed=0)
        det.update(pool).update(pool).predict(world.image_ids[:3], flipped=True)
        assert calls == ["accuracy", "flip_robustness"]


class TestDeterminism:
    def test_repeated_predict_identical(self, world):
        det = detector(world)
        a = det.predict(["img_0003"])
        b = det.predict(["img_0003"])
        assert a == b
        fa = det.predict(["img_0003"], flipped=True)
        fb = det.predict(["img_0003"], flipped=True)
        assert fa == fb

    def test_fresh_detector_same_stream(self, world):
        a = detector(world).predict(["img_0007"], flipped=True)
        b = detector(world).predict(["img_0007"], flipped=True)
        assert a == b

    def test_seed_changes_stream(self, world):
        a = detector(world, seed=5).predict(["img_0007"])
        b = detector(world, seed=6).predict(["img_0007"])
        assert a != b

    def test_update_changes_stream(self, world):
        det = detector(world, skill_gain_per_labeled=0.01)
        pool = init_pool(world.image_ids, 10, seed=0)
        det2 = det.update(pool)
        assert det2.version == 1
        assert det.predict(["img_0001"]) != det2.predict(["img_0001"])

    def test_update_leaves_the_detector_as_it_was(self, world):
        det = detector(world, skill_gain_per_labeled=0.05, fp_rate=1.0)
        ids = world.image_ids[:6]
        before = det.predict(ids), det.predict(ids, flipped=True)
        skill = [(det.class_accuracy(c), det.class_robustness(c)) for c in range(1, world.n_classes + 1)]
        new = det.update(init_pool(world.image_ids, 10, seed=0))
        new.predict(ids)  # the new version's original view is not the old one's
        assert (det.version, new.version) == (0, 1)
        assert (det.predict(ids, flipped=True), det.predict(ids)) == before[::-1]
        assert [(det.class_accuracy(c), det.class_robustness(c)) for c in range(1, world.n_classes + 1)] == skill
        assert new.class_accuracy(1) > det.class_accuracy(1)

    def test_order_independence(self, world):
        det = detector(world)
        ids = world.image_ids[:6]
        first = {i: det.predict([i]) for i in ids}
        second = {i: det.predict([i]) for i in reversed(ids)}
        assert first == second

    def test_unknown_image(self, world):
        with pytest.raises(KeyError, match="unknown image"):
            detector(world).predict(["img_0001", "nope"])


class TestPredictionShape:
    def test_one_detection_per_object(self, world):
        det = detector(world)
        ids = world.image_ids[:10]
        pred = det.predict(ids)
        assert pred.image_ids == tuple(ids)
        assert np.bincount(pred.detections.image, minlength=len(ids)).tolist() == [
            len(world[i].class_ids) for i in ids
        ]

    def test_chunk_is_in_the_frame_of_the_view(self, world):
        det = detector(world)
        assert [det.predict(world.image_ids[:3], flipped).flipped for flipped in (False, True)] == [False, True]

    def test_boxes_inside_image(self, world):
        det = detector(world, box_noise=0.3)
        for flipped in (False, True):
            pred = det.predict(world.image_ids[:10], flipped)
            b, image = pred.detections.boxes, pred.detections.image
            w, h = np.array(pred.widths)[image, None], np.array(pred.heights)[image, None]
            assert len(b) and (b >= 0.0).all()
            assert (b[:, [0, 2]] <= w).all() and (b[:, [1, 3]] <= h).all()

    def test_encoded_corner_roundtrip(self, world):
        # the encoded form of every detection, under the full-image anchor,
        # describes the same region as its corner box
        det = detector(world)
        for image_id in world.image_ids[:10]:
            pred = det.predict([image_id])
            d, w, h = pred.detections, pred.widths[0], pred.heights[0]
            # decoded by hand: center = image center + offset, size = ratio * image size
            dx, dy, sw, sh = encode_boxes(d.boxes, w, h).T
            cx, cy = w / 2 + dx * w, h / 2 + dy * h
            back = np.stack([cx - sw * w / 2, cy - sh * h / 2, cx + sw * w / 2, cy + sh * h / 2], axis=1)
            np.testing.assert_allclose(back, d.boxes, rtol=0, atol=1e-9)

    def test_false_positive_rate(self, world):
        det = detector(world, fp_rate=2.0)
        extra = 0
        for image_id in world.image_ids:
            pred = det.predict([image_id])
            extra += len(pred.detections) - len(world[image_id].class_ids)
        assert extra / len(world.image_ids) == pytest.approx(2.0, abs=0.6)


class TestFlipBehavior:
    def test_flip_coherence(self, world):
        # un-flipping the flipped prediction recovers boxes near the originals
        det = detector(world, box_noise=0.02)
        for image_id in world.image_ids[:15]:
            orig = det.predict([image_id])
            back = hflip(det.predict([image_id], flipped=True))
            for a, b in zip(orig.detections.boxes.tolist(), back.detections.boxes.tolist()):
                assert iou(np.array(a), np.array(b)) > 0.5

    def test_perfect_robustness_zero_inconsistency(self, world):
        det = detector(world, flip_robustness=1.0, box_noise=0.0)
        for image_id in world.image_ids[:15]:
            assert score(det, image_id).inconsistency == 0.0

    def test_zero_noise_boxes_exact_mirror(self, world):
        det = detector(world, box_noise=0.0)
        for image_id in world.image_ids[:5]:
            orig = det.predict([image_id])
            back = hflip(det.predict([image_id], flipped=True))
            for a, b in zip(orig.detections.boxes.tolist(), back.detections.boxes.tolist()):
                assert iou(np.array(a), np.array(b)) > 0.999

    def test_low_robustness_raises_inconsistency(self):
        # class 1 fragile vs class 2 robust, one object per image
        data = make_synthetic_dataset(200, 2, seed=3, objects_per_image=(1, 1))
        det = detector(
            data,
            accuracy={1: 0.3, 2: 0.9},
            flip_robustness={1: 0.2, 2: 0.95},
            temperature=0.12,
        )
        means = {1: [], 2: []}
        for img in data.images:
            cls = img.class_ids[0]
            means[cls].append(score(det, img.image_id).inconsistency)
        assert np.mean(means[1]) > 3.0 * np.mean(means[2])


class TestConfidentlyWrongRegime:
    def test_entropy_not_elevated_but_inconsistency_is(self):
        # low accuracy + low temperature: the fragile class is confidently
        # wrong (entropy comparable to healthy classes) while its flip
        # inconsistency is clearly elevated
        data = make_synthetic_dataset(150, 5, seed=9, objects_per_image=(1, 1))
        det = detector(
            data,
            accuracy={1: 0.3, 2: 0.85, 3: 0.85, 4: 0.85, 5: 0.85},
            flip_robustness={1: 0.2, 2: 0.95, 3: 0.95, 4: 0.95, 5: 0.95},
            temperature=0.12,
        )
        h = {True: [], False: []}
        inc = {True: [], False: []}
        for img in data.images:
            fragile = img.class_ids[0] == 1
            s = score(det, img.image_id)
            h[fragile].append(s.entropy)
            inc[fragile].append(s.inconsistency)
        assert np.mean(inc[True]) > 2.0 * np.mean(inc[False])
        assert np.mean(h[True]) < 2.0 * np.mean(h[False])

    def test_unified_score_separates_fragile_class_across_seeds(self):
        # statistical property over 100 seeded images: mean unified score of
        # the flip-fragile class strictly exceeds the mean over other classes
        wins = 0
        for seed in range(100):
            data = make_synthetic_dataset(30, 3, seed=seed, objects_per_image=(1, 1))
            det = detector(
                data,
                accuracy={1: 0.3, 2: 0.85, 3: 0.85},
                flip_robustness={1: 0.2, 2: 0.95, 3: 0.95},
                temperature=0.12,
                seed=seed,
            )
            fragile, rest = [], []
            for img in data.images:
                s = score(det, img.image_id)
                (fragile if img.class_ids[0] == 1 else rest).append(s.unified)
            if fragile and rest and np.mean(fragile) > np.mean(rest):
                wins += 1
        assert wins >= 95


class TestConfidenceLimit:
    def test_cold_temperature_pseudo_labelable(self, world):
        det = detector(world, accuracy=1.0, temperature=0.05, logit_noise=0.0, box_noise=0.0)
        for image_id in world.image_ids[:10]:
            post = det.predict([image_id])
            post = post.with_detections(nms(post.detections))
            pls = extract_pseudo_labels([post], 0.99)
            assert len(pls) == len(post.detections)
            assert (pls.scores > 0.99).all()


class TestUpdate:
    def test_zero_gain_is_identity(self, world):
        det = detector(world, skill_gain_per_labeled=0.0)
        pool = init_pool(world.image_ids, 10, seed=0)
        det2 = det.update(pool)
        for c in range(1, world.n_classes + 1):
            assert det2.class_accuracy(c) == det.class_accuracy(c)
            assert det2.class_robustness(c) == det.class_robustness(c)

    def test_a_version_predicts_the_same_whatever_the_next_predicts_in_between(self, world):
        # Every version made by update shares the first one's generator, which
        # each draw loop puts at the start of an image's stream: each
        # version's predictions, in both views, equal the fresh-generator
        # oracle however the two versions' calls interleave.
        det = detector(world, fp_rate=2.0, skill_gain_per_labeled=0.1)
        newer = det.update(init_pool(world.image_ids, 10, seed=0))
        ids = world.image_ids[:6]
        for d, flipped in [(det, False), (newer, False), (newer, True), (det, True), (newer, False), (det, False)]:
            expected = chunk_of([fresh_stream_predict(d, world, i, flipped) for i in ids])
            assert chunk_bits(d.predict(ids, flipped)) == chunk_bits(expected)
        assert newer.class_accuracy(1) > det.class_accuracy(1)

    def test_gain_is_class_local(self):
        data = make_synthetic_dataset(30, 3, seed=4, objects_per_image=(1, 1))
        det = detector(data, accuracy=0.5, skill_gain_per_labeled=0.05)
        class_a_ids = [img.image_id for img in data.images if img.class_ids[0] == 1][:3]
        pool = Pool(frozenset(class_a_ids), frozenset(data.image_ids) - set(class_a_ids))
        det2 = det.update(pool)
        assert det2.class_accuracy(1) == pytest.approx(0.5 + 3 * 0.05)
        assert det2.class_accuracy(2) == 0.5
        assert det2.class_accuracy(3) == 0.5

    def test_monotone_in_labels(self, world):
        det = detector(world, skill_gain_per_labeled=0.02)
        ids = sorted(world.image_ids)
        previous = [det.class_accuracy(c) for c in range(1, world.n_classes + 1)]
        for n in (5, 10, 20, 40):
            pool = Pool(frozenset(ids[:n]), frozenset(ids[n:]))
            updated = det.update(pool)
            current = [updated.class_accuracy(c) for c in range(1, world.n_classes + 1)]
            assert all(c >= p for c, p in zip(current, previous))
            previous = current

    def test_ceiling_respected(self, world):
        det = detector(world, accuracy=0.95, skill_gain_per_labeled=0.5, accuracy_ceiling=0.97)
        pool = Pool(frozenset(world.image_ids), frozenset())
        det2 = det.update(pool)
        for c in range(1, world.n_classes + 1):
            assert det2.class_accuracy(c) <= 0.97


class TestCheapDraws:
    """The draw loop takes standard normals and raw words, cheaper calls
    than the values it needs, and the array pass maps them to what
    ``normal`` and ``random`` give, bit for bit. Each call takes the same
    words, so the stream stays in step: the next raw word agrees."""

    @staticmethod
    def twins(buffered=None):
        """Two generators on one Philox state; ``buffered`` are the next
        words they give, put in the bit generator's buffer of four."""
        gens = [np.random.Generator(np.random.Philox(key=np.array([7, 11], dtype=np.uint64))) for _ in range(2)]
        if buffered is not None:
            for gen in gens:
                state = gen.bit_generator.state
                pos = 4 - len(buffered)
                state["buffer"], state["buffer_pos"] = np.array([0] * pos + buffered, dtype=np.uint64), pos
                gen.bit_generator.state = state
        return gens

    @pytest.mark.parametrize("n, buffered", [(10_000, None), (3, [0, 2**11 - 1, 2**64 - 1])],
                             ids=["draws", "edge-words"])
    def test_raw_words_map_to_random(self, n, buffered):
        a, b = self.twins(buffered)
        words = [a.bit_generator.random_raw() for _ in range(n)]
        expected = np.array([b.random() for _ in range(n)])
        if buffered is not None:
            assert words == buffered and expected.tolist() == [0.0, 0.0, 1.0 - 2.0**-53]
        assert sim_detector._uniforms(words).tobytes() == expected.tobytes()
        assert a.bit_generator.random_raw() == b.bit_generator.random_raw()

    @pytest.mark.parametrize("scale", [1.0, 0.1, 0.0])
    def test_scaled_standard_normals_are_normal(self, scale):
        a, b = self.twins()
        for n in (4, 21):
            z = np.concatenate([a.standard_normal(n) for _ in range(500)])
            expected = np.concatenate([b.normal(0.0, scale, n) for _ in range(500)])
            assert (z < 0).any()  # a zero scale times these gives -0.0 unless 0.0 is added
            assert sim_detector._normal(z, scale).tobytes() == expected.tobytes()
            assert a.bit_generator.random_raw() == b.bit_generator.random_raw()


@pytest.mark.parametrize("flipped", [False, True], ids=["original", "flipped"])
def test_rejected_integer_draws_its_chunk_one_value_per_call(world, monkeypatch, flipped):
    # A rejected bounded-integer draw (about 1.4e-9 per confusion draw at
    # K = 20) moves every later word of its image, so the array pass cannot
    # read its chunk's words at their fixed positions; the chunk is drawn
    # again one value per call. Forced in one view of one chunk, that path
    # runs there only and gives the same chunk, bit for bit.
    det = detector(world, fp_rate=2.0)
    chunks = [world.image_ids[:4], world.image_ids[4:9]]
    calls = [(c, v) for c in chunks for v in (False, True)]
    unforced = [chunk_bits(det.predict(c, v)) for c, v in calls]

    ran, armed = [], []
    one_by_one, bounded = SyntheticDetector._draw_one_by_one, sim_detector._bounded_integers
    monkeypatch.setattr(SyntheticDetector, "_draw_one_by_one",
                        lambda self, *args: ran.append(args) or one_by_one(self, *args))

    def reject_one(words, high, n):
        values, rejected = bounded(words, high, n)
        if armed and len(rejected):
            armed.clear()
            rejected = rejected.copy()
            rejected[len(rejected) // 2] = True
        return values, rejected

    monkeypatch.setattr(sim_detector, "_bounded_integers", reject_one)
    for (c, v), expected in zip(calls, unforced):
        if (c, v) == (chunks[1], flipped):
            armed.append(True)
        got = chunk_bits(det.predict(c, v))
        assert got == expected
        assert got == chunk_bits(chunk_of([fresh_stream_predict(det, world, i, v) for i in c]))
    assert not armed and [(tuple(world.image_ids[p] for p in pos), v) for pos, _, v in ran] == [(chunks[1], flipped)]


def test_false_positives_need_a_20_pixel_image():
    # A false positive's side is drawn from [10, half the image side].
    data = dataset_of(("c",), (ImageRecord("a", 16, 300, [[1, 1, 5, 5]], [1]), ImageRecord("b", 20, 20, [], [])))
    det = detector(data, fp_rate=5.0)
    with pytest.raises(ValueError, match="at least 20 pixels a side, got 16x300"):
        det.predict(["a"])
    det.predict(["b"])  # exactly 20 pixels a side: sides drawn from [10, 10]
    assert len(detector(data, fp_rate=0.0).predict(["a"]).detections) == 1


def test_flipped_view_replays_stream_0_only_without_the_last_original_call(world, monkeypatch):
    # The flipped view needs the original view's ground-truth logits. It
    # takes them from the detector's most recent original-view call when
    # that call was of the same chunk (the same images in the same order),
    # and replays stream 0 of every image otherwise; either way the
    # prediction is the same.
    resets = log_resets(monkeypatch, world.image_ids)

    def replayed(det, fresh, ids):
        """The images whose stream 0 ``det.predict(ids, flipped=True)`` resets;
        ``fresh`` is a detector of the same version that never predicted an
        original view, so it replays every image."""
        expected = fresh.predict(ids, flipped=True)
        resets.clear()
        assert det.predict(ids, flipped=True) == expected
        assert sorted(i for i, tag in resets if tag == 1) == sorted(ids)
        return sorted(i for i, tag in resets if tag == 0)

    det, fresh = detector(world, fp_rate=2.0), detector(world, fp_rate=2.0)
    pool = init_pool(world.image_ids, 10, seed=0)
    ids, others = world.image_ids[:4], world.image_ids[4:8]
    det.predict(ids)
    assert replayed(det, fresh, ids) == []
    assert replayed(det, fresh, ids[1:3]) == sorted(ids[1:3])  # a subset
    assert replayed(det, fresh, ids[::-1]) == sorted(ids)  # the same images reordered
    assert replayed(det, fresh, others) == sorted(others)
    assert replayed(det, fresh, ids + others[:1]) == sorted(ids + others[:1])  # a superset
    assert replayed(det, fresh, ids) == []  # still the last original call
    det.predict(others)
    assert replayed(det, fresh, ids) == sorted(ids)  # only the last original call is kept
    newer, fresh = det.update(pool), fresh.update(pool)
    assert replayed(newer, fresh, others) == sorted(others)  # a new version starts with none
    newer.predict(others)
    assert replayed(newer, fresh, others) == []
