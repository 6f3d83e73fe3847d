"""Entropy, symmetric KL, image-level aggregation, unified scoring, selection."""

import math

import numpy as np
import pytest
from oracles import _image_entropy, _image_inconsistency, chunk_of, entropy, image_scores, one_image, sym_kl

from aldet.acquisition import (
    AcquisitionConfig,
    AcquisitionScores,
    _entropies,
    _logs,
    _max_per_image,
    _sym_kls,
    post_nms,
    select_for_labeling,
    unified_score,
)
from aldet.boxes import Detections, hflip, nms
from aldet.matching import match_predictions

EPS = 1e-12


def oracle_kl(p, q):
    """Direct-summation KL with the same epsilon clamp, plain Python floats."""
    total = 0.0
    for pi, qi in zip(p, q):
        total += pi * (math.log(max(pi, EPS)) - math.log(max(qi, EPS)))
    return total


def oracle_sym_kl(p, q):
    return 0.5 * (oracle_kl(p, q) + oracle_kl(q, p))


def oracle_entropy(p):
    return -sum(pi * math.log(max(pi, EPS)) for pi in p)


def random_dist(rng, k):
    raw = rng.uniform(0.01, 1.0, k)
    return raw / raw.sum()


class TestSymKL:
    def test_identical_dists(self):
        p = [0.3, 0.7]
        assert sym_kl(p, p) == 0.0

    def test_frozen_example(self):
        # oracle: 0.5 * (0.14384103622589045 + 0.13081203594113697)
        got = sym_kl([0.5, 0.5], [0.25, 0.75])
        assert got == pytest.approx(0.1373265360835137, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            sym_kl([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_symmetry_and_oracle_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            k = int(rng.integers(2, 8))
            p, q = random_dist(rng, k), random_dist(rng, k)
            v = sym_kl(p, q)
            assert v == sym_kl(q, p)
            assert v >= 0.0
            assert v == pytest.approx(oracle_sym_kl(p, q), rel=1e-9)

    def test_one_hot_is_finite(self):
        v = sym_kl([1.0, 0.0], [0.0, 1.0])
        assert math.isfinite(v)
        assert v > 0.0


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_21_categories(self):
        p = np.full(21, 1.0 / 21.0)
        assert entropy(p) == pytest.approx(math.log(21), rel=1e-12)

    def test_frozen_example(self):
        probs = np.zeros(21)
        probs[0], probs[1] = 0.99, 0.01
        assert entropy(probs) == pytest.approx(0.056001534354847345, rel=1e-12)

    def test_oracle_and_bounds_random(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            k = int(rng.integers(2, 22))
            p = random_dist(rng, k)
            v = entropy(p)
            assert 0.0 <= v <= math.log(k) + 1e-12
            assert v == pytest.approx(oracle_entropy(p), rel=1e-9)


class TestImageAggregation:
    """The per-image maxima that define H and I, as the oracle the chunked
    scoring is pinned to (see tests/test_properties.py)."""

    def test_inconsistency_identical_pairs(self):
        rows = np.array([[0.2, 0.8]] * 3)
        assert _image_inconsistency(rows, rows) == 0.0

    def test_inconsistency_is_max(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            p = np.array([random_dist(rng, 4) for _ in range(n)])
            q = np.array([random_dist(rng, 4) for _ in range(n)])
            expected = max(oracle_sym_kl(a, b) for a, b in zip(p, q))
            assert _image_inconsistency(p, q) == pytest.approx(expected, rel=1e-9)

    def test_empty_cases(self):
        assert _image_inconsistency(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0
        assert _image_entropy(np.zeros((0, 3))) == 0.0

    def test_entropy_is_max(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            probs = np.array([random_dist(rng, 5) for _ in range(int(rng.integers(1, 6)))])
            expected = max(oracle_entropy(p) for p in probs)
            assert _image_entropy(probs) == pytest.approx(expected, rel=1e-9)


    def test_chunk_values_equal_per_row_dots_and_python_max(self):
        # One stacked matmul per chunk computes each row by np.dot's loop, and
        # one reduceat takes each image's max: the same floats as a np.dot
        # per row and Python's max per image.
        rng = np.random.default_rng(5)
        for _ in range(200):
            n, k, m = int(rng.integers(0, 40)), int(rng.integers(2, 22)), int(rng.integers(1, 8))
            p, q = rng.dirichlet(np.full(k, 0.3), n), rng.dirichlet(np.full(k, 0.3), n)
            lp, d = _logs(p), _logs(p) - _logs(q)
            h = np.array([float(-np.dot(a, b)) for a, b in zip(p, lp)])
            i = np.array([0.5 * (float(np.dot(a, x)) + float(np.dot(b, y))) for a, b, x, y in zip(p, q, d, -d)])
            assert _entropies(p).tobytes() == h.tobytes() and _sym_kls(p, q).tobytes() == i.tobytes()
            image = np.sort(rng.integers(0, m, n))
            expected = [max(h[image == j].tolist(), default=0.0) for j in range(m)]
            assert _max_per_image(h, image, m).tolist() == expected


def two_sided_prediction(rng, image_id="img", n=3, width=100, height=100, perturb=0.0):
    """A one-image chunk and its flipped view, a chunk in the flipped frame
    whose dists differ by `perturb`."""
    boxes, mirrored, orig_probs, flip_probs = [], [], [], []
    for _ in range(n):
        x0, y0 = rng.uniform(0, 60, 2)
        w, h = rng.uniform(10, 30, 2)
        probs = random_dist(rng, 4)
        boxes.append([x0, y0, x0 + w, y0 + h])
        orig_probs.append(probs)
        mirrored.append([width - (x0 + w), y0, width - x0, y0 + h])
        q = probs.copy()
        if perturb:
            q = q + rng.uniform(-perturb, perturb, 4)
            q = np.clip(q, 1e-4, None)
            q = q / q.sum()
        flip_probs.append(q)

    def prediction(rows, probs, flipped):
        rows = np.array(rows)
        dets = Detections(rows, probs)
        return chunk_of([one_image(image_id, width, height, dets, flipped)])

    return prediction(boxes, orig_probs, False), prediction(mirrored, flip_probs, True)


class TestAcquisitionConfig:
    @pytest.mark.parametrize("knob, value, message", [
        ("nms_iou", 0.0, "must be in (0, 1]"),
        ("nms_iou", 1.5, "must be in (0, 1]"),
        ("nms_iou", float("nan"), "must be in (0, 1]"),
        ("nms_score_floor", 1.0, "must be in [0, 1)"),
        ("nms_score_floor", -0.1, "must be in [0, 1)"),
        ("nms_score_floor", float("nan"), "must be in [0, 1)"),
        ("min_match_iou", 1.2, "must be in [0, 1]"),
        ("min_match_iou", float("nan"), "must be in [0, 1]"),
    ])
    def test_range_and_nan_rejected(self, knob, value, message):
        # NaN passes a test of the form x < lo or x > hi; every check must fail it
        with pytest.raises(ValueError) as err:
            AcquisitionConfig(**{knob: value})
        assert str(err.value) == f"{knob}: {message}, got {value!r}"

    def test_bounds_accepted(self):
        AcquisitionConfig(nms_iou=1.0, nms_score_floor=0.0, min_match_iou=0.0)
        AcquisitionConfig(min_match_iou=1.0)


class TestUnifiedScore:
    def test_product_identity(self):
        # the constructor computes unified itself, and no column can be changed afterwards
        s = AcquisitionScores(["a", "b"], [2.0, 0.1], [0.5, 0.3])
        assert s.unified.tolist() == [1.0, 0.1 * 0.3]
        with pytest.raises(TypeError):
            AcquisitionScores(["a"], [2.0], [0.5], [0.9])
        with pytest.raises(ValueError, match="read-only"):
            s.unified[0] = 0.9

    def test_infinite_scores_rejected(self):
        # aldet's own scores are finite; an infinite one would rank first
        for parts in ((math.inf, 0.2), (0.5, math.inf), (math.nan, 0.2), (-1e-300, 0.2)):
            with pytest.raises(ValueError, match="must be non-negative finite numbers"):
                AcquisitionScores(["a", "b"], [0.1, parts[0]], [0.1, parts[1]])

    def test_rows_and_ids_checked(self):
        with pytest.raises(ValueError, match="row counts differ"):
            AcquisitionScores(["a"], [0.1, 0.2], [0.1])
        with pytest.raises(ValueError, match="image_id: expected a string"):
            AcquisitionScores([1], [0.1], [0.1])
        assert len(AcquisitionScores()) == 0

    def test_empty_prediction_scores_zero(self):
        empty = chunk_of([one_image("a", 100, 100, Detections([], []))])
        [s] = image_scores(unified_score(empty, empty))
        assert (s.image_id, s.entropy, s.inconsistency, s.unified) == ("a", 0.0, 0.0, 0.0)

    def test_matches_hand_composed_pipeline(self):
        rng = np.random.default_rng(8)
        cfg = AcquisitionConfig()
        for _ in range(50):
            orig, flip = two_sided_prediction(rng, perturb=0.2)
            [got] = image_scores(unified_score(
                post_nms(orig, cfg), post_nms(flip, cfg), cfg.min_match_iou
            ))

            orig_dets = nms(orig.detections, cfg.nms_iou, cfg.nms_score_floor)
            unflipped = hflip(flip)
            flip_dets = nms(unflipped.detections, cfg.nms_iou, cfg.nms_score_floor)
            result = match_predictions(
                orig.with_detections(orig_dets),
                unflipped.with_detections(flip_dets),
                cfg.min_match_iou,
            )
            h = max((entropy(p) for p in orig_dets.probs), default=0.0)
            inc = max(
                (sym_kl(orig_dets.probs[i], flip_dets.probs[j]) for i, j in result.pairs), default=0.0
            )
            assert got.entropy == h
            assert got.inconsistency == inc
            assert got.unified == h * inc

    def test_scoring_order_invariance(self):
        # detections stored in any order give the same scores (distinct scores)
        rng = np.random.default_rng(15)
        cfg = AcquisitionConfig()
        orig, flip = two_sided_prediction(rng, n=4, perturb=0.3)
        [base] = image_scores(unified_score(post_nms(orig, cfg), post_nms(flip, cfg)))
        perm = rng.permutation(4)
        orig2 = orig.with_detections(orig.detections.take(perm))
        flip2 = flip.with_detections(flip.detections.take(perm[::-1]))
        [shuffled] = image_scores(unified_score(post_nms(orig2, cfg), post_nms(flip2, cfg)))
        assert shuffled.entropy == pytest.approx(base.entropy, rel=1e-12)
        assert shuffled.inconsistency == pytest.approx(base.inconsistency, rel=1e-12)


def score_table(values):
    values = np.asarray(values, dtype=np.float64).reshape(-1, 2)
    return AcquisitionScores([f"img_{i:04d}" for i in range(len(values))], values[:, 0], values[:, 1])


class TestSelectForLabeling:
    def test_budget_arithmetic(self):
        # 10 images, total budget 4 over 2 cycles -> 2 per cycle
        rng = np.random.default_rng(0)
        scores = score_table(rng.uniform(0.1, 1.0, (10, 2)))
        picked = select_for_labeling(scores, 4 // 2, "unified")
        assert len(picked) == 2

    def test_ties_broken_by_id(self):
        scores = score_table([(1.0, 1.0)] * 5)
        assert select_for_labeling(scores, 3, "unified") == ["img_0000", "img_0001", "img_0002"]

    def test_budget_exceeds_pool(self):
        scores = score_table([(1.0, 1.0)] * 3)
        with pytest.raises(ValueError, match="budget exceeds pool"):
            select_for_labeling(scores, 4, "unified")

    def test_random_requires_seed(self):
        scores = score_table([(1.0, 1.0)] * 3)
        with pytest.raises(ValueError, match="seed"):
            select_for_labeling(scores, 2, "random")

    def test_random_is_seeded_and_permutation_stable(self):
        rng = np.random.default_rng(5)
        scores = score_table(rng.uniform(0.1, 1.0, (20, 2)))
        a = select_for_labeling(scores, 5, "random", seed=123)
        b = select_for_labeling(scores.take(np.arange(20)[::-1]), 5, "random", seed=123)
        assert a == b
        c = select_for_labeling(scores, 5, "random", seed=124)
        assert a != c

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            scores = score_table(rng.uniform(0.0, 2.0, (n, 2)))
            scores = scores.take(rng.permutation(n))
            budget = int(rng.integers(0, n + 1))
            strategy = str(rng.choice(["entropy", "inconsistency", "unified"]))
            got = select_for_labeling(scores, budget, strategy)
            # oracle: repeated max-extraction instead of a single sort
            remaining = image_scores(scores)
            expected = []
            for _ in range(budget):
                best = remaining[0]
                for s in remaining[1:]:
                    if (getattr(s, strategy), best.image_id) > (getattr(best, strategy), s.image_id):
                        best = s
                expected.append(best.image_id)
                remaining.remove(best)
            assert got == expected
