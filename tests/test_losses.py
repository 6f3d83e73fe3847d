"""Loss formulas against independent direct-summation oracles."""

import math

import numpy as np
import pytest

from aldet.acquisition import AcquisitionConfig, post_nms
from aldet.boxes import encode_boxes
from aldet.dataset import make_synthetic_dataset
from aldet.losses import (
    GroundTruthAssignment,
    consistency_class_loss,
    consistency_loc_loss,
    multibox_conf_loss,
    pl_multibox_conf_loss,
    smooth_l1,
    smooth_l1_loc_loss,
    total_loss,
)
from aldet.matching import match_predictions
from aldet.sim_detector import SyntheticDetector, SyntheticDetectorConfig

EPS = 1e-12


def random_dist(rng, k):
    raw = rng.uniform(0.01, 1.0, k)
    return raw / raw.sum()


def random_assignment(rng, n_preds, n_classes, with_pl=True):
    idx = list(rng.permutation(n_preds))
    n_pos = int(rng.integers(0, n_preds // 3 + 1))
    n_neg = int(rng.integers(0, n_preds // 3 + 1))
    n_pl = int(rng.integers(0, n_preds // 3 + 1)) if with_pl else 0
    positives = tuple(
        (int(idx.pop()), int(rng.integers(0, 5)), int(rng.integers(1, n_classes + 1)))
        for _ in range(n_pos)
    )
    negatives = tuple(int(idx.pop()) for _ in range(n_neg))
    pl_positives = tuple(
        (int(idx.pop()), int(rng.integers(1, n_classes + 1))) for _ in range(n_pl)
    )
    return GroundTruthAssignment(positives, negatives, pl_positives)


def oracle_conf_loss(dists, asg):
    total = 0.0
    for i, _j, p in asg.positives:
        total -= math.log(max(dists[i][p], EPS))
    for i in asg.negatives:
        total -= math.log(max(dists[i][0], EPS))
    for i, p in asg.pl_positives:
        total -= math.log(max(dists[i][p], EPS))
    return total


def oracle_smooth_l1(pred, target, positives):
    total = 0.0
    for i in positives:
        for a, b in zip(pred[i], target[i]):
            r = abs(a - b)
            total += 0.5 * r * r if r < 1.0 else r - 0.5
    return total


class TestAssignment:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError, match="assignment conflict"):
            GroundTruthAssignment(positives=((0, 0, 1),), negatives=(0,))
        with pytest.raises(ValueError, match="assignment conflict"):
            GroundTruthAssignment(positives=((1, 0, 2),), pl_positives=((1, 2),))

    def test_background_class_rejected(self):
        with pytest.raises(ValueError):
            GroundTruthAssignment(positives=((0, 0, 0),))
        with pytest.raises(ValueError):
            GroundTruthAssignment(pl_positives=((0, 0),))


class TestMultibox:
    def test_perfect_prediction_is_zero(self):
        dists = [
            [0.0, 1.0, 0.0],  # positive on class 1
            [1.0, 0.0, 0.0],  # negative
        ]
        asg = GroundTruthAssignment(positives=((0, 0, 1),), negatives=(1,))
        assert multibox_conf_loss(dists, asg) == 0.0

    def test_single_term_log(self):
        p = math.exp(-1.0)
        dists = [[1.0 - p, p]]
        asg = GroundTruthAssignment(positives=((0, 0, 1),))
        assert multibox_conf_loss(dists, asg) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_pl_positives(self):
        dists = [[0.5, 0.5]]
        asg = GroundTruthAssignment(pl_positives=((0, 1),))
        with pytest.raises(ValueError):
            multibox_conf_loss(dists, asg)

    def test_index_out_of_range(self):
        dists = [[0.5, 0.5]]
        with pytest.raises(ValueError, match="out of range"):
            multibox_conf_loss(dists, GroundTruthAssignment(positives=((3, 0, 1),)))
        with pytest.raises(ValueError, match="out of range"):
            multibox_conf_loss(dists, GroundTruthAssignment(positives=((0, 0, 5),)))

    def test_oracle_random(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            n, k = int(rng.integers(3, 12)), int(rng.integers(2, 6))
            dists = [random_dist(rng, k + 1) for _ in range(n)]
            asg = random_assignment(rng, n, k, with_pl=False)
            got = multibox_conf_loss(dists, asg)
            assert got >= 0.0
            assert got == pytest.approx(oracle_conf_loss(dists, asg), rel=1e-9, abs=1e-15)


class TestPLMultibox:
    def test_reduces_to_multibox_bitwise(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            n, k = int(rng.integers(3, 10)), 4
            dists = [random_dist(rng, k + 1) for _ in range(n)]
            asg = random_assignment(rng, n, k, with_pl=False)
            assert pl_multibox_conf_loss(dists, asg) == multibox_conf_loss(dists, asg)

    def test_single_pl_term(self):
        p = math.exp(-2.0)
        dists = [[1.0 - p, p]]
        asg = GroundTruthAssignment(pl_positives=((0, 1),))
        assert pl_multibox_conf_loss(dists, asg) == pytest.approx(2.0, rel=1e-12)

    def test_uncovered_indices_are_neutral(self):
        # an extra distribution with no assignment contributes nothing
        dists = [[0.5, 0.5], [0.1, 0.9]]
        asg = GroundTruthAssignment(negatives=(0,))
        only_first = pl_multibox_conf_loss(dists, asg)
        assert only_first == pytest.approx(-math.log(0.5), rel=1e-12)

    def test_oracle_random(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            n, k = int(rng.integers(3, 12)), int(rng.integers(2, 6))
            dists = [random_dist(rng, k + 1) for _ in range(n)]
            asg = random_assignment(rng, n, k, with_pl=True)
            got = pl_multibox_conf_loss(dists, asg)
            assert got == pytest.approx(oracle_conf_loss(dists, asg), rel=1e-9, abs=1e-15)


class TestSmoothL1:
    def test_zero_on_equal(self):
        boxes = [[0.1, -0.2, 1.0, 2.0]]
        assert smooth_l1_loc_loss(boxes, boxes, [0]) == 0.0

    def test_quadratic_branch(self):
        a = [[0.5, 0.0, 1.0, 1.0]]
        b = [[0.0, 0.0, 1.0, 1.0]]
        assert smooth_l1_loc_loss(a, b, [0]) == pytest.approx(0.125, rel=1e-12)

    def test_linear_branch(self):
        a = [[2.0, 0.0, 1.0, 1.0]]
        b = [[0.0, 0.0, 1.0, 1.0]]
        assert smooth_l1_loc_loss(a, b, [0]) == pytest.approx(1.5, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            smooth_l1_loc_loss([[0, 0, 1, 1]], [], [])

    def test_oracle_random(self):
        rng = np.random.default_rng(40)
        for _ in range(1000):
            n = int(rng.integers(1, 10))
            pred = [[*rng.uniform(-2, 2, 2), *rng.uniform(0.2, 3, 2)] for _ in range(n)]
            target = [[*rng.uniform(-2, 2, 2), *rng.uniform(0.2, 3, 2)] for _ in range(n)]
            positives = [int(i) for i in rng.choice(n, size=rng.integers(0, n + 1), replace=False)]
            got = smooth_l1_loc_loss(pred, target, positives)
            assert got == pytest.approx(oracle_smooth_l1(pred, target, positives), rel=1e-9, abs=1e-15)


NEUTRAL = [0.0, 0.0, 1.0, 1.0]


def pair(orig_probs, flip_probs, orig_enc=NEUTRAL, flip_enc=NEUTRAL):
    """One matched pair: (orig probs, flipped probs, orig encoded, flipped encoded)."""
    return orig_probs, flip_probs, orig_enc, flip_enc


def class_loss(pairs):
    return consistency_class_loss([p[0] for p in pairs], [p[1] for p in pairs])


def loc_loss(pairs):
    return consistency_loc_loss([p[2] for p in pairs], [p[3] for p in pairs])


class TestConsistencyLosses:
    def test_class_loss_identical_pairs(self):
        pairs = [pair([0.2, 0.8], [0.2, 0.8])] * 4
        assert class_loss(pairs) == 0.0

    def test_class_loss_mean(self):
        rng = np.random.default_rng(50)
        from aldet.acquisition import sym_kl

        pairs = [pair(random_dist(rng, 3), random_dist(rng, 3)) for _ in range(5)]
        expected = sum(sym_kl(p[0], p[1]) for p in pairs) / 5
        assert class_loss(pairs) == pytest.approx(expected, rel=1e-12)

    def test_empty_pairs(self):
        assert consistency_class_loss([], []) == 0.0
        assert consistency_loc_loss([], []) == 0.0
        with pytest.raises(ValueError, match="length mismatch"):
            consistency_loc_loss([NEUTRAL], [])

    def test_loc_mirror_prediction_is_zero(self):
        # a flip-consistent prediction, its flipped member mapped back into
        # the original frame as the matcher gives it: both rows are equal
        p = pair(
            [0.2, 0.8],
            [0.2, 0.8],
            orig_enc=[0.1, 0.05, 1.2, 0.9],
            flip_enc=[0.1, 0.05, 1.2, 0.9],
        )
        assert loc_loss([p]) == 0.0

    def test_loc_negation_rule(self):
        # both members are in the same frame: the loss negates nothing, so a
        # dx of the opposite sign is a disagreement
        p = pair([0.5, 0.5], [0.5, 0.5], [0.1, 0.0, 1.0, 1.0], [0.1, 0.0, 1.0, 1.0])
        assert loc_loss([p]) == 0.0
        q = pair([0.5, 0.5], [0.5, 0.5], [0.1, 0.0, 1.0, 1.0], [-0.1, 0.0, 1.0, 1.0])
        assert loc_loss([q]) == pytest.approx(0.25 * (0.2 ** 2), rel=1e-12)

    def test_loc_flip_consistent_detector_is_zero(self):
        # Every box of a detector with robustness 1 and no box noise is
        # mirrored exactly by its flipped view, so the matched pairs of the
        # post-NMS views agree up to rounding and the loss vanishes.
        data = make_synthetic_dataset(50, 3, seed=21)
        det = SyntheticDetector(
            SyntheticDetectorConfig(n_classes=3, flip_robustness=1.0, box_noise=0.0, seed=2), data
        )
        cfg = AcquisitionConfig()
        orig = post_nms(det.predict(data.image_ids), cfg)
        back = post_nms(det.predict(data.image_ids, True), cfg, True)
        enc_a, enc_b = [], []
        for i, j in match_predictions(orig, back).pairs:
            k = orig.detections.image[i]
            size = orig.widths[k], orig.heights[k]
            enc_a += encode_boxes(orig.detections.boxes[[i]], *size).tolist()
            enc_b += encode_boxes(back.detections.boxes[[j]], *size).tolist()
        assert len(enc_a) >= 50
        assert consistency_loc_loss(enc_a, enc_b) < 1e-24

    def test_loc_oracle_random(self):
        rng = np.random.default_rng(60)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            pairs = [
                pair(
                    [0.5, 0.5],
                    [0.5, 0.5],
                    [*rng.uniform(-1, 1, 2), *rng.uniform(0.2, 2, 2)],
                    [*rng.uniform(-1, 1, 2), *rng.uniform(0.2, 2, 2)],
                )
                for _ in range(n)
            ]
            expected = 0.0
            for p in pairs:
                (adx, ady, aw, ah), (bdx, bdy, bw, bh) = p[2], p[3]
                expected += 0.25 * (
                    (adx - bdx) ** 2 + (ady - bdy) ** 2 + (aw - bw) ** 2 + (ah - bh) ** 2
                )
            expected /= n
            assert loc_loss(pairs) == pytest.approx(expected, rel=1e-9)

    def test_loc_symmetric_in_pair_roles(self):
        rng = np.random.default_rng(70)
        for _ in range(100):
            pairs = [
                pair(
                    random_dist(rng, 3),
                    random_dist(rng, 3),
                    [*rng.uniform(-1, 1, 2), *rng.uniform(0.2, 2, 2)],
                    [*rng.uniform(-1, 1, 2), *rng.uniform(0.2, 2, 2)],
                )
                for _ in range(3)
            ]
            swapped = [(p[1], p[0], p[3], p[2]) for p in pairs]
            assert loc_loss(swapped) == pytest.approx(
                loc_loss(pairs), rel=1e-12
            )


class TestTotalLoss:
    def test_zeros(self):
        assert total_loss(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_plain_sum(self):
        assert total_loss(1.0, 2.0, 3.0, 4.0) == 10.0

    def test_recomposition_random(self):
        rng = np.random.default_rng(80)
        for _ in range(100):
            parts = rng.uniform(0, 5, 4)
            assert total_loss(*parts) == pytest.approx(float(parts.sum()), rel=1e-12)


class TestContinuity:
    """Perturbing one input by delta moves each loss by O(delta)."""

    @staticmethod
    def lipschitz_bound(f, x0, delta=1e-6, h=1e-5):
        base = f(0.0)
        moved = f(delta)
        slope = abs(f(h) - f(-h)) / (2 * h)
        tol = 10.0 * delta * max(slope, 1.0)
        assert abs(moved - base) <= tol, (moved - base, tol)

    def test_conf_loss_continuity(self):
        rng = np.random.default_rng(90)
        for _ in range(10):
            k = 4
            probs = random_dist(rng, k + 1)
            asg = GroundTruthAssignment(positives=((0, 0, 1),))

            def f(eps):
                p = probs.copy()
                p[1] += eps  # paired perturbation keeps the simplex sum
                p[2] -= eps
                return multibox_conf_loss([p], asg)

            self.lipschitz_bound(f, probs)

    def test_smooth_l1_continuity(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            base = float(rng.uniform(-2, 2))

            def f(eps):
                a = [[base + eps, 0.0, 1.0, 1.0]]
                b = [[0.0, 0.0, 1.0, 1.0]]
                return smooth_l1_loc_loss(a, b, [0])

            self.lipschitz_bound(f, base)

    def test_consistency_loc_continuity(self):
        rng = np.random.default_rng(92)
        for _ in range(10):
            dx = float(rng.uniform(-1, 1))

            def f(eps):
                p = pair(
                    [0.5, 0.5],
                    [0.5, 0.5],
                    [dx + eps, 0.0, 1.0, 1.0],
                    [0.3, 0.0, 1.0, 1.0],
                )
                return loc_loss([p])

            self.lipschitz_bound(f, dx)

    def test_consistency_class_continuity(self):
        rng = np.random.default_rng(93)
        for _ in range(10):
            probs = random_dist(rng, 4)
            other = random_dist(rng, 4)

            def f(eps):
                p = probs.copy()
                p[0] += eps
                p[1] -= eps
                return class_loss([pair(p, other)])

            self.lipschitz_bound(f, probs)
