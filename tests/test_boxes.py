"""Geometry primitives: IoU, flips, NMS, box encodings."""

import math

import numpy as np
import pytest

import oracles
from oracles import Box, scalar_iou

from aldet.acquisition import AcquisitionScores
from aldet.boxes import (
    ChunkDetections,
    Detections,
    checked_boxes,
    checked_encoded,
    checked_probs,
    clamp_to_images,
    encode_boxes,
    hflip,
    iou,
    nms,
)
from aldet.pseudo_label import PseudoLabels


def random_box(rng, width=100.0, height=100.0, min_side=1.0):
    x0 = rng.uniform(0, width - min_side)
    y0 = rng.uniform(0, height - min_side)
    w = rng.uniform(min_side, width - x0)
    h = rng.uniform(min_side, height - y0)
    return Box(x0, y0, x0 + w, y0 + h)


def make_detections(boxes, probs):
    """One row per box."""
    return Detections(np.array(boxes, dtype=np.float64).reshape(-1, 4), probs)


def brute_iou(a, b):
    """Independent IoU: rasterize on a fine grid is overkill; use interval overlap."""
    ix = max(0.0, min(a.xmax, b.xmax) - max(a.xmin, b.xmin))
    iy = max(0.0, min(a.ymax, b.ymax) - max(a.ymin, b.ymin))
    inter = ix * iy
    union = (a.xmax - a.xmin) * (a.ymax - a.ymin) + (b.xmax - b.xmin) * (b.ymax - b.ymin) - inter
    return inter / union if union > 0 else 0.0


class TestBoxTypes:
    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError, match="inverted box"):
            checked_boxes([[1.0, 0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="inverted box"):
            Detections([[1.0, 0.0, 0.0, 1.0]], [[0.5, 0.5]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            checked_boxes([[0.0, 0.0, math.inf, 1.0]])
        with pytest.raises(ValueError, match="must be finite"):
            Detections([[0.0, 0.0, math.inf, 1.0]], [[0.5, 0.5]])

    def test_encoded_needs_positive_scales(self):
        with pytest.raises(ValueError):
            checked_encoded([[0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="scale coefficients must be positive"):
            checked_encoded([[0.0, 0.0, 1.0, -2.0]])

    def test_class_dist_validation(self):
        with pytest.raises(ValueError):
            checked_probs([[1.0]])  # too short
        with pytest.raises(ValueError):
            checked_probs([[0.5, 0.6]])  # sums to 1.1
        with pytest.raises(ValueError):
            checked_probs([[1.2, -0.2]])  # out of range
        d = Detections([[0.0, 0.0, 1.0, 1.0]], [[0.25, 0.75]])
        assert d.class_ids.tolist() == [1]
        assert d.scores.tolist() == [0.75]
        with pytest.raises(AttributeError):
            d.probs = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError):
            d.probs[0, 0] = 1.0  # read-only

    def test_dist_normalization_tolerance(self):
        # within 1e-6 is accepted and entries stay in [0, 1]
        probs = checked_probs([[0.5 + 4e-7, 0.5]])
        assert abs(probs.sum() - 1.0) < 1e-6

    def test_prediction_clamps_boxes(self):
        dets = ChunkDetections([[-5.0, 10.0, 120.0, 40.0]], [[0.2, 0.8]], [0])
        clamped = clamp_to_images(dets, [100], [50], dets.image)
        assert clamped.boxes.tolist() == [[0.0, 10.0, 100.0, 40.0]]
        assert np.array_equal(clamped.probs, dets.probs)

    def test_chunk_rows_clamped_to_their_own_image(self):
        # a detector's chunk: each row against its own image's size, and
        # every image's size checked, the row-less middle one's too
        boxes = [[-5.0, 10.0, 120.0, 40.0], [-5.0, 10.0, 120.0, 40.0], [1.0, 2.0, 3.0, 4.0]]
        dets = ChunkDetections(boxes, [[0.2, 0.8]] * 3, [0, 2, 2])
        clamped = clamp_to_images(dets, [100, 30, 200], [50, 30, 20], dets.image)
        assert clamped.boxes.tolist() == [
            [0.0, 10.0, 100.0, 40.0], [0.0, 10.0, 120.0, 20.0], [1.0, 2.0, 3.0, 4.0]
        ]
        assert np.array_equal(clamped.image, dets.image) and np.array_equal(clamped.scores, dets.scores)
        inside = dets.take([2])
        assert clamp_to_images(inside, [1, 1, 3], [1, 1, 4], inside.image) is inside
        with pytest.raises(ValueError, match="image size must be positive, got 0x30"):
            clamp_to_images(dets, [200, 0, 200], [50, 30, 50], dets.image)

    def test_inside_coordinates_kept_whatever_the_other_rows(self):
        # a -0.0 inside its image stays -0.0 when another row is clamped, as
        # when its image is clamped alone (a predictions file may hold -0.0)
        dets = ChunkDetections([[0.0, 0.0, 5.0, 21.0], [-0.0, 0.0, 5.0, 5.0]], [[0.2, 0.8]] * 2, [0, 1])
        clamped = clamp_to_images(dets, [20, 20], [20, 20], dets.image)
        alone = dets.take([1])
        assert clamp_to_images(alone, [20, 20], [20, 20], alone.image) is alone
        assert clamped.boxes.tolist() == [[0.0, 0.0, 5.0, 20.0], [0.0, 0.0, 5.0, 5.0]]
        assert np.signbit(clamped.boxes).tolist() == [[False] * 4, [True, False, False, False]]


def row_iou(a, b) -> float:
    """:func:`iou` of two single boxes."""
    return float(iou(np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)))


class TestIoU:
    def test_identical_boxes(self):
        a = [3.0, 4.0, 10.0, 12.0]
        assert row_iou(a, a) == 1.0

    def test_disjoint_boxes(self):
        assert row_iou([0, 0, 1, 1], [2, 2, 3, 3]) == 0.0

    def test_half_overlap_is_one_third(self):
        # inter = 0.5, union = 1.5
        assert row_iou([0.0, 0.0, 1.0, 1.0], [0.5, 0.0, 1.5, 1.0]) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_degenerate_union_is_zero(self):
        a = [1.0, 1.0, 1.0, 1.0]
        assert row_iou(a, a) == 0.0
        assert iou(np.array([a, a]), np.array([a, [0.0, 0.0, 2.0, 2.0]])).tolist() == [0.0, 0.0]

    def test_symmetry_and_bounds_random(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            v = row_iou(a, b)
            assert v == row_iou(b, a) == scalar_iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(brute_iou(a, b), rel=1e-12)

    def test_broadcast_shapes(self):
        rng = np.random.default_rng(5)
        a = np.array([random_box(rng) for _ in range(3)])
        b = np.array([random_box(rng) for _ in range(5)])
        matrix = iou(a[:, None], b[None])
        assert matrix.shape == (3, 5)
        assert np.array_equal(iou(a, b[:3]), np.diag(matrix[:, :3]))
        assert np.array_equal(iou(a[1], b), matrix[1])


def one_image(dets):
    """A chunk of one 100x100 image."""
    return oracles.chunk_of([oracles.one_image("a", 100, 100, dets)])


class TestHFlip:
    def test_mirror_formula(self):
        pred = one_image(make_detections([[10, 20, 30, 40]], [[0.1, 0.9]]))
        assert hflip(pred).detections.boxes.tolist() == [[70.0, 20.0, 90.0, 40.0]]

    def test_encoded_dx_negated(self):
        pred = one_image(make_detections([[10, 20, 30, 40]], [[0.1, 0.9]]))
        assert encode_boxes(pred.detections.boxes, 100, 100).tolist() == [[-0.3, -0.2, 0.2, 0.2]]
        assert encode_boxes(hflip(pred).detections.boxes, 100, 100).tolist() == [[0.3, -0.2, 0.2, 0.2]]

    def test_involution_random(self):
        # corner mirroring is exact up to one rounding of W - (W - x)
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(0, 5))
            boxes = [random_box(rng) for _ in range(n)]
            pred = one_image(make_detections(boxes, [[0.2, 0.5, 0.3]] * n))
            back = hflip(hflip(pred)).detections
            assert len(back) == len(pred.detections)
            np.testing.assert_allclose(back.boxes, pred.detections.boxes, rtol=0, atol=1e-9)
            assert np.array_equal(back.probs, pred.detections.probs)

    def test_preserves_count_dists_and_areas(self):
        rng = np.random.default_rng(11)
        boxes = [random_box(rng) for _ in range(6)]
        pred = one_image(make_detections(boxes, [[0.3, 0.3, 0.4]] * 6))
        out = hflip(pred).detections
        assert len(out) == len(pred.detections)
        assert np.array_equal(out.probs, pred.detections.probs)
        for before, after in zip(pred.detections.boxes, out.boxes):
            assert Box(*after).area == pytest.approx(Box(*before).area, rel=1e-12)


def dist_peaked(cls, peak, k=3):
    probs = np.full(k + 1, (1.0 - peak) / k)
    probs[cls] = peak
    return probs


EMPTY = Detections([], [])


class TestNMS:
    def test_dominant_box_suppresses(self):
        a = [0, 0, 10, 10]
        b = [0, 0, 10, 8]  # IoU 0.8
        dets = make_detections([a, b], [[0.05, 0.9, 0.05], dist_peaked(1, 0.8, 2)])
        assert nms(dets, iou_threshold=0.5) == dets.take([0])

    def test_different_classes_both_kept(self):
        a = [0, 0, 10, 10]
        b = [0, 0, 10, 8]
        dets = make_detections([a, b], [dist_peaked(1, 0.9, 2), dist_peaked(2, 0.8, 2)])
        assert nms(dets, iou_threshold=0.5) == dets

    def test_background_argmax_dropped(self):
        dets = make_detections([[0, 0, 10, 10]], [[0.8, 0.1, 0.1]])
        assert len(nms(dets)) == 0

    def test_score_floor(self):
        weak = make_detections([[0, 0, 10, 10]], [[0.45, 0.55]])
        assert len(nms(weak, score_floor=0.6)) == 0
        assert nms(weak, score_floor=0.5) == weak

    def test_empty_input(self):
        assert len(nms(EMPTY)) == 0

    def test_chunk_compares_only_within_an_image(self):
        # the same two overlapping same-class boxes: one image suppresses,
        # two images keep both, and each kept row keeps its image
        box, probs = [[0, 0, 10, 10]] * 2, [dist_peaked(1, 0.9, 2), dist_peaked(1, 0.8, 2)]
        assert len(nms(ChunkDetections(box, probs, [0, 0]), 0.5)) == 1
        kept = nms(ChunkDetections(box, probs, [0, 1]), 0.5)
        assert kept.image.tolist() == [0, 1]

    def test_chunk_image_positions_checked(self):
        box, probs = [[0, 0, 10, 10]] * 2, [dist_peaked(1, 0.9, 2)] * 2
        for image in ([1, 0], [0]):
            with pytest.raises(ValueError, match="non-decreasing image position"):
                ChunkDetections(box, probs, image)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            nms(EMPTY, iou_threshold=0.0)
        with pytest.raises(ValueError):
            nms(EMPTY, score_floor=1.0)

    def _random_instance(self, rng, n_classes=3):
        boxes, probs = [], []
        for _ in range(int(rng.integers(1, 12))):
            boxes.append(random_box(rng, min_side=5.0))
            cls = int(rng.integers(1, n_classes + 1))
            peak = float(rng.uniform(0.4, 0.99))
            probs.append(_peaked_probs(cls, peak, n_classes, rng))
        return make_detections(boxes, probs)

    def test_idempotence_and_invariants_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dets = self._random_instance(rng)
            kept = nms(dets, 0.5, 0.01)
            again = nms(kept, 0.5, 0.01)
            assert again == kept
            # subset of input
            rows = [tuple(r) for r in dets.boxes.tolist()]
            assert all(tuple(k) in rows for k in kept.boxes.tolist())
            # no two kept same-class boxes overlap above the threshold
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    if kept.class_ids[i] == kept.class_ids[j]:
                        assert scalar_iou(kept.boxes[i], kept.boxes[j]) <= 0.5
            # output sorted by descending score
            scores = kept.scores.tolist()
            assert scores == sorted(scores, reverse=True)


def _peaked_probs(cls, peak, n_classes, rng):
    rest = rng.uniform(0.01, 1.0, n_classes + 1)
    rest[cls] = 0.0
    rest = rest / rest.sum() * (1.0 - peak)
    rest[cls] = peak
    return rest


class TestEncodeDecode:
    def test_anchor_identity(self):
        # the full-image box is the anchor itself
        assert encode_boxes(np.array([[0.0, 0.0, 50.0, 30.0]]), 50, 30).tolist() == [[0.0, 0.0, 1.0, 1.0]]

    def test_degenerate_anchor(self):
        with pytest.raises(ValueError, match="invalid anchor"):
            encode_boxes(np.array([[0.0, 0.0, 1.0, 1.0]]), 0, 10)
        with pytest.raises(ValueError, match="invalid anchor"):
            encode_boxes(np.array([[0.0, 0.0, 1.0, 1.0]]), 10, -1)

    def test_image_anchor_flip_consistency(self):
        # encoding against the image box commutes with mirroring: the encoded
        # dx of the mirrored box is the negation of the original dx
        rng = np.random.default_rng(23)
        for _ in range(100):
            b = random_box(rng)
            mirrored = Box(100 - b.xmax, b.ymin, 100 - b.xmin, b.ymax)
            (e, em) = encode_boxes(np.array([b, mirrored]), 100, 100).tolist()
            assert em[0] == pytest.approx(-e[0], abs=1e-12)
            assert em[1] == e[1]
            assert em[2] == pytest.approx(e[2], abs=1e-12)
            assert em[3] == e[3]


@pytest.mark.parametrize("rows", [
    Detections([[0, 0, 1, 1]], [[0.2, 0.8]]),
    ChunkDetections([[0, 0, 1, 1], [1, 1, 2, 2]], [[0.2, 0.8], [0.6, 0.4]], [0, 1]),
    Detections(),
    PseudoLabels(["a", "b"], [[0, 0, 1, 1], [1, 1, 2, 2]], [1, 2], [0.9, 0.5]),
    AcquisitionScores(["a"], [0.5], [0.25]),
])
def test_copy_and_pickle_rebuild_a_read_only_set(rows):
    # The defaults set each slot, which a frozen set refuses; a Pool worker
    # whose result held a set hung.
    import copy
    import pickle

    for made in (copy.copy(rows), copy.deepcopy(rows), pickle.loads(pickle.dumps(rows))):
        assert type(made) is type(rows) and made == rows
        assert not any(getattr(made, name).flags.writeable for name in made._fields)
