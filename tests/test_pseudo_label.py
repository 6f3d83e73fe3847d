"""Pseudo-label extraction rules and the correctness audit."""

import math
import re

import numpy as np
import pytest

from oracles import chunk_of, dataset_of, one_image

from aldet.boxes import Detections
from aldet.dataset import Dataset, ImageRecord
from aldet.pseudo_label import (
    PseudoLabels,
    audit_pl_correctness,
    extract_pseudo_labels,
    extract_topk_per_class,
)


def det(probs, box=(0.0, 0.0, 10.0, 10.0)):
    """One detection as (corner box, class distribution)."""
    return box, np.asarray(probs, dtype=np.float64)


def pred(dets, image_id="img"):
    boxes = [box for box, _ in dets]
    detections = Detections(boxes, [probs for _, probs in dets])
    return one_image(image_id, 100, 100, detections)


def labels_of(p, tau):
    """The pseudo-labels of one image's prediction, as a chunk of one."""
    return extract_pseudo_labels([chunk_of([p])], tau)


def class_and_score(d):
    """The oracle's argmax class and its probability."""
    cls = int(np.argmax(d[1]))
    return cls, float(d[1][cls])


def peaked(cls, peak, k=4):
    probs = np.full(k + 1, (1.0 - peak) / k)
    probs[cls] = peak
    return probs


class TestExtractPseudoLabels:
    def test_confident_detection_labeled(self):
        p = pred([det(peaked(3, 0.995))])
        pls = labels_of(p, 0.99)
        assert len(pls) == 1
        assert pls.class_ids.tolist() == [3]
        assert pls.scores.tolist() == pytest.approx([0.995])
        assert pls.boxes.tolist() == [[0.0, 0.0, 10.0, 10.0]]
        assert pls.image_ids.tolist() == ["img"]

    def test_below_threshold_skipped(self):
        p = pred([det(peaked(3, 0.98))])
        assert extract_pseudo_labels([chunk_of([p])], 0.99) == PseudoLabels()

    def test_background_argmax_never_labeled(self):
        p = pred([det(peaked(0, 0.999))])
        assert extract_pseudo_labels([chunk_of([p])], 0.99) == PseudoLabels()

    def test_tau_validation(self):
        p = chunk_of([pred([])])
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                extract_pseudo_labels([p], bad)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            dets = []
            for _ in range(int(rng.integers(1, 10))):
                cls = int(rng.integers(0, 5))
                peak = float(rng.uniform(0.3, 0.999))
                dets.append(det(peaked(cls, peak)))
            p = pred(dets)
            counts = [len(labels_of(p, tau)) for tau in (0.5, 0.9, 0.99)]
            assert counts == sorted(counts, reverse=True)

    def test_emitted_labels_satisfy_contract(self):
        rng = np.random.default_rng(7)
        for tau in (0.5, 0.9, 0.99):
            dets = [det(peaked(int(rng.integers(0, 5)), float(rng.uniform(0.3, 0.999)))) for _ in range(20)]
            p = pred(dets)
            expected = [(c, sc) for c, sc in map(class_and_score, dets) if c != 0 and sc >= tau]
            got = labels_of(p, tau)
            assert len(got) == len(expected)
            for got_cls, got_score, (cls, score) in zip(got.class_ids.tolist(), got.scores.tolist(), expected):
                assert got_score == score >= tau
                assert got_cls == cls >= 1


    def test_chunks_labelled_image_by_image(self):
        # images keep their order and their own rows; images without labels have no rows
        rng = np.random.default_rng(8)
        preds = []
        for i, n in enumerate([6, 0, 5, 7, 1, 4]):
            dets = [det(peaked(int(rng.integers(0, 5)), float(rng.uniform(0.3, 0.999)))) for _ in range(n)]
            preds.append(pred(dets, f"img_{i}"))
        got = extract_pseudo_labels([chunk_of(preds[:4]), chunk_of(preds[4:])], 0.6)
        assert got == PseudoLabels.concat(labels_of(p, 0.6) for p in preds)
        assert len(set(got.image_ids.tolist())) >= 3


class TestTopKPerClass:
    def test_full_take(self):
        dets = [det(peaked(1, 0.6)), det(peaked(2, 0.7)), det(peaked(0, 0.9))]
        pls = extract_topk_per_class([chunk_of([pred(dets)])], 1.0)
        assert pls.image_ids.tolist() == ["img", "img"]  # background-argmax detection excluded

    def test_top_20_percent(self):
        # 10 detections of one class -> ceil(0.2 * 10) = 2 labels, highest probs
        confs = [0.3, 0.9, 0.5, 0.7, 0.95, 0.4, 0.6, 0.45, 0.35, 0.55]
        dets = [det(peaked(1, c)) for c in confs]
        pls = extract_topk_per_class([chunk_of([pred(dets)])], 0.2)
        assert len(pls) == 2
        assert pls.scores.tolist() == pytest.approx([0.95, 0.9])
        assert pls.class_ids.tolist() == [1, 1]

    def test_matches_sort_and_slice_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            preds, all_dets = [], []
            for i in range(3):
                dets = [
                    det(peaked(int(rng.integers(1, 4)), float(rng.uniform(0.3, 0.99))))
                    for _ in range(int(rng.integers(0, 8)))
                ]
                preds.append(pred(dets, image_id=f"img_{i}"))
                all_dets.extend(dets)
            k = float(rng.choice([0.2, 0.5, 1.0]))
            # the images in two chunks
            got = extract_topk_per_class([chunk_of(preds[:2]), chunk_of(preds[2:])], k)
            labels = list(zip(got.class_ids.tolist(), got.scores.tolist()))

            per_class: dict[int, list[float]] = {}
            for cls, score in map(class_and_score, all_dets):
                if cls >= 1:
                    per_class.setdefault(cls, []).append(score)
            expected_count = sum(
                math.ceil(k * len(v)) for v in per_class.values()
            )
            assert len(labels) == expected_count
            for cls, confs in per_class.items():
                take = math.ceil(k * len(confs))
                kept = sorted((sc for c, sc in labels if c == cls), reverse=True)
                assert kept == pytest.approx(sorted(confs, reverse=True)[:take])

    def test_k_validation(self):
        with pytest.raises(ValueError):
            extract_topk_per_class([], 0.0)
        with pytest.raises(ValueError):
            extract_topk_per_class([], 1.5)


def audit(labels, truths):
    """``audit_pl_correctness`` of (image id, box, class) items: one
    confidence-0.995 pseudo-label per item of ``labels``, one ground-truth box
    per item of ``truths``, in order within each image."""
    gt: dict[str, list] = {image_id: [] for image_id, _, _ in labels}
    for image_id, box, cls in truths:
        gt.setdefault(image_id, []).append((box, cls))
    pls = PseudoLabels(*zip(*labels), [0.995] * len(labels)) if labels else PseudoLabels()
    images = tuple(ImageRecord(i, 100, 100, [b for b, _ in v], [c for _, c in v]) for i, v in gt.items())
    return audit_pl_correctness(pls, dataset_of(("c1", "c2", "c3"), images))


class TestPseudoLabels:
    def test_validation(self):
        with pytest.raises(ValueError, match="inverted box"):
            PseudoLabels(["a"], [[5, 0, 0, 5]], [1], [0.9])
        with pytest.raises(ValueError, match="foreground class"):
            PseudoLabels(["a"], [[0, 0, 5, 5]], [0], [0.9])
        for bad in (0.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="confidence must be in"):
                PseudoLabels(["a"], [[0, 0, 5, 5]], [1], [bad])
        with pytest.raises(ValueError, match="row counts differ"):
            PseudoLabels(["a", "a"], [[0, 0, 5, 5]], [1, 2], [0.9])

    @pytest.mark.parametrize("image_id, shown", [(5, "5"), (None, "None"), ("a\0", "'a\\x00'")])
    def test_image_id_must_be_a_string_the_column_holds(self, image_id, shown):
        # a numpy string column would hold 5 as "5" and "a\0" as "a"
        message = f"image_id: expected a string without a trailing NUL, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PseudoLabels(["a", image_id], [[0, 0, 5, 5]] * 2, [1, 1], [0.9, 0.9])
        assert PseudoLabels(["a\0b"], [[0, 0, 5, 5]], [1], [0.9]).image_ids.tolist() == ["a\0b"]

    def test_rows_of_detections(self):
        # the extractors take rows of the detections as they are, with their image ids
        p = pred([det(peaked(1, 0.6), (0, 0, 5, 5)), det(peaked(2, 0.995), (1, 1, 6, 6))])
        pls = extract_pseudo_labels([p], 0.99)
        assert pls == PseudoLabels(["img"], [[1, 1, 6, 6]], [2], [p.detections.scores[1]])
        for name in PseudoLabels._fields:
            with pytest.raises(ValueError):
                getattr(pls, name)[0] = getattr(pls, name)[0]  # read-only


class TestAudit:
    def test_match_above_threshold_counts(self):
        box_gt = (0, 0, 10, 10)
        box_pl = (0, 0, 10, 8)  # IoU 0.8
        assert audit([("a", box_pl, 1)], [("a", box_gt, 1)]) == 1.0

    def test_low_iou_counts_as_wrong(self):
        box_gt = (0, 0, 10, 10)
        box_pl = (0, 0, 10, 4)  # IoU 0.4
        assert audit([("a", box_pl, 1)], [("a", box_gt, 1)]) == 0.0

    def test_class_mismatch_counts_as_wrong(self):
        box = (0, 0, 10, 10)
        assert audit([("a", box, 2)], [("a", box, 1)]) == 0.0

    def test_gt_single_use(self):
        # two duplicate pseudo-labels, one GT: only one can be validated
        box = (0, 0, 10, 10)
        assert audit([("a", box, 1), ("a", (0, 0, 10, 9.5), 1)], [("a", box, 1)]) == 0.5

    def test_empty_pl_list_convention(self):
        assert audit([], [("a", (0, 0, 1, 1), 1)]) == 1.0

    def test_reads_only_the_ground_truth_of_labelled_images(self):
        read = []

        class Spy(Dataset):
            def positions(self, image_ids):
                read.extend(image_ids)
                return super().positions(image_ids)

        columns = ("abc", [100] * 3, [100] * 3, [(0, 0, 10, 10)] * 3, [1] * 3, [1] * 3)
        pls = PseudoLabels(["c", "a", "a"], [(0, 0, 10, 10)] * 3, [1, 1, 2], [0.995] * 3)
        assert audit_pl_correctness(pls, Spy(("c1", "c2"), *columns)) == 2 / 3
        assert read == ["c", "a", "a"]
        with pytest.raises(KeyError, match="unknown image id 'd'"):
            audit_pl_correctness(PseudoLabels(["d"], [(0, 0, 10, 10)], [1], [0.995]), Spy(("c1",), *columns))

    def test_24_of_25_fixture(self):
        labels, truths = [], []
        for i in range(25):
            image_id = f"img_{i:02d}"
            truths.append((image_id, (10, 10, 50, 50), 1 + i % 3))
            if i < 24:
                labels.append((image_id, (10, 10, 50, 46), 1 + i % 3))  # IoU 0.9
            else:
                labels.append((image_id, (60, 60, 80, 80), 1 + i % 3))  # IoU 0
        assert audit(labels, truths) == 0.96

    def test_order_invariance_with_distinct_ious(self):
        rng = np.random.default_rng(3)
        truths, labels = [], []
        for i in range(12):
            image_id = f"img_{i}"
            x = float(rng.uniform(0, 40))
            truths.append((image_id, (x, 10, x + 30, 40), 1))
            shrink = float(rng.uniform(0, 12))
            labels.append((image_id, (x, 10, x + 30 - shrink, 40), 1))
        base = audit(labels, truths)
        for _ in range(5):
            perm = rng.permutation(len(labels))
            assert audit([labels[k] for k in perm], truths) == base
