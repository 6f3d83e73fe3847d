"""AP / mAP@0.5 against a brute-force precision-recall oracle."""

from typing import NamedTuple

import numpy as np
import pytest

from oracles import Box, dataset_of, scalar_iou

from aldet.boxes import Detections
from aldet.dataset import ImageRecord
from aldet.evaluation import EvalResult, map50, winrate_matrix, winrate_table


class GroundTruthObject(NamedTuple):
    """One ground-truth box as the oracle sees it."""

    image_id: str
    box_corner: Box
    class_id: int


def as_dataset(gt, n_classes=3):
    """The Dataset that evaluation takes, from a list of GroundTruthObject."""
    images: dict[str, list] = {}
    for g in gt:
        images.setdefault(g.image_id, []).append(g)
    return dataset_of(
        tuple(f"c{k}" for k in range(1, n_classes + 1)),
        tuple(ImageRecord(i, 200, 200, [g.box_corner for g in objs], [g.class_id for g in objs])
              for i, objs in images.items()),
    )


class Det(NamedTuple):
    """One detection as the oracle sees it: its class and score are derived
    here, independently of Detections."""

    box_corner: Box
    probs: np.ndarray

    @property
    def class_id(self):
        return int(np.argmax(self.probs))

    @property
    def score(self):
        return float(self.probs[self.class_id])


def det(box, cls, conf, k=3):
    probs = np.full(k + 1, (1.0 - conf) / k)
    probs[cls] = conf
    return Det(box, probs)


def as_set(dets):
    """The (Detections, image ids) pair that evaluation takes, from a list of
    (Det, image_id)."""
    boxes = np.array([d.box_corner for d, _ in dets]).reshape(-1, 4)
    return Detections(boxes, [d.probs for d, _ in dets]), [i for _, i in dets]


def class_ap(dets, gt, class_id):
    """One class's AP through ``map50``; 0 for a class without ground truth."""
    return map50(*as_set(dets), as_dataset(gt)).per_class_ap.get(class_id, 0.0)


def oracle_ap_eleven(dets, gt, class_id):
    """Brute-force 11-point AP: re-derive TP flags with an explicit pass, then
    evaluate the precision envelope at each recall knot by rescanning every
    prefix (no cumulative arrays)."""
    ranked = sorted(
        ((d, image_id, i) for i, (d, image_id) in enumerate(dets) if d.class_id == class_id),
        key=lambda t: (-t[0].score, t[2]),
    )
    gt_class = [g for g in gt if g.class_id == class_id]
    n_gt = len(gt_class)
    if n_gt == 0:
        return 0.0
    claimed = set()
    flags = []
    for d, image_id, _i in ranked:
        best_iou, best_idx = 0.0, None
        for gi, g in enumerate(gt_class):
            if g.image_id != image_id:
                continue
            v = scalar_iou(d.box_corner, g.box_corner)
            if v > best_iou:
                best_iou, best_idx = v, gi
        if best_idx is not None and best_iou > 0.5 and best_idx not in claimed:
            claimed.add(best_idx)
            flags.append(True)
        else:
            flags.append(False)

    ap_sum = 0.0
    for knot in range(11):
        best_prec = 0.0
        for prefix in range(1, len(flags) + 1):
            tp = sum(flags[:prefix])
            if tp * 10 >= knot * n_gt:
                best_prec = max(best_prec, tp / prefix)
        ap_sum += best_prec
    return ap_sum / 11.0


class TestAveragePrecision:
    def test_single_perfect_detection(self):
        box = Box(10, 10, 50, 50)
        dets = [(det(Box(10, 10, 50, 46), 1, 0.9), "a")]  # IoU 0.9
        gt = [GroundTruthObject("a", box, 1)]
        assert class_ap(dets, gt, 1) == 1.0

    def test_low_iou_detection(self):
        dets = [(det(Box(10, 10, 50, 22), 1, 0.9), "a")]  # IoU 0.3
        gt = [GroundTruthObject("a", Box(10, 10, 50, 50), 1)]
        assert class_ap(dets, gt, 1) == 0.0

    def test_duplicate_detections_single_tp(self):
        box = Box(10, 10, 50, 50)
        gt = [GroundTruthObject("a", box, 1)]
        dets = [
            (det(box, 1, 0.9), "a"),
            (det(Box(10, 10, 50, 48), 1, 0.8), "a"),  # duplicate, IoU 0.95
        ]
        # one TP at rank 1 (recall 1), the duplicate is a FP
        ap = class_ap(dets, gt, 1)
        assert ap == 1.0  # precision at full recall is already 1.0 at rank 1

    def test_hand_traced_fixture(self):
        # 3 images, 2 GT of class 1, 4 detections: TP, FP, TP, FP by confidence
        g1 = Box(0, 0, 20, 20)
        g2 = Box(100, 100, 140, 140)
        gt = [GroundTruthObject("a", g1, 1), GroundTruthObject("b", g2, 1)]
        dets = [
            (det(Box(0, 0, 20, 19), 1, 0.95), "a"),      # TP (IoU 0.95)
            (det(Box(60, 60, 80, 80), 1, 0.90), "c"),    # FP (no GT there)
            (det(Box(100, 100, 140, 136), 1, 0.85), "b"),  # TP (IoU 0.9)
            (det(Box(0, 30, 20, 50), 1, 0.80), "a"),     # FP
        ]
        # recall knots <= 0.5 -> precision 1.0 (TP at rank 1); knots > 0.5 -> 2/3
        expected = (6 * 1.0 + 5 * (2.0 / 3.0)) / 11.0
        assert class_ap(dets, gt, 1) == pytest.approx(expected, rel=1e-12)
        assert class_ap(dets, gt, 1) == oracle_ap_eleven(dets, gt, 1)

    def _random_scene(self, rng, n_classes=3):
        gt, dets = [], []
        for img in range(int(rng.integers(1, 4))):
            image_id = f"img_{img}"
            for _ in range(int(rng.integers(0, 4))):
                x0, y0 = rng.uniform(0, 150, 2)
                w, h = rng.uniform(10, 40, 2)
                box = Box(x0, y0, x0 + w, y0 + h)
                cls = int(rng.integers(1, n_classes + 1))
                gt.append(GroundTruthObject(image_id, box, cls))
                # detector may or may not see it, with jitter
                if rng.uniform() < 0.8:
                    jitter = rng.uniform(-8, 8, 4)
                    dbox = Box(
                        x0 + jitter[0], y0 + jitter[1], x0 + w + jitter[2], y0 + h + jitter[3]
                    )
                    if dbox.xmin > dbox.xmax or dbox.ymin > dbox.ymax:
                        continue
                    dets.append((det(dbox, cls, float(rng.uniform(0.3, 0.99))), image_id))
            # false positives
            for _ in range(int(rng.integers(0, 3))):
                x0, y0 = rng.uniform(0, 150, 2)
                w, h = rng.uniform(10, 40, 2)
                cls = int(rng.integers(1, n_classes + 1))
                dets.append(
                    (det(Box(x0, y0, x0 + w, y0 + h), cls, float(rng.uniform(0.3, 0.99))), image_id)
                )
        return dets, gt

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            dets, gt = self._random_scene(rng)
            if len(dets) > 10:
                dets = dets[:10]
            for cls in (1, 2, 3):
                got = class_ap(dets, gt, cls)
                assert got == oracle_ap_eleven(dets, gt, cls)

    def test_removing_fp_never_lowers_ap(self):
        rng = np.random.default_rng(321)
        for _ in range(30):
            dets, gt = self._random_scene(rng)
            base = class_ap(dets, gt, 1)
            # find one FP of class 1 and drop it
            for i, (d, image_id) in enumerate(dets):
                if d.class_id != 1:
                    continue
                hit = any(
                    g.image_id == image_id and g.class_id == 1 and scalar_iou(d.box_corner, g.box_corner) > 0.5
                    for g in gt
                )
                if not hit:
                    reduced = dets[:i] + dets[i + 1:]
                    assert class_ap(reduced, gt, 1) >= base - 1e-12
                    break


class TestMap50:
    def test_perfect_detections(self):
        gt, dets = [], []
        for i, cls in enumerate([1, 2, 3]):
            box = Box(10, 10, 50, 50)
            image_id = f"img_{i}"
            gt.append(GroundTruthObject(image_id, box, cls))
            dets.append((det(box, cls, 0.95), image_id))
        result = map50(*as_set(dets), as_dataset(gt))
        assert result.map50 == 1.0
        assert set(result.per_class_ap) == {1, 2, 3}

    def test_empty_detections(self):
        gt = [GroundTruthObject("a", Box(0, 0, 10, 10), 1)]
        assert map50(*as_set([]), as_dataset(gt)).map50 == 0.0

    def test_zero_gt_classes_excluded(self):
        gt = [GroundTruthObject("a", Box(0, 0, 10, 10), 1)]
        dets = [(det(Box(0, 0, 10, 10), 1, 0.9), "a")]
        result = map50(*as_set(dets), as_dataset(gt))
        assert set(result.per_class_ap) == {1}
        assert result.excluded == (2, 3)
        assert result.map50 == 1.0

    def test_mean_recombination(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            dets, gt = TestAveragePrecision()._random_scene(rng)
            if not gt:
                continue
            checked += 1
            result = map50(*as_set(dets), as_dataset(gt))
            expected = {
                c: class_ap(dets, gt, c)
                for c in (1, 2, 3)
                if any(g.class_id == c for g in gt)
            }
            assert result.per_class_ap == expected
            assert result.map50 == pytest.approx(sum(expected.values()) / len(expected), rel=1e-12)


def eval_result(aps):
    return EvalResult(aps, {c: 10 for c in aps})


class TestWinrate:
    def test_equal_methods_no_strict_wins(self):
        a = [eval_result({1: 0.5, 2: 0.6})]
        assert winrate_table(a, a) == 0.0

    def test_full_domination(self):
        a = [eval_result({1: 0.9, 2: 0.8})]
        b = [eval_result({1: 0.1, 2: 0.2})]
        assert winrate_table(a, b) == 1.0
        assert winrate_table(b, a) == 0.0

    def test_seven_of_ten(self):
        aps_a = {c: (0.8 if c <= 7 else 0.2) for c in range(1, 11)}
        aps_b = {c: 0.5 for c in range(1, 11)}
        assert winrate_table([eval_result(aps_a)], [eval_result(aps_b)]) == 0.7

    def test_mean_over_runs(self):
        a = [eval_result({1: 0.4}), eval_result({1: 0.8})]  # mean 0.6
        b = [eval_result({1: 0.5}), eval_result({1: 0.5})]  # mean 0.5
        assert winrate_table(a, b) == 1.0

    def test_misaligned_classes_rejected(self):
        a = [eval_result({1: 0.4})]
        b = [eval_result({2: 0.4})]
        with pytest.raises(ValueError, match="aligned"):
            winrate_table(a, b)

    def test_matrix_layout(self):
        by_method = {
            "unified": [eval_result({1: 0.9, 2: 0.9})],
            "entropy": [eval_result({1: 0.5, 2: 0.95})],
        }
        names, mat = winrate_matrix(by_method)
        assert names == ["unified", "entropy"]
        assert mat[0, 1] == 0.5
        assert mat[1, 0] == 0.5
        assert mat[0, 0] == mat[1, 1] == 0.0
