"""VOC-style detection evaluation: per-class AP, mAP@0.5, win-rate tables.

The default interpolation is the 11-point VOC07 convention; the all-point
variant is available for COCO-style analysis. Recall thresholds in the
11-point sum are compared in integer arithmetic (tp * 10 >= k * n_gt) so the
knot comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .boxes import BoxCorner, Detections, iou
from .pseudo_label import GroundTruthObject

__all__ = ["EvalResult", "average_precision", "map50", "winrate_table", "winrate_matrix"]

INTERPOLATIONS = ("eleven_point", "all_point")


@dataclass(frozen=True)
class EvalResult:
    """Per-class AP over classes with ground truth, their mean, and GT counts."""

    per_class_ap: dict[int, float]
    map50: float
    n_gt: dict[int, int]
    excluded: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "per_class_ap", dict(self.per_class_ap))
        object.__setattr__(self, "n_gt", dict(self.n_gt))
        object.__setattr__(self, "excluded", tuple(self.excluded))
        if self.per_class_ap:
            expected = sum(self.per_class_ap.values()) / len(self.per_class_ap)
        else:
            expected = 0.0
        if abs(self.map50 - expected) > 1e-12:
            raise ValueError(f"map50 {self.map50} != mean per-class AP {expected}")

    @classmethod
    def from_per_class(
        cls, per_class_ap: Mapping[int, float], n_gt: Mapping[int, int], excluded=()
    ) -> "EvalResult":
        aps = dict(per_class_ap)
        mean = sum(aps.values()) / len(aps) if aps else 0.0
        return cls(aps, mean, dict(n_gt), tuple(excluded))


def _assign_tp_fp(
    dets: Detections,
    image_ids: Sequence[str],
    gt: Sequence[GroundTruthObject],
    class_id: int,
    iou_thresh: float,
) -> tuple[list[bool], int]:
    """Greedy highest-confidence-first TP/FP flags for one class.

    Each detection is matched against the best-IoU ground-truth box of its
    image; it is a true positive iff that IoU exceeds the threshold and the
    box is not already claimed (VOC devkit semantics: no fallback to the
    second-best box).
    """
    if len(image_ids) != len(dets):
        raise ValueError(f"{len(image_ids)} image ids for {len(dets)} detections")
    gt_boxes: dict[str, list] = {}
    for obj in gt:
        if obj.class_id == class_id:
            gt_boxes.setdefault(obj.image_id, []).append([obj.box_corner, False])
    n_gt = sum(len(v) for v in gt_boxes.values())

    rows = np.flatnonzero(dets.class_ids == class_id)
    # A stable sort of -score ranks by (-score, row).
    rows = rows[np.argsort(-dets.scores[rows], kind="stable")]

    flags: list[bool] = []
    for row, box in zip(rows.tolist(), dets.boxes[rows].tolist()):
        box = BoxCorner(*box)
        best_iou, best = 0.0, None
        for entry in gt_boxes.get(image_ids[row], ()):
            v = iou(box, entry[0])
            if v > best_iou:
                best_iou, best = v, entry
        if best is not None and best_iou > iou_thresh and not best[1]:
            best[1] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags, n_gt


def _ap_eleven_point(tp_flags: Sequence[bool], n_gt: int) -> float:
    tp = 0
    points = []  # (tp_count, precision)
    for rank, flag in enumerate(tp_flags, start=1):
        tp += int(flag)
        points.append((tp, tp / rank))
    total = 0.0
    for k in range(11):  # recall knots 0.0, 0.1, ..., 1.0
        best = 0.0
        for tp_count, prec in points:
            if tp_count * 10 >= k * n_gt and prec > best:
                best = prec
        total += best
    return total / 11.0


def _ap_all_point(tp_flags: Sequence[bool], n_gt: int) -> float:
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    ranks = np.arange(1, len(tp_flags) + 1, dtype=np.float64)
    recall = np.concatenate([[0.0], tp / n_gt])
    precision = np.concatenate([[1.0], tp / ranks])
    # precision envelope from the right
    for i in range(precision.size - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    return float(np.sum((recall[1:] - recall[:-1]) * precision[1:]))


def average_precision(
    dets: Detections,
    image_ids: Sequence[str],
    gt: Sequence[GroundTruthObject],
    class_id: int,
    iou_thresh: float = 0.5,
    interpolation: str = "eleven_point",
) -> float:
    """Average precision of one class at the given IoU threshold; row r of
    ``dets`` is a detection in image ``image_ids[r]``."""
    if class_id < 1:
        raise ValueError(f"unknown class {class_id}: foreground classes start at 1")
    if interpolation not in INTERPOLATIONS:
        raise ValueError(f"interpolation must be one of {INTERPOLATIONS}, got {interpolation!r}")
    flags, n_gt = _assign_tp_fp(dets, image_ids, gt, class_id, iou_thresh)
    if n_gt == 0:
        return 0.0
    if not flags:
        return 0.0
    if interpolation == "eleven_point":
        return _ap_eleven_point(flags, n_gt)
    return _ap_all_point(flags, n_gt)


def map50(
    dets: Detections,
    image_ids: Sequence[str],
    gt: Sequence[GroundTruthObject],
    interpolation: str = "eleven_point",
    class_ids: Sequence[int] | None = None,
    iou_thresh: float = 0.5,
) -> EvalResult:
    """Mean AP over all classes that have ground truth; row r of ``dets`` is a
    detection in image ``image_ids[r]``.

    Classes without any ground-truth object are excluded from the mean and
    listed in the result. The class universe defaults to every class seen in
    either the ground truth or the detections.
    """
    if class_ids is None:
        seen = dets.class_ids[dets.class_ids > 0].tolist()
        universe = sorted({obj.class_id for obj in gt} | set(seen))
    else:
        universe = sorted(set(class_ids))

    n_gt = {c: 0 for c in universe}
    for obj in gt:
        if obj.class_id in n_gt:
            n_gt[obj.class_id] += 1

    per_class = {}
    excluded = []
    for c in universe:
        if n_gt[c] == 0:
            excluded.append(c)
            continue
        per_class[c] = average_precision(dets, image_ids, gt, c, iou_thresh, interpolation)
    return EvalResult.from_per_class(per_class, n_gt, tuple(excluded))


def winrate_table(results_a: Sequence[EvalResult], results_b: Sequence[EvalResult]) -> float:
    """Fraction of classes where method A's mean per-class AP strictly beats B's.

    Both inputs are lists of paired runs over the same class set.
    """
    if not results_a or not results_b:
        raise ValueError("need at least one evaluation result per method")
    classes = set(results_a[0].per_class_ap)
    for r in list(results_a) + list(results_b):
        if set(r.per_class_ap) != classes:
            raise ValueError("class sets are not aligned across results")
    if not classes:
        raise ValueError("no classes with ground truth to compare")

    wins = 0
    for c in classes:
        mean_a = sum(r.per_class_ap[c] for r in results_a) / len(results_a)
        mean_b = sum(r.per_class_ap[c] for r in results_b) / len(results_b)
        if mean_a > mean_b:
            wins += 1
    return wins / len(classes)


def winrate_matrix(
    by_method: Mapping[str, Sequence[EvalResult]]
) -> tuple[list[str], np.ndarray]:
    """Pairwise win-rate matrix; entry [i, j] = winrate of method i over method j."""
    names = list(by_method)
    mat = np.zeros((len(names), len(names)))
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if i != j:
                mat[i, j] = winrate_table(by_method[a], by_method[b])
    return names, mat
