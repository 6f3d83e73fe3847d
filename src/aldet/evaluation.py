"""VOC07 detection evaluation: per-class AP, mAP@0.5, win-rate tables.

One protocol, the paper's: 11-point interpolated AP (Everingham et al., IJCV
2010) at IoU > 0.5, over the foreground classes 1..K. Recall thresholds in
the 11-point sum are compared in integer arithmetic (tp * 10 >= k * n_gt) so
the knot comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .boxes import Detections, iou, span_pairs
from .dataset import Dataset

__all__ = ["EvalResult", "map50", "same_class_pairs", "winrate_table", "winrate_matrix"]


@dataclass(frozen=True)
class EvalResult:
    """Per-class AP of the classes with ground truth, and the ground-truth
    count of every class; a class with none is excluded from the mean."""

    per_class_ap: dict[int, float]
    n_gt: dict[int, int]

    @property
    def map50(self) -> float:
        aps = self.per_class_ap
        return sum(aps.values()) / len(aps) if aps else 0.0

    @property
    def excluded(self) -> tuple[int, ...]:
        return tuple(c for c, n in self.n_gt.items() if not n)


def same_class_pairs(positions: np.ndarray, class_ids: np.ndarray, gt: Dataset):
    """Every pair of a row r, of class ``class_ids[r]`` in the image at
    position ``positions[r]`` of ``gt`` (-1 for an image ``gt`` lacks, which
    has no objects), and an object of the same image and class, as two index
    arrays in row-major order: the rows, and the objects as rows of
    ``gt.boxes``, each row's in its image's order."""
    positions, class_ids = np.asarray(positions, dtype=np.intp), np.asarray(class_ids)
    known = np.flatnonzero(positions >= 0)
    rows, objects = span_pairs(gt.starts[positions[known]], gt.counts[positions[known]])
    rows = known[rows]
    same = gt.class_ids[objects] == class_ids[rows]
    return rows[same], objects[same]


def _assign_tp_fp(dets: Detections, image_ids: Sequence[str], gt: Dataset) -> dict[int, list[bool]]:
    """Greedy highest-confidence-first TP/FP flags of each foreground class,
    in rank order (-score, row).

    Each detection is matched against the best-IoU ground-truth box of its
    own image and class (the first of equal IoUs); it is a true positive iff
    that IoU exceeds 0.5 and the box is not already claimed (VOC devkit
    semantics: no fallback to the second-best box). Detections in an image
    that ``gt`` lacks are false positives.
    """
    if len(image_ids) != len(dets):
        raise ValueError(f"{len(image_ids)} image ids for {len(dets)} detections")
    # Same-(image, class) candidate pairs of global rows, then all their IoUs at once.
    positions = np.fromiter(map(gt.index.get, image_ids, repeat(-1)), np.intp, len(image_ids))
    rows, g_rows = same_class_pairs(positions, dets.class_ids, gt)
    best: dict[int, tuple[float, int]] = {}  # row -> (IoU, ground-truth row)
    for r, g, v in zip(rows.tolist(), g_rows.tolist(), iou(dets.boxes[rows], gt.boxes[g_rows]).tolist()):
        if v > best.get(r, (0.0,))[0]:
            best[r] = (v, g)

    classes = dets.class_ids.tolist()
    flags: dict[int, list[bool]] = {}
    claimed: set[int] = set()
    # A stable sort of -score ranks by (-score, row), and so within each class.
    for r in np.argsort(-dets.scores, kind="stable").tolist():
        if classes[r] == 0:
            continue
        v, g = best.get(r, (0.0, None))
        tp = g is not None and v > 0.5 and g not in claimed
        if tp:
            claimed.add(g)
        flags.setdefault(classes[r], []).append(tp)
    return flags


def _ap_eleven_point(tp_flags: Sequence[bool], n_gt: int) -> float:
    """VOC07 11-point AP of ranked detections: the mean over the recall knots
    0.0, 0.1, ..., 1.0 of the best precision at a rank whose recall reaches
    the knot, or 0 where none does. Recall never falls with rank, so the
    ranks that reach a knot are a suffix, and their best precision is that
    suffix's maximum."""
    tp = np.cumsum(np.asarray(tp_flags, dtype=bool), dtype=np.int64)
    precision = tp / np.arange(1, len(tp) + 1)
    # best[i]: the best precision from rank i + 1 on; 0 past the last rank
    best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    total = 0.0
    for prec in best[np.searchsorted(tp * 10, np.arange(11) * n_gt)].tolist():  # knots in order
        total += prec
    return total / 11.0


def map50(dets: Detections, image_ids: Sequence[str], gt: Dataset) -> EvalResult:
    """VOC07 mAP@0.5 over the classes 1..``gt.n_classes``; row r of ``dets``
    is a detection in image ``image_ids[r]``.

    Classes without any ground-truth object are excluded from the mean
    (:attr:`EvalResult.excluded`); detections of other classes are ignored.
    """
    n_gt = dict(enumerate(np.bincount(gt.class_ids, minlength=gt.n_classes + 1)[1:].tolist(), start=1))
    flags = _assign_tp_fp(dets, image_ids, gt)
    return EvalResult({c: _ap_eleven_point(flags.get(c, []), n) for c, n in n_gt.items() if n}, n_gt)


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
