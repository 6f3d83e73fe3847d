"""Confidence-thresholded pseudo-labels and their correctness audit.

A detection becomes a pseudo-label when its argmax is a foreground class with
probability at least tau; background-argmax detections are never labeled, and
everything below the threshold stays unlabeled so the corresponding image
regions remain neutral in the losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .boxes import BoxCorner, ImagePrediction, iou
from .matching import greedy_assign

__all__ = [
    "PseudoLabel",
    "GroundTruthObject",
    "extract_pseudo_labels",
    "extract_topk_per_class",
    "audit_pl_correctness",
]


@dataclass(frozen=True)
class PseudoLabel:
    """A one-hot model-generated label for a confident detection."""

    image_id: str
    box_corner: BoxCorner
    class_id: int
    confidence: float

    def __post_init__(self):
        if self.class_id < 1:
            raise ValueError(f"pseudo-label class must be a foreground class, got {self.class_id}")
        if not (0.0 < self.confidence <= 1.0):
            raise ValueError(f"confidence must be in (0, 1], got {self.confidence}")


@dataclass(frozen=True)
class GroundTruthObject:
    image_id: str
    box_corner: BoxCorner
    class_id: int

    def __post_init__(self):
        if self.class_id < 1:
            raise ValueError(f"ground-truth class must be a foreground class, got {self.class_id}")


def _rows(pred: ImagePrediction):
    """``(box, class_id, score)`` of each detection of ``pred``, as Python values."""
    d = pred.detections
    return zip(d.boxes.tolist(), d.class_ids.tolist(), d.scores.tolist())


def extract_pseudo_labels(pred: ImagePrediction, tau: float) -> list[PseudoLabel]:
    """Pseudo-label every detection whose foreground argmax probability >= tau.

    ``pred`` is expected to be post-NMS, consistent with the acquisition
    pipeline.
    """
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    return [
        PseudoLabel(pred.image_id, BoxCorner(*box), cls, conf)
        for box, cls, conf in _rows(pred)
        if cls != 0 and conf >= tau
    ]


def extract_topk_per_class(
    preds: Sequence[ImagePrediction], k_fraction: float
) -> list[PseudoLabel]:
    """Per-class top-k% pseudo-labeling variant.

    For each foreground class, the ceil(k_fraction * n_c) most confident
    detections whose argmax is that class become pseudo-labels, where n_c is
    the number of such detections across all images.
    """
    if not (0.0 < k_fraction <= 1.0):
        raise ValueError(f"k_fraction must be in (0, 1], got {k_fraction}")

    by_class: dict[int, list[tuple[float, str, int, list[float]]]] = {}
    for pred in preds:
        for idx, (box, cls, conf) in enumerate(_rows(pred)):
            if cls != 0:
                by_class.setdefault(cls, []).append((conf, pred.image_id, idx, box))

    out: list[PseudoLabel] = []
    for cls in sorted(by_class):
        entries = sorted(by_class[cls], key=lambda t: (-t[0], t[1], t[2]))
        take = math.ceil(k_fraction * len(entries))
        out.extend(
            PseudoLabel(image_id, BoxCorner(*box), cls, conf)
            for conf, image_id, _idx, box in entries[:take]
        )
    return out


def audit_pl_correctness(
    pls: Sequence[PseudoLabel],
    gt: Sequence[GroundTruthObject],
    iou_thresh: float = 0.5,
) -> float:
    """Fraction of pseudo-labels matching a same-class GT object with IoU > 0.5.

    Each ground-truth object can validate at most one pseudo-label; candidate
    matches are consumed greedily by descending IoU (see
    :func:`aldet.matching.greedy_assign`). A pseudo-label is only compared
    with the ground truth of its own (image, class). An empty pseudo-label
    list audits as 1.0 by convention (callers should report the count
    alongside).
    """
    if not pls:
        return 1.0

    by_group: dict[tuple[str, int], list[tuple[int, GroundTruthObject]]] = {}
    for gi, obj in enumerate(gt):
        by_group.setdefault((obj.image_id, obj.class_id), []).append((gi, obj))

    candidates = []
    for pi, pl in enumerate(pls):
        for gi, obj in by_group.get((pl.image_id, pl.class_id), ()):
            v = iou(pl.box_corner, obj.box_corner)
            if v > iou_thresh:
                candidates.append((v, pi, gi))
    return len(greedy_assign(candidates)) / len(pls)
