"""Confidence-thresholded pseudo-labels and their correctness audit.

A detection becomes a pseudo-label when its argmax is a foreground class with
probability at least tau; background-argmax detections are never labeled, and
everything below the threshold stays unlabeled.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from .boxes import Detections, FrozenRows, PredictionChunk, checked_boxes, iou
from .dataset import Dataset
from .matching import greedy_assign

__all__ = [
    "PseudoLabels",
    "extract_pseudo_labels",
    "extract_topk_per_class",
    "audit_pl_correctness",
]


class PseudoLabels(FrozenRows):
    """One image's pseudo-labels, one-hot model-generated labels for confident
    detections, held as read-only arrays: corner ``boxes`` (N, 4), foreground
    ``class_ids`` (N,) and confidences ``scores`` (N,) in (0, 1].

    The constructor validates outside data; :meth:`from_rows` takes rows of a
    post-NMS :class:`~aldet.boxes.Detections`, which need no check.
    """

    __slots__ = ("boxes", "class_ids", "scores")

    def __init__(self, boxes, class_ids, scores):
        boxes = checked_boxes(boxes)
        class_ids = np.array(class_ids, dtype=np.intp)
        scores = np.array(scores, dtype=np.float64)
        if not len(boxes) == len(class_ids) == len(scores):
            raise ValueError(f"row counts differ: {len(boxes)}, {len(class_ids)}, {len(scores)}")
        if (class_ids < 1).any():
            raise ValueError(f"pseudo-label class must be a foreground class, got {class_ids.min()}")
        bad = ~((scores > 0.0) & (scores <= 1.0))
        if bad.any():
            raise ValueError(f"confidence must be in (0, 1], got {scores[np.argmax(bad)]}")
        self._init(boxes, class_ids, scores)

    @classmethod
    def from_rows(cls, dets: Detections, rows) -> "PseudoLabels":
        d = dets.take(rows)
        return cls._of(d.boxes, d.class_ids, d.scores)


def extract_pseudo_labels(chunks: Iterable[PredictionChunk], tau: float) -> dict[str, PseudoLabels]:
    """Pseudo-label every detection whose foreground argmax probability >=
    tau, grouped by image in input order; images without pseudo-labels are
    absent. Each image's labels keep its row order.

    The chunks are expected to be post-NMS, consistent with the acquisition
    pipeline.
    """
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    out: dict[str, PseudoLabels] = {}
    for chunk in chunks:
        d = chunk.detections
        rows = np.flatnonzero((d.class_ids != 0) & (d.scores >= tau))
        if not len(rows):
            continue
        # Rows are grouped image by image: cut where the image changes.
        image = d.image[rows]
        cuts = [0, *(np.flatnonzero(np.diff(image)) + 1).tolist(), len(rows)]
        for start, end in zip(cuts, cuts[1:]):
            out[chunk.image_ids[image[start]]] = PseudoLabels.from_rows(d, rows[start:end])
    return out


def extract_topk_per_class(
    chunks: Iterable[PredictionChunk], k_fraction: float
) -> dict[str, PseudoLabels]:
    """Per-class top-k% pseudo-labeling variant, grouped by image; images
    without pseudo-labels are absent.

    For each foreground class, the ceil(k_fraction * n_c) most confident
    detections whose argmax is that class become pseudo-labels, where n_c is
    the number of such detections across all images. Within an image, labels
    are ordered by class, then by (-confidence, row).
    """
    if not (0.0 < k_fraction <= 1.0):
        raise ValueError(f"k_fraction must be in (0, 1], got {k_fraction}")

    # An image's rows are contiguous and in order within its chunk, so
    # ranking by chunk row ranks by image row.
    by_class: dict[int, list[tuple[float, str, int]]] = {}
    dets: dict[str, Detections] = {}
    for chunk in chunks:
        d = chunk.detections
        dets.update(dict.fromkeys(chunk.image_ids, d))
        image_ids = [chunk.image_ids[k] for k in d.image.tolist()]
        for row, (cls, conf, image_id) in enumerate(zip(d.class_ids.tolist(), d.scores.tolist(), image_ids)):
            if cls != 0:
                by_class.setdefault(cls, []).append((-conf, image_id, row))

    rows_of: dict[str, list[int]] = {}
    for cls in sorted(by_class):
        entries = sorted(by_class[cls])  # (-confidence, image id, row)
        for _, image_id, row in entries[: math.ceil(k_fraction * len(entries))]:
            rows_of.setdefault(image_id, []).append(row)
    return {image_id: PseudoLabels.from_rows(dets[image_id], rows) for image_id, rows in rows_of.items()}


def audit_pl_correctness(pls: Mapping[str, PseudoLabels], gt: Dataset) -> float:
    """Fraction of pseudo-labels matching a same-class GT object with IoU > 0.5.

    ``pls`` maps an image id of ``gt`` to its pseudo-labels. Each
    ground-truth object can validate at most one pseudo-label; candidate
    matches are consumed greedily by descending IoU (see
    :func:`aldet.matching.greedy_assign`), pseudo-labels numbered image by
    image in the order given. A pseudo-label is only compared with the ground
    truth of its own (image, class). An empty pseudo-label mapping audits as
    1.0 by convention (callers should report the count alongside).
    """
    n_labels = sum(len(labels) for labels in pls.values())
    if not n_labels:
        return 1.0

    # Same-(image, class) pairs of global row numbers, then all their IoUs at once.
    pairs: list[tuple[int, int]] = []
    label_boxes, gt_boxes = [], []
    p0 = g0 = 0
    for image_id, labels in pls.items():
        rec = gt[image_id]
        gt_classes = list(enumerate(rec.class_ids.tolist(), start=g0))
        for p, c in enumerate(labels.class_ids.tolist(), start=p0):
            pairs.extend((p, g) for g, gc in gt_classes if gc == c)
        label_boxes.append(labels.boxes)
        gt_boxes.append(rec.boxes)
        p0 += len(labels)
        g0 += len(gt_classes)
    if not pairs:
        return 0.0
    p_idx, g_idx = np.array(pairs).T
    ious = iou(np.concatenate(label_boxes)[p_idx], np.concatenate(gt_boxes)[g_idx])
    hit = ious > 0.5
    candidates = zip(ious[hit].tolist(), p_idx[hit].tolist(), g_idx[hit].tolist())
    return len(greedy_assign(candidates)) / n_labels
