"""Confidence-thresholded pseudo-labels and their correctness audit.

A detection becomes a pseudo-label when its argmax is a foreground class with
probability at least tau; background-argmax detections are never labeled, and
everything below the threshold stays unlabeled.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .boxes import ChunkDetections, FrozenRows, PredictionChunk, check_frame, checked_boxes, iou
from .dataset import Dataset, image_id_column
from .evaluation import same_class_pairs
from .matching import greedy_assign

__all__ = [
    "PseudoLabels",
    "extract_pseudo_labels",
    "extract_topk_per_class",
    "audit_pl_correctness",
]


class PseudoLabels(FrozenRows):
    """The pseudo-labels of any number of images, one-hot model-generated
    labels for confident detections, one row per label, held as read-only
    arrays: the ``image_ids`` (N,) of a numpy string column, corner ``boxes``
    (N, 4), foreground ``class_ids`` (N,) and confidences ``scores`` (N,) in
    (0, 1]. ``PseudoLabels()`` is the empty set.

    The constructor validates outside data: each image id must pass
    :func:`~aldet.dataset.checked_image_id`. The extractors take rows of
    post-NMS chunks, which need no check.
    """

    __slots__ = ("image_ids", "boxes", "class_ids", "scores")

    def __init__(self, image_ids=(), boxes=(), class_ids=(), scores=()):
        image_ids = image_id_column(image_ids)
        boxes = checked_boxes(boxes)
        class_ids = np.array(class_ids, dtype=np.intp)
        scores = np.array(scores, dtype=np.float64)
        if not len(image_ids) == len(boxes) == len(class_ids) == len(scores):
            raise ValueError(f"row counts differ: {len(image_ids)}, {len(boxes)}, {len(class_ids)}, {len(scores)}")
        if (class_ids < 1).any():
            raise ValueError(f"pseudo-label class must be a foreground class, got {class_ids.min()}")
        bad = ~((scores > 0.0) & (scores <= 1.0))
        if bad.any():
            raise ValueError(f"confidence must be in (0, 1], got {scores[np.argmax(bad)]}")
        self._init(image_ids, boxes, class_ids, scores)


def _labels(chunks: Iterable[PredictionChunk], keep: Callable[[ChunkDetections], np.ndarray]) -> PseudoLabels:
    """The rows ``keep(detections)`` of every chunk, in order, as one set of
    pseudo-labels. A chunk in the flipped frame is refused.

    Each chunk is read once and let go, so a stream of chunks is never held
    whole. Its rows are kept as plain columns, which become the one set when
    the last chunk has been read: no set is made per chunk.
    """

    def columns(chunk: PredictionChunk):
        check_frame(chunk)
        d = chunk.detections
        rows = keep(d)
        return np.array(chunk.image_ids, dtype=str)[d.image[rows]], d.boxes[rows], d.class_ids[rows], d.scores[rows]

    parts = list(zip(*map(columns, chunks)))  # map keeps no chunk once its columns are taken
    return PseudoLabels._of(*map(np.concatenate, parts)) if parts else PseudoLabels()


def extract_pseudo_labels(chunks: Iterable[PredictionChunk], tau: float) -> PseudoLabels:
    """Pseudo-label every detection whose foreground argmax probability >=
    tau, in input order: image by image, each image's labels in its row
    order.

    The chunks are expected to be post-NMS, consistent with the acquisition
    pipeline; a chunk in the flipped frame is refused.
    """
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    return _labels(chunks, lambda d: (d.class_ids != 0) & (d.scores >= tau))


def extract_topk_per_class(chunks: Iterable[PredictionChunk], k_fraction: float) -> PseudoLabels:
    """Per-class top-k% pseudo-labeling variant.

    For each foreground class, the ceil(k_fraction * n_c) most confident
    detections whose argmax is that class become pseudo-labels, where n_c is
    the number of such detections across all images; confidence ties go to
    the lower image id, then the earlier row. The labels come image by image
    in input order, each image's ordered by class, then by (-confidence, row).
    """
    if not (0.0 < k_fraction <= 1.0):
        raise ValueError(f"k_fraction must be in (0, 1], got {k_fraction}")
    fg = _labels(chunks, lambda d: d.class_ids != 0)
    # Rows ranked by (class, -confidence, image id); the sort is stable, so row breaks ties.
    order = np.lexsort((fg.image_ids, -fg.scores, fg.class_ids))
    classes = fg.class_ids[order]
    start = np.searchsorted(classes, classes)
    n_class = np.searchsorted(classes, classes, side="right") - start
    kept = order[np.arange(len(order)) - start < np.ceil(k_fraction * n_class)]
    # Back to input order, image by image: each image's rows are contiguous.
    image = np.cumsum(np.concatenate(([0], fg.image_ids[1:] != fg.image_ids[:-1])))
    return fg.take(kept[np.argsort(image[kept], kind="stable")])


def audit_pl_correctness(pls: PseudoLabels, gt: Dataset) -> float:
    """Fraction of pseudo-labels matching a same-class GT object with IoU > 0.5.

    Every image of ``pls`` must be an image of ``gt``; only those images'
    ground truth is read, gathered by position. Each ground-truth object can
    validate at most one pseudo-label; candidate matches are consumed
    greedily by descending IoU (see :func:`aldet.matching.greedy_assign`),
    pseudo-labels numbered in row order. A pseudo-label is only compared with the ground truth of its own
    (image, class). An empty set audits as 1.0 by convention (callers should
    report the count alongside).
    """
    if not len(pls):
        return 1.0
    p_idx, g_idx = same_class_pairs(gt.positions(pls.image_ids.tolist()), pls.class_ids, gt)
    if not len(p_idx):
        return 0.0
    ious = iou(pls.boxes[p_idx], gt.boxes[g_idx])
    hit = ious > 0.5
    candidates = zip(ious[hit].tolist(), p_idx[hit].tolist(), g_idx[hit].tolist())
    return len(greedy_assign(candidates)) / len(pls)
