"""Pair detections of an image with their counterparts in the flipped image.

Matching is done on corner-box IoU after the flipped prediction has been
mapped back into the original coordinate frame (see :func:`aldet.boxes.hflip`).
A pair is a pair of row indices, one into each prediction's
:class:`~aldet.boxes.Detections`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .boxes import ImagePrediction, iou

__all__ = ["MatchResult", "greedy_assign", "match_predictions", "DEFAULT_MIN_MATCH_IOU"]

# An unfloored argmax pairs unrelated boxes; 0.5 is the conventional overlap
# floor. Set min_match_iou=0 to match without a floor.
DEFAULT_MIN_MATCH_IOU = 0.5


@dataclass(frozen=True)
class MatchResult:
    """Matched ``(original row, flipped row)`` pairs in acceptance order, and
    the rows left unmatched on each side."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_original: tuple[int, ...]
    unmatched_flipped: tuple[int, ...]


def greedy_assign(candidates: Iterable[tuple[float, int, int]]) -> list[tuple[float, int, int]]:
    """Greedy one-to-one assignment: candidate pairs ``(iou, i, j)`` are taken
    by IoU descending (ties by ``i``, then ``j``) while neither member is taken
    yet. Callers filter by their own IoU floor first; returns the taken pairs.
    """
    taken_i: set[int] = set()
    taken_j: set[int] = set()
    accepted = []
    for v, i, j in sorted(candidates, key=lambda t: (-t[0], t[1], t[2])):
        if i not in taken_i and j not in taken_j:
            taken_i.add(i)
            taken_j.add(j)
            accepted.append((v, i, j))
    return accepted


def match_predictions(
    orig: ImagePrediction,
    flipped: ImagePrediction,
    min_match_iou: float = DEFAULT_MIN_MATCH_IOU,
) -> MatchResult:
    """Greedy one-to-one IoU matching between two detection sets.

    All cross pairs are ranked by IoU descending (ties by original row,
    then flipped row) and accepted while both members are free and the IoU
    is at least ``min_match_iou``. Unmatched rows on both sides are reported
    for diagnostics.
    """
    if orig.image_id != flipped.image_id:
        raise ValueError(
            f"frame mismatch: cannot match {orig.image_id!r} against {flipped.image_id!r}"
        )
    if not (0.0 <= min_match_iou <= 1.0):
        raise ValueError(f"min_match_iou must be in [0, 1], got {min_match_iou}")

    n, m = len(orig.detections), len(flipped.detections)
    accepted = []
    if n and m:
        ious = iou(orig.detections.boxes[:, None], flipped.detections.boxes[None])
        rows, cols = np.nonzero(ious >= min_match_iou)
        accepted = greedy_assign(zip(ious[rows, cols].tolist(), rows.tolist(), cols.tolist()))

    pairs = tuple((i, j) for _, i, j in accepted)
    taken_o, taken_f = {i for i, _ in pairs}, {j for _, j in pairs}
    unmatched_o = tuple(i for i in range(n) if i not in taken_o)
    unmatched_f = tuple(j for j in range(m) if j not in taken_f)
    return MatchResult(pairs, unmatched_o, unmatched_f)
