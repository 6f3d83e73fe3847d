"""Pair detections of an image with their counterparts in the flipped image.

Matching is done on corner-box IoU after the flipped prediction has been
mapped back into the original coordinate frame (see :func:`aldet.boxes.hflip`):
a chunk still in the flipped frame is refused.
Two chunks of images (:class:`~aldet.boxes.PredictionChunk`) are matched
image by image in one pass. A pair is a pair of row indices, one into each
chunk's detections, numbered across the chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, zip_longest
from operator import itemgetter
from typing import Iterable

import numpy as np

from .boxes import PredictionChunk, check_frame, iou, span_pairs

__all__ = ["MatchResult", "greedy_assign", "match_predictions", "DEFAULT_MIN_MATCH_IOU"]

# An unfloored argmax pairs unrelated boxes; 0.5 is the conventional overlap
# floor. Set min_match_iou=0 to match without a floor.
DEFAULT_MIN_MATCH_IOU = 0.5


@dataclass(frozen=True)
class MatchResult:
    """Matched ``(original row, flipped row)`` pairs in acceptance order; a
    side's unmatched rows number its row count less ``len(pairs)``."""

    pairs: tuple[tuple[int, int], ...]


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
    orig: PredictionChunk, flipped: PredictionChunk, min_match_iou: float = DEFAULT_MIN_MATCH_IOU
) -> MatchResult:
    """Greedy one-to-one IoU matching between the detections of each image
    in two chunks of the same images: the original view ``orig`` and the
    flipped view ``flipped``, mapped back. Both chunks must be in the
    original frame.

    Within an image, all cross pairs are ranked by IoU descending (ties by
    original row, then flipped row) and accepted while both members are free
    and the IoU is at least ``min_match_iou``. One ``iou`` call covers every
    cross pair of every image, and the pairs come image by image, each
    image's in acceptance order.
    """
    check_frame(orig)
    check_frame(flipped)
    if orig.image_ids != flipped.image_ids:
        x, y = next((x, y) for x, y in zip_longest(orig.image_ids, flipped.image_ids) if x != y)
        raise ValueError(f"image-id mismatch: cannot match image {x!r} against image {y!r}")
    if not (0.0 <= min_match_iou <= 1.0):
        raise ValueError(f"min_match_iou must be in [0, 1], got {min_match_iou}")

    da, db = orig.detections, flipped.detections
    accepted = []
    if len(da) and len(db):
        # Each original row against every flipped row of its image, row-major.
        per_image = np.bincount(db.image, minlength=len(orig.image_ids))
        rows, cols = span_pairs((np.cumsum(per_image) - per_image)[da.image], per_image[da.image])
        ious = iou(da.boxes[rows], db.boxes[cols])
        hit = ious >= min_match_iou
        rows, cols = rows[hit], cols[hit]
        candidates = zip(da.image[rows].tolist(), ious[hit].tolist(), rows.tolist(), cols.tolist())
        for _, group in groupby(candidates, key=itemgetter(0)):
            accepted += greedy_assign(c[1:] for c in group)

    return MatchResult(tuple((i, j) for _, i, j in accepted))
