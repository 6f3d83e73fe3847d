"""Pair detections of an image with their counterparts in the flipped image.

Matching is done on corner-box IoU after the flipped prediction has been
mapped back into the original coordinate frame (see :func:`aldet.boxes.hflip`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .boxes import Detection, ImagePrediction, iou

__all__ = [
    "MatchedPair", "MatchResult", "greedy_assign", "match_predictions", "DEFAULT_MIN_MATCH_IOU"
]

# An unfloored argmax pairs unrelated boxes; 0.5 is the conventional overlap
# floor. Set min_match_iou=0 to match without a floor.
DEFAULT_MIN_MATCH_IOU = 0.5


@dataclass(frozen=True)
class MatchedPair:
    """A detection and its flipped-image counterpart.

    ``flipped`` follows whatever frame the caller matched in; the matcher
    produces pairs whose flipped member was already un-flipped into the
    original frame.
    """

    original: Detection
    flipped: Detection
    iou: float
    orig_index: int = -1
    flipped_index: int = -1


@dataclass(frozen=True)
class MatchResult:
    pairs: tuple[MatchedPair, ...]
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

    All cross pairs are ranked by IoU descending (ties by original index,
    then flipped index) and accepted while both members are free and the IoU
    is at least ``min_match_iou``. Unmatched detection indices on both sides
    are reported for diagnostics.
    """
    if orig.image_id != flipped.image_id:
        raise ValueError(
            f"frame mismatch: cannot match {orig.image_id!r} against {flipped.image_id!r}"
        )
    if not (0.0 <= min_match_iou <= 1.0):
        raise ValueError(f"min_match_iou must be in [0, 1], got {min_match_iou}")

    ious = (
        (iou(a.box_corner, b.box_corner), i, j)
        for i, a in enumerate(orig.detections)
        for j, b in enumerate(flipped.detections)
    )
    accepted = greedy_assign(c for c in ious if c[0] >= min_match_iou)

    pairs = tuple(
        MatchedPair(orig.detections[i], flipped.detections[j], v, i, j) for v, i, j in accepted
    )
    taken_o, taken_f = {i for _, i, _ in accepted}, {j for _, _, j in accepted}
    unmatched_o = tuple(i for i in range(len(orig.detections)) if i not in taken_o)
    unmatched_f = tuple(j for j in range(len(flipped.detections)) if j not in taken_f)
    return MatchResult(pairs, unmatched_o, unmatched_f)
