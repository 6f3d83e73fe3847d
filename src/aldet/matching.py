"""Pair detections of an image with their counterparts in the flipped image.

Matching is done on corner-box IoU after the flipped prediction has been
mapped back into the original coordinate frame (see :func:`aldet.boxes.hflip`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .boxes import Detection, ImagePrediction, iou

__all__ = ["MatchedPair", "MatchResult", "match_predictions", "DEFAULT_MIN_MATCH_IOU"]

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

    n, m = len(orig.detections), len(flipped.detections)
    candidates = []
    for i, a in enumerate(orig.detections):
        for j, b in enumerate(flipped.detections):
            v = iou(a.box_corner, b.box_corner)
            if v >= min_match_iou:
                candidates.append((v, i, j))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))

    pairs: list[MatchedPair] = []
    taken_orig: set[int] = set()
    taken_flip: set[int] = set()
    for v, i, j in candidates:
        if i in taken_orig or j in taken_flip:
            continue
        taken_orig.add(i)
        taken_flip.add(j)
        pairs.append(MatchedPair(orig.detections[i], flipped.detections[j], v, i, j))

    unmatched_o = tuple(i for i in range(n) if i not in taken_orig)
    unmatched_f = tuple(j for j in range(m) if j not in taken_flip)
    return MatchResult(tuple(pairs), unmatched_o, unmatched_f)
