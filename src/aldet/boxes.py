"""Geometric and probabilistic detection primitives.

Boxes are half-open real rectangles: area = (xmax - xmin) * (ymax - ymin),
with no +1 pixel convention. Class distributions span K+1 categories where
index 0 is background and 1..K are foreground classes.

Every box is a float64 corner row (xmin, ymin, xmax, ymax) in pixels. A set of
detections is one :class:`Detections`: a corner box and a class distribution
per row. The encoded form of a box is defined, not stored: :func:`encode_boxes`
computes it from the box and the image size. It is (dx, dy, w, h) against the
full-image anchor (0, 0, W, H): dx/dy are the center offset from the image
center in image-size units, w/h the size ratios against the image, so the
full-image box encodes as (0, 0, 1, 1). A horizontal flip negates dx and
leaves the rest unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

import numpy as np

__all__ = [
    "ChunkDetections",
    "Detections",
    "FrozenRows",
    "PredictionChunk",
    "checked_boxes",
    "checked_encoded",
    "check_frame",
    "checked_probs",
    "clamp_to_images",
    "encode_boxes",
    "iou",
    "hflip",
    "span_pairs",
    "nms",
    "DEFAULT_NMS_IOU",
    "DEFAULT_NMS_SCORE_FLOOR",
]

# SSD community defaults; the acquisition method itself does not pin these.
DEFAULT_NMS_IOU = 0.45
DEFAULT_NMS_SCORE_FLOOR = 0.01

# Normalization slack for class distributions.
DIST_SUM_TOL = 1e-6


def _rows(values, what: str, width: int | None = None, row: str = "detection") -> np.ndarray:
    """``values`` as a float64 array with one row per ``row``; an empty input
    is (0, width), or (0, 0) when the width is not fixed. A float64 array is
    returned as it is, not copied, so that a whole predictions file is held
    once; a frozen set built from it makes it read-only."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise ValueError(f"{what}: every {row} needs the same number of values") from None
    if arr.size == 0:
        return np.zeros((0, width or 0))
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{what}: expected numbers")
    if arr.ndim != 2 or (width is not None and arr.shape[1] != width):
        raise ValueError(f"{what}: expected {width or 'a list of'} numbers per {row}, got shape {arr.shape}")
    return arr.astype(np.float64, copy=False)


def _reject(arr: np.ndarray, bad: np.ndarray, message) -> None:
    """Raise ``message(row)`` for the first row of ``arr`` where ``bad`` holds."""
    if bad.any():
        raise ValueError(message(arr[int(np.argmax(bad))]))


def checked_boxes(rows) -> np.ndarray:
    """Validated (N, 4) corner boxes: finite and not inverted."""
    arr = _rows(rows, "bbox", 4)
    # Whole-array checks first; the row-by-row ones only find the row to name.
    if not (np.isfinite(arr).all() and (arr[:, :2] <= arr[:, 2:]).all()):
        _reject(arr, ~np.isfinite(arr).all(axis=1),
                lambda r: f"box coordinates must be finite, got {tuple(r.tolist())}")
        _reject(arr, (arr[:, 0] > arr[:, 2]) | (arr[:, 1] > arr[:, 3]),
                lambda r: f"inverted box: {tuple(r.tolist())}")
    return arr


def checked_encoded(rows) -> np.ndarray:
    """Validated (N, 4) encoded boxes: finite, with positive scale coefficients."""
    arr = _rows(rows, "encoded", 4)
    _reject(arr, ~np.isfinite(arr).all(axis=1),
            lambda r: f"encoded box must be finite, got {tuple(r.tolist())}")
    _reject(arr, (arr[:, 2] <= 0) | (arr[:, 3] <= 0),
            lambda r: f"encoded scale coefficients must be positive, got w={r[2]}, h={r[3]}")
    return arr


def checked_probs(rows) -> np.ndarray:
    """Validated (N, K+1) class distributions, clipped to [0, 1]: each row has
    at least 2 finite entries in [0, 1] (1e-9 slack) summing to 1 within
    ``DIST_SUM_TOL``."""
    arr = _rows(rows, "probs")
    if arr.size == 0:
        return arr
    if arr.shape[1] < 2:
        raise ValueError(f"class distribution needs >= 2 categories, got shape {arr.shape[1:]}")
    lo, hi = arr.min(), arr.max()
    if not (-1e-9 <= lo and hi <= 1.0 + 1e-9):  # NaN fails too
        if not np.isfinite(arr).all():
            raise ValueError("class distribution has non-finite entries")
        _reject(arr, (arr.min(axis=1) < -1e-9) | (arr.max(axis=1) > 1.0 + 1e-9),
                lambda r: f"probabilities outside [0, 1]: min={r.min()}, max={r.max()}")
    off = np.abs(arr.sum(axis=1) - 1.0)  # finite here
    if off.max() > DIST_SUM_TOL:
        _reject(arr, off > DIST_SUM_TOL,
                lambda r: f"probabilities sum to {r.sum()}, expected 1 within {DIST_SUM_TOL}")
    return arr if 0.0 <= lo and hi <= 1.0 else np.clip(arr, 0.0, 1.0)


class FrozenRows:
    """Base of a frozen set of rows: one read-only array per name in
    ``_fields`` (the ``__slots__`` of the class and of its bases), all of the
    same length. Derived sets (row selection, concatenation) are built by
    :meth:`_of` and not validated again."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    @classmethod
    def _of(cls, *arrays):
        """A set from one array per name in ``_fields``, unchecked."""
        out = cls.__new__(cls)
        out._init(*arrays)
        return out

    def _init(self, *arrays) -> None:
        for name, arr in zip(self._fields, arrays):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the set through _of, which makes
        # the arrays read-only again; their default sets each slot, which
        # __setattr__ refuses.
        return type(self)._of, tuple(getattr(self, name) for name in self._fields)

    def __len__(self) -> int:
        return len(getattr(self, self._fields[0]))

    def __eq__(self, other) -> bool:
        # Two empty sets are equal whatever their widths.
        return type(other) is type(self) and len(self) == len(other) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) or not len(self)
            for name in self._fields
        )

    def take(self, rows):
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        return self._of(*(getattr(self, name)[rows] for name in self._fields))

    @classmethod
    def concat(cls, sets):
        """The rows of every set, in order; empty sets are skipped, so they may
        have any width, and without a non-empty set the result is ``cls()``.
        Sets are immutable, so a lone non-empty set is returned as it is, not
        copied."""
        sets = [s for s in sets if len(s)]
        if len(sets) <= 1:
            return sets[0] if sets else cls()
        return cls._of(*(np.concatenate([getattr(s, name) for s in sets]) for name in cls._fields))


class Detections(FrozenRows):
    """A frozen set of N detections held as read-only float64 arrays.

    ``boxes`` (N, 4) are corner boxes (xmin, ymin, xmax, ymax) in pixels and
    ``probs`` (N, K+1) the class distributions. Each row's argmax category
    (0 = background) is ``class_ids`` and its probability ``scores``; both
    are computed once, here. An empty set whose K is unknown has ``probs`` of
    shape (0, 0).

    The constructor validates outside data: corner boxes pass
    :func:`checked_boxes` and distributions :func:`checked_probs`. Sets
    derived from a validated one (row selection, flips, clamping) are not
    validated again.
    """

    __slots__ = ("boxes", "probs", "class_ids", "scores")

    def __init__(self, boxes=(), probs=()):
        boxes, probs = checked_boxes(boxes), checked_probs(probs)
        if len(boxes) != len(probs):
            raise ValueError(f"row counts differ: {len(boxes)} boxes, {len(probs)} distributions")
        class_ids = probs.argmax(axis=1) if len(probs) else np.zeros(0, dtype=np.intp)
        self._init(boxes, probs, class_ids, probs[np.arange(len(probs)), class_ids])


class ChunkDetections(Detections):
    """The detections of a chunk of images as one set: row r belongs to the
    chunk's image ``image[r]``, and rows are grouped image by image, in chunk
    order. Row selection keeps each row's image."""

    __slots__ = ("image",)

    def __init__(self, boxes, probs, image):
        super().__init__(boxes, probs)
        image = np.array(image, dtype=np.intp).reshape(-1)
        if len(image) != len(self) or (np.diff(image) < 0).any():
            raise ValueError("image: expected one non-decreasing image position per row")
        image.flags.writeable = False
        object.__setattr__(self, "image", image)


D = TypeVar("D", bound=Detections)


def clamp_to_images(dets: D, widths: Sequence[int], heights: Sequence[int], image: np.ndarray) -> D:
    """``dets`` with the corner box of each row r clamped to its image,
    ``widths[image[r]]`` by ``heights[image[r]]`` pixels. Every image's size
    must be positive, whether or not it has rows. A set already inside its
    images is returned as it is; a clamped one keeps every other field of
    each row, and each coordinate already inside its image bit for bit, so
    a row's result does not depend on the other rows of the set."""
    if min(widths, default=1) <= 0 or min(heights, default=1) <= 0:
        w, h = next((w, h) for w, h in zip(widths, heights) if w <= 0 or h <= 0)
        raise ValueError(f"image size must be positive, got {w}x{h}")
    limits = np.array([widths, heights, widths, heights], dtype=np.float64).T[image]
    inside = (dets.boxes >= 0.0) & (dets.boxes <= limits)
    if inside.all():
        return dets
    # np.clip against array limits turns -0.0 into 0.0, and the writers print
    # the two apart: what is inside stays as it is.
    clipped = np.where(inside, dets.boxes, np.clip(dets.boxes, 0.0, limits))
    return dets._of(*(clipped if name == "boxes" else getattr(dets, name) for name in dets._fields))


@dataclass(frozen=True)
class PredictionChunk:
    """The predictions of a run of images held as one set of rows, so that
    the flip, NMS, matching, scoring and pseudo-labelling make a fixed number
    of numpy calls per chunk rather than per image. ``detections.image[r]``
    is the position in ``image_ids`` of row r's image.

    ``flipped`` is the coordinate frame of the boxes: True when they are in
    the frame of the horizontally flipped images. The view that made a chunk
    sets it (a detector's flipped view, a reader's flipped records),
    :func:`hflip` toggles it, and every chunk derived from one keeps it.

    A detector and the predictions reader build their chunks with every box
    clamped by :func:`clamp_to_images`. Chunks derived from one (the flip,
    NMS, a run of a reader's images) are not checked again: a subset of boxes
    inside the image stays inside, and so does its mirror image, because
    w - x lies in [0, w] for every x in [0, w] in IEEE arithmetic."""

    image_ids: tuple[str, ...]
    widths: tuple[int, ...]
    heights: tuple[int, ...]
    detections: ChunkDetections
    flipped: bool = False

    def with_detections(self, detections: ChunkDetections) -> "PredictionChunk":
        return PredictionChunk(self.image_ids, self.widths, self.heights, detections, self.flipped)


def check_frame(chunk: PredictionChunk, flipped: bool = False) -> None:
    """Raise a ValueError naming the chunk's first image unless the chunk is
    in the frame asked for, ``chunk.flipped == flipped``. Matching, scoring,
    pseudo-labelling and evaluation compare boxes with the original images,
    so they take only chunks in the original frame:
    :func:`aldet.acquisition.post_nms` maps a flipped view back."""
    if chunk.flipped != flipped:
        first = chunk.image_ids[0] if chunk.image_ids else None
        want, got = ("flipped", "original") if flipped else ("original", "flipped")
        raise ValueError(f"chunk of image {first!r} is in the {got} frame, expected the {want} frame")


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of corner boxes over the last axis, with
    broadcasting: rows against rows for equal shapes, and the (N, M) matrix
    for ``a[:, None]`` and ``b[None]``. 0 where the union is empty."""
    ax0, ay0, ax1, ay1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bx0, by0, bx1, by1 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    ix = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    iy = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = np.where((ix > 0.0) & (iy > 0.0), ix * iy, 0.0)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    # The union is 0 only for two zero-area boxes, whose intersection is 0 too.
    return inter / np.where(union > 0.0, union, 1.0)


def span_pairs(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row r paired with each of ``starts[r]``, ..., ``starts[r] + counts[r] - 1``,
    row-major: the pairs as two index arrays, built with a fixed number of
    numpy calls."""
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(len(rows))


def hflip(chunk: PredictionChunk) -> PredictionChunk:
    """Mirror every image of a chunk about the vertical axis of its image.

    Corner boxes map as xmin' = width - xmax, xmax' = width - xmin (so the
    encoded dx of each box is negated); class distributions are unchanged,
    and the chunk's ``flipped`` frame is toggled. Applying hflip twice
    returns the original chunk.
    """
    d = chunk.detections
    w = np.array(chunk.widths, dtype=np.float64)[d.image]
    boxes = d.boxes.copy()
    boxes[:, 0] = w - d.boxes[:, 2]
    boxes[:, 2] = w - d.boxes[:, 0]
    return PredictionChunk(chunk.image_ids, chunk.widths, chunk.heights,
                           ChunkDetections._of(boxes, d.probs, d.class_ids, d.scores, d.image), not chunk.flipped)


def nms(
    dets: Detections,
    iou_threshold: float = DEFAULT_NMS_IOU,
    score_floor: float = DEFAULT_NMS_SCORE_FLOOR,
) -> Detections:
    """Class-wise greedy non-maximum suppression, image by image.

    Detections are grouped by their argmax class; background-argmax detections
    are dropped. Within each class, detections scoring below ``score_floor``
    are dropped, then the highest-scoring box is kept greedily and any
    same-class box with IoU > ``iou_threshold`` against a kept box is
    suppressed. Ties on equal scores are broken by lower original index.
    The output is sorted by descending score (ties again by original index)
    and the operation is idempotent.

    The rows of a :class:`ChunkDetections` are suppressed per image in one
    pass: only rows of the same (image, class) are compared, and the output
    keeps the chunk's image order, each image's rows sorted as above.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    if not (0.0 <= score_floor < 1.0):
        raise ValueError(f"score_floor must be in [0, 1), got {score_floor}")

    rows = np.flatnonzero((dets.class_ids != 0) & (dets.scores >= score_floor))
    image = dets.image[rows] if isinstance(dets, ChunkDetections) else np.zeros(len(rows), np.intp)
    # A stable sort keeps equal keys in index order: (image, -score, index).
    order = np.lexsort((-dets.scores[rows], image))
    rows = rows[order]
    group = dets.class_ids[rows] + image[order] * dets.probs.shape[1]  # one key per (image, class)
    # Contiguous (image, class) groups, each still in greedy order, and the
    # number of earlier members of each row's group.
    by_group = np.argsort(group, kind="stable")
    group = group[by_group]
    n = len(rows)
    starts = np.ones(n, dtype=bool)
    starts[1:] = group[1:] != group[:-1]
    first = np.maximum.accumulate(np.where(starts, np.arange(n), 0))
    ahead = np.arange(n) - first
    if not ahead.any():  # no two of a group: nothing to suppress
        return dets.take(rows)
    # Every (later, earlier) pair of a group, later-major, and all their IoUs at once.
    later, earlier = span_pairs(first, ahead)
    later, earlier = rows[by_group[later]], rows[by_group[earlier]]
    over = iou(dets.boxes[later], dets.boxes[earlier]) > iou_threshold
    # A row's earlier members are settled before its own pairs come up.
    suppressed: set[int] = set()
    for i, j in zip(later[over].tolist(), earlier[over].tolist()):
        if j not in suppressed:
            suppressed.add(i)
    return dets.take([r for r in rows.tolist() if r not in suppressed])


def encode_boxes(boxes: np.ndarray, widths, heights) -> np.ndarray:
    """Encode (N, 4) corner boxes, row r against the full-image anchor (0, 0,
    widths[r], heights[r]): center displacement and size ratios, in
    image-size units. A scalar size is every row's."""
    aw, ah = np.atleast_1d(np.asarray(widths, np.float64)), np.atleast_1d(np.asarray(heights, np.float64))
    bad = np.flatnonzero((aw <= 0.0) | (ah <= 0.0))
    if len(bad):
        raise ValueError(f"invalid anchor: degenerate image size {aw[bad[0]]}x{ah[bad[0]]}")
    x0, y0, x1, y1 = boxes.T
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    return np.stack([(cx - 0.5 * aw) / aw, (cy - 0.5 * ah) / ah, (x1 - x0) / aw, (y1 - y0) / ah], axis=1)
