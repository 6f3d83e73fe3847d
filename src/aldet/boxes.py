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

import numpy as np

__all__ = [
    "Detections",
    "FrozenRows",
    "ImagePrediction",
    "checked_boxes",
    "checked_encoded",
    "checked_probs",
    "encode_boxes",
    "iou",
    "hflip",
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
    is (0, width), or (0, 0) when the width is not fixed."""
    try:
        arr = np.array(values)
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
    ``__slots__``, all of the same length. Derived sets (row selection,
    concatenation) are built by :meth:`_of` and not validated again."""

    __slots__ = ()

    @classmethod
    def _of(cls, *arrays):
        """A set from one array per name in ``__slots__``, unchecked."""
        out = cls.__new__(cls)
        out._init(*arrays)
        return out

    def _init(self, *arrays) -> None:
        for name, arr in zip(self.__slots__, arrays):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self) -> int:
        return len(self.scores)

    def __eq__(self, other) -> bool:
        # Two empty sets are equal whatever their widths.
        return type(other) is type(self) and len(self) == len(other) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) or not len(self)
            for name in self.__slots__
        )

    def take(self, rows):
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        return self._of(*(getattr(self, name)[rows] for name in self.__slots__))

    @classmethod
    def concat(cls, sets):
        """The rows of every set, in order; empty sets are skipped, so they may
        have any width, but one set must be non-empty."""
        sets = [s for s in sets if len(s)]
        return cls._of(*(np.concatenate([getattr(s, name) for s in sets]) for name in cls.__slots__))


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

    def __init__(self, boxes, probs):
        boxes, probs = checked_boxes(boxes), checked_probs(probs)
        if len(boxes) != len(probs):
            raise ValueError(f"row counts differ: {len(boxes)} boxes, {len(probs)} distributions")
        class_ids = probs.argmax(axis=1) if len(probs) else np.zeros(0, dtype=np.intp)
        self._init(boxes, probs, class_ids, probs[np.arange(len(probs)), class_ids])

    @classmethod
    def concat(cls, sets) -> "Detections":
        sets = [s for s in sets if len(s)]
        return super().concat(sets) if sets else cls([], [])


@dataclass(frozen=True)
class ImagePrediction:
    """The detections for one image (or for its flipped version), with their
    corner boxes clamped to the image."""

    image_id: str
    width: int
    height: int
    detections: Detections

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")
        d, limits = self.detections, (self.width, self.height, self.width, self.height)
        if not ((d.boxes >= 0.0) & (d.boxes <= limits)).all():
            clamped = Detections._of(np.clip(d.boxes, 0.0, limits), d.probs, d.class_ids, d.scores)
            object.__setattr__(self, "detections", clamped)

    def with_detections(self, detections: Detections) -> "ImagePrediction":
        return ImagePrediction(self.image_id, self.width, self.height, detections)


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


def hflip(p: ImagePrediction) -> ImagePrediction:
    """Mirror a prediction about the vertical axis of its image.

    Corner boxes map as xmin' = width - xmax, xmax' = width - xmin (so the
    encoded dx of each box is negated); class distributions are unchanged.
    Applying hflip twice returns the original prediction.
    """
    w = float(p.width)
    d = p.detections
    boxes = d.boxes.copy()
    boxes[:, 0] = w - d.boxes[:, 2]
    boxes[:, 2] = w - d.boxes[:, 0]
    flipped = Detections._of(boxes, d.probs, d.class_ids, d.scores)
    return ImagePrediction(p.image_id, p.width, p.height, flipped)


def nms(
    dets: Detections,
    iou_threshold: float = DEFAULT_NMS_IOU,
    score_floor: float = DEFAULT_NMS_SCORE_FLOOR,
) -> Detections:
    """Class-wise greedy non-maximum suppression.

    Detections are grouped by their argmax class; background-argmax detections
    are dropped. Within each class, detections scoring below ``score_floor``
    are dropped, then the highest-scoring box is kept greedily and any
    same-class box with IoU > ``iou_threshold`` against a kept box is
    suppressed. Ties on equal scores are broken by lower original index.
    The output is sorted by descending score (ties again by original index)
    and the operation is idempotent.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    if not (0.0 <= score_floor < 1.0):
        raise ValueError(f"score_floor must be in [0, 1), got {score_floor}")

    rows = np.flatnonzero((dets.class_ids != 0) & (dets.scores >= score_floor))
    # A stable sort of -score keeps equal scores in index order: (-score, index).
    rows = rows[np.argsort(-dets.scores[rows], kind="stable")].tolist()
    classes = dets.class_ids.tolist()
    if len({classes[i] for i in rows}) == len(rows):  # no two of a class: nothing to suppress
        return dets.take(rows)
    # Visiting all classes in (-score, index) order keeps each class's own
    # greedy order, and the survivors come out already sorted.
    ious = iou(dets.boxes[:, None], dets.boxes[None]).tolist()
    kept: list[int] = []
    for i in rows:
        if all(ious[i][j] <= iou_threshold for j in kept if classes[j] == classes[i]):
            kept.append(i)
    return dets.take(kept)


def encode_boxes(boxes: np.ndarray, width: float, height: float) -> np.ndarray:
    """Encode (N, 4) corner boxes against the full-image anchor (0, 0, width,
    height): center displacement and size ratios, in image-size units."""
    aw, ah = float(width), float(height)
    if aw <= 0.0 or ah <= 0.0:
        raise ValueError(f"invalid anchor: degenerate image size {aw}x{ah}")
    x0, y0, x1, y1 = boxes.T
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    return np.stack([(cx - 0.5 * aw) / aw, (cy - 0.5 * ah) / ah, (x1 - x0) / aw, (y1 - y0) / ah], axis=1)
