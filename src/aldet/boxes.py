"""Geometric and probabilistic detection primitives.

Boxes are half-open real rectangles: area = (xmax - xmin) * (ymax - ymin),
with no +1 pixel convention. Class distributions span K+1 categories where
index 0 is background and 1..K are foreground classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "BoxCorner",
    "BoxEncoded",
    "ClassDist",
    "Detection",
    "ImagePrediction",
    "iou",
    "hflip",
    "nms",
    "encode_box",
    "decode_box",
    "image_anchor",
    "DEFAULT_NMS_IOU",
    "DEFAULT_NMS_SCORE_FLOOR",
]

# SSD community defaults; the acquisition method itself does not pin these.
DEFAULT_NMS_IOU = 0.45
DEFAULT_NMS_SCORE_FLOOR = 0.01

# Normalization slack for class distributions.
DIST_SUM_TOL = 1e-6


@dataclass(frozen=True)
class BoxCorner:
    """Axis-aligned box in absolute pixel coordinates."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        vals = (self.xmin, self.ymin, self.xmax, self.ymax)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"box coordinates must be finite, got {vals}")
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(f"inverted box: {vals}")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    def clamp(self, width: float, height: float) -> "BoxCorner":
        """Clip the box to the image rectangle [0, width] x [0, height]."""
        return BoxCorner(
            min(max(self.xmin, 0.0), width),
            min(max(self.ymin, 0.0), height),
            min(max(self.xmax, 0.0), width),
            min(max(self.ymax, 0.0), height),
        )

    def inside(self, width: float, height: float) -> bool:
        return 0.0 <= self.xmin and 0.0 <= self.ymin and self.xmax <= width and self.ymax <= height

    def as_list(self) -> list[float]:
        return [self.xmin, self.ymin, self.xmax, self.ymax]


@dataclass(frozen=True)
class BoxEncoded:
    """Offset-encoded box: center displacement (dx, dy) and scale coefficients (w, h).

    dx/dy are the center offset relative to an anchor, in anchor-size units;
    w/h are size ratios against the anchor, so the neutral element is
    (0, 0, 1, 1). A horizontal flip negates dx and leaves the rest unchanged.
    """

    dx: float
    dy: float
    w: float
    h: float

    def __post_init__(self):
        vals = (self.dx, self.dy, self.w, self.h)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"encoded box must be finite, got {vals}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"encoded scale coefficients must be positive, got w={self.w}, h={self.h}")

    def as_list(self) -> list[float]:
        return [self.dx, self.dy, self.w, self.h]


class ClassDist:
    """Probability distribution over K+1 categories (index 0 = background)."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"class distribution needs >= 2 categories, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("class distribution has non-finite entries")
        if arr.min() < -1e-9 or arr.max() > 1.0 + 1e-9:
            raise ValueError(f"probabilities outside [0, 1]: min={arr.min()}, max={arr.max()}")
        total = arr.sum()
        if abs(total - 1.0) > DIST_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1 within {DIST_SUM_TOL}")
        arr = np.clip(arr, 0.0, 1.0)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("ClassDist is immutable")

    def __len__(self) -> int:
        return self.probs.size

    def __eq__(self, other) -> bool:
        return isinstance(other, ClassDist) and np.array_equal(self.probs, other.probs)

    def __repr__(self) -> str:
        return f"ClassDist({np.array2string(self.probs, precision=4)})"

    @property
    def argmax_class(self) -> int:
        """Most probable category (0 = background)."""
        return int(np.argmax(self.probs))

    @property
    def max_prob(self) -> float:
        return float(self.probs[self.argmax_class])


@dataclass(frozen=True)
class Detection:
    """One predicted object: corner box, encoded box, class distribution."""

    box_corner: BoxCorner
    box_encoded: BoxEncoded
    dist: ClassDist

    @property
    def class_id(self) -> int:
        return self.dist.argmax_class

    @property
    def score(self) -> float:
        return self.dist.max_prob


@dataclass(frozen=True)
class ImagePrediction:
    """The set of detections for one image (or for its flipped version)."""

    image_id: str
    width: int
    height: int
    detections: tuple[Detection, ...]

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")
        dets = tuple(self.detections)
        # Corner boxes are clamped to the image rectangle; encoded boxes are the
        # detector's raw output and are left untouched.
        clamped = []
        for d in dets:
            if d.box_corner.inside(self.width, self.height):
                clamped.append(d)
            else:
                clamped.append(
                    Detection(d.box_corner.clamp(self.width, self.height), d.box_encoded, d.dist)
                )
        object.__setattr__(self, "detections", tuple(clamped))

    def with_detections(self, detections: Sequence[Detection]) -> "ImagePrediction":
        return ImagePrediction(self.image_id, self.width, self.height, tuple(detections))


def iou(a: BoxCorner, b: BoxCorner) -> float:
    """Intersection over union of two corner boxes; 0 when the union is empty."""
    ix = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    iy = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if ix <= 0.0 or iy <= 0.0:
        inter = 0.0
    else:
        inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def hflip(p: ImagePrediction) -> ImagePrediction:
    """Mirror a prediction about the vertical axis of its image.

    Corner boxes map as xmin' = width - xmax, xmax' = width - xmin; the center
    displacement dx of the encoded form is negated; class distributions are
    unchanged. Applying hflip twice returns the original prediction.
    """
    w = float(p.width)
    flipped = []
    for d in p.detections:
        b = d.box_corner
        e = d.box_encoded
        flipped.append(
            Detection(
                BoxCorner(w - b.xmax, b.ymin, w - b.xmin, b.ymax),
                BoxEncoded(-e.dx, e.dy, e.w, e.h),
                d.dist,
            )
        )
    return ImagePrediction(p.image_id, p.width, p.height, tuple(flipped))


def nms(
    dets: Sequence[Detection],
    iou_threshold: float = DEFAULT_NMS_IOU,
    score_floor: float = DEFAULT_NMS_SCORE_FLOOR,
) -> list[Detection]:
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

    by_class: dict[int, list[int]] = {}
    for idx, d in enumerate(dets):
        cls = d.class_id
        if cls == 0 or d.score < score_floor:
            continue
        by_class.setdefault(cls, []).append(idx)

    kept: list[int] = []
    for cls in sorted(by_class):
        order = sorted(by_class[cls], key=lambda i: (-dets[i].score, i))
        cls_kept: list[int] = []
        for i in order:
            if all(iou(dets[i].box_corner, dets[j].box_corner) <= iou_threshold for j in cls_kept):
                cls_kept.append(i)
        kept.extend(cls_kept)

    kept.sort(key=lambda i: (-dets[i].score, i))
    return [dets[i] for i in kept]


def image_anchor(width: float, height: float) -> BoxCorner:
    """The full-image box, the canonical anchor used by the simulator."""
    return BoxCorner(0.0, 0.0, float(width), float(height))


def encode_box(b: BoxCorner, anchor: BoxCorner) -> BoxEncoded:
    """Encode a corner box as center displacement + size ratios against an anchor."""
    aw, ah = anchor.width, anchor.height
    if aw <= 0.0 or ah <= 0.0:
        raise ValueError(f"invalid anchor: degenerate size {aw}x{ah}")
    acx, acy = anchor.center
    bcx, bcy = b.center
    return BoxEncoded((bcx - acx) / aw, (bcy - acy) / ah, b.width / aw, b.height / ah)


def decode_box(e: BoxEncoded, anchor: BoxCorner) -> BoxCorner:
    """Inverse of :func:`encode_box`; exact up to float rounding."""
    aw, ah = anchor.width, anchor.height
    if aw <= 0.0 or ah <= 0.0:
        raise ValueError(f"invalid anchor: degenerate size {aw}x{ah}")
    acx, acy = anchor.center
    cx = acx + e.dx * aw
    cy = acy + e.dy * ah
    w = e.w * aw
    h = e.h * ah
    return BoxCorner(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)
