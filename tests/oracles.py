"""The scalar corner-box IoU that the broadcasting ``aldet.boxes.iou``
replaced, kept as the oracle the tests compare against."""

from typing import NamedTuple


class Box(NamedTuple):
    """Axis-aligned corner box (xmin, ymin, xmax, ymax) in pixels."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    @property
    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)


def scalar_iou(a, b) -> float:
    """Intersection over union of two corner boxes given as 4 numbers each;
    0 when the union is empty."""
    a, b = Box(*a), Box(*b)
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
