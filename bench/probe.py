"""Host-speed probe: a fixed kernel whose time tracks how fast this host runs
``aldet``-like Python right now.

The development host is shared, and its speed changes by up to 1.8x in
phases that last minutes, which no statistic inside a 35 s run can remove.
The kernel mixes what ``aldet`` spends its time on (JSON decoding, frozen
dataclasses with validation, small numpy reductions, IoU loops in Python,
tuple sorts) and never touches ``aldet`` itself, so a change to the program
cannot change the probe. It runs in a fresh interpreter of its own: in the
operation's process it would also time the program's leftover heap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class _Box:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x0, self.y0, self.x1, self.y1)):
            raise ValueError("non-finite box")


def _iou(a: _Box, b: _Box) -> float:
    ix = min(a.x1, b.x1) - max(a.x0, b.x0)
    iy = min(a.y1, b.y1) - max(a.y0, b.y0)
    inter = ix * iy if ix > 0.0 and iy > 0.0 else 0.0
    union = (a.x1 - a.x0) * (a.y1 - a.y0) + (b.x1 - b.x0) * (b.y1 - b.y0) - inter
    return inter / union if union > 0.0 else 0.0


def kernel(n: int = 12000) -> float:
    rng = np.random.default_rng(0)
    corners = rng.uniform(0.0, 200.0, (n, 2))
    probs = rng.dirichlet(np.ones(21), n)
    lines = [json.dumps({"bbox": [*corners[i], *(corners[i] + 40.0)], "probs": probs[i].tolist()})
             for i in range(64)]
    boxes, scored = [], []
    for i in range(n):
        rec = json.loads(lines[i % 64])
        p = np.asarray(rec["probs"])
        h = float(-np.dot(p, np.log(np.clip(p, 1e-12, 1.0))))
        x0, y0 = float(corners[i, 0]), float(corners[i, 1])
        boxes.append(_Box(x0, y0, x0 + 40.0, y0 + 40.0))
        scored.append((-h, int(np.argmax(p)), i))
    scored.sort()
    total = 0.0
    for i in range(0, n, 3):
        for j in range(i + 1, min(n, i + 30)):
            total += _iou(boxes[i], boxes[j])
    return total


def probe() -> float:
    """Seconds the kernel takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
