"""Detection training losses as verifiable scalar computations.

These are value computations only (no gradients): the classification MultiBox
loss over positive/negative box assignments, its pseudo-label-aware variant,
smooth-L1 localization, the flip-consistency losses, and their unweighted
total. Prediction indices covered by no assignment contribute nothing, which
is what keeps unlabeled image regions neutral.

Every loss reads rows: class distributions (N, K+1) and encoded boxes (N, 4)
as held by :class:`aldet.boxes.Detections`. The consistency losses take the
two members of each matched pair as two arrays aligned row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .acquisition import LOG_EPS, sym_kl

__all__ = [
    "GroundTruthAssignment",
    "multibox_conf_loss",
    "pl_multibox_conf_loss",
    "smooth_l1",
    "smooth_l1_loc_loss",
    "consistency_class_loss",
    "consistency_loc_loss",
    "total_loss",
]


@dataclass(frozen=True)
class GroundTruthAssignment:
    """Box-to-label assignment: positives (i, gt_j, class), background negatives,
    and pseudo-label positives (i, class). The three index sets are disjoint."""

    positives: tuple[tuple[int, int, int], ...] = ()
    negatives: tuple[int, ...] = ()
    pl_positives: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "positives", tuple(tuple(p) for p in self.positives))
        object.__setattr__(self, "negatives", tuple(self.negatives))
        object.__setattr__(self, "pl_positives", tuple(tuple(p) for p in self.pl_positives))
        pos_idx = [i for i, _, _ in self.positives]
        pl_idx = [i for i, _ in self.pl_positives]
        all_idx = pos_idx + list(self.negatives) + pl_idx
        if len(set(all_idx)) != len(all_idx):
            raise ValueError("assignment conflict: prediction index in more than one set")
        for _, _, p in self.positives:
            if p < 1:
                raise ValueError(f"positive class must be a foreground class, got {p}")
        for _, p in self.pl_positives:
            if p < 1:
                raise ValueError(f"pseudo-label class must be a foreground class, got {p}")


def _log_prob(probs, i: int, p: int) -> float:
    if i < 0 or i >= len(probs):
        raise ValueError(f"prediction index {i} out of range for {len(probs)} distributions")
    row = probs[i]
    if p < 0 or p >= len(row):
        raise ValueError(f"class index {p} out of range for {len(row)} categories")
    return math.log(max(float(row[p]), LOG_EPS))


def _conf_loss(probs, asg: GroundTruthAssignment) -> float:
    total = 0.0
    for i, _j, p in asg.positives:
        total -= _log_prob(probs, i, p)
    for i in asg.negatives:
        total -= _log_prob(probs, i, 0)
    for i, p in asg.pl_positives:
        total -= _log_prob(probs, i, p)
    return total


def multibox_conf_loss(probs, asg: GroundTruthAssignment) -> float:
    """MultiBox classification loss over labeled data:
    -sum_{i in Pos} log c_i^{p(i)} - sum_{i in Neg} log c_i^0."""
    if asg.pl_positives:
        raise ValueError("labeled-data multibox loss takes no pseudo-label positives")
    return _conf_loss(probs, asg)


def pl_multibox_conf_loss(probs, asg: GroundTruthAssignment) -> float:
    """MultiBox loss extended with the pseudo-label positive term.

    Reduces exactly to :func:`multibox_conf_loss` when ``pl_positives`` is
    empty (same code path).
    """
    return _conf_loss(probs, asg)


def smooth_l1(x: float) -> float:
    """0.5 x^2 for |x| < 1, else |x| - 0.5."""
    ax = abs(x)
    if ax < 1.0:
        return 0.5 * x * x
    return ax - 0.5


def smooth_l1_loc_loss(pred, target, positives: Sequence[int]) -> float:
    """Smooth-L1 over the four encoded coordinates of each positive box."""
    if len(pred) != len(target):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs {len(target)} targets")
    total = 0.0
    for i in positives:
        if i < 0 or i >= len(pred):
            raise ValueError(f"positive index {i} out of range for {len(pred)} boxes")
        for p, t in zip(pred[i], target[i]):
            total += smooth_l1(p - t)
    return total


def consistency_class_loss(orig, flipped) -> float:
    """Mean symmetric KL between the rows of the two distribution arrays; 0
    when there are no pairs."""
    if len(orig) != len(flipped):
        raise ValueError(f"length mismatch: {len(orig)} vs {len(flipped)} distributions")
    if not len(orig):
        return 0.0
    return sum(sym_kl(p, q) for p, q in zip(orig, flipped)) / len(orig)


def consistency_loc_loss(orig, flipped) -> float:
    """Mean localization consistency between the rows of two encoded-box arrays.

    Both members of each pair are in the original frame, as the matcher
    gives them: :func:`aldet.acquisition.post_nms` has already mapped the
    flipped view back with :func:`aldet.boxes.hflip`, which negates dx. So a
    flip-consistent pair is two equal rows, and
    (1/4) [ (dx' - dx_hat)^2 + (dy' - dy_hat)^2 + (w' - w_hat)^2 + (h' - h_hat)^2 ].
    """
    if len(orig) != len(flipped):
        raise ValueError(f"length mismatch: {len(orig)} vs {len(flipped)} encoded boxes")
    if not len(orig):
        return 0.0
    total = 0.0
    for (adx, ady, aw, ah), (bdx, bdy, bw, bh) in zip(orig, flipped):
        total += 0.25 * ((adx - bdx) ** 2 + (ady - bdy) ** 2 + (aw - bw) ** 2 + (ah - bh) ** 2)
    return total / len(orig)


def total_loss(conf: float, cons_class: float, cons_loc: float, loc_l1: float) -> float:
    """Unweighted total: confidence + (class + localization consistency) + smooth-L1."""
    return conf + (cons_class + cons_loc) + loc_l1
