"""Per-image acquisition scoring and budgeted selection.

An image is scored by three quantities: its uncertainty H (max detection
entropy), its inconsistency I (max symmetric KL divergence between matched
original/flipped class distributions), and the unified score A = H * I.

Every prediction passes through :func:`post_nms` once before anything takes
it: a flipped-view prediction is mapped back into the original frame, then
class-wise NMS keeps the survivors. Scoring only matches the two post-NMS
views and takes the maxima; raw detector outputs are never scored, since
pre-NMS boxes number in the hundreds and inflate the maxima by chance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .boxes import DEFAULT_NMS_IOU, DEFAULT_NMS_SCORE_FLOOR, ImagePrediction, hflip, nms
from .matching import DEFAULT_MIN_MATCH_IOU, match_predictions

__all__ = [
    "LOG_EPS",
    "sym_kl",
    "entropy",
    "image_inconsistency",
    "image_entropy",
    "AcquisitionConfig",
    "AcquisitionScore",
    "post_nms",
    "unified_score",
    "select_for_labeling",
    "SCORE_STRATEGIES",
]

# Clamp applied to probabilities before taking logs, so one-hot distributions
# keep KL and entropy finite.
LOG_EPS = 1e-12

SCORE_STRATEGIES = ("entropy", "inconsistency", "unified")


def _logs(probs: np.ndarray) -> np.ndarray:
    return np.log(np.clip(probs, LOG_EPS, 1.0))


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.dot(p, _logs(p) - _logs(q)))


def sym_kl(p, q) -> float:
    """Symmetric KL divergence (p || q + q || p) / 2, natural log, eps-clamped."""
    pa, qa = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if pa.shape != qa.shape:
        raise ValueError(f"distribution length mismatch: {pa.shape} vs {qa.shape}")
    return 0.5 * (_kl(pa, qa) + _kl(qa, pa))


def entropy(p) -> float:
    """Shannon entropy -sum(p log p), natural log, eps-clamped."""
    pa = np.asarray(p, dtype=np.float64)
    return float(-np.dot(pa, _logs(pa)))


def image_inconsistency(p, q) -> float:
    """Max symmetric KL between the rows of ``p`` and ``q``, which hold the two
    members of each matched pair row by row; 0 when there are no pairs.

    Each row's value is the same float as :func:`sym_kl` of the two rows:
    the logs are taken once per matrix, and each KL term is still one
    ``np.dot`` per row."""
    if len(p) != len(q):
        raise ValueError(f"pair count mismatch: {len(p)} vs {len(q)} distributions")
    if not len(p):
        return 0.0
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"distribution length mismatch: {p.shape[1:]} vs {q.shape[1:]}")
    d = _logs(p) - _logs(q)
    # -(log p - log q) is exactly log q - log p.
    return max(0.5 * (float(np.dot(a, dp)) + float(np.dot(b, dq))) for a, b, dp, dq in zip(p, q, d, -d))


def image_entropy(probs) -> float:
    """Max entropy over the rows of ``probs``; 0 when there are none. Each
    row's value is the same float as :func:`entropy` of that row."""
    if not len(probs):
        return 0.0
    probs = np.asarray(probs, dtype=np.float64)
    return max(float(-np.dot(p, lp)) for p, lp in zip(probs, _logs(probs)))


@dataclass(frozen=True)
class AcquisitionConfig:
    """Knobs of the scoring pipeline; defaults follow the detection conventions."""

    nms_iou: float = DEFAULT_NMS_IOU
    nms_score_floor: float = DEFAULT_NMS_SCORE_FLOOR
    min_match_iou: float = DEFAULT_MIN_MATCH_IOU


@dataclass(frozen=True)
class AcquisitionScore:
    """Per-image score triple; ``unified`` is exactly entropy * inconsistency."""

    image_id: str
    entropy: float
    inconsistency: float
    unified: float

    def __post_init__(self):
        if not (self.entropy >= 0 and self.inconsistency >= 0):  # NaN fails too
            raise ValueError("entropy and inconsistency must be non-negative numbers")
        if self.unified != self.entropy * self.inconsistency:
            raise ValueError(
                f"unified score must equal entropy * inconsistency exactly "
                f"({self.unified} != {self.entropy} * {self.inconsistency})"
            )

    @classmethod
    def from_parts(cls, image_id: str, entropy: float, inconsistency: float) -> "AcquisitionScore":
        return cls(image_id, entropy, inconsistency, entropy * inconsistency)

    def value(self, strategy: str) -> float:
        if strategy not in SCORE_STRATEGIES:
            raise ValueError(f"unknown score strategy {strategy!r}")
        return getattr(self, strategy)


def post_nms(pred: ImagePrediction, cfg: AcquisitionConfig, flipped: bool = False) -> ImagePrediction:
    """The prediction that matching, scoring, pseudo-labelling and evaluation take:
    a flipped-view prediction is mapped back into the original frame with
    :func:`hflip`, then class-wise NMS with ``cfg``'s thresholds keeps the
    survivors, sorted by descending score."""
    if flipped:
        pred = hflip(pred)
    return pred.with_detections(nms(pred.detections, cfg.nms_iou, cfg.nms_score_floor))


def unified_score(
    orig: ImagePrediction,
    unflipped: ImagePrediction,
    min_match_iou: float = DEFAULT_MIN_MATCH_IOU,
) -> AcquisitionScore:
    """Score one image from the :func:`post_nms` output of its two views.

    H is the max entropy over ``orig``'s detections and I the max symmetric
    KL over the pairs matched between ``orig`` and ``unflipped``, both over
    all K+1 categories. An image with no detections scores (0, 0, 0) and is
    therefore never selected by score-based strategies.
    """
    pairs = np.array(match_predictions(orig, unflipped, min_match_iou).pairs, dtype=np.intp).reshape(-1, 2)
    o, f = orig.detections.probs, unflipped.detections.probs
    return AcquisitionScore.from_parts(
        orig.image_id, image_entropy(o), image_inconsistency(o[pairs[:, 0]], f[pairs[:, 1]])
    )


def select_for_labeling(
    scores: Iterable[AcquisitionScore],
    budget_per_cycle: int,
    strategy: str,
    seed=None,
) -> list[str]:
    """Pick ``budget_per_cycle`` image ids for labeling.

    Score strategies take the top ids by the chosen field, descending, with
    ties broken by ascending image_id, so the result is stable under any
    permutation of the input. The random strategy is a seeded uniform draw
    without replacement.
    """
    table = list(scores)
    if budget_per_cycle < 0:
        raise ValueError(f"budget must be non-negative, got {budget_per_cycle}")
    if budget_per_cycle > len(table):
        raise ValueError(f"budget exceeds pool: {budget_per_cycle} > {len(table)}")

    if strategy == "random":
        if seed is None:
            raise ValueError("random strategy requires a seed")
        ids = sorted(s.image_id for s in table)
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(ids))
        return [ids[k] for k in order[:budget_per_cycle]]

    if strategy not in SCORE_STRATEGIES:
        raise ValueError(f"unknown selection strategy {strategy!r}")
    ranked = sorted(table, key=lambda s: (-s.value(strategy), s.image_id))
    return [s.image_id for s in ranked[:budget_per_cycle]]
