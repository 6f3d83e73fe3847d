"""Per-image acquisition scoring and budgeted selection.

An image is scored by three quantities: its uncertainty H (max detection
entropy), its inconsistency I (max symmetric KL divergence between matched
original/flipped class distributions), and the unified score A = H * I.
The scoring pipeline is NMS -> un-flip -> NMS -> match -> aggregate; raw
detector outputs should never be scored directly since pre-NMS boxes number
in the hundreds and inflate the maxima by chance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .boxes import (
    DEFAULT_NMS_IOU,
    DEFAULT_NMS_SCORE_FLOOR,
    ClassDist,
    Detection,
    ImagePrediction,
    hflip,
    nms,
)
from .matching import DEFAULT_MIN_MATCH_IOU, MatchedPair, match_predictions

__all__ = [
    "LOG_EPS",
    "sym_kl",
    "entropy",
    "image_inconsistency",
    "image_entropy",
    "AcquisitionConfig",
    "AcquisitionScore",
    "unified_score",
    "select_for_labeling",
    "SCORE_STRATEGIES",
]

# Clamp applied to probabilities before taking logs, so one-hot distributions
# keep KL and entropy finite.
LOG_EPS = 1e-12

SCORE_STRATEGIES = ("entropy", "inconsistency", "unified")


def _as_probs(p) -> np.ndarray:
    if isinstance(p, ClassDist):
        return p.probs
    return np.asarray(p, dtype=np.float64)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    logs = np.log(np.clip(p, LOG_EPS, 1.0)) - np.log(np.clip(q, LOG_EPS, 1.0))
    return float(np.dot(p, logs))


def sym_kl(p, q) -> float:
    """Symmetric KL divergence (p || q + q || p) / 2, natural log, eps-clamped."""
    pa, qa = _as_probs(p), _as_probs(q)
    if pa.shape != qa.shape:
        raise ValueError(f"distribution length mismatch: {pa.shape} vs {qa.shape}")
    return 0.5 * (_kl(pa, qa) + _kl(qa, pa))


def entropy(p) -> float:
    """Shannon entropy -sum(p log p), natural log, eps-clamped."""
    pa = _as_probs(p)
    return float(-np.dot(pa, np.log(np.clip(pa, LOG_EPS, 1.0))))


def image_inconsistency(pairs: Sequence[MatchedPair]) -> float:
    """Max symmetric KL over matched pairs; 0 for an empty pair list."""
    if not pairs:
        return 0.0
    return max(sym_kl(p.original.dist, p.flipped.dist) for p in pairs)


def image_entropy(dets: Sequence[Detection]) -> float:
    """Max per-detection entropy; 0 for an empty detection list."""
    if not dets:
        return 0.0
    return max(entropy(d.dist) for d in dets)


@dataclass(frozen=True)
class AcquisitionConfig:
    """Knobs of the scoring pipeline; defaults follow the detection conventions."""

    nms_iou: float = DEFAULT_NMS_IOU
    nms_score_floor: float = DEFAULT_NMS_SCORE_FLOOR
    min_match_iou: float = DEFAULT_MIN_MATCH_IOU
    # Entropy/KL run over the full (K+1)-category softmax by default; set
    # False to drop the background category and renormalize.
    include_background: bool = True


@dataclass(frozen=True)
class AcquisitionScore:
    """Per-image score triple; ``unified`` is exactly entropy * inconsistency."""

    image_id: str
    entropy: float
    inconsistency: float
    unified: float

    def __post_init__(self):
        if self.entropy < 0 or self.inconsistency < 0:
            raise ValueError("entropy and inconsistency must be non-negative")
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


def _strip_background(dist: ClassDist) -> np.ndarray:
    fg = dist.probs[1:]
    total = fg.sum()
    if total <= 0.0:
        return np.full(fg.size, 1.0 / fg.size)
    return fg / total


def unified_score(
    orig: ImagePrediction,
    flipped: ImagePrediction,
    cfg: AcquisitionConfig = AcquisitionConfig(),
) -> AcquisitionScore:
    """Score one image from its original and flipped predictions.

    ``flipped`` is the raw prediction in the flipped frame as the detector
    emits it; it is mapped back into the original frame internally. NMS runs
    on both sides before matching; ``orig`` may already be post-NMS, since
    NMS is idempotent. An image with no surviving detections scores
    (0, 0, 0) and is therefore never selected by score-based strategies.
    """
    orig_dets = nms(orig.detections, cfg.nms_iou, cfg.nms_score_floor)
    unflipped = hflip(flipped)
    flip_dets = nms(unflipped.detections, cfg.nms_iou, cfg.nms_score_floor)

    result = match_predictions(
        orig.with_detections(orig_dets),
        unflipped.with_detections(flip_dets),
        cfg.min_match_iou,
    )

    if cfg.include_background:
        h = image_entropy(orig_dets)
        inc = image_inconsistency(result.pairs)
    else:
        h = max((entropy(_strip_background(d.dist)) for d in orig_dets), default=0.0)
        inc = max(
            (
                sym_kl(_strip_background(p.original.dist), _strip_background(p.flipped.dist))
                for p in result.pairs
            ),
            default=0.0,
        )

    return AcquisitionScore.from_parts(orig.image_id, h, inc)


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
