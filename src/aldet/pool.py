"""Labeled/unlabeled pool management and the active-learning cycle loop.

A dataset is partitioned into a labeled set L and an unlabeled pool U. Each
cycle scores U, moves a budget of images into L, retrains the detector,
regenerates pseudo-labels over the remaining pool, and evaluates the new
detector on a held-out test set. Pseudo-labels are regenerated from scratch
by every detector version; they are never accumulated.

Every detector version does each job once: it predicts the original view of
each pool image once (pseudo-labelling keeps the post-NMS result, and the
next cycle scores from it), the flipped view of each scored image once, and
the test set once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .acquisition import (
    SCORE_STRATEGIES,
    AcquisitionConfig,
    AcquisitionScore,
    select_for_labeling,
    unified_score,
)
from .boxes import ImagePrediction, nms
from .dataset import Dataset
from .evaluation import INTERPOLATIONS, EvalResult, map50
from .pseudo_label import (
    PseudoLabel,
    audit_pl_correctness,
    extract_pseudo_labels,
    extract_topk_per_class,
)

__all__ = [
    "Pool",
    "init_pool",
    "commit_selection",
    "with_pseudo",
    "RunConfig",
    "CycleReport",
    "score_pool",
    "pseudo_label_pool",
    "run_cycles",
]

SELECTION_STRATEGIES = ("random",) + SCORE_STRATEGIES
PL_STRATEGIES = ("threshold", "topk")


@dataclass(frozen=True)
class Pool:
    """Partition of the dataset ids into labeled and unlabeled, plus the
    pseudo-labels currently attached to unlabeled images."""

    labeled: frozenset[str]
    unlabeled: frozenset[str]
    pseudo: Mapping[str, tuple[PseudoLabel, ...]] = field(default_factory=dict)
    cycle: int = 0

    def __post_init__(self):
        object.__setattr__(self, "labeled", frozenset(self.labeled))
        object.__setattr__(self, "unlabeled", frozenset(self.unlabeled))
        object.__setattr__(
            self, "pseudo", {k: tuple(v) for k, v in sorted(self.pseudo.items())}
        )
        if self.cycle < 0:
            raise ValueError("cycle must be non-negative")
        overlap = self.labeled & self.unlabeled
        if overlap:
            raise ValueError(f"labeled and unlabeled overlap: {sorted(overlap)[:5]}")
        stray = set(self.pseudo) - self.unlabeled
        if stray:
            raise ValueError(f"pseudo-labels attached to non-pool images: {sorted(stray)[:5]}")
        misfiled = sorted(k for k, v in self.pseudo.items() if any(pl.image_id != k for pl in v))
        if misfiled:
            raise ValueError(f"pseudo-labels filed under another image's id: {misfiled[:5]}")

    @property
    def all_ids(self) -> frozenset[str]:
        return self.labeled | self.unlabeled

    @property
    def n_pseudo_labels(self) -> int:
        return sum(len(v) for v in self.pseudo.values())


def init_pool(dataset_ids: Iterable[str], initial_budget: int, seed) -> Pool:
    """Seeded uniform initial labeling: ``initial_budget`` ids into L, rest into U."""
    ids = sorted(dataset_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate dataset ids")
    if not (0 <= initial_budget <= len(ids)):
        raise ValueError(f"initial budget {initial_budget} exceeds dataset size {len(ids)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    labeled = frozenset(ids[k] for k in order[:initial_budget])
    unlabeled = frozenset(ids) - labeled
    return Pool(labeled, unlabeled, {}, cycle=0)


def commit_selection(pool: Pool, selected: Sequence[str]) -> Pool:
    """Move the selected ids from U to L, drop their pseudo-labels, bump the cycle."""
    sel = set(selected)
    if len(sel) != len(list(selected)):
        raise ValueError("selection contains duplicate ids")
    bad = sel - pool.unlabeled
    if bad:
        raise ValueError(f"already labeled or unknown: {sorted(bad)[:5]}")
    pseudo = {k: v for k, v in pool.pseudo.items() if k not in sel}
    return Pool(pool.labeled | sel, pool.unlabeled - sel, pseudo, pool.cycle + 1)


def with_pseudo(pool: Pool, pseudo: Mapping[str, Sequence[PseudoLabel]]) -> Pool:
    """Replace the pool's pseudo-labels (regeneration, not accumulation)."""
    cleaned = {k: tuple(v) for k, v in pseudo.items() if v}
    return Pool(pool.labeled, pool.unlabeled, cleaned, pool.cycle)


@dataclass(frozen=True)
class RunConfig:
    """Protocol parameters for one active-learning experiment."""

    cycles: int
    budget_per_cycle: int
    strategy: str = "unified"
    tau: float = 0.99
    pl_enabled: bool = True
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    seed: int = 0
    interpolation: str = "eleven_point"
    pl_strategy: str = "threshold"
    pl_topk_fraction: float = 0.2

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError("need at least one cycle")
        if self.budget_per_cycle < 0:
            raise ValueError("budget_per_cycle must be non-negative")
        if self.strategy not in SELECTION_STRATEGIES:
            raise ValueError(f"strategy must be one of {SELECTION_STRATEGIES}, got {self.strategy!r}")
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if self.interpolation not in INTERPOLATIONS:
            raise ValueError(f"interpolation must be one of {INTERPOLATIONS}")
        if self.pl_strategy not in PL_STRATEGIES:
            raise ValueError(f"pl_strategy must be one of {PL_STRATEGIES}")
        if not (0.0 < self.pl_topk_fraction <= 1.0):
            raise ValueError("pl_topk_fraction must be in (0, 1]")


@dataclass(frozen=True)
class CycleReport:
    """Everything recorded about one cycle of the protocol."""

    cycle: int
    selected: tuple[str, ...]
    scores: tuple[AcquisitionScore, ...]
    n_labeled: int
    pl_count: int
    pl_ratio: float
    pl_correctness: float
    evaluation: EvalResult
    pseudo_labels: tuple[PseudoLabel, ...] = ()


def score_pool(
    originals: Iterable[ImagePrediction],
    flipped: Callable[[str], ImagePrediction],
    cfg: AcquisitionConfig,
) -> list[AcquisitionScore]:
    """Acquisition scores of the given original-view predictions, in input order.

    ``flipped(image_id)`` supplies each image's flipped-view prediction.
    ``originals`` may be raw or already post-NMS: NMS is idempotent and keeps
    its order, so both give the same scores. Passing a generator streams the
    pool instead of holding every prediction at once.
    """
    return [unified_score(orig, flipped(orig.image_id), cfg) for orig in originals]


def pseudo_label_pool(
    originals: Iterable[ImagePrediction],
    acq: AcquisitionConfig,
    strategy: str,
    tau: float,
    topk_fraction: float,
) -> tuple[list[ImagePrediction], dict[str, tuple[PseudoLabel, ...]]]:
    """NMS every raw original-view prediction, then pseudo-label them.

    ``strategy`` is ``threshold`` (every detection with p >= tau) or ``topk``
    (the most confident ``topk_fraction`` of each class across all images).
    Returns the post-NMS predictions, in input order, and the pseudo-labels
    grouped by image; images without pseudo-labels are absent.
    """
    preds = [
        pred.with_detections(nms(pred.detections, acq.nms_iou, acq.nms_score_floor))
        for pred in originals
    ]
    if strategy == "threshold":
        labels = [pl for pred in preds for pl in extract_pseudo_labels(pred, tau)]
    else:
        labels = extract_topk_per_class(preds, topk_fraction)

    grouped: dict[str, list[PseudoLabel]] = {}
    for pl in labels:
        grouped.setdefault(pl.image_id, []).append(pl)
    return preds, {k: tuple(v) for k, v in grouped.items()}


def _evaluate(detector, test_data: Dataset, cfg: RunConfig) -> EvalResult:
    dets = []
    for img in test_data.images:
        pred = detector.predict(img.image_id, flipped=False)
        for det in nms(pred.detections, cfg.acquisition.nms_iou, cfg.acquisition.nms_score_floor):
            dets.append((det, img.image_id))
    return map50(
        dets,
        test_data.all_objects(),
        interpolation=cfg.interpolation,
        class_ids=range(1, test_data.n_classes + 1),
    )


def run_cycles(
    pool: Pool,
    detector,
    cfg: RunConfig,
    train_data: Dataset,
    test_data: Dataset,
) -> list[CycleReport]:
    """Run the full protocol: cycle 0 trains on the initial labeled set only,
    cycles 1..T score, select, commit, retrain, re-pseudo-label, evaluate.

    Each cycle ends with one detector version, which then
    - predicts the original view of every pool image once: pseudo-labelling
      keeps the post-NMS predictions and the next cycle scores from them
      (with pseudo-labels off, the pool's pseudo-labels are dropped before
      cycle 0, and the next cycle streams the originals instead);
    - predicts the flipped view of every image it scores once;
    - is evaluated on the test set once, ``cycles + 1`` evaluations in all.

    Fully deterministic given the pool seed, the detector's seed, and the
    config; repeated runs produce identical reports.
    """
    if pool.all_ids != frozenset(train_data.image_ids):
        raise ValueError("pool ids do not match the training dataset")
    if not cfg.pl_enabled:
        pool = with_pseudo(pool, {})

    train_gt = train_data.all_objects()
    reports: list[CycleReport] = []
    selected: list[str] = []
    scores: list[AcquisitionScore] = []
    originals: Iterable[ImagePrediction] = ()

    for t in range(cfg.cycles + 1):
        if t > 0:
            scores = score_pool(
                originals, lambda i: detector.predict(i, flipped=True), cfg.acquisition
            )
            originals = ()  # released before the next version predicts its own
            selected = select_for_labeling(
                scores, cfg.budget_per_cycle, cfg.strategy, seed=(cfg.seed, t)
            )
            pool = commit_selection(pool, selected)
        detector = detector.update(pool)
        # Lazy: pseudo-labelling consumes it now, or else the next cycle's scoring.
        originals = (detector.predict(i, flipped=False) for i in sorted(pool.unlabeled))
        if cfg.pl_enabled:
            originals, pseudo = pseudo_label_pool(
                originals, cfg.acquisition, cfg.pl_strategy, cfg.tau, cfg.pl_topk_fraction
            )
            pool = with_pseudo(pool, pseudo)

        n_pl = pool.n_pseudo_labels
        n_manual = sum(len(train_data[i].objects) for i in pool.labeled)
        denom = n_pl + n_manual
        pls = [pl for v in pool.pseudo.values() for pl in v]
        reports.append(
            CycleReport(
                cycle=t,
                selected=tuple(selected),
                scores=tuple(scores),
                n_labeled=len(pool.labeled),
                pl_count=n_pl,
                pl_ratio=n_pl / denom if denom else 0.0,
                pl_correctness=audit_pl_correctness(pls, train_gt),
                evaluation=_evaluate(detector, test_data, cfg),
                pseudo_labels=tuple(pls),
            )
        )

    return reports
