"""Labeled/unlabeled pool management and the active-learning cycle loop.

A dataset is partitioned into a labeled set L and an unlabeled pool U. Each
cycle moves a budget of images from U into L, chosen by the scores the
previous detector version gave U, retrains the detector, evaluates the new
detector on a held-out test set, and regenerates pseudo-labels over the
remaining pool while scoring it for the next cycle. Pseudo-labels are
regenerated from scratch by every detector version; they are never
accumulated. The pool's pseudo-labels are one
:class:`~aldet.pseudo_label.PseudoLabels` set, a row per label with its image
id, and its scores one :class:`~aldet.acquisition.AcquisitionScores` set, a
row per image, like the chunks every other stage passes.

Every detector version does each job once. It predicts the test set once,
and then makes one pass over the sorted pool: it predicts the original view of
a chunk of pool images, then the flipped view of the same chunk, scores the
chunk for the next cycle's selection and hands it on to pseudo-labelling, then
drops it and goes on to the next chunk. Each prediction goes through
:func:`aldet.acquisition.post_nms` once, where it is made; scoring,
pseudo-labelling and evaluation take its output.

The detector predicts chunks of :data:`aldet.acquisition.CHUNK_IMAGES`
images (:class:`~aldet.boxes.PredictionChunk`), one call per chunk and view;
each chunk passes through NMS whole, and scoring, pseudo-labelling and
evaluation take those chunks as they are: each chunk costs a fixed number of
numpy calls, where a pass per image paid numpy's per-call overhead on a
handful of boxes for every image. No stage holds the pool's predictions
whole: the loop holds one chunk of them at a time.

:func:`run_cycles` yields each cycle's report as the cycle ends, so a caller
that writes each report and lets it go holds one cycle's results at a time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

import numpy as np

from .acquisition import (
    NON_NEGATIVE,
    SCORE_STRATEGIES,
    AcquisitionConfig,
    AcquisitionScores,
    check_fields,
    one_of,
    post_nms,
    post_nms_stream,
    select_for_labeling,
    unified_score,
)
from .boxes import Detections, PredictionChunk, check_frame
from .dataset import Dataset
from .evaluation import EvalResult, map50
from .pseudo_label import (
    PseudoLabels,
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
    "evaluate",
    "run_cycles",
]

SELECTION_STRATEGIES = ("random",) + SCORE_STRATEGIES
PL_STRATEGIES = ("threshold", "topk")


@dataclass(frozen=True)
class Pool:
    """Partition of the dataset ids into labeled and unlabeled, plus the
    pseudo-labels currently attached to unlabeled images: one set holding
    every such image's labels, its rows stably sorted by image id, the order
    in which the pool file lists them."""

    labeled: frozenset[str]
    unlabeled: frozenset[str]
    pseudo: PseudoLabels = field(default_factory=PseudoLabels)
    cycle: int = 0

    def __post_init__(self):
        object.__setattr__(self, "labeled", frozenset(self.labeled))
        object.__setattr__(self, "unlabeled", frozenset(self.unlabeled))
        if self.cycle < 0:
            raise ValueError("cycle must be non-negative")
        overlap = self.labeled & self.unlabeled
        if overlap:
            raise ValueError(f"labeled and unlabeled overlap: {sorted(overlap)[:5]}")
        stray = set(self.pseudo.image_ids.tolist()) - self.unlabeled
        if stray:
            raise ValueError(f"pseudo-labels attached to non-pool images: {sorted(stray)[:5]}")
        ids = self.pseudo.image_ids
        # The loop's pools are in id order already; they keep their set, uncopied.
        if (ids[1:] < ids[:-1]).any():
            object.__setattr__(self, "pseudo", self.pseudo.take(np.argsort(ids, kind="stable")))

    @property
    def all_ids(self) -> frozenset[str]:
        return self.labeled | self.unlabeled


def init_pool(dataset_ids: Iterable[str], initial_budget: int, seed) -> Pool:
    """Seeded uniform initial labeling: ``initial_budget`` ids into L, rest into U."""
    ids = sorted(dataset_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate dataset ids")
    if initial_budget < 0:
        raise ValueError(f"initial budget must be non-negative, got {initial_budget}")
    if initial_budget > len(ids):
        raise ValueError(f"initial budget {initial_budget} exceeds dataset size {len(ids)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    labeled = frozenset(ids[k] for k in order[:initial_budget])
    unlabeled = frozenset(ids) - labeled
    return Pool(labeled, unlabeled, cycle=0)


def commit_selection(pool: Pool, selected: Sequence[str]) -> Pool:
    """Move the selected ids from U to L, drop their pseudo-labels, bump the cycle."""
    sel = set(selected)
    if len(sel) != len(list(selected)):
        raise ValueError("selection contains duplicate ids")
    bad = sel - pool.unlabeled
    if bad:
        raise ValueError(f"already labeled or unknown: {sorted(bad)[:5]}")
    # Not np.isin, which imports numpy.ma and so raises every run's peak memory.
    pseudo = pool.pseudo.take([r for r, i in enumerate(pool.pseudo.image_ids.tolist()) if i not in sel])
    return Pool(pool.labeled | sel, pool.unlabeled - sel, pseudo, pool.cycle + 1)


def with_pseudo(pool: Pool, pseudo: PseudoLabels) -> Pool:
    """Replace the pool's pseudo-labels (regeneration, not accumulation)."""
    return Pool(pool.labeled, pool.unlabeled, pseudo, pool.cycle)


@dataclass(frozen=True)
class RunConfig:
    """Protocol parameters for one active-learning experiment.

    cycles: acquisition cycles after cycle 0, at least one.
    budget_per_cycle: images moved from U to L per cycle, non-negative.
    strategy: one of :data:`SELECTION_STRATEGIES`.
    tau: pseudo-label confidence threshold (p >= tau), in (0, 1).
    pl_enabled: whether pseudo-labels are generated at all.
    seed: seed of the random strategy's draws.
    pl_strategy: ``threshold`` (p >= tau) or ``topk`` (the most confident
        ``pl_topk_fraction`` of each class, in (0, 1]).

    Each field's default and range check are written here only (``CHECKS``);
    the ``aldet`` command line takes both from here.
    """

    cycles: int
    budget_per_cycle: int
    strategy: str = "unified"
    tau: float = 0.99
    pl_enabled: bool = True
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    seed: int = 0
    pl_strategy: str = "threshold"
    pl_topk_fraction: float = 0.2

    CHECKS: ClassVar[dict] = {
        "cycles": (lambda v: v >= 1, "need at least one cycle"),
        "budget_per_cycle": NON_NEGATIVE,
        "strategy": one_of(SELECTION_STRATEGIES),
        "tau": (lambda v: 0.0 < v < 1.0, "must be in (0, 1)"),
        "pl_strategy": one_of(PL_STRATEGIES),
        "pl_topk_fraction": (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
    }

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class CycleReport:
    """Everything recorded about one cycle of the protocol, as
    :func:`run_cycles` yields it. ``scores``, the set the cycle selected by
    (empty in cycle 0), and ``pseudo_labels`` are as large as the pool."""

    cycle: int
    selected: tuple[str, ...]
    scores: AcquisitionScores
    n_labeled: int
    pl_count: int
    pl_ratio: float
    pl_correctness: float
    evaluation: EvalResult
    pseudo_labels: PseudoLabels = field(default_factory=PseudoLabels)


def score_pool(
    originals: Iterable[PredictionChunk],
    predict: Callable[..., PredictionChunk],
    cfg: AcquisitionConfig,
) -> AcquisitionScores:
    """Acquisition scores of the images of the given post-NMS original-view
    chunks, in input order, as one set.

    ``predict(chunk.image_ids, flipped=True)`` supplies the chunk of each
    original chunk's flipped views as the chunk source emits it (a
    detector's ``predict``, or :meth:`aldet.formats.PredictionViews.chunk`),
    in the flipped frame; :func:`post_nms` maps it back here. A source that
    answers with a chunk not in the flipped frame is refused, naming the
    chunk's first image. Passing a generator streams the pool instead of
    holding every chunk at once.
    """
    scores = []
    for chunk in originals:
        view = predict(chunk.image_ids, flipped=True)
        check_frame(view, flipped=True)
        scores.append(unified_score(chunk, post_nms(view, cfg), cfg.min_match_iou))
    return AcquisitionScores.concat(scores)


def pseudo_label_pool(
    originals: Iterable[PredictionChunk],
    strategy: str,
    tau: float,
    topk_fraction: float,
) -> PseudoLabels:
    """Pseudo-labels of the given post-NMS original-view chunks, image by
    image in input order. The chunks are read once, in order, and none is
    kept, so a generator streams them.

    ``strategy`` is ``threshold`` (every detection with p >= tau) or ``topk``
    (the most confident ``topk_fraction`` of each class across all images).
    """
    if strategy == "threshold":
        return extract_pseudo_labels(originals, tau)
    if strategy == "topk":
        return extract_topk_per_class(originals, topk_fraction)
    raise ValueError(f"pseudo-label strategy must be one of {PL_STRATEGIES}, got {strategy!r}")


def evaluate(chunks: Iterable[PredictionChunk], data: Dataset) -> EvalResult:
    """VOC07 mAP@0.5 (:func:`aldet.evaluation.map50`) of the detections as
    given, in input order, against ``data``; a chunk in the flipped frame is
    refused."""
    chunks = list(chunks)
    for chunk in chunks:
        check_frame(chunk)
    image_ids = [c.image_ids[k] for c in chunks for k in c.detections.image.tolist()]
    return map50(Detections.concat(c.detections for c in chunks), image_ids, data)


def _scored_chunks(
    originals: Iterable[PredictionChunk], detector, cfg: AcquisitionConfig, scores: list[AcquisitionScores]
) -> Iterator[PredictionChunk]:
    """Each of the post-NMS original-view ``originals``, after appending the
    set of its images' :func:`score_pool` scores to ``scores``: the detector
    predicts a chunk's flipped view right after its original view."""
    for chunk in originals:
        scores.append(score_pool((chunk,), detector.predict, cfg))
        yield chunk


def run_cycles(
    pool: Pool,
    detector,
    cfg: RunConfig,
    train_data: Dataset,
    test_data: Dataset,
) -> Iterator[CycleReport]:
    """Run the full protocol, yielding each cycle's report as the cycle ends:
    cycle 0 trains on the initial labeled set only, cycles 1..T select,
    commit, retrain, re-pseudo-label, evaluate. A cycle runs only when its
    report is asked for; ``list(run_cycles(...))`` runs them all. A pool
    whose ids are not the training dataset's, or with fewer unlabeled images
    than ``cycles * budget_per_cycle``, raises ValueError at the first
    ``next()``, before the detector predicts anything.

    Each cycle ends with one detector version. It is evaluated on the test
    set once, ``cycles + 1`` evaluations in all, and then makes one pass
    over the sorted pool, a chunk of ``CHUNK_IMAGES`` images at a time: it
    predicts the chunk's original view and then its flipped view, scores the
    chunk for the next cycle's selection, and hands it on to
    pseudo-labelling (with pseudo-labels off, the pool's pseudo-labels are
    dropped before cycle 0 and the pass only scores). The version of the
    last cycle scores nothing, and with pseudo-labels off it predicts no
    pool image. Nothing is held whole: the pass keeps one chunk of the
    pool's predictions at a time, and the next cycle selects from the one
    set of scores carried over, made from the chunks' sets when the pass
    ends.

    Fully deterministic given the pool seed, the detector's seed, and the
    config; repeated runs produce identical reports.
    """
    if pool.all_ids != frozenset(train_data.image_ids):
        raise ValueError("pool ids do not match the training dataset")
    if cfg.cycles * cfg.budget_per_cycle > len(pool.unlabeled):
        raise ValueError(f"budget exceeds pool: {cfg.cycles} cycles of {cfg.budget_per_cycle} images > "
                         f"{len(pool.unlabeled)} unlabeled images")
    if not cfg.pl_enabled:
        pool = with_pseudo(pool, PseudoLabels())

    scores = AcquisitionScores()
    for t in range(cfg.cycles + 1):
        selected = []
        if t > 0:
            selected = select_for_labeling(
                scores, cfg.budget_per_cycle, cfg.strategy, seed=(cfg.seed, t)
            )
            pool = commit_selection(pool, selected)
        detector = detector.update(pool)
        # Before the pass, so the test set's chunks and the scores the pass builds are never held together.
        evaluation = evaluate(post_nms_stream(detector.predict, test_data.image_ids, cfg.acquisition), test_data)
        next_scores = []  # the next cycle's scores: a set per chunk until the pass ends
        originals = post_nms_stream(detector.predict, sorted(pool.unlabeled), cfg.acquisition)
        if t < cfg.cycles:
            originals = _scored_chunks(originals, detector, cfg.acquisition, next_scores)
        if cfg.pl_enabled:
            pool = with_pseudo(pool, pseudo_label_pool(originals, cfg.pl_strategy, cfg.tau, cfg.pl_topk_fraction))
        elif t < cfg.cycles:
            deque(originals, maxlen=0)  # consumed without keeping a chunk
        next_scores = AcquisitionScores.concat(next_scores)  # the chunks' sets go with the list

        n_pl = len(pool.pseudo)
        n_manual = int(train_data.counts[train_data.positions(pool.labeled)].sum())
        denom = n_pl + n_manual
        yield CycleReport(
            cycle=t,
            selected=tuple(selected),
            scores=scores,
            n_labeled=len(pool.labeled),
            pl_count=n_pl,
            pl_ratio=n_pl / denom if denom else 0.0,
            pl_correctness=audit_pl_correctness(pool.pseudo, train_data),
            evaluation=evaluation,
            pseudo_labels=pool.pseudo,
        )
        scores = next_scores
