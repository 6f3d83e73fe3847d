"""Per-image acquisition scoring and budgeted selection.

An image is scored by three quantities: its uncertainty H (max detection
entropy), its inconsistency I (max symmetric KL divergence between matched
original/flipped class distributions), and the unified score A = H * I. The
scores of any number of images are one :class:`AcquisitionScores` set, a row
per image, and :func:`select_for_labeling` ranks one of its columns with one
sort.

Every prediction passes through :func:`post_nms` once before anything takes
it: a chunk in the flipped frame (its ``flipped`` field, set by the view
that made it) is mapped back into the original frame, then class-wise NMS
keeps the survivors. Scoring only matches the two post-NMS views and takes
the maxima, and refuses a chunk still in the flipped frame; raw detector
outputs are never scored, since pre-NMS boxes number in the hundreds and
inflate the maxima by chance.

Predictions are handled in chunks of ``CHUNK_IMAGES`` images. A chunk
(:class:`~aldet.boxes.PredictionChunk`) holds the rows of all its images as
one set, so the detector, :func:`post_nms`,
:func:`~aldet.matching.match_predictions` and :func:`unified_score` make a
fixed number of numpy calls per chunk: at a handful of boxes per image,
numpy's per-call overhead, not the arithmetic, is what a per-image pass pays
for. Every score is the same float as the image alone would get.
:func:`post_nms_stream` asks a chunk source (a detector's ``predict``, or a
lookup of file records) for each chunk of ids and passes each chunk on
whole to scoring, pseudo-labelling and evaluation, so at most a chunk of
each view is held, never the whole pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, ClassVar, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .boxes import (
    DEFAULT_NMS_IOU,
    DEFAULT_NMS_SCORE_FLOOR,
    FrozenRows,
    PredictionChunk,
    check_frame,
    hflip,
    nms,
)
from .dataset import image_id_column
from .matching import DEFAULT_MIN_MATCH_IOU, match_predictions

__all__ = [
    "LOG_EPS",
    "AcquisitionConfig",
    "AcquisitionScores",
    "CHUNK_IMAGES",
    "chunked",
    "post_nms",
    "post_nms_stream",
    "unified_score",
    "select_for_labeling",
    "SCORE_STRATEGIES",
]

# Clamp applied to probabilities before taking logs, so one-hot distributions
# keep KL and entropy finite.
LOG_EPS = 1e-12

SCORE_STRATEGIES = ("entropy", "inconsistency", "unified")

# Images per chunk. Each stage of the pool pass (the detector's array pass,
# post_nms, NMS, matching and scoring) costs a fixed number of numpy calls
# per chunk. The whole sim-scan command (2,500 training images, fp_rate 4)
# took a median of 0.39, 0.32 and 0.29 s in chunks of 32, 64 and 128, with
# the same output bytes, while its own peak RSS (VmHWM) grew 41.4, 41.5 and
# 42.3 MB (20 alternating runs each on a shared 2-core x86-64 host, Python
# 3.11, numpy 2.4). Chunks of 512 moved the benchmark's sim-scan wall_s from
# 0.186/0.184/0.184 to 0.178/0.178/0.175 s but its peak_rss_mb from 42.9 to
# 47.6 MB, 11% more, past the benchmark's 10% bound (three runs each, same
# host).
CHUNK_IMAGES = 128

T = TypeVar("T")

# A config class's range checks are its ``CHECKS``: field name -> (predicate
# on the field's value, message when it fails), run by check_fields. Every
# predicate is written so that NaN fails it. The command line applies the
# same predicates to its keys (:class:`aldet.cli.ExperimentConfig`), so a
# setting is checked in one place.
NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
UNIT_INTERVAL = (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")


def one_of(options: tuple) -> tuple[Callable[[object], bool], str]:
    return (lambda v: v in options, f"must be one of {options}")


def check_fields(cfg) -> None:
    """Raise one ValueError naming every field of the config ``cfg`` that
    fails its check in ``cfg.CHECKS``, as ``name: message, got value``."""
    bad = [f"{name}: {message}, got {getattr(cfg, name)!r}"
           for name, (ok, message) in cfg.CHECKS.items() if not ok(getattr(cfg, name))]
    if bad:
        raise ValueError("; ".join(bad))


def _logs(probs: np.ndarray) -> np.ndarray:
    return np.log(np.clip(probs, LOG_EPS, 1.0))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each pair of rows, by one stacked ``matmul``: numpy
    computes each vector-vector product with the loop ``np.dot`` uses, so
    each value is the same float as ``np.dot`` of the two rows (``np.vecdot``
    and ``np.einsum`` sum in another order)."""
    return (a[:, None, :] @ b[:, :, None]).reshape(len(a))


def _entropies(probs: np.ndarray) -> np.ndarray:
    """The Shannon entropy -sum(p log p) of each row p, natural log with
    probabilities clamped to [LOG_EPS, 1], the logs taken once per matrix."""
    return -_row_dots(probs, _logs(probs))


def _sym_kls(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The symmetric KL divergence (KL(p || q) + KL(q || p)) / 2 of each
    pair of rows, where KL(p || q) = sum(p (log p - log q)), natural log with
    probabilities clamped to [LOG_EPS, 1]. The logs are taken once per
    matrix."""
    if not len(p):  # without pairs the two widths may differ
        return np.zeros(0)
    d = _logs(p) - _logs(q)
    # -(log p - log q) is exactly log q - log p.
    return 0.5 * (_row_dots(p, d) + _row_dots(q, -d))


def _max_per_image(values: np.ndarray, image: np.ndarray, n_images: int) -> np.ndarray:
    """The max of each image's values, 0 for an image without any; ``image``
    gives each value's image and is non-decreasing."""
    counts = np.bincount(image, minlength=n_images)
    out, held = np.zeros(n_images), counts > 0
    if held.any():
        out[held] = np.maximum.reduceat(values, (np.cumsum(counts) - counts)[held])
    return out


@dataclass(frozen=True)
class AcquisitionConfig:
    """Knobs of the scoring pipeline; defaults follow the detection conventions.

    nms_iou: the IoU above which NMS suppresses a same-class box, in (0, 1].
    nms_score_floor: the score below which NMS drops a box, in [0, 1).
    min_match_iou: the IoU an original/flipped pair needs to be matched,
        in [0, 1].

    Each field's default and range check are written here only (``CHECKS``);
    the ``aldet`` command line takes both from here.
    """

    nms_iou: float = DEFAULT_NMS_IOU
    nms_score_floor: float = DEFAULT_NMS_SCORE_FLOOR
    min_match_iou: float = DEFAULT_MIN_MATCH_IOU

    CHECKS: ClassVar[dict] = {
        "nms_iou": (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
        "nms_score_floor": (lambda v: 0.0 <= v < 1.0, "must be in [0, 1)"),
        "min_match_iou": UNIT_INTERVAL,
    }

    def __post_init__(self):
        check_fields(self)


class AcquisitionScores(FrozenRows):
    """The acquisition scores of any number of images, one row per image,
    held as read-only arrays: the ``image_ids`` (N,) of a numpy string
    column and the float64 uncertainty ``entropy`` H, ``inconsistency`` I
    and ``unified`` score A = H * I (N,). ``AcquisitionScores()`` is the
    empty set.

    The constructor computes ``unified`` itself, so A = H * I holds exactly
    in every set, and validates the rest: each image id must pass
    :func:`~aldet.dataset.checked_image_id`, and H and I must be
    non-negative and finite. Derived sets (row selection, concatenation) are
    not validated again.
    """

    __slots__ = ("image_ids", "entropy", "inconsistency", "unified")

    def __init__(self, image_ids=(), entropy=(), inconsistency=()):
        image_ids = image_id_column(image_ids)
        h, i = np.array(entropy, dtype=np.float64), np.array(inconsistency, dtype=np.float64)
        if not len(image_ids) == len(h) == len(i):
            raise ValueError(f"row counts differ: {len(image_ids)}, {len(h)}, {len(i)}")
        if not ((h >= 0.0) & (h < np.inf) & (i >= 0.0) & (i < np.inf)).all():  # NaN fails too
            raise ValueError("entropy and inconsistency must be non-negative finite numbers")
        with np.errstate(over="ignore"):  # inf on overflow, silently, as for Python floats
            self._init(image_ids, h, i, h * i)


def post_nms(chunk: PredictionChunk, cfg: AcquisitionConfig) -> PredictionChunk:
    """The chunk that matching, scoring, pseudo-labelling and evaluation take,
    in the original frame: a chunk in the flipped frame is mapped back with
    :func:`hflip`, then class-wise NMS with ``cfg``'s thresholds keeps the
    survivors of each image, sorted by descending score."""
    if chunk.flipped:
        chunk = hflip(chunk)
    return chunk.with_detections(nms(chunk.detections, cfg.nms_iou, cfg.nms_score_floor))


def chunked(items: Iterable[T], size: int = CHUNK_IMAGES) -> Iterator[list[T]]:
    """``items`` in consecutive lists of ``size``; the last may be shorter."""
    it = iter(items)
    while group := list(islice(it, size)):
        yield group


def post_nms_stream(
    predict: Callable[[Sequence[str]], PredictionChunk], image_ids: Iterable[str], cfg: AcquisitionConfig
) -> Iterator[PredictionChunk]:
    """:func:`post_nms` of the original-view chunks ``predict(ids)`` of
    ``image_ids`` in consecutive runs of ``CHUNK_IMAGES``, in input order;
    lazy, so at most one chunk of predictions is held. A chunk the source
    gives in the flipped frame is refused, naming its first image, where
    :func:`post_nms` would mirror it."""
    for group in chunked(image_ids):
        chunk = predict(group)
        check_frame(chunk)
        yield post_nms(chunk, cfg)


def unified_score(
    orig: PredictionChunk, unflipped: PredictionChunk, min_match_iou: float = DEFAULT_MIN_MATCH_IOU
) -> AcquisitionScores:
    """The scores of the images of a chunk, in chunk order, from the
    :func:`post_nms` output of its two views, both in the original frame
    (:func:`~aldet.matching.match_predictions` refuses a flipped one).

    H is the max entropy over an image's ``orig`` detections and I the max
    symmetric KL over the pairs matched between its ``orig`` and
    ``unflipped`` detections, both over all K+1 categories. An image with no
    detections scores (0, 0, 0) and is therefore never selected by
    score-based strategies. The chunk's logs are taken once, and each row's
    entropy and each pair's KL is one dot product by ``np.dot``'s loop, so
    every score is the same float as for the image alone.
    """
    pairs = np.array(match_predictions(orig, unflipped, min_match_iou).pairs, dtype=np.intp).reshape(-1, 2)
    o, f = orig.detections.probs, unflipped.detections.probs
    n, image = len(orig.image_ids), orig.detections.image
    h = _max_per_image(_entropies(o), image, n)
    i = _max_per_image(_sym_kls(o[pairs[:, 0]], f[pairs[:, 1]]), image[pairs[:, 0]], n)
    return AcquisitionScores(orig.image_ids, h, i)


def select_for_labeling(
    scores: AcquisitionScores,
    budget_per_cycle: int,
    strategy: str,
    seed=None,
) -> list[str]:
    """Pick ``budget_per_cycle`` image ids for labeling.

    Score strategies take the top ids by the chosen column, descending, with
    ties broken by ascending image id, so the result is stable under any
    permutation of the rows. The random strategy is a seeded uniform draw
    without replacement from the ids in ascending order.
    """
    if budget_per_cycle < 0:
        raise ValueError(f"budget must be non-negative, got {budget_per_cycle}")
    if budget_per_cycle > len(scores):
        raise ValueError(f"budget exceeds pool: {budget_per_cycle} > {len(scores)}")

    if strategy == "random":
        if seed is None:
            raise ValueError("random strategy requires a seed")
        order = np.random.default_rng(seed).permutation(len(scores))
        return np.sort(scores.image_ids)[order[:budget_per_cycle]].tolist()

    if strategy not in SCORE_STRATEGIES:
        raise ValueError(f"unknown selection strategy {strategy!r}")
    order = np.lexsort((scores.image_ids, -getattr(scores, strategy)))
    return scores.image_ids[order[:budget_per_cycle]].tolist()
