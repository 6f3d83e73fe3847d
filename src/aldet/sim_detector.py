"""Detector contract plus a seeded synthetic detector.

The synthetic detector turns ground-truth annotations into realistic-looking
predictions: jittered boxes, temperature-controlled confidences, seeded class
confusions, and a per-class flip-robustness knob that decides whether the
flipped image's distributions are reused or resampled. Ground truth is only
visible inside this module; everything downstream sees only the chunks of
images (PredictionChunk) it returns.

Every image draws from two Philox streams, one per view, whose keys the
detector computes once for every dataset image when it is built and keeps as
two columns by dataset position. A detector predicts a chunk of images per
call, in two steps. The draw loop goes over the chunk's positions, puts the
detector's one generator at the start of each image's stream and makes its
draws in the fixed order (see :class:`SyntheticDetector`), keeping only the
raw draws, with two generator calls per detection: one ``random_raw`` for
every raw 64-bit Philox word between two normal draws, and one
``standard_normal`` for the normals that follow. The array pass then reads
each draw at its fixed position in the chunk's words and normals and turns
them into its rows with a fixed number of numpy calls: it takes the bounded
integers from the words by numpy's own algorithm, scales the normals and
maps the words to uniforms as numpy's ``integers``, ``normal`` and
``random`` would, and computes the jittered boxes with their ``_MIN_BOX``
repair, the false-positive boxes, the peaks, the flip reuse, one softmax,
one box and one distribution check, and one clamp of every row to its image.
A chunk in which a bounded integer would be rejected, which moves the words
after it, is drawn again one value per call. Each value is the float that
arithmetic on one detection gives: every expression keeps its order of
operations, Python's two-argument ``min`` and ``max`` become ``np.where`` on
the same comparison (:func:`_min`, :func:`_max`), and the fused multiply-add
caveat is on :func:`_false_positive_boxes`. So a row does not depend on the
other rows of its chunk. The chunk's ground truth is gathered from the
dataset's columns with one index.

The flipped view takes the original view's logits from the last
original-view call instead of drawing them again when that call held the
image. :func:`aldet.pool.run_cycles` predicts each pool chunk's flipped view
right after the chunk's original view, so there every flipped image reuses
them; a flipped call of images the last original-view call did not hold
draws their original view again, through the same draw loop and array pass.

Low per-class accuracy combined with a low temperature produces confidently
wrong predictions: low entropy but, under low flip robustness, high
inconsistency. That is the regime in which uncertainty-only acquisition fails
and the robustness signal matters.
"""

from __future__ import annotations

import copy
import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Mapping, NamedTuple, Sequence

import numpy as np

from .acquisition import NON_NEGATIVE, UNIT_INTERVAL, check_fields
from .boxes import ChunkDetections, PredictionChunk, clamp_to_images, span_pairs
from .dataset import Dataset

if TYPE_CHECKING:
    from .pool import Pool

__all__ = [
    "DetectorInterface",
    "SyntheticDetectorConfig",
    "SyntheticDetector",
]

_MIN_BOX = 1.0  # floor on predicted box side length, keeps encodings valid
_FP_SIDE = _MIN_BOX * 10  # floor on a false positive's side
_MASK32 = 0xFFFFFFFF


class DetectorInterface(ABC):
    """What the active-learning loop needs from a detector.

    ``predict(image_ids, flipped)`` returns one :class:`PredictionChunk` of
    the given images, in the given order, with every box clamped to its
    image and in the frame of the view, and the chunk's ``flipped`` equal to
    the request: ``flipped=True`` gives the flipped images' detections in
    the flipped coordinate frame, in a chunk whose ``flipped`` is True
    (:func:`aldet.pool.score_pool` refuses a flipped view that says
    otherwise). Each image's detections must be deterministic given
    (detector state, image_id, flipped), whatever chunk the image is
    predicted in. ``update`` consumes a pool snapshot and returns the
    detector state after retraining, leaving the old state unchanged.

    :func:`aldet.pool.run_cycles` relies on this determinism: it predicts
    each view of each image once per detector state, in one pass over the
    pool that asks for a chunk's flipped view right after the same chunk's
    original view, and hands the original view to both pseudo-labelling and
    the next cycle's scoring. A detector may reuse work between the two
    views of a chunk in that order, as the synthetic one does, but must
    predict the same in any other order.
    """

    @abstractmethod
    def predict(self, image_ids: Sequence[str], flipped: bool = False) -> PredictionChunk: ...

    @abstractmethod
    def update(self, pool: "Pool") -> "DetectorInterface": ...


def _per_class(value, n_classes: int, name: str) -> np.ndarray:
    """Broadcast a scalar or {class_id: value} mapping to an array indexed 1..K."""
    arr = np.zeros(n_classes + 1)
    if isinstance(value, Mapping):
        if set(value) != set(range(1, n_classes + 1)):
            raise ValueError(f"{name} mapping must cover classes 1..{n_classes} exactly")
        for k, v in value.items():
            arr[k] = float(v)
    else:
        arr[1:] = float(value)
    return arr


# The check of a scalar or of every value of a per-class mapping; NaN fails it.
_UNIT_VALUES = (lambda v: all(0.0 <= x <= 1.0 for x in (v.values() if isinstance(v, Mapping) else (v,))),
                "values must lie in [0, 1]")


@dataclass(frozen=True)
class SyntheticDetectorConfig:
    """Generative knobs of the synthetic detector.

    accuracy: probability that a ground-truth object's predicted distribution
        peaks on the true class (scalar or per-class mapping).
    flip_robustness: probability that the flipped image reuses the original
        distribution instead of resampling it.
    temperature: softmax temperature; low values give confident peaks.
    skill_gain_per_labeled: accuracy added per newly labeled image containing
        a class; flip robustness rises by the same amount.
    skill_gain_per_pseudo: accuracy added per pseudo-labeled image of a class
        at each update (pseudo-labels are regenerated every cycle).
    logit_noise: standard deviation of the Gaussian noise on every logit.
    box_noise: standard deviation of a box edge's jitter, as a fraction of
        the box's side.
    fp_rate: mean number of false positives per image (Poisson).
    accuracy_ceiling, robustness_ceiling: caps on the per-class accuracy and
        flip robustness after the skill gains, in [0, 1].
    seed: seed of every draw.

    Each field's default and range check are written here only (``CHECKS``);
    the ``aldet`` command line takes both from here. The number of classes K
    is the dataset's: :class:`SyntheticDetector` checks that a per-class
    ``accuracy`` or ``flip_robustness`` mapping covers its dataset's 1..K.
    """

    accuracy: float | Mapping[int, float] = 0.8
    flip_robustness: float | Mapping[int, float] = 0.9
    temperature: float = 0.15
    logit_noise: float = 0.1
    box_noise: float = 0.05
    fp_rate: float = 0.0
    skill_gain_per_labeled: float = 0.0
    skill_gain_per_pseudo: float = 0.0
    accuracy_ceiling: float = 0.97
    robustness_ceiling: float = 0.99
    seed: int = 0

    CHECKS: ClassVar[dict] = {
        "accuracy": _UNIT_VALUES,
        "flip_robustness": _UNIT_VALUES,
        "temperature": (lambda v: v > 0, "must be positive"),
        **dict.fromkeys(("logit_noise", "box_noise", "fp_rate", "skill_gain_per_labeled",
                         "skill_gain_per_pseudo"), NON_NEGATIVE),
        "accuracy_ceiling": UNIT_INTERVAL,
        "robustness_ceiling": UNIT_INTERVAL,
    }

    def __post_init__(self):
        check_fields(self)


def _mix64(*values: int) -> int:
    """Stable 64-bit mix (splitmix64 finalizer chain) for stream keys."""
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = (h + (v & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        h = h ^ (h >> 31)
    return h


def _id_key(image_id: str) -> int:
    digest = hashlib.blake2b(image_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _reset(bits: np.random.Philox, k1: int, k2: int) -> None:
    """Put ``bits`` at the start of stream ``[k1, k2]``: counter 0, empty
    buffers, the state a new ``Philox(key=[k1, k2])`` starts in."""
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (k1, k2)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


class _Draws(NamedTuple):
    """The draws of one view of a chunk, as arrays: per ground-truth object
    in chunk order its four standard box normals (``noise``) and, in the
    flipped view, the raw word whose uniform decides the reuse; per false
    positive the raw words of its four box uniforms and its class integer
    in ``[0, K)``; and per row in chunk order the raw word of its peak
    uniform, its confusion integer and the K+1 standard normals of its
    logits. The array pass scales the normals and maps the words to
    uniforms (:func:`_uniforms`)."""

    noise: np.ndarray
    reuse_words: np.ndarray
    fp_words: np.ndarray
    fp_classes: np.ndarray
    peak_words: np.ndarray
    confusions: np.ndarray
    logits: np.ndarray


class _Layout(NamedTuple):
    """Where the rows of one view of a chunk lie, image by image: the
    image's objects, then its ``n_fp`` false positives."""

    n_fp: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    gt_image: np.ndarray
    gt_rows: np.ndarray
    fp_image: np.ndarray
    fp_rows: np.ndarray


def _layout(counts: np.ndarray, n_fp: np.ndarray) -> _Layout:
    """The layout of a chunk whose images hold ``counts`` objects and ``n_fp``
    false positives."""
    sizes = counts + n_fp
    starts = np.cumsum(sizes) - sizes
    return _Layout(n_fp, sizes, starts, *span_pairs(starts, counts), *span_pairs(starts + counts, n_fp))


def _bounded_integers(words: np.ndarray, high, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(0, n)``, for ``2 <= n < 2**32``, of each 32-bit
    draw: the high half of its raw 64-bit word in ``words`` where ``high``,
    else the low half. This is numpy's own algorithm (Lemire, "Fast random
    integer generation in an interval", 2019): a draw ``x`` gives
    ``(x * n) >> 32`` unless ``(x * n) mod 2**32`` falls below
    ``(2**32 - n) % n``; then numpy rejects it and tries its next draw.
    Returns the values and which draws are rejected."""
    m = np.where(high, words >> 32, words & _MASK32) * n
    return (m >> 32).astype(np.intp), (m & _MASK32) < (2**32 - n) % n


def _normal(z: np.ndarray, scale: float) -> np.ndarray:
    """What ``rng.normal(0.0, scale)`` makes of each standard normal ``z``:
    numpy's own ``loc + scale * z``, so each is the same float, on the
    rounding that :func:`_false_positive_boxes` relies on. The ``0.0 +``
    turns the -0.0 of a zero scale times a negative ``z`` into 0.0."""
    return 0.0 + scale * z


def _uniforms(words) -> np.ndarray:
    """The uniform in [0, 1) that ``Generator.random()`` makes of each raw
    64-bit Philox word: its top 53 bits times 2**-53, as numpy's
    ``next_double`` computes it, so each is the same float."""
    return (np.asarray(words, dtype=np.uint64) >> 11) * (1.0 / 9007199254740992.0)


# Python's two-argument min and max, elementwise: ``a`` unless ``b`` is less
# (greater). On a tie they keep ``a``, so max(0.0, -0.0) is 0.0, where
# np.maximum(0.0, -0.0) is -0.0; the writers print the two apart.
def _min(a, b):
    return np.where(b < a, b, a)


def _max(a, b):
    return np.where(b > a, b, a)


def _jittered(gt: np.ndarray, noise: np.ndarray, s: float, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Each ground-truth box of ``gt`` (n, 4) with its edges moved by
    ``noise`` times ``s`` times its side, put in corner order, cut to its
    image (``w`` by ``h``) and widened to ``_MIN_BOX`` inside the image where
    it is thinner."""
    xmin, ymin, xmax, ymax = gt.T
    bw, bh = xmax - xmin, ymax - ymin
    x0 = xmin + noise[:, 0] * s * bw
    y0 = ymin + noise[:, 1] * s * bh
    x1 = xmax + noise[:, 2] * s * bw
    y1 = ymax + noise[:, 3] * s * bh
    x0, x1 = _min(x0, x1), _max(x0, x1)
    y0, y1 = _min(y0, y1), _max(y0, y1)
    x0, x1 = _max(0.0, x0), _min(w, x1)
    y0, y1 = _max(0.0, y0), _min(h, y1)
    thin = x1 - x0 < _MIN_BOX
    x0 = np.where(thin, _max(0.0, _min(x0, w - _MIN_BOX)), x0)
    x1 = np.where(thin, x0 + _MIN_BOX, x1)
    thin = y1 - y0 < _MIN_BOX
    y0 = np.where(thin, _max(0.0, _min(y0, h - _MIN_BOX)), y0)
    y1 = np.where(thin, y0 + _MIN_BOX, y1)
    return np.stack([x0, y0, x1, y1], axis=1)


def _false_positive_boxes(u: np.ndarray, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The box of each false positive from its four uniforms ``u`` (n, 4):
    sides uniform in [_FP_SIDE, half the image's side], then a corner that
    keeps the box inside its image (``w`` by ``h``). Each value is what
    ``rng.uniform(low, high)`` would give, ``low + (high - low) * u`` written
    out: equal to the bit as long as numpy rounds the product and the sum
    separately (no fused multiply-add), as its x86-64 builds do;
    test_predict_equals_fresh_generator_oracle checks it. :func:`_normal`
    rests on the same rounding."""
    bw = _FP_SIDE + (0.5 * w - _FP_SIDE) * u[:, 0]
    bh = _FP_SIDE + (0.5 * h - _FP_SIDE) * u[:, 1]
    x0 = 0.0 + (w - bw - 0.0) * u[:, 2]
    y0 = 0.0 + (h - bh - 0.0) * u[:, 3]
    return np.stack([x0, y0, x0 + bw, y0 + bh], axis=1)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an (n, K+1) logit matrix; each row is the same
    float as the softmax of that row alone."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class SyntheticDetector(DetectorInterface):
    """Deterministic prediction generator over a dataset's annotations.

    K, the number of foreground classes, is the dataset's: a per-class
    ``accuracy`` or ``flip_robustness`` mapping of the config must cover
    1..K exactly, or the constructor raises ValueError.

    Every random draw of a prediction comes from a Philox stream keyed by
    ``[k1, k2]``, with ``k1 = _mix64(seed, version)`` and
    ``k2 = _mix64(blake2b-64(image_id), tag)``; tag 0 is the original view
    and tag 1 the flipped one. Each image's draws come in a fixed order,
    whatever their outcome:

    - stream 0, per ground-truth object: four box normals, then the
      distribution (a uniform for the peak, a confusion integer in
      ``[0, max(K-1, 1))``, K+1 logit normals); then a Poisson false-positive
      count and, per false positive, four uniforms for the box, a class
      integer in ``[0, K)`` and a distribution;
    - stream 1, per ground-truth object: four box normals of the mirrored
      box, a uniform that decides whether the original distribution is
      reused, and a resampled distribution, drawn even when it is not used;
      then the false positives as on stream 0.

    The flipped view takes the original view's ground-truth logits from
    stream 0. So an image's prediction is a function of (seed, version,
    image_id, flipped) alone, whatever chunk it is predicted in.

    The detector computes ``k2`` of both tags for every image of its dataset
    when it is built and keeps them as two columns by dataset position; each
    version sets its own ``k1``. It builds one generator, puts it at the
    start of an image's stream (:func:`_reset`) before drawing it, and so
    draws what a fresh generator would, without building one per image.
    :meth:`update`'s versions share the key columns and the generator.

    :meth:`_draw_loop` makes an image's draws in two generator calls per
    detection. The normals are one ``standard_normal`` call per object that
    takes its K+1 logit normals together with the next object's 4 box
    normals, so only the image's first 4 and its last object's K+1 are drawn
    alone, and one call of K+1 per false positive. Every raw word between
    two normal draws is one ``random_raw`` call: a uniform is one word, as
    ``random()`` takes it, and a bounded integer takes 32 bits, as numpy's
    ``integers(0, n)`` does: an even draw of the image (counting the draws
    with ``n`` > 1 only) the low half of a fresh word, an odd draw the high
    half of the word the previous draw took; ``n`` = 1 draws nothing, which
    is the confusion integer when K <= 2 and the class when K = 1. So an
    object's words are its reuse word (flipped view only), its peak word
    and, on an even confusion draw, a fresh word. A false positive's are its
    4 box words, then its class's fresh word and its peak word when its
    class draw is even, or its peak word and its confusion's fresh word when
    odd: 6 words when K >= 3, 6 or 5 when K = 2 and 5 when K = 1.

    :meth:`_parse` reads every draw at its fixed position in the chunk's
    words and normals and takes the bounded integers from their words with
    one numpy pass (:func:`_bounded_integers`). Numpy rejects a draw ``x``
    with ``(x * n) mod 2**32 < (2**32 - n) % n`` and tries the next, which
    moves every later word of the image, about 1.4e-9 per confusion draw at
    K = 20; if any draw of the chunk would be rejected, the chunk is drawn
    again one value per call, the integers by the generator's own
    ``integers`` (:meth:`_draw_one_by_one`). :meth:`_view` computes a
    chunk's rows from the draws in one array pass, which also scales the
    normals and maps the words to uniforms (:func:`_uniforms`).

    The ground-truth logits of the most recent original-view call are kept,
    so a flipped call of the same images reuses them instead of drawing
    stream 0 again; any other flipped call draws those images' original view
    again (:meth:`_original_logits`) and keeps the last call's.
    ``run_cycles`` makes only the first kind, since it predicts each chunk's
    two views back to back, and so never draws an original view twice. That
    keeps one chunk's logits, O(images in the call x objects), never a
    pool's. The generator is shared by a detector and every version made
    from it, and that call's logits by the calls of one version, so none of
    them is safe to call from several threads at once.
    """

    def __init__(self, config: SyntheticDetectorConfig, dataset: Dataset):
        self._config = config
        self._dataset = dataset
        k = self._k = dataset.n_classes
        self._accuracy = _per_class(config.accuracy, k, "accuracy")
        self._robustness = _per_class(config.flip_robustness, k, "flip_robustness")
        self._seen_labeled: frozenset[str] = frozenset()
        # k2 of every image's streams by dataset position: row 0 tag 0's,
        # row 1 tag 1's.
        id_keys = [_id_key(image_id) for image_id in dataset.image_ids]
        self._k2 = np.array([[_mix64(key, tag) for key in id_keys] for tag in (0, 1)], dtype=np.uint64)
        # Seeded only to skip the OS entropy an unseeded one reads: every
        # draw loop resets it to an image's stream first.
        self._rng = np.random.Generator(np.random.Philox(0))
        self._n_confusions = max(k - 1, 1)
        # The raw words of a draw loop block, at an even and an odd count of
        # the image's bounded-integer draws so far: an object's in the
        # original and in the flipped view, and a false positive's (see
        # _parse).
        self._gt_words = ((1 + (k >= 3), 1), (2 + (k >= 3), 2))
        self._fp_words = (5 + (k >= 2), 5 + (k >= 3))
        self._inv_temperature = 1.0 / config.temperature
        self._set_version(0)

    def _set_version(self, version: int) -> None:
        """Start version ``version`` with the current per-class skill: its
        streams' ``k1`` and no original view yet."""
        self._version = version
        self._k1 = _mix64(self._config.seed, version)
        # The ground-truth logits of the last original-view call, object by
        # object, and each of its dataset positions -> the row of its first
        # object.
        self._last_original: tuple[dict[int, int], np.ndarray] = ({}, np.empty((0, self._k + 1)))

    # -- introspection used by tests and reports ---------------------------

    @property
    def config(self) -> SyntheticDetectorConfig:
        return self._config

    @property
    def version(self) -> int:
        return self._version

    def class_accuracy(self, class_id: int) -> float:
        return float(self._accuracy[class_id])

    def class_robustness(self, class_id: int) -> float:
        return float(self._robustness[class_id])

    # -- prediction ---------------------------------------------------------

    def _draw_loop(self, pos: np.ndarray, counts: Sequence[int], flipped: bool) -> tuple[list, list, list]:
        """One view of the images at dataset positions ``pos``, each holding
        ``counts[i]`` objects, drawn in the fixed draw order (see
        :class:`SyntheticDetector`) with two generator calls per detection:
        one ``random_raw`` for every word between two normal draws and one
        ``standard_normal`` for the normals that follow. Returns each image's
        false-positive count and the raw words and standard normals in draw
        order, as :meth:`_parse` reads them; the block sizes assume that no
        bounded integer is rejected."""
        k1, k5, fp_rate = self._k + 1, self._k + 5, self._config.fp_rate
        gt_words, fp_words = self._gt_words[flipped], self._fp_words
        words, normals, fp_counts = [], [], []
        add_words, add_normals = words.append, normals.append
        rng, version_key = self._rng, self._k1
        bits = rng.bit_generator
        raw, standard_normal, poisson = bits.random_raw, rng.standard_normal, rng.poisson
        for key, n_objects in zip(self._k2[int(flipped), pos].tolist(), counts):
            _reset(bits, version_key, key)
            if n_objects:
                # An object's logit normals and the next object's box normals in one call.
                add_normals(standard_normal(4))
                for j in range(n_objects - 1):
                    add_words(raw(gt_words[j & 1]))
                    add_normals(standard_normal(k5))
                add_words(raw(gt_words[(n_objects - 1) & 1]))
                add_normals(standard_normal(k1))
            n = int(poisson(fp_rate)) if fp_rate > 0.0 else 0
            fp_counts.append(n)
            # The image's integer draws so far have f's parity when K = 2;
            # otherwise a false positive's words do not depend on it.
            for f in range(n):
                add_words(raw(fp_words[f & 1]))
                add_normals(standard_normal(k1))
        return fp_counts, words, normals

    def _parse(self, counts: np.ndarray, rows: _Layout, words: list, normals: list, flipped: bool) -> _Draws | None:
        """The draws of :meth:`_draw_loop`'s words and normals, each read at
        its fixed position; None if a bounded integer among them would be
        rejected, which moves every later word of its image."""
        k, g = self._k, int(flipped)
        gt_rows, fp_rows = rows.gt_rows, rows.fp_rows
        n_rows = len(gt_rows) + len(fp_rows)
        w = np.concatenate(words) if words else np.empty(0, dtype=np.uint64)
        z = np.concatenate(normals) if normals else np.empty(0)

        # Normals: an object's 4 box normals and K+1 logit normals, a false
        # positive's K+1 logit normals; each row's block ends with its logits.
        n_normals = np.full(n_rows, k + 1)
        n_normals[gt_rows] = k + 5
        ends = np.cumsum(n_normals)
        logits = z[ends[:, None] + np.arange(-k - 1, 0)]
        noise = z[ends[gt_rows, None] + np.arange(-k - 5, -k - 1)]

        # Parities of the image's bounded-integer draws so far: an object's
        # index in its image (K >= 3, one confusion draw each), and before a
        # false positive the image's object count (K >= 3, two draws per
        # false positive) or its index among the false positives (K = 2, one
        # class draw each). K = 1 draws no integer.
        odd = (gt_rows - rows.starts[rows.gt_image]) & 1 if k >= 3 else 0
        if k >= 3:
            q = counts[rows.fp_image] & 1
        elif k == 2:
            q = (fp_rows - (rows.starts + counts)[rows.fp_image]) & 1
        else:
            q = 0
        gt_words, fp_words = self._gt_words[flipped], self._fp_words
        n_words = np.empty(n_rows, dtype=np.intp)
        n_words[gt_rows] = gt_words[0] - odd
        n_words[fp_rows] = fp_words[0] - (fp_words[0] - fp_words[1]) * q
        first_word = np.cumsum(n_words) - n_words
        s_gt, s_fp = first_word[gt_rows], first_word[fp_rows]

        # An object's words: [reuse,] peak[, fresh integer word on an even
        # draw]. A false positive's: 4 box words, then the fresh word of its
        # class draw before the peak on an even parity (K >= 2), else the
        # peak and then the fresh word of its confusion draw (K >= 3). An odd
        # draw takes the high half of the word its image's previous draw
        # took fresh: the last word before the row (K >= 3), the previous
        # false positive's fresh word (K = 2), or, for a false positive's
        # confusion draw after an even class draw, that class draw's word.
        peak_pos = np.empty(n_rows, dtype=np.intp)
        peak_pos[gt_rows] = s_gt + g
        peak_pos[fp_rows] = s_fp + 4 + (k >= 2) * (1 - q)
        confusions = np.zeros(n_rows, dtype=np.intp)
        fp_classes = np.zeros(len(fp_rows), dtype=np.intp)
        if k >= 2:
            fp_classes, rejected = _bounded_integers(w[s_fp + 4 - (5 if k >= 3 else 6) * q], q, k)
            if rejected.any():
                return None
        if k >= 3:
            src, high = np.empty(n_rows, dtype=np.intp), np.empty(n_rows, dtype=np.intp)
            src[gt_rows], high[gt_rows] = s_gt + g + 1 - (g + 2) * odd, odd
            src[fp_rows], high[fp_rows] = s_fp + 4 + q, 1 - q
            confusions, rejected = _bounded_integers(w[src], high, self._n_confusions)
            if rejected.any():
                return None
        return _Draws(noise, w[s_gt] if flipped else w[:0], w[s_fp[:, None] + np.arange(4)], fp_classes,
                      w[peak_pos], confusions, logits)

    def _draw_one_by_one(self, pos: np.ndarray, counts: Sequence[int], flipped: bool) -> tuple[np.ndarray, _Draws]:
        """The draws of :meth:`_draw_loop` made one value per call, bounded
        integers by the generator's own ``integers``, which tries its next
        draw after a rejection: the path for a chunk in which
        :meth:`_parse` finds one. Returns each image's false-positive count
        and the draws."""
        k, n_confusions, fp_rate = self._k, self._n_confusions, self._config.fp_rate
        noise, reuse_words, fp_counts, fp_words, fp_classes, peak_words, confusions, logits = ([] for _ in range(8))
        rng, version_key = self._rng, self._k1
        bits = rng.bit_generator
        raw, normals, integers = bits.random_raw, rng.standard_normal, rng.integers
        for key, n_objects in zip(self._k2[int(flipped), pos].tolist(), counts):
            _reset(bits, version_key, key)
            for _ in range(n_objects):
                noise.append(normals(4))
                if flipped:
                    reuse_words.append(raw())
                peak_words.append(raw())
                confusions.append(integers(n_confusions))
                logits.append(normals(k + 1))
            n = int(rng.poisson(fp_rate)) if fp_rate > 0.0 else 0
            fp_counts.append(n)
            for _ in range(n):
                fp_words.append(raw(4))
                fp_classes.append(integers(k))
                peak_words.append(raw())
                confusions.append(integers(n_confusions))
                logits.append(normals(k + 1))
        return np.array(fp_counts, dtype=np.intp), _Draws(
            np.array(noise).reshape(-1, 4), np.array(reuse_words, dtype=np.uint64),
            np.array(fp_words, dtype=np.uint64).reshape(-1, 4), np.array(fp_classes, dtype=np.intp),
            np.array(peak_words, dtype=np.uint64), np.array(confusions, dtype=np.intp),
            np.array(logits).reshape(-1, k + 1),
        )

    def _draws(self, pos: np.ndarray, counts: np.ndarray, flipped: bool) -> tuple[_Draws, _Layout]:
        """The draws of one view of the images at dataset positions ``pos``,
        each holding ``counts[i]`` objects, and the layout of their rows: by
        the two-call draw loop, or, in a chunk where a bounded integer is
        rejected, one value per call."""
        fp_counts, words, normals = self._draw_loop(pos, counts.tolist(), flipped)
        rows = _layout(counts, np.array(fp_counts, dtype=np.intp))
        d = self._parse(counts, rows, words, normals, flipped)
        if d is None:
            n_fp, d = self._draw_one_by_one(pos, counts.tolist(), flipped)
            rows = _layout(counts, n_fp)
        return d, rows

    def _view(self, pos: np.ndarray, flipped: bool) -> tuple[np.ndarray, ...]:
        """One view of the images at dataset positions ``pos``, by the draw
        loop and one array pass over the chunk: each row's position in the
        chunk, its box (not yet clamped), its logits with the peak added, and
        the rows of the ground-truth objects. Rows come image by image: the
        image's objects, then its false positives."""
        data, k = self._dataset, self._k
        counts = data.counts[pos]
        _, objects = span_pairs(data.starts[pos], counts)
        original = self._original_logits(pos) if flipped else None
        d, (n_fp, sizes, _, gt_image, gt_rows, fp_image, fp_rows) = self._draws(pos, counts, flipped)

        # The array pass: the chunk's rows from its draws.
        widths, heights = data.widths[pos], data.heights[pos]
        w, h = widths.astype(np.float64), heights.astype(np.float64)
        too_small = np.flatnonzero((n_fp > 0) & (np.minimum(w, h) * 0.5 < _FP_SIDE))
        if len(too_small):
            i = too_small[0]
            raise ValueError(f"false positives need an image of at least {2 * _FP_SIDE:g} pixels a side, "
                             f"got {widths[i]}x{heights[i]}")

        boxes = np.empty((len(gt_rows) + len(fp_rows), 4))
        gt = data.boxes[objects]
        if flipped:
            x0, y0, x1, y1 = gt.T
            gt = np.stack([w[gt_image] - x1, y0, w[gt_image] - x0, y1], axis=1)
        boxes[gt_rows] = _jittered(gt, _normal(d.noise, 1.0), self._config.box_noise, w[gt_image], h[gt_image])
        boxes[fp_rows] = _false_positive_boxes(_uniforms(d.fp_words), w[fp_image], h[fp_image])

        classes = np.empty(len(boxes), dtype=np.intp)
        classes[gt_rows] = data.class_ids[objects]
        classes[fp_rows] = 1 + d.fp_classes
        # The peak is the true class with the class's accuracy, else the
        # class 1 + confusion steps after it, cyclically over 1..K (itself
        # when K=1).
        peaks = np.where(_uniforms(d.peak_words) < self._accuracy[classes], classes, 1 + (classes + d.confusions) % k)
        logits = _normal(d.logits, self._config.logit_noise)
        logits[np.arange(len(logits)), peaks] += self._inv_temperature
        if flipped:
            # The original view's distribution, reused when the flip is robust.
            reused = _uniforms(d.reuse_words) < self._robustness[classes[gt_rows]]
            logits[gt_rows[reused]] = original[reused]
        return np.repeat(np.arange(len(sizes)), sizes), boxes, logits, gt_rows

    def _original_logits(self, pos: np.ndarray) -> np.ndarray:
        """The ground-truth logits of the original view of the images at
        dataset positions ``pos``, object by object in chunk order: those of
        the last original-view call for the images it held, and drawn again
        by :meth:`_view` for the others, which leaves that call's kept."""
        first_rows, kept = self._last_original
        counts = self._dataset.counts[pos]
        starts = np.array([first_rows.get(p, -1) for p in pos.tolist()], dtype=np.intp)
        missing = np.flatnonzero(starts < 0)
        if len(missing):
            _, _, logits, gt_rows = self._view(pos[missing], False)
            n = counts[missing]
            starts[missing] = len(kept) + np.cumsum(n) - n
            kept = np.concatenate([kept, logits[gt_rows]])
        return kept[span_pairs(starts, counts)[1]]

    def predict(self, image_ids: Sequence[str], flipped: bool = False) -> PredictionChunk:
        data = self._dataset
        pos = data.positions(image_ids)
        image, boxes, logits, gt_rows = self._view(pos, flipped)
        if not flipped:
            counts = data.counts[pos]
            self._last_original = (dict(zip(pos.tolist(), (np.cumsum(counts) - counts).tolist())), logits[gt_rows])

        # Row-wise arithmetic only: each row is the same float as in a chunk
        # of its image alone.
        widths, heights = data.widths[pos].tolist(), data.heights[pos].tolist()
        dets = ChunkDetections(boxes, _softmax(logits), image)
        return PredictionChunk(
            tuple(image_ids), tuple(widths), tuple(heights), clamp_to_images(dets, widths, heights, image),
            bool(flipped),
        )

    # -- retraining stand-in -------------------------------------------------

    def update(self, pool: "Pool") -> "SyntheticDetector":
        """Per-class skill bump from newly labeled and pseudo-labeled images.

        Returns the next version, a copy of this detector with the new skill;
        the current one keeps serving its predictions.
        """
        cfg = self._config
        acc = self._accuracy.copy()
        rob = self._robustness.copy()

        # Each class gains once per newly labeled image that holds it; every
        # gain adds the same amount, so their order leaves the sum unchanged.
        data = self._dataset
        pos = data.positions(pool.labeled - self._seen_labeled)
        image, rows = span_pairs(data.starts[pos], data.counts[pos])
        for _, c in set(zip(image.tolist(), data.class_ids[rows].tolist())):
            acc[c] += cfg.skill_gain_per_labeled
            rob[c] += cfg.skill_gain_per_labeled

        if cfg.skill_gain_per_pseudo > 0.0:
            for _, c in sorted(set(zip(pool.pseudo.image_ids.tolist(), pool.pseudo.class_ids.tolist()))):
                acc[c] += cfg.skill_gain_per_pseudo
                rob[c] += cfg.skill_gain_per_pseudo

        np.clip(acc, 0.0, cfg.accuracy_ceiling, out=acc)
        np.clip(rob, 0.0, cfg.robustness_ceiling, out=rob)

        out = copy.copy(self)
        out._accuracy, out._robustness = acc, rob
        out._seen_labeled = frozenset(pool.labeled)
        out._set_version(self._version + 1)
        return out
