"""Detector contract plus a seeded synthetic detector.

The synthetic detector turns ground-truth annotations into realistic-looking
predictions: jittered boxes, temperature-controlled confidences, seeded class
confusions, and a per-class flip-robustness knob that decides whether the
flipped image's distributions are reused or resampled. Ground truth is only
visible inside this module; everything downstream sees only the chunks of
images (PredictionChunk) it returns.

A detector predicts a chunk of images per call. The synthetic one gathers
the chunk's ground truth from the dataset's columns with one index, makes
each image's random draws in a Python loop, image by image, and then builds
the chunk's arrays once: one softmax, one box and one distribution check, and
one clamp of every row to its image, where a call per image paid numpy's
per-call overhead on a handful of rows for each image. The loop itself is
kept to few numpy calls per detection, with the same draws as numpy's:
bounded integers come from raw Philox words by numpy's own algorithm, a false
positive's four uniforms from one call, and the flipped view takes the
original view's logits from the last original-view call instead of drawing
them again when that call held the image (see :class:`SyntheticDetector`).
:func:`aldet.pool.run_cycles` predicts each pool chunk's flipped view right
after the chunk's original view, so there every flipped image reuses them; a
flipped call of images the last original-view call did not hold draws their
original view again instead, by the code an original-view call runs.

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
from typing import TYPE_CHECKING, ClassVar, Iterator, Mapping, Sequence

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
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


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


class _Stream:
    """One Philox stream: numpy's ``Generator`` draws, and its bounded
    integers taken from the raw 64-bit words at a fraction of the call cost.

    ``random``, ``normal`` and ``poisson`` are the generator's own methods.
    ``integers(n)`` is ``int(Generator.integers(0, n))`` for
    ``1 <= n < 2**32`` by numpy's own algorithm (Lemire, "Fast random
    integer generation in an interval", 2019): each 64-bit word gives two
    32-bit draws, low half first; a draw ``x`` maps to ``(x * n) >> 32``
    unless ``(x * n) mod 2**32`` falls below ``(2**32 - n) % n``, in which
    case the next draw is tried; ``n == 1`` draws nothing. The high half of
    a word is kept for the stream's next integer draw, as numpy keeps it in
    the bit generator. This is exact because nothing else drawn from the
    stream reads that half: ``random``, ``normal`` and ``poisson`` take
    whole words.
    """

    __slots__ = ("_bits", "_raw", "_half", "random", "normal", "poisson")

    def __init__(self):
        # Seeded only to skip the OS entropy an unseeded one reads; reset
        # replaces the state before every use.
        gen = np.random.Generator(np.random.Philox(0))
        self._bits = gen.bit_generator
        self._raw = self._bits.random_raw
        self._half: int | None = None
        self.random, self.normal, self.poisson = gen.random, gen.normal, gen.poisson

    def reset(self, k1: int, k2: int) -> None:
        """Back to the start of stream ``[k1, k2]``: counter 0, empty buffers,
        the state a new ``Philox(key=[k1, k2])`` starts in."""
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (k1, k2)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        self._half = None

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        while True:
            if self._half is None:
                word = self._raw()
                x, self._half = word & _MASK32, word >> 32
            else:
                x, self._half = self._half, None
            m = x * n
            if m & _MASK32 >= (2**32 - n) % n:
                return m >> 32


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

    The detector keeps one :class:`_Stream` per tag and resets it to the
    start of an image's stream before drawing it: the draws are the same as
    from a fresh generator, without the cost of building one per image.
    Bounded integers are taken from raw words (see :class:`_Stream`). The
    ground-truth logits of the most recent original-view call are kept, so a
    flipped call of the same images reuses them instead of drawing stream 0
    again; any other flipped call draws each image's original view again
    (``_draw_original``, the one way it is drawn). ``run_cycles`` makes only
    the first kind, since it predicts each chunk's two views back to back,
    and so never draws an original view twice. That keeps one chunk's logits,
    O(images in the call x objects), never a pool's. The streams and that
    call's logits are shared by the calls of one detector, which is
    therefore not safe to call from several threads at once.
    """

    def __init__(self, config: SyntheticDetectorConfig, dataset: Dataset):
        self._config = config
        self._dataset = dataset
        k = self._k = dataset.n_classes
        self._accuracy = _per_class(config.accuracy, k, "accuracy")
        self._robustness = _per_class(config.flip_robustness, k, "flip_robustness")
        self._seen_labeled: frozenset[str] = frozenset()
        # image id -> k2 of tag 0 in the low 64 bits and of tag 1 in the high
        # 64 bits: one int per image, where a tuple of two would cost about
        # 0.1 MB more peak memory per thousand images.
        self._id_keys: dict[str, int] = {}
        # Read once per detection.
        self._n_confusions = max(k - 1, 1)
        self._logit_noise = config.logit_noise
        self._inv_temperature = 1.0 / config.temperature
        self._set_version(0)

    def _set_version(self, version: int) -> None:
        """Start version ``version`` with the current per-class skill: its
        streams' key, fresh streams and no original view yet."""
        self._version = version
        self._k1 = _mix64(self._config.seed, version)
        self._streams = (_Stream(), _Stream())
        # image id -> its ground-truth logits, from the last original-view call
        self._last_original: dict[str, list[np.ndarray]] = {}
        # Read once per detection; Python floats compare as the numpy
        # scalars they come from.
        self._accuracies = self._accuracy.tolist()
        self._robustnesses = self._robustness.tolist()

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

    def _stream(self, image_id: str, tag: int) -> _Stream:
        """Tag ``tag``'s stream, reset to the start of the image's stream."""
        keys = self._id_keys.get(image_id)
        if keys is None:
            key = _id_key(image_id)
            keys = self._id_keys[image_id] = _mix64(key, 0) | _mix64(key, 1) << 64
        stream = self._streams[tag]
        stream.reset(self._k1, keys >> 64 if tag else keys & _MASK64)
        return stream

    def _jittered_box(self, rng: _Stream, gt_box, width: int, height: int) -> list[float]:
        s = self._config.box_noise
        noise = rng.normal(0.0, 1.0, 4).tolist()
        xmin, ymin, xmax, ymax = gt_box
        bw, bh = xmax - xmin, ymax - ymin
        x0 = xmin + noise[0] * s * bw
        y0 = ymin + noise[1] * s * bh
        x1 = xmax + noise[2] * s * bw
        y1 = ymax + noise[3] * s * bh
        x0, x1 = min(x0, x1), max(x0, x1)
        y0, y1 = min(y0, y1), max(y0, y1)
        x0, x1 = max(0.0, x0), min(float(width), x1)
        y0, y1 = max(0.0, y0), min(float(height), y1)
        if x1 - x0 < _MIN_BOX:
            x0 = max(0.0, min(x0, width - _MIN_BOX))
            x1 = x0 + _MIN_BOX
        if y1 - y0 < _MIN_BOX:
            y0 = max(0.0, min(y0, height - _MIN_BOX))
            y1 = y0 + _MIN_BOX
        return [x0, y0, x1, y1]

    def _draw_dist(self, rng: _Stream, true_class: int) -> np.ndarray:
        """The logits of one detection's class distribution."""
        k = self._k
        u = rng.random()  # the one draw of rng.uniform(), at a fraction of its call cost
        confusion_step = rng.integers(self._n_confusions)
        if u < self._accuracies[true_class]:
            peak = true_class
        else:
            # uniform over the other foreground classes (or the class itself when K=1)
            peak = 1 + (true_class - 1 + 1 + confusion_step) % k if k > 1 else 1
        logits = rng.normal(0.0, self._logit_noise, k + 1)
        logits[peak] += self._inv_temperature
        return logits

    def _false_positives(self, rng: _Stream, width: int, height: int, boxes: list, logits: list) -> None:
        """Append the image's false positives to ``boxes`` and ``logits``."""
        if self._config.fp_rate <= 0.0:
            return
        n, side = int(rng.poisson(self._config.fp_rate)), _MIN_BOX * 10
        if n and min(width, height) * 0.5 < side:
            raise ValueError(f"false positives need an image of at least {2 * side:g} pixels a side, "
                             f"got {width}x{height}")
        for _ in range(n):
            # Four rng.uniform(low, high) calls in one: the same draws and the
            # same arithmetic, low + (high - low) * u, written out. Equal to
            # the bit as long as numpy rounds the product and the sum
            # separately (no fused multiply-add), as its x86-64 builds do;
            # test_predict_equals_fresh_generator_oracle checks it.
            u = rng.random(4).tolist()
            bw = side + (0.5 * width - side) * u[0]
            bh = side + (0.5 * height - side) * u[1]
            x0 = 0.0 + (width - bw - 0.0) * u[2]
            y0 = 0.0 + (height - bh - 0.0) * u[3]
            boxes.append([x0, y0, x0 + bw, y0 + bh])
            logits.append(self._draw_dist(rng, 1 + rng.integers(self._k)))

    def _draw_original(self, gt: tuple, boxes: list, logits: list) -> list[np.ndarray]:
        """Append the original view of the image ``gt`` (see
        :meth:`_ground_truth`) to ``boxes`` and ``logits``; return its
        ground-truth logits."""
        image_id, width, height, gt_boxes, gt_classes = gt
        rng = self._stream(image_id, 0)
        gt_logits = []
        for gt_box, cls in zip(gt_boxes, gt_classes):
            boxes.append(self._jittered_box(rng, gt_box, width, height))
            gt_logits.append(self._draw_dist(rng, cls))
        logits += gt_logits
        self._false_positives(rng, width, height, boxes, logits)
        return gt_logits

    def _draw_flipped(self, gt: tuple, boxes: list, logits: list) -> None:
        """Append the flipped view of the image ``gt`` to ``boxes`` and
        ``logits``."""
        image_id, width, height, gt_boxes, gt_classes = gt
        orig_logits = self._last_original.get(image_id)
        if orig_logits is None:
            orig_logits = self._draw_original(gt, [], [])
        frng = self._stream(image_id, 1)
        for (x0, y0, x1, y1), cls, orig in zip(gt_boxes, gt_classes, orig_logits):
            mirrored_gt = (width - x1, y0, width - x0, y1)
            boxes.append(self._jittered_box(frng, mirrored_gt, width, height))
            # The original view's distribution, reused when the flip is robust.
            reuse = frng.random() < self._robustnesses[cls]
            resampled = self._draw_dist(frng, cls)  # drawn either way, fixed stream layout
            logits.append(orig if reuse else resampled)
        self._false_positives(frng, width, height, boxes, logits)

    def _ground_truth(self, image_ids: Sequence[str]) -> Iterator[tuple]:
        """``(image_id, width, height, boxes, class_ids)`` of each of the
        images, in order, as Python values: the chunk's objects are gathered
        from the dataset's columns with one index and cut per image."""
        data = self._dataset
        pos = data.positions(image_ids)
        counts = data.counts[pos]
        _, rows = span_pairs(data.starts[pos], counts)
        boxes, class_ids = data.boxes[rows].tolist(), data.class_ids[rows].tolist()
        ends = np.cumsum(counts).tolist()
        cuts = list(zip([end - n for end, n in zip(ends, counts.tolist())], ends))
        return zip(image_ids, data.widths[pos].tolist(), data.heights[pos].tolist(),
                   [boxes[a:b] for a, b in cuts], [class_ids[a:b] for a, b in cuts])

    def predict(self, image_ids: Sequence[str], flipped: bool = False) -> PredictionChunk:
        boxes: list[list[float]] = []
        logits: list[np.ndarray] = []
        widths, heights, counts = [], [], []
        originals: dict[str, list[np.ndarray]] = {}
        for gt in self._ground_truth(image_ids):
            image_id, width, height = gt[:3]
            start = len(boxes)
            if flipped:
                self._draw_flipped(gt, boxes, logits)
            else:
                originals[image_id] = self._draw_original(gt, boxes, logits)
            widths.append(width)
            heights.append(height)
            counts.append(len(boxes) - start)
        if not flipped:
            self._last_original = originals

        # Row-wise arithmetic only: each row is the same float as in a chunk
        # of its image alone.
        image = np.repeat(np.arange(len(counts)), counts)
        dets = ChunkDetections(
            np.array(boxes, dtype=np.float64).reshape(-1, 4),
            _softmax(np.array(logits).reshape(len(boxes), self._k + 1)),
            image,
        )
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
