"""Code that the library replaced with faster or array-based versions, kept
as the oracles the tests compare against: the scalar corner-box IoU, the
row-by-row box and distribution checks, the synthetic detector's
prediction with a fresh generator per stream, and the per-image NMS,
matching and scoring that the chunked pass replaced, with the scalar
entropy and symmetric KL of one distribution or pair and their per-image
maxima, which define an image's H and I; the
predictions reader that built one clamped prediction per record, which the
chunk of a view is pinned to; and the threshold and top-k pseudo-label
extractors that built one set per image, which the one set of a pool is
pinned to; and the pseudo-label JSONL writer that made one ``json.dumps``
call per label, which the one-template writer is pinned to. Scores were
one object per image (:class:`ImageScore` here); the ``sorted()`` selection
and the f-string scores writer over them are the references the one set of
scores, its ``np.lexsort`` selection and its one-template writer are pinned
to. The one-template pseudo-label and scores writers that formatted the
whole file as one string are the references the writers that write one
block of rows at a time are pinned to. The dataset loader that built one
record per image, with its own arrays and checks, is the reference the one
column set of a dataset is pinned to; :func:`dataset_of` builds a dataset
from such records. :func:`log_resets` records which image's stream, and of
which view, the synthetic detector's generator is reset to.
:func:`rewrite` changes a file as a writer would, never in the timestamp
tick of the change before, which the parse cache's stat binding assumes of
any file that it binds.

A one-image prediction is a :class:`PredictionChunk` of one image:
:func:`one_image` builds one, :func:`chunk_of` joins them into a chunk, and
:func:`per_image` splits a chunk into them."""

import hashlib
import json
import math
import os
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from aldet import formats, sim_detector
from aldet.acquisition import LOG_EPS
from aldet.boxes import (
    ChunkDetections,
    Detections,
    PredictionChunk,
    _rows,
    checked_boxes,
    checked_encoded,
    clamp_to_images,
    iou,
)
from aldet.dataset import Dataset, ImageRecord, checked_image_id
from aldet.matching import MatchResult, greedy_assign
from aldet.pseudo_label import PseudoLabels


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


# -- per-row validation --------------------------------------------------------
#
# ``aldet.boxes.checked_boxes`` and ``checked_probs`` as they were before the
# whole-array fast path: every check row by row. They take a float64 (N, 4) or
# (N, K+1) array and return what the library returns or raise what it raises.

DIST_SUM_TOL = 1e-6


def _reject(arr, bad, message):
    if bad.any():
        raise ValueError(message(arr[int(np.argmax(bad))]))


def rowwise_checked_boxes(arr):
    _reject(arr, ~np.isfinite(arr).all(axis=1),
            lambda r: f"box coordinates must be finite, got {tuple(r.tolist())}")
    _reject(arr, (arr[:, 0] > arr[:, 2]) | (arr[:, 1] > arr[:, 3]),
            lambda r: f"inverted box: {tuple(r.tolist())}")
    return arr


def rowwise_checked_probs(arr):
    if arr.size == 0:
        return arr
    if arr.shape[1] < 2:
        raise ValueError(f"class distribution needs >= 2 categories, got shape {arr.shape[1:]}")
    if not np.isfinite(arr).all():
        raise ValueError("class distribution has non-finite entries")
    _reject(arr, (arr.min(axis=1) < -1e-9) | (arr.max(axis=1) > 1.0 + 1e-9),
            lambda r: f"probabilities outside [0, 1]: min={r.min()}, max={r.max()}")
    _reject(arr, np.abs(arr.sum(axis=1) - 1.0) > DIST_SUM_TOL,
            lambda r: f"probabilities sum to {r.sum()}, expected 1 within {DIST_SUM_TOL}")
    return np.clip(arr, 0.0, 1.0)


# -- the synthetic detector with a fresh generator per stream --------------------
#
# ``SyntheticDetector.predict`` as it was when every call built a new
# ``Generator(Philox(key=[k1, k2]))`` for each stream it read, drew with
# ``rng.uniform`` and normalised each distribution on its own.


def _mix64(*values):
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = (h + (v & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        h = h ^ (h >> 31)
    return h


def stream_key(image_id, tag):
    """k2 of the image's stream of tag ``tag``."""
    id_key = int.from_bytes(hashlib.blake2b(image_id.encode("utf-8"), digest_size=8).digest(), "little")
    return _mix64(id_key, tag)


def _fresh_stream(seed, version, image_id, tag):
    key = np.array([_mix64(seed, version), stream_key(image_id, tag)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def log_resets(monkeypatch, image_ids):
    """A list to which every reset of a synthetic detector's generator to a
    stream of one of ``image_ids`` appends (image_id, tag), in order."""
    names = {stream_key(i, tag): (i, tag) for i in image_ids for tag in (0, 1)}
    log, reset = [], sim_detector._reset

    def logged(bits, k1, k2):
        log.append(names[k2])
        reset(bits, k1, k2)

    monkeypatch.setattr(sim_detector, "_reset", logged)
    return log


def _jittered_box(cfg, rng, gt_box, width, height):
    s = cfg.box_noise
    noise = rng.normal(0.0, 1.0, 4)
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
    if x1 - x0 < 1.0:
        x0 = max(0.0, min(x0, width - 1.0))
        x1 = x0 + 1.0
    if y1 - y0 < 1.0:
        y0 = max(0.0, min(y0, height - 1.0))
        y1 = y0 + 1.0
    return [x0, y0, x1, y1]


def _draw_dist(det, k, rng, true_class):
    cfg = det.config
    u = rng.uniform()
    confusion_step = int(rng.integers(0, max(k - 1, 1)))
    if u < det.class_accuracy(true_class):
        peak = true_class
    else:
        peak = 1 + (true_class - 1 + 1 + confusion_step) % k if k > 1 else 1
    logits = rng.normal(0.0, cfg.logit_noise, k + 1)
    logits[peak] += 1.0 / cfg.temperature
    e = np.exp(logits - logits.max())
    return e / e.sum()


def _false_positives(det, k, rng, width, height, boxes, probs):
    cfg = det.config
    if cfg.fp_rate <= 0.0:
        return
    for _ in range(int(rng.poisson(cfg.fp_rate))):
        bw = rng.uniform(10.0, 0.5 * width)
        bh = rng.uniform(10.0, 0.5 * height)
        x0 = rng.uniform(0.0, width - bw)
        y0 = rng.uniform(0.0, height - bh)
        boxes.append([float(x0), float(y0), float(x0 + bw), float(y0 + bh)])
        cls = int(rng.integers(1, k + 1))
        probs.append(_draw_dist(det, k, rng, cls))


# -- one-image predictions --------------------------------------------------------


def one_image(image_id, width, height, dets, flipped=False):
    """``dets`` as the chunk of the one image ``image_id`` in the ``flipped``
    frame, each box clamped to the image."""
    image = np.zeros(len(dets), dtype=np.intp)
    d = ChunkDetections._of(dets.boxes, dets.probs, dets.class_ids, dets.scores, image)
    return PredictionChunk((image_id,), (width,), (height,), clamp_to_images(d, (width,), (height,), image),
                           flipped)


def chunk_of(preds):
    """One-image chunks, all in one frame, joined into one chunk in that
    frame, in order. Sets without rows are skipped, so a chunk without rows
    has probabilities of width 0."""
    frames = {p.flipped for p in preds}
    assert len(frames) <= 1, "one-image chunks in different frames"
    sets = [p.detections for p in preds]
    d = Detections.concat(sets)
    image = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    return PredictionChunk(
        tuple(p.image_ids[0] for p in preds), tuple(p.widths[0] for p in preds),
        tuple(p.heights[0] for p in preds),
        ChunkDetections._of(d.boxes, d.probs, d.class_ids, d.scores, image), frames == {True},
    )


def chunk_bits(chunk):
    """Everything a chunk holds, with each array as its dtype, shape and bytes."""
    d = chunk.detections
    arrays = [getattr(d, name) for name in d._fields]
    return chunk.image_ids, chunk.widths, chunk.heights, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def per_image(chunk):
    """The chunk's images, one one-image chunk each in the chunk's frame, in
    chunk order."""
    d = chunk.detections
    return [
        one_image(image_id, w, h, d.take(np.flatnonzero(d.image == k)), chunk.flipped)
        for k, (image_id, w, h) in enumerate(zip(chunk.image_ids, chunk.widths, chunk.heights))
    ]


def read_predictions_per_record(path, sizes):
    """``aldet.formats.read_predictions_jsonl`` as it was before it read a
    view into one chunk: every record checked on its own and clamped to its
    image, as a one-image chunk under its key ``(image_id, flipped)``. Takes
    a file that reads without error."""
    out = {}
    with open(path, "rb") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            records = rec["detections"]
            dets = Detections([d["bbox"] for d in records], [d["probs"] for d in records])
            checked_encoded([d["encoded"] for d in records])
            key = (rec["image_id"], rec["flipped"])
            assert key not in out
            out[key] = one_image(rec["image_id"], *sizes[rec["image_id"]], dets, rec["flipped"])
    return out


def fresh_stream_predict(det, dataset, image_id, flipped=False):
    """The prediction of ``det`` (a ``SyntheticDetector`` over ``dataset``),
    drawn from fresh generators, in the frame of the view. K is the
    dataset's."""
    cfg, rec, k = det.config, dataset[image_id], dataset.n_classes
    rng = _fresh_stream(cfg.seed, det.version, image_id, 0)
    boxes, probs = [], []
    if not flipped:
        for gt_box, cls in zip(rec.boxes.tolist(), rec.class_ids.tolist()):
            boxes.append(_jittered_box(cfg, rng, gt_box, rec.width, rec.height))
            probs.append(_draw_dist(det, k, rng, cls))
        _false_positives(det, k, rng, rec.width, rec.height, boxes, probs)
    else:
        frng = _fresh_stream(cfg.seed, det.version, image_id, 1)
        for (x0, y0, x1, y1), cls in zip(rec.boxes.tolist(), rec.class_ids.tolist()):
            rng.normal(0.0, 1.0, 4)
            orig_dist = _draw_dist(det, k, rng, cls)
            mirrored_gt = (rec.width - x1, y0, rec.width - x0, y1)
            boxes.append(_jittered_box(cfg, frng, mirrored_gt, rec.width, rec.height))
            reuse = frng.uniform() < det.class_robustness(cls)
            resampled = _draw_dist(det, k, frng, cls)
            probs.append(orig_dist if reuse else resampled)
        _false_positives(det, k, frng, rec.width, rec.height, boxes, probs)
    dets = Detections(
        np.array(boxes, dtype=np.float64).reshape(-1, 4),
        np.array(probs).reshape(len(boxes), k + 1),
    )
    return one_image(image_id, rec.width, rec.height, dets, flipped)


# -- the 11-point AP with one scan of every rank per recall knot ------------------


def ap_eleven_point_scan(tp_flags, n_gt):
    """``aldet.evaluation._ap_eleven_point`` as it was before it took suffix
    maxima: each recall knot scans every rank."""
    tp = 0
    points = []  # (tp_count, precision)
    for rank, flag in enumerate(tp_flags, start=1):
        tp += int(flag)
        points.append((tp, tp / rank))
    total = 0.0
    for k in range(11):  # recall knots 0.0, 0.1, ..., 1.0
        best = 0.0
        for tp_count, prec in points:
            if tp_count * 10 >= k * n_gt and prec > best:
                best = prec
        total += best
    return total / 11.0


# -- per-image NMS, matching and scoring ----------------------------------------
#
# ``aldet.boxes.nms``, ``aldet.matching.match_predictions`` and
# ``aldet.acquisition.unified_score`` as they were before a chunk of images
# went through them in one pass: one image at a time, with the full IoU
# matrix of the image.


def per_image_nms(dets, iou_threshold, score_floor):
    rows = np.flatnonzero((dets.class_ids != 0) & (dets.scores >= score_floor))
    rows = rows[np.argsort(-dets.scores[rows], kind="stable")].tolist()
    classes = dets.class_ids.tolist()
    if len({classes[i] for i in rows}) == len(rows):
        return dets.take(rows)
    ious = iou(dets.boxes[:, None], dets.boxes[None]).tolist()
    kept = []
    for i in rows:
        if all(ious[i][j] <= iou_threshold for j in kept if classes[j] == classes[i]):
            kept.append(i)
    return dets.take(kept)


def per_image_post_nms(pred, cfg):
    """The one-image chunk ``pred`` mapped back into the original frame if it
    is in the flipped one, then through per-image NMS."""
    d = pred.detections
    if pred.flipped:
        boxes = d.boxes.copy()
        boxes[:, 0] = float(pred.widths[0]) - d.boxes[:, 2]
        boxes[:, 2] = float(pred.widths[0]) - d.boxes[:, 0]
        d = ChunkDetections._of(boxes, d.probs, d.class_ids, d.scores, d.image)
    return PredictionChunk(pred.image_ids, pred.widths, pred.heights,
                           per_image_nms(d, cfg.nms_iou, cfg.nms_score_floor))


def per_image_match(orig, flipped, min_match_iou):
    accepted = []
    if len(orig.detections) and len(flipped.detections):
        ious = iou(orig.detections.boxes[:, None], flipped.detections.boxes[None])
        rows, cols = np.nonzero(ious >= min_match_iou)
        accepted = greedy_assign(zip(ious[rows, cols].tolist(), rows.tolist(), cols.tolist()))
    return MatchResult(tuple((i, j) for _, i, j in accepted))


def _logs(probs):
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


def _image_entropy(probs):
    if not len(probs):
        return 0.0
    return max(float(-np.dot(p, lp)) for p, lp in zip(probs, _logs(probs)))


def _image_inconsistency(p, q):
    if not len(p):
        return 0.0
    d = _logs(p) - _logs(q)
    return max(0.5 * (float(np.dot(a, dp)) + float(np.dot(b, dq))) for a, b, dp, dq in zip(p, q, d, -d))


class ImageScore(NamedTuple):
    """One image's scores, as the library held them before one set held the
    scores of every image: ``unified`` is entropy * inconsistency."""

    image_id: str
    entropy: float
    inconsistency: float
    unified: float


def image_score(image_id, entropy, inconsistency) -> ImageScore:
    return ImageScore(image_id, entropy, inconsistency, entropy * inconsistency)


def image_scores(scores) -> list[ImageScore]:
    """The rows of an AcquisitionScores set, one ImageScore per row."""
    return [ImageScore(*row) for row in zip(*(getattr(scores, name).tolist() for name in scores._fields))]


def per_image_unified_score(orig, unflipped, min_match_iou):
    pairs = np.array(per_image_match(orig, unflipped, min_match_iou).pairs, dtype=np.intp).reshape(-1, 2)
    o, f = orig.detections.probs, unflipped.detections.probs
    return image_score(orig.image_ids[0], _image_entropy(o), _image_inconsistency(o[pairs[:, 0]], f[pairs[:, 1]]))


def sorted_selection(scores, budget, strategy, seed=None):
    """select_for_labeling as it was over ImageScores: the top ``budget`` ids
    by ``(-value, image_id)`` with ``sorted()``, or a seeded permutation of
    the sorted ids for the random strategy."""
    if strategy == "random":
        ids = sorted(s.image_id for s in scores)
        order = np.random.default_rng(seed).permutation(len(ids))
        return [ids[k] for k in order[:budget]]
    ranked = sorted(scores, key=lambda s: (-getattr(s, strategy), s.image_id))
    return [s.image_id for s in ranked[:budget]]


def fstring_scores_csv(scores):
    """The text of a scores CSV as the writer made it, one f-string per
    ImageScore, rows sorted by image id with ties in input order."""
    lines = ["image_id,entropy,inconsistency,unified\n"]
    for s in sorted(scores, key=lambda s: s.image_id):
        lines.append(f"{s.image_id},{s.entropy:.6f},{s.inconsistency:.6f},{s.unified:.6f}\n")
    return "".join(lines)


# -- per-image pseudo-labels ----------------------------------------------------------
#
# The extractors as they were when the pool held one set per image: each
# returns {image id: that image's labels}, images without labels absent.


def _image_labels(image_id, d, rows):
    d = d.take(rows)
    return PseudoLabels([image_id] * len(d), d.boxes, d.class_ids, d.scores)


def per_image_threshold_labels(chunks, tau):
    """Every detection with foreground argmax probability >= tau, grouped by
    image in input order, each image's labels in its row order."""
    out = {}
    for chunk in chunks:
        d = chunk.detections
        rows = np.flatnonzero((d.class_ids != 0) & (d.scores >= tau))
        if not len(rows):
            continue
        # Rows are grouped image by image: cut where the image changes.
        image = d.image[rows]
        cuts = [0, *(np.flatnonzero(np.diff(image)) + 1).tolist(), len(rows)]
        for start, end in zip(cuts, cuts[1:]):
            out[chunk.image_ids[image[start]]] = _image_labels(chunk.image_ids[image[start]], d, rows[start:end])
    return out


def per_image_topk_labels(chunks, k_fraction):
    """The ceil(k_fraction * n_c) most confident detections of each class c,
    ranked by (-confidence, image id, row); within an image, labels are
    ordered by class, then by (-confidence, row)."""
    by_class = {}
    dets = {}
    for chunk in chunks:
        d = chunk.detections
        dets.update(dict.fromkeys(chunk.image_ids, d))
        image_ids = [chunk.image_ids[k] for k in d.image.tolist()]
        for row, (cls, conf, image_id) in enumerate(zip(d.class_ids.tolist(), d.scores.tolist(), image_ids)):
            if cls != 0:
                by_class.setdefault(cls, []).append((-conf, image_id, row))

    rows_of = {}
    for cls in sorted(by_class):
        entries = sorted(by_class[cls])  # (-confidence, image id, row)
        for _, image_id, row in entries[: math.ceil(k_fraction * len(entries))]:
            rows_of.setdefault(image_id, []).append(row)
    return {image_id: _image_labels(image_id, dets[image_id], rows) for image_id, rows in rows_of.items()}


# -- the pseudo-label JSONL writer with one json.dumps per label -----------------------


def json_dumps_pseudo_labels(pls):
    """The text of a pseudo-label JSONL file: one ``json.dumps(record,
    sort_keys=True)`` line per label, sorted by (image_id, -confidence,
    class_id) with ties in row order."""
    records = [
        {"image_id": image_id, "bbox": box, "class_id": c, "confidence": conf}
        for image_id, box, c, conf in zip(
            pls.image_ids.tolist(), pls.boxes.tolist(), pls.class_ids.tolist(), pls.scores.tolist()
        )
    ]
    records.sort(key=lambda r: (r["image_id"], -r["confidence"], r["class_id"]))
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


# -- the one-shot writers: the whole file formatted as one string ---------------------

_PL_LINE = '{"bbox": [%r, %r, %r, %r], "class_id": %d, "confidence": %r, "image_id": %s}\n'


def one_shot_pseudo_labels_jsonl(pls):
    """The text of a pseudo-label JSONL file as the one-template writer made
    it: the set sorted by (image_id, -confidence, class_id), ties in row
    order, then every row through one template and one join."""
    pls = pls.take(np.lexsort((pls.class_ids, -pls.scores, pls.image_ids)))
    return "".join(
        _PL_LINE % (x0, y0, x1, y1, c, conf, encode_basestring_ascii(image_id))
        for image_id, (x0, y0, x1, y1), c, conf in zip(
            pls.image_ids.tolist(), pls.boxes.tolist(), pls.class_ids.tolist(), pls.scores.tolist()
        )
    )


def one_shot_scores_csv(scores):
    """The text of a scores CSV as the one-template writer made it: the set
    sorted by image id with one stable argsort, then every row through one
    template and one join."""
    scores = scores.take(np.argsort(scores.image_ids, kind="stable"))
    rows = zip(scores.image_ids.tolist(), scores.entropy.tolist(), scores.inconsistency.tolist(),
               scores.unified.tolist())
    return "image_id,entropy,inconsistency,unified\n" + "".join("%s,%.6f,%.6f,%.6f\n" % row for row in rows)


# -- the per-record dataset loader ----------------------------------------------------
#
# ``aldet.formats.load_dataset`` as it was before a dataset was one column
# set: one record per image, with its own arrays and checks as it was read,
# then the dataset's checks over the records. It returns the classes and the
# records; the column set is pinned to it.


def _checked_record(image_id, width, height, boxes, class_ids) -> ImageRecord:
    if width <= 0 or height <= 0:
        raise ValueError(f"image size must be positive, got {width}x{height}")
    boxes = _rows(boxes, "bbox", 4, row="box")
    class_ids = np.array(class_ids, dtype=np.intp)
    if len(boxes) != len(class_ids):
        raise ValueError(f"{len(boxes)} boxes for {len(class_ids)} class ids")
    return ImageRecord(image_id, width, height, boxes, class_ids)


def _check_records(classes, images) -> None:
    if not classes:
        raise ValueError("dataset needs at least one foreground class")
    seen = set()
    for img in images:
        if checked_image_id(img.image_id) in seen:
            raise ValueError(f"duplicate image id {img.image_id!r} in dataset")
        seen.add(img.image_id)
    for img in images:
        try:
            checked_boxes(img.boxes)
            bad = (img.class_ids < 1) | (img.class_ids > len(classes))
            if bad.any():
                raise ValueError(f"class_id {img.class_ids[np.argmax(bad)]} outside 1..{len(classes)}")
        except ValueError as e:
            raise ValueError(f"image {img.image_id!r}: {e}") from None


def load_dataset_per_record(path):
    """``(classes, records)`` of the dataset JSON at ``path``; every error
    names the file and, for a record, the image."""
    raw = formats._read_json(path)
    images, image_id = [], None
    try:
        classes = tuple(raw["classes"])
        for rec in raw["images"]:
            image_id = None
            image_id = rec["id"]
            objects = rec.get("objects", [])
            images.append(_checked_record(
                image_id, formats._typed_field(rec, "width", int), formats._typed_field(rec, "height", int),
                [obj["bbox"] for obj in objects], [formats._typed_field(obj, "class_id", int) for obj in objects],
            ))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise formats._structure_error(path, e, image_id) from None
    try:
        _check_records(classes, images)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return classes, tuple(images)


def dataset_of(classes, images) -> Dataset:
    """The dataset of the given records (anything with an ``image_id``,
    ``width``, ``height``, ``boxes`` and ``class_ids``), in order."""
    images = tuple(images)
    return Dataset(
        classes, [img.image_id for img in images], [img.width for img in images], [img.height for img in images],
        [box for img in images for box in img.boxes], [c for img in images for c in img.class_ids],
        [len(img.class_ids) for img in images],
    )


def rewrite(path, data: bytes, mtime_ns: int | None = None) -> None:
    """Write ``data`` over the file at ``path`` (the same inode), its mtime
    set back to ``mtime_ns`` if given, once a change is stamped with a later
    ctime than the file has. A file system stamps changes with a coarse
    clock, so a rewrite within the tick of the change before it keeps its
    ctime: the stat binding (``formats._file_digest``) rules that out by
    binding only files older than its margin, which a test that moves the
    clock forward instead of waiting must rule out itself."""
    path = Path(path)
    before, probe = path.stat().st_ctime_ns, path.with_name(path.name + ".tick")
    probe.write_bytes(b"")
    while probe.stat().st_ctime_ns <= before:
        os.utime(probe)
    probe.unlink()
    path.write_bytes(data)
    if mtime_ns is not None:
        os.utime(path, ns=(path.stat().st_atime_ns, mtime_ns))
