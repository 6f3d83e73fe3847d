"""Properties that let every prediction pass through one post-NMS stage,
whose output pseudo-labelling and scoring share, that let the pseudo-label
audit compare only within (image, class), that keep the JSONL readers from
failing on any input without naming the line, and that pin the array-backed
detection core, ground truth and evaluation to the per-detection and
per-object code they replaced, kept here as oracles. The fast paths
(long-lived generators and one array build per chunk in the synthetic
detector, whole-array input checks, one log matrix per image when scoring)
are pinned to the code they replaced in the same way, and so are the chunked
pass of NMS, matching and scoring and the one set of pseudo-labels to the
per-image code. Every prediction
derived from a clamped one stays inside its image without being checked
again, and every eval table the writer produces reads back."""

import hashlib
import json
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    Box,
    _image_entropy,
    _image_inconsistency,
    ap_eleven_point_scan,
    chunk_bits,
    chunk_of,
    dataset_of,
    entropy,
    fresh_stream_predict,
    fstring_scores_csv,
    image_score,
    image_scores,
    json_dumps_pseudo_labels,
    load_dataset_per_record,
    one_image,
    one_shot_pseudo_labels_jsonl,
    one_shot_scores_csv,
    per_image_match,
    per_image_post_nms,
    per_image_threshold_labels,
    per_image_topk_labels,
    per_image_unified_score,
    read_predictions_per_record,
    rewrite,
    rowwise_checked_boxes,
    rowwise_checked_probs,
    scalar_iou,
    sorted_selection,
    stream_key,
    sym_kl,
)

from aldet import evaluation, formats, pseudo_label
from aldet.acquisition import (
    AcquisitionConfig,
    AcquisitionScores,
    chunked,
    post_nms,
    select_for_labeling,
    unified_score,
)
from aldet.boxes import (
    Detections,
    checked_boxes,
    checked_probs,
    hflip,
    iou,
    nms,
)
from aldet.dataset import Dataset, ImageRecord, checked_image_id, make_synthetic_dataset
from aldet.evaluation import EvalResult, map50
from aldet.matching import MatchResult, match_predictions
from aldet.pool import SELECTION_STRATEGIES, Pool
from aldet.pseudo_label import PseudoLabels, audit_pl_correctness
from aldet.sim_detector import SyntheticDetector, SyntheticDetectorConfig, _bounded_integers, _reset, _uniforms

SIZE = 100
N_CLASSES = 3

# Coarse grids make overlapping boxes and equal scores common, so the
# suppression and tie-breaking paths are exercised.
coords = st.integers(0, 9).map(lambda v: 10.0 * v)
sides = st.integers(1, 6).map(lambda v: 10.0 * v)
logits = st.lists(st.integers(-4, 4), min_size=N_CLASSES + 1, max_size=N_CLASSES + 1)


@st.composite
def detection(draw):
    """One detection as (corner box, class distribution)."""
    x0, y0 = draw(coords), draw(coords)
    box = [x0, y0, min(SIZE, x0 + draw(sides)), min(SIZE, y0 + draw(sides))]
    z = np.exp(np.asarray(draw(logits), dtype=np.float64))
    return box, z / z.sum()


def as_prediction(dets, image_id="img"):
    boxes = np.array([box for box, _ in dets]).reshape(-1, 4)
    probs = np.array([probs for _, probs in dets]).reshape(len(dets), N_CLASSES + 1)
    return one_image(image_id, SIZE, SIZE, Detections(boxes, probs))


def prediction(max_dets=8):
    return st.lists(detection(), max_size=max_dets).map(as_prediction)


iou_thresholds = st.sampled_from([0.1, 0.3, 0.45, 0.7, 1.0])
score_floors = st.sampled_from([0.0, 0.01, 0.3, 0.6])


@settings(deadline=None, max_examples=200)
@given(prediction(), iou_thresholds, score_floors)
def test_nms_is_idempotent_and_keeps_order(pred, iou_threshold, score_floor):
    once = nms(pred.detections, iou_threshold, score_floor)
    assert nms(once, iou_threshold, score_floor) == once


@settings(deadline=None, max_examples=200)
@given(
    prediction(),
    prediction(),
    iou_thresholds,
    score_floors,
    st.sampled_from([0.0, 0.3, 0.5]),
)
def test_scores_from_post_nms_originals_equal_scores_from_raw(
    orig, flipped, iou_threshold, score_floor, min_match_iou
):
    # Passing a post-NMS original through post_nms again changes neither the
    # prediction nor its scores, so one NMS per prediction keeps every score.
    cfg = AcquisitionConfig(iou_threshold, score_floor, min_match_iou)
    once = post_nms(chunk_of([orig]), cfg)
    assert post_nms(once, cfg) == once
    unflipped = post_nms(replace(chunk_of([flipped]), flipped=True), cfg)
    assert unified_score(post_nms(once, cfg), unflipped, min_match_iou) == unified_score(
        once, unflipped, min_match_iou
    )


# -- pseudo-label audit ---------------------------------------------------------


def brute_force_audit(pls, gt):
    """The O(P*G) audit: every pseudo-label against every ground-truth object,
    both given as (image id, box, class) items."""
    if not pls:
        return 1.0
    candidates = []
    for pi, (pl_image, pl_box, pl_class) in enumerate(pls):
        for gi, (gt_image, gt_box, gt_class) in enumerate(gt):
            if gt_image != pl_image or gt_class != pl_class:
                continue
            v = scalar_iou(pl_box, gt_box)
            if v > 0.5:
                candidates.append((v, pi, gi))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    matched_pl: set[int] = set()
    used_gt: set[int] = set()
    for v, pi, gi in candidates:
        if pi in matched_pl or gi in used_gt:
            continue
        matched_pl.add(pi)
        used_gt.add(gi)
    return len(matched_pl) / len(pls)


def by_image(items, image_ids):
    """``(box, class)`` lists of each image, in item order."""
    out = {image_id: [] for image_id in image_ids}
    for image_id, box, cls in items:
        out[image_id].append((box, cls))
    return out


def as_pseudo_labels(items) -> PseudoLabels:
    """One confidence-0.99 pseudo-label per (image id, box, class) item,
    image by image in id order, each image's in item order."""
    rows = sorted(items, key=lambda item: item[0])
    return PseudoLabels([i for i, _, _ in rows], [b for _, b, _ in rows], [c for _, _, c in rows],
                        [0.99] * len(rows))


def as_dataset(items, image_ids="abc") -> Dataset:
    """One ground-truth box per (image id, box, class) item, in images
    ``image_ids``."""
    return dataset_of(
        tuple(f"c{k}" for k in range(1, N_CLASSES + 1)),
        tuple(ImageRecord(i, SIZE, SIZE, [b for b, _ in rows], [c for _, c in rows])
              for i, rows in by_image(items, image_ids).items()),
    )


# Few images, classes and grid positions, so that several labels share a
# group, IoU ties are common and IoU is exactly 0.5 (e.g. 20x10 against 10x10).
audit_coords = st.integers(0, 3).map(lambda v: 10.0 * v)
audit_sides = st.integers(1, 3).map(lambda v: 10.0 * v)


@st.composite
def labelled_box(draw, images="abc"):
    x0, y0 = draw(audit_coords), draw(audit_coords)
    box = Box(x0, y0, x0 + draw(audit_sides), y0 + draw(audit_sides))
    return draw(st.sampled_from(images)), box, draw(st.integers(1, N_CLASSES))


labelled_boxes = st.lists(labelled_box(), max_size=12)


@settings(deadline=None, max_examples=200)
@given(labelled_boxes, labelled_boxes)
def test_audit_equals_brute_force(pls, gt):
    got = audit_pl_correctness(as_pseudo_labels(pls), as_dataset(gt))
    assert got == brute_force_audit(pls, gt)


def test_audit_compares_within_image_and_class(monkeypatch):
    # every box has its own xmin, so each IoU pair can be traced back to its groups
    group_of = {}

    def item(image_id, class_id, k):
        group_of[float(k)] = (image_id, class_id)
        return image_id, (float(k), 0.0, k + 10.0, 10.0), class_id

    groups = [(i, c) for i in "abcd" for c in (1, 2, 3)]
    pls = [item(i, c, 3 * k) for k, (i, c) in enumerate(groups * 2)]
    gt = [item(i, c, 3 * k + 1) for k, (i, c) in enumerate(groups * 3)]
    calls = []

    def counting_iou(a, b):
        calls.append([(group_of[x], group_of[y]) for x, y in zip(a[:, 0].tolist(), b[:, 0].tolist())])
        return iou(a, b)

    monkeypatch.setattr(pseudo_label, "iou", counting_iou)
    audit_pl_correctness(as_pseudo_labels(pls), as_dataset(gt, "abcd"))
    # one IoU call, on same-(image, class) pairs only
    (pairs,) = calls
    assert all(a == b for a, b in pairs)
    assert len(pairs) == len(groups) * 2 * 3


# -- pseudo-label extractors ------------------------------------------------------


def label_bits(pls):
    """Everything a set of pseudo-labels holds: its image ids, and each other
    array as its dtype, shape and bytes."""
    return pls.image_ids.tolist(), [(a.dtype.str, a.shape, a.tobytes()) for a in (pls.boxes, pls.class_ids, pls.scores)]


@st.composite
def chunked_images(draw):
    """Predictions of up to 6 images, their ids out of id order, cut into
    chunks at arbitrary image boundaries."""
    ids = draw(st.permutations([f"img_{k}" for k in range(6)]))[: draw(st.integers(0, 6))]
    preds = [as_prediction(draw(st.lists(detection(), max_size=6)), image_id) for image_id in ids]
    cuts = [0] + [k for k in range(1, len(ids)) if draw(st.booleans())] + [len(ids)]
    return preds, [chunk_of(preds[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b]


@settings(deadline=None, max_examples=300)
@given(chunked_images(), st.sampled_from([0.3, 0.5, 0.9, 0.99]), st.sampled_from([0.1, 0.25, 0.5, 1.0]))
def test_extractors_equal_per_image_oracles(images, tau, k_fraction):
    # One set for all images, built a chunk at a time, equals the per-image
    # sets of the code it replaced, joined in input order, row for row and
    # bit for bit. Integer logits make confidence ties across images common,
    # so top-k's tie-break by image id, then row, is exercised.
    preds, chunks = images
    ids = [p.image_ids[0] for p in preds]
    one_per_image = [chunk_of([p]) for p in preds]
    for extract, oracle, setting in (
        (pseudo_label.extract_pseudo_labels, per_image_threshold_labels, tau),
        (pseudo_label.extract_topk_per_class, per_image_topk_labels, k_fraction),
    ):
        by_image = oracle(one_per_image, setting)
        expected = PseudoLabels.concat(by_image[i] for i in ids if i in by_image)
        assert label_bits(extract(chunks, setting)) == label_bits(expected)


# -- evaluation ---------------------------------------------------------------------


def oracle_assign_tp_fp(dets, image_ids, gt, class_id):
    """The per-object TP/FP assignment of one class: each detection, by
    (-score, row), against the best-IoU (the first of equal IoUs) ground-truth
    box of its image and class, a TP iff that IoU exceeds 0.5 and the box is
    unclaimed. ``gt`` is a list of (image id, box, class) items."""
    gt_boxes: dict[str, list] = {}
    for image_id, box, cls in gt:
        if cls == class_id:
            gt_boxes.setdefault(image_id, []).append([box, False])
    n_gt = sum(len(v) for v in gt_boxes.values())

    rows = np.flatnonzero(dets.class_ids == class_id)
    rows = rows[np.argsort(-dets.scores[rows], kind="stable")]

    flags: list[bool] = []
    for row, box in zip(rows.tolist(), dets.boxes[rows].tolist()):
        best_iou, best = 0.0, None
        for entry in gt_boxes.get(image_ids[row], ()):
            v = scalar_iou(box, entry[0])
            if v > best_iou:
                best_iou, best = v, entry
        if best is not None and best_iou > 0.5 and not best[1]:
            best[1] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags, n_gt


@st.composite
def scored_detection(draw):
    """(image id, box, class distribution); the dataset lacks image "d"."""
    image_id, box, _ = draw(labelled_box("abcd"))
    z = np.exp(np.asarray(draw(logits), dtype=np.float64))
    return image_id, box, z / z.sum()


# The first detection has equal IoUs (0.6, above 0.5) with both ground-truth
# boxes and takes the first; the second, ranked lower, then finds its best box
# claimed.
EQUAL_IOUS = (
    [("a", Box(5.0, 0.0, 25.0, 10.0), np.array([0.1, 0.7, 0.1, 0.1])),
     ("a", Box(0.0, 0.0, 20.0, 10.0), np.array([0.1, 0.6, 0.2, 0.1]))],
    [("a", Box(0.0, 0.0, 20.0, 10.0), 1), ("a", Box(10.0, 0.0, 30.0, 10.0), 1)],
)


@settings(deadline=None, max_examples=300)
@example(*EQUAL_IOUS)
@given(st.lists(scored_detection(), max_size=14), labelled_boxes)
def test_map50_equals_per_object_oracle(items, gt):
    dets = Detections(np.array([b for _, b, _ in items]).reshape(-1, 4),
                      np.array([p for _, _, p in items]).reshape(len(items), N_CLASSES + 1))
    image_ids = [i for i, _, _ in items]
    got = map50(dets, image_ids, as_dataset(gt))

    per_class, n_gt = {}, {}
    for c in range(1, N_CLASSES + 1):
        flags, n_gt[c] = oracle_assign_tp_fp(dets, image_ids, gt, c)
        if n_gt[c]:
            per_class[c] = evaluation._ap_eleven_point(flags, n_gt[c]) if flags else 0.0
    assert got == EvalResult(per_class, n_gt)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.booleans(), max_size=40).flatmap(
    lambda flags: st.tuples(st.just(flags), st.integers(1, len(flags) + 3))))
def test_ap_eleven_point_equals_per_knot_scan(case):
    # Suffix maxima of the precisions give each knot's best precision, and the
    # knots add up in the same order, so the AP is the same float.
    flags, n_gt = case
    assert evaluation._ap_eleven_point(flags, n_gt).hex() == ap_eleven_point_scan(flags, n_gt).hex()


# -- line-based readers on arbitrary bytes ----------------------------------------

RECORD_KEYS = ("image_id", "flipped", "detections", "bbox", "encoded", "probs", "class_id",
               "confidence")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.just("img") | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(RECORD_KEYS), inner, max_size=len(RECORD_KEYS)),
    max_leaves=16,
)
VALID_LINES = (
    b'{"image_id": "img", "flipped": false, "detections": [{"bbox": [0, 0, 10, 10], '
    b'"encoded": [0, 0, 1, 1], "probs": [0.25, 0.75]}]}',
    b'{"image_id": "img", "bbox": [0, 0, 10, 10], "class_id": 1, "confidence": 0.99}',
)
# Raw bytes, arbitrary JSON over the record keys, and valid records, so that
# the decoder, the JSON parser and the record checks are all reached.
jsonl_files = st.lists(
    st.binary(max_size=24)
    | json_values.map(lambda v: json.dumps(v).encode())
    | st.sampled_from(VALID_LINES),
    max_size=4,
).map(b"\n".join)


@settings(deadline=None, max_examples=300)
@given(jsonl_files)
def test_jsonl_readers_parse_or_name_the_line(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "arbitrary.jsonl"
    path.write_bytes(data)
    readers = (
        lambda p: formats.read_predictions_jsonl(p, {"img": (SIZE, SIZE)}),
        lambda p: formats.read_pseudo_labels_jsonl(p, 3),
    )
    for read in readers:
        try:
            read(path)
        except ValueError as e:
            assert str(e).startswith(f"{path}: line "), e


# -- writers against the code they replaced, and round trips -------------------------


def accepted_id(text: str) -> bool:
    """Whether :func:`checked_image_id` accepts ``text`` as an image id."""
    try:
        checked_image_id(text)
    except ValueError:
        return False
    return True


# Ids with quotes, backslashes, control characters and non-ASCII text beyond
# the BMP, all of which json escapes; few enough that rows share ids. (A lone
# surrogate is no id: no UTF-8 writer can encode it.)
escaped_ids = st.text(st.sampled_from('a"\\/\x00\x1f\x7f \u00e9\u2028\U0001f600') | st.characters(),
                      max_size=4).filter(accepted_id)
# Floats in every notation float.__repr__ uses: signed zero, the smallest
# subnormal, exponents both ways, and long mantissas.
pl_coords = st.sampled_from([-0.0, 0.0, 5e-324, 1e-7, 0.1, 1.0 / 3.0, 1e16, 1.5e300]) | st.floats(-1e20, 1e20)
pl_scores = st.sampled_from([5e-324, 1e-5, 0.1, 0.5, 0.99, 1.0]) | st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def pseudo_label_sets(draw):
    """A pseudo-label set whose rows share ids, confidences and classes often
    enough that every level of the writer's sort breaks ties."""
    ids = draw(st.lists(escaped_ids, min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        x, y = sorted(draw(pl_coords) for _ in range(2)), sorted(draw(pl_coords) for _ in range(2))
        rows.append((draw(st.sampled_from(ids)), [x[0], y[0], x[1], y[1]], draw(st.integers(1, 3)),
                     draw(pl_scores)))
    return PseudoLabels(*zip(*rows)) if rows else PseudoLabels()


@settings(deadline=None, max_examples=300)
@given(pseudo_label_sets())
@example(PseudoLabels(['"\\', '"\\', "\u00e9\x01"], [[-0.0, 5e-324, 1e16, 1e16]] * 3, [2, 1, 3],
                      [5e-324, 5e-324, 1.0]))
def test_pseudo_label_writer_equals_json_dumps(tmp_path_factory, pls):
    # The writer formats each row with one template; the oracle makes one
    # json.dumps(record, sort_keys=True) call per row, as the writer once did.
    path = tmp_path_factory.getbasetemp() / "pseudo.jsonl"
    formats.write_pseudo_labels_jsonl(pls, path)
    assert path.read_bytes() == json_dumps_pseudo_labels(pls).encode("utf-8")


@settings(deadline=None, max_examples=300)
@given(st.lists(st.text(max_size=5).filter(accepted_id), unique=True, max_size=5),
       st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_scores_csv_reads_back_every_id_it_writes(tmp_path_factory, ids, entropy, inconsistency):
    # Ids are written unquoted: every id the writer accepts reads back
    # equal, and a set with an id it cannot hold writes nothing. (An id
    # ending in NUL is no id: a set of scores cannot hold it.)
    path = tmp_path_factory.getbasetemp() / "scores.csv"
    path.unlink(missing_ok=True)
    scores = AcquisitionScores(ids, [entropy] * len(ids), [inconsistency] * len(ids))
    try:
        formats.write_scores_csv(scores, path)
    except ValueError as e:
        assert not path.exists()
        assert any(f"image_id {i!r} " in str(e) and ("," in i or "\n" in i or i[:1].isspace()) for i in ids), e
        return
    read = formats.read_scores_csv(path)
    assert read.image_ids.tolist() == sorted(ids)
    assert all(f"{h:.6f},{i:.6f}" == f"{entropy:.6f},{inconsistency:.6f}"
               for h, i in zip(read.entropy.tolist(), read.inconsistency.tolist()))


# -- the one set of scores against the per-image objects it replaced ---------------

# Few ids and values, so that rows tie on a value and, in the writer's
# input, on an id; signed zeros, which compare equal; and ids in any order.
score_ids = st.sampled_from(["a", "b", "B", "a0", "img_9", "img_10", "\u00e9", "x y", ""]) | st.text(max_size=3)
score_values = st.sampled_from([0.0, -0.0, 5e-324, 0.25, 1.0 / 3.0, 1.0, 1e300]) | st.floats(0.0, 1e3)


@st.composite
def score_columns(draw, unique: bool):
    """The id, entropy and inconsistency columns of a set of scores whose
    ids the scores CSV holds."""
    writable = score_ids.filter(lambda i: accepted_id(i) and not ("," in i or "\n" in i or i[:1].isspace()))
    ids = draw(st.lists(writable, unique=unique, max_size=12))
    return ids, *(draw(st.lists(score_values, min_size=len(ids), max_size=len(ids))) for _ in range(2))


@settings(deadline=None, max_examples=300)
@given(score_columns(unique=True), st.sampled_from(SELECTION_STRATEGIES), st.data())
@example((["c", "a", "b", "d"], [0.0, -0.0, 1.0, 0.0], [1.0, 1.0, 0.5, -0.0]), "entropy", None)
def test_selection_equals_sorted_reference(columns, strategy, data):
    # One np.lexsort((image_ids, -column)) ranks as sorted() by (-value,
    # image_id) did over one object per image, and the random draw permutes
    # the sorted ids as it did.
    scores = AcquisitionScores(*columns)
    rows = [image_score(*row) for row in zip(*columns)]
    budgets = range(len(rows) + 1) if data is None else [data.draw(st.integers(0, len(rows)))]
    for budget in budgets:
        for seed in (0, (7, 1)):
            assert (select_for_labeling(scores, budget, strategy, seed=seed)
                    == sorted_selection(rows, budget, strategy, seed=seed))


@settings(deadline=None, max_examples=300)
@given(score_columns(unique=False))
def test_scores_writer_equals_fstring_writer(tmp_path_factory, columns):
    # The writer orders rows with one stable argsort by id and formats each
    # with one template; the oracle wrote one f-string per object, as the
    # writer once did.
    path = tmp_path_factory.getbasetemp() / "scores.csv"
    formats.write_scores_csv(AcquisitionScores(*columns), path)
    assert path.read_bytes() == fstring_scores_csv([image_score(*row) for row in zip(*columns)]).encode("utf-8")


# Sets of no row, one row, and one row short of, exactly at, one past and
# well past a block boundary of the block writers.
B = formats.WRITE_BLOCK_ROWS


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
@settings(deadline=None, max_examples=10)
@given(st.lists(escaped_ids, min_size=1, max_size=3), st.lists(pl_scores, min_size=1, max_size=3),
       st.lists(score_values, min_size=1, max_size=3), st.integers(0, 2**32 - 1))
def test_block_writers_equal_one_shot_writers(tmp_path_factory, n, ids, confidences, values, seed):
    # The writers take, format and write one block of rows at a time; the
    # oracles sort the whole set and format it as one string, as the
    # writers once did. Rows draw from a few ids, confidences and classes,
    # so they tie on (image_id, -confidence, class_id) and on the scores
    # CSV's id across block boundaries, and only row order, which the
    # distinct boxes and values reveal, breaks the tie.
    rng = np.random.default_rng(seed)

    def pick(pool):
        return [pool[k] for k in rng.integers(0, len(pool), n).tolist()]

    boxes = np.sort(rng.uniform(-1e3, 1e3, (n, 2, 2)), axis=1).reshape(n, 4)  # rows of (x0, y0), (x1, y1)
    pls = PseudoLabels(pick(ids), boxes, rng.integers(1, 4, n), pick(confidences))
    path = tmp_path_factory.getbasetemp() / "pseudo.jsonl"
    formats.write_pseudo_labels_jsonl(pls, path)
    assert path.read_bytes() == one_shot_pseudo_labels_jsonl(pls).encode("utf-8")

    # The scores CSV holds ids unquoted.
    writable = [i for i in ids if not ("," in i or "\n" in i or i[:1].isspace())] or ["a"]
    scores = AcquisitionScores(pick(writable), pick(values), rng.uniform(0.0, 1e3, n))
    path = tmp_path_factory.getbasetemp() / "scores.csv"
    formats.write_scores_csv(scores, path)
    assert path.read_bytes() == one_shot_scores_csv(scores).encode("utf-8")


# APs anywhere in [0, 1], and halfway between two six-decimal values, where
# the writer's rounding moves them furthest.
eval_aps = st.floats(0.0, 1.0) | st.integers(0, 999_999).map(lambda v: (v + 0.5) / 1e6)


@settings(deadline=None, max_examples=300)
@given(st.dictionaries(st.integers(1, 30), st.tuples(eval_aps, st.integers(0, 100)), max_size=8))
def test_written_eval_csv_reads_back(tmp_path_factory, classes):
    # class -> (AP, n_gt); a class with n_gt 0 is excluded and has no AP
    result = EvalResult(
        {c: ap for c, (ap, n) in classes.items() if n},
        {c: n for c, (_, n) in classes.items()},
    )
    path = tmp_path_factory.getbasetemp() / "eval.csv"
    formats.write_eval_csv(result, path)
    back = formats.read_eval_csv(path)
    assert back.n_gt == result.n_gt and set(back.excluded) == set(result.excluded)
    assert all(abs(back.per_class_ap[c] - ap) <= 5e-7 + 1e-12 for c, ap in result.per_class_ap.items())


# -- the array-backed core against the per-detection code it replaced ------------


def bits(v: float) -> str:
    return float(v).hex()


def grid_boxes(min_side):
    """Grid boxes inside the image: they touch, nest and tie on IoU, and with
    ``min_side`` 0 degenerate to zero width or height."""
    return st.lists(
        st.tuples(coords, coords, st.integers(min_side, 6), st.integers(min_side, 6)).map(
            lambda t: [t[0], t[1], min(SIZE, t[0] + 10.0 * t[2]), min(SIZE, t[1] + 10.0 * t[3])]
        ),
        min_size=1,
        max_size=6,
    )


float_boxes = st.lists(
    st.tuples(*[st.floats(0, 100, allow_nan=False)] * 4).map(
        lambda t: [min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3])]
    ),
    min_size=1,
    max_size=6,
)


@settings(deadline=None, max_examples=300)
@given(grid_boxes(0) | float_boxes, grid_boxes(0) | float_boxes)
def test_iou_matrix_equals_scalar_iou_bit_for_bit(a, b):
    # the matrix form, and the row-pair form on the rows both lists have
    a_rows, b_rows = np.array(a), np.array(b)
    got = iou(a_rows[:, None], b_rows[None])
    assert got.shape == (len(a), len(b))
    for i, ra in enumerate(a):
        for j, rb in enumerate(b):
            assert bits(got[i, j]) == bits(scalar_iou(ra, rb))
    n = min(len(a), len(b))
    pairs = iou(a_rows[:n], b_rows[:n])
    assert [bits(v) for v in pairs.tolist()] == [bits(scalar_iou(ra, rb)) for ra, rb in zip(a, b)]


def test_iou_matrix_equals_scalar_iou_on_40k_random_pairs():
    rng = np.random.default_rng(0)
    lo = rng.uniform(0, 100, (400, 2))
    boxes = np.hstack([lo, lo + rng.uniform(0, 40, (400, 2))])
    expected = [[scalar_iou(a, b) for b in boxes[200:].tolist()] for a in boxes[:200].tolist()]
    assert iou(boxes[:200, None], boxes[None, 200:]).tolist() == expected
    # the same pairs as rows: row k of each side is the pair (k // 200, k % 200)
    left, right = np.repeat(boxes[:200], 200, axis=0), np.tile(boxes[200:], (200, 1))
    assert iou(left, right).tolist() == [v for row in expected for v in row]


def oracle_nms(dets, iou_threshold, score_floor):
    """The per-detection NMS: rows kept, grouped by argmax class, each class
    greedy by (-score, index), then sorted by (-score, index)."""
    rows = [(box, int(np.argmax(p)), float(p[int(np.argmax(p))])) for box, p in dets]
    by_class: dict[int, list[int]] = {}
    for idx, (_, cls, score) in enumerate(rows):
        if cls == 0 or score < score_floor:
            continue
        by_class.setdefault(cls, []).append(idx)
    kept: list[int] = []
    for cls in sorted(by_class):
        cls_kept: list[int] = []
        for i in sorted(by_class[cls], key=lambda i: (-rows[i][2], i)):
            if all(scalar_iou(rows[i][0], rows[j][0]) <= iou_threshold for j in cls_kept):
                cls_kept.append(i)
        kept.extend(cls_kept)
    return sorted(kept, key=lambda i: (-rows[i][2], i))


@settings(deadline=None, max_examples=300)
@given(st.lists(detection(), max_size=10), iou_thresholds, score_floors)
def test_nms_equals_per_detection_oracle(dets, iou_threshold, score_floor):
    pred = as_prediction(dets)
    expected = pred.detections.take(oracle_nms(dets, iou_threshold, score_floor))
    assert nms(pred.detections, iou_threshold, score_floor) == expected


def oracle_match(boxes_a, boxes_b, floor):
    """The candidate-list matcher: every cross pair with IoU >= floor, taken by
    (-IoU, i, j) while both members are free."""
    candidates = [
        (scalar_iou(a, b), i, j)
        for i, a in enumerate(boxes_a)
        for j, b in enumerate(boxes_b)
    ]
    taken_i, taken_j, pairs = set(), set(), []
    for _v, i, j in sorted((c for c in candidates if c[0] >= floor), key=lambda t: (-t[0], t[1], t[2])):
        if i not in taken_i and j not in taken_j:
            taken_i.add(i)
            taken_j.add(j)
            pairs.append((i, j))
    return pairs


@settings(deadline=None, max_examples=300)
@given(grid_boxes(1), grid_boxes(1), st.sampled_from([0.0, 0.1, 0.3, 0.5]))
def test_match_predictions_equals_candidate_list_oracle(boxes_a, boxes_b, floor):
    def pred(boxes):
        uniform = np.full(N_CLASSES + 1, 1.0 / (N_CLASSES + 1))
        return chunk_of([as_prediction([(box, uniform) for box in boxes])])

    result = match_predictions(pred(boxes_a), pred(boxes_b), floor)
    expected = oracle_match(boxes_a, boxes_b, floor)
    assert list(result.pairs) == expected


@settings(deadline=None, max_examples=200)
@given(prediction())
def test_hflip_is_an_involution(pred):
    chunk = chunk_of([pred])
    assert hflip(hflip(chunk)) == chunk
    # one flip toggles the frame the boxes are in
    assert (chunk.flipped, hflip(chunk).flipped) == (False, True)


# -- per-image fast paths against the per-row and fresh-generator code ----------


@st.composite
def scene(draw):
    """A small dataset with arbitrary image ids, images from 20 to 300 pixels a
    side and 0-3 ground-truth boxes each (some thinner than a pixel)."""
    k = draw(st.sampled_from([1, 2, 5]))
    ids = draw(st.lists(st.text(min_size=1, max_size=6).filter(accepted_id), min_size=1, max_size=6, unique=True))
    images = []
    for image_id in ids:
        w, h = draw(st.sampled_from([20, 64, 300])), draw(st.sampled_from([20, 64, 300]))
        boxes, classes = [], []
        for _ in range(draw(st.integers(0, 3))):
            x0, y0 = draw(st.floats(0, w - 0.5)), draw(st.floats(0, h - 0.5))
            boxes.append([x0, y0, draw(st.floats(x0, w)), draw(st.floats(y0, h))])
            classes.append(draw(st.integers(1, k)))
        images.append(ImageRecord(image_id, w, h, boxes, classes))
    return dataset_of(tuple(f"c{c}" for c in range(1, k + 1)), tuple(images))


# Zero-width and zero-height boxes on the edges of a 64-pixel image, some at
# -0.0: each needs a _MIN_BOX repair, and an edge jittered to -0.0 meets
# Python's min and max on a tie of 0.0 and -0.0, where the first argument
# wins (np.minimum and np.maximum return the second, which the writers print
# apart).
EDGE_BOXES = [[-0.0, 5, 0.0, 9], [-0.0, 5, -0.0, 9], [5, -0.0, 9, -0.0], [64, 10, 64, 20], [10, 64, 20, 64]]


def edge_scene(k):
    """Three 64-pixel images holding EDGE_BOXES, of classes 1..K in turn."""
    classes = [1 + n % k for n in range(len(EDGE_BOXES))]
    return dataset_of(tuple(f"c{c}" for c in range(1, k + 1)),
                      tuple(ImageRecord(i, 64, 64, EDGE_BOXES, classes) for i in "abc"))


def layout_scene(k):
    """Four 300-pixel images holding 0, 1, 2 and 3 objects, of classes 1..K in
    turn."""
    boxes = [[10, 10, 60, 70], [100, 40, 180, 90], [30, 150, 140, 260]]
    return dataset_of(tuple(f"c{c}" for c in range(1, k + 1)), tuple(
        ImageRecord(image_id, 300, 300, boxes[:n], [1 + j % k for j in range(n)]) for n, image_id in enumerate("abcd")))


@settings(deadline=None, max_examples=60)
@given(
    scene(),
    st.integers(-(2**63), 2**64 - 1),
    st.sampled_from([0.0, 0.5, 3.0]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2),
    st.integers(1, 4),
)
@example(  # images without objects and no false positives: an all-empty last chunk
    data=dataset_of(("c1",), (ImageRecord("a", 64, 64, [], []), ImageRecord("b", 20, 300, [[1, 1, 5, 5]], [1]),
                           ImageRecord("c", 300, 20, [], []))),
    seed=7, fp_rate=0.0, accuracy=0.5, robustness=0.5, updates=2, size=2,
)
@example(data=edge_scene(1), seed=3, fp_rate=3.0, accuracy=0.5, robustness=0.5, updates=2, size=2)
@example(data=edge_scene(2), seed=5, fp_rate=3.0, accuracy=0.5, robustness=0.5, updates=2, size=2)
# At seed 2, version 0 gives each image at least two false positives in both
# views, after 0, 1, 2 and 3 objects: at K = 3 a false positive's fresh word
# comes before its peak word after an even number of objects and after it
# after an odd one; at K = 2 the objects draw no integer (a bound of 1) and
# the false positives' class draws alternate between the two layouts.
@example(data=layout_scene(2), seed=2, fp_rate=3.0, accuracy=0.5, robustness=0.5, updates=1, size=2)
@example(data=layout_scene(3), seed=2, fp_rate=3.0, accuracy=0.5, robustness=0.5, updates=1, size=4)
def test_predict_equals_fresh_generator_oracle(data, seed, fp_rate, accuracy, robustness, updates, size):
    # The detector predicts a chunk per call: it puts one long-lived
    # generator at the start of each image's stream, draws a detection's raw
    # words in one call and its normals in another, takes bounded integers
    # from the words in the array pass, reuses the last original call's
    # logits in the flipped view and builds the chunk's arrays once. The
    # oracle builds a fresh Philox generator per stream and one prediction
    # per image, as predict once did, joined into a chunk.
    # Every version reached by update() must agree bit for bit, whatever was
    # predicted before, in chunks of 1-4 images (the last one shorter when
    # the size does not divide the run).
    cfg = SyntheticDetectorConfig(
        seed=seed, fp_rate=fp_rate, accuracy=accuracy,
        flip_robustness=robustness, skill_gain_per_labeled=0.1, skill_gain_per_pseudo=0.05,
    )
    dets = [SyntheticDetector(cfg, data)]
    ids = data.image_ids
    for v in range(updates):
        labeled = ids[: v + 1]
        n = len(ids) - v - 1
        pseudo = PseudoLabels(ids[v + 1:], [[0, 0, 9, 9]] * n, [1] * n, [0.99] * n)
        dets.append(dets[-1].update(Pool(frozenset(labeled), frozenset(ids) - set(labeled), pseudo)))

    def check(det, group, flipped):
        expected = chunk_of([fresh_stream_predict(det, data, i, flipped) for i in group])
        assert chunk_bits(det.predict(group, flipped)) == chunk_bits(expected)

    for det in dets + dets[:1]:  # the first version again, after its successors ran
        for flipped in (True, False, True):
            for group in chunked(ids, size):
                check(det, group, flipped)
        # Each group's flipped view right after its original view, which
        # reuses that call's logits, then with one more image, whose logits
        # are replayed.
        for start in range(0, len(ids), size):
            check(det, ids[start:start + size], False)
            check(det, ids[start:start + size], True)
            check(det, ids[start:start + size + 1], True)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.text(min_size=1, max_size=6).filter(accepted_id), min_size=1, max_size=6, unique=True),
       st.integers(2**64 - 2**8, 2**64 - 1))
@example(ids=["img_0", "\u00e9", "\U0001f600", "\x7f"], seed=2**64 - 1)
def test_stream_key_columns_equal_the_scalar_keys(ids, seed):
    # The detector keys both streams of every dataset image once, when it is
    # built, as one column per tag by dataset position; each key is the
    # oracle's _mix64 of the id's blake2b-64 and the tag, whatever the seed,
    # and update's versions share the columns.
    data = dataset_of(("c1",), tuple(ImageRecord(i, 64, 64, [], []) for i in ids))
    det = SyntheticDetector(SyntheticDetectorConfig(seed=seed), data)
    newer = det.update(Pool(frozenset(ids[:1]), frozenset(ids[1:])))
    assert det._k2.tolist() == [[stream_key(i, tag) for i in ids] for tag in (0, 1)]
    assert newer._k2 is det._k2


INTEGER_BOUNDS = [1, 2, 3, 20, 21, 3 * 2**30, 2**31 + 1, 2**32 - 1]


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.booleans()), min_size=1, max_size=8),
       st.sampled_from(INTEGER_BOUNDS))
@example(draws=[(0, False), (2**32 - 1, False), (2**64 - 1, True), (2**32, True)], n=3 * 2**30)
def test_bounded_integers_equal_numpy(draws, n):
    # Each draw is the high or the low half of a raw word, made the 32-bit
    # draw that numpy's Generator.integers(0, n) takes next. Where numpy
    # keeps it, its value is the helper's; numpy takes another draw exactly
    # where the helper reports a rejection; and a bound of 1 takes no draw.
    words = np.array([w for w, _ in draws], dtype=np.uint64)
    high = np.array([h for _, h in draws])
    values, rejected = _bounded_integers(words, high, n)
    assert values.dtype == np.intp and rejected.dtype == bool
    for (word, h), value, flag in zip(draws, values.tolist(), rejected.tolist()):
        gen = np.random.Generator(np.random.Philox(key=np.array([5, 9], dtype=np.uint64)))
        state = gen.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, word >> 32 if h else word & 0xFFFFFFFF
        gen.bit_generator.state = state
        got = int(gen.integers(0, n))
        after = gen.bit_generator.state
        assert (after["buffer_pos"] != 4) == flag  # another draw takes a fresh word
        if not flag:
            assert got == value and after["has_uint32"] == (n == 1)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
    st.lists(st.sampled_from(INTEGER_BOUNDS)
             | st.sampled_from(["raw", "random", "random4", "normal", "poisson", "reset"]), max_size=60),
)
@example(k1=1, k2=2, ops=[3 * 2**30] * 40 + ["normal"] + [2**31 + 1] * 40)  # rejects many times
@example(k1=1, k2=2, ops=[3 * 2**30] * 40 + ["raw"] + [2**31 + 1] * 40)
def test_integers_from_raw_words_equal_numpy(k1, k2, ops):
    # Generator.integers(0, n) taken from the raw words of a generator put
    # on stream [k1, k2] by _reset, as the array pass takes it: an even draw
    # takes the low half of a fresh word, an odd one the high half the
    # previous draw left, by _bounded_integers, and a rejected draw moves to
    # the next half; a bound of 1 draws nothing. n above 2**30 rejects often
    # and leaves half words behind that random_raw, random, standard_normal
    # and poisson must not disturb; "reset" must drop them. If numpy changes
    # its algorithm, this fails.
    stream = np.random.Generator(np.random.Philox(0))
    bits = stream.bit_generator
    _reset(bits, k1, k2)
    gen = np.random.Generator(np.random.Philox(key=np.array([k1, k2], dtype=np.uint64)))
    half = None  # the word whose high half the next draw takes
    for op in ops:
        if op == "reset":
            _reset(bits, k1, k2)
            gen = np.random.Generator(np.random.Philox(key=np.array([k1, k2], dtype=np.uint64)))
            half = None
        elif op == "raw":
            assert bits.random_raw() == gen.bit_generator.random_raw()
        elif op == "random":
            assert _uniforms([bits.random_raw()])[0] == gen.random()
        elif op == "random4":
            assert _uniforms(bits.random_raw(4)).tobytes() == gen.random(4).tobytes()
        elif op == "normal":
            assert stream.standard_normal(21).tobytes() == gen.standard_normal(21).tobytes()
        elif op == "poisson":
            assert stream.poisson(4.0) == gen.poisson(4.0)
        else:
            got = 0
            while op > 1:
                if half is None:
                    word = half = bits.random_raw()
                    high = False
                else:
                    word, high, half = half, True, None
                values, rejected = _bounded_integers(np.array([word], dtype=np.uint64), high, op)
                if not rejected[0]:
                    got = values[0]
                    break
            assert got == int(gen.integers(0, op))


def test_predict_builds_no_generator(monkeypatch):
    data = make_synthetic_dataset(5, 3, seed=2)
    det = SyntheticDetector(SyntheticDetectorConfig(fp_rate=2.0, seed=4), data)
    det = det.update(Pool(frozenset(data.image_ids[:1]), frozenset(data.image_ids[1:])))
    built = []

    def counting(cls):
        def build(*args, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)
        return build

    for name in ("Philox", "Generator", "SeedSequence", "default_rng"):
        monkeypatch.setattr(np.random, name, counting(getattr(np.random, name)))
    for ids in ([data.image_ids[0]], data.image_ids):
        det.predict(ids)
        det.predict(ids, flipped=True)
    assert built == []


special = st.sampled_from([0.0, 1.0, -0.0, 5.0, -3.0, 1e300, np.nan, np.inf, -np.inf])


@settings(deadline=None, max_examples=300)
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.lists(st.lists(special | st.floats(-10, 10), min_size=4, max_size=4), min_size=n, max_size=n)
    )
)
def test_checked_boxes_equals_rowwise_checks(rows):
    arr = np.array(rows, dtype=np.float64).reshape(-1, 4)
    assert_same_outcome(checked_boxes, rowwise_checked_boxes, arr)


@st.composite
def distribution_rows(draw):
    """(N, K+1) rows that are mostly distributions, some with an entry or the
    sum nudged past the bounds, a NaN or an infinity."""
    width = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        z = np.exp(np.array(draw(st.lists(st.floats(-5, 5), min_size=width, max_size=width))))
        row = (z / z.sum()).tolist()
        i = draw(st.integers(0, width - 1))
        nudge = draw(st.sampled_from(["none", "none", "add", "set"]))
        if nudge == "add":
            row[i] += draw(st.sampled_from([1e-10, -1e-10, 5e-7, -5e-7, 2e-6, -2e-6, 0.5]))
        elif nudge == "set":
            row[i] = draw(st.sampled_from([-1e-8, -1e-10, 1.0 + 1e-10, 1.0 + 1e-8, 1.5, np.nan, np.inf, -np.inf]))
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(-1, width)


@settings(deadline=None, max_examples=300)
@given(distribution_rows())
def test_checked_probs_equals_rowwise_checks(arr):
    assert_same_outcome(checked_probs, rowwise_checked_probs, arr)


def assert_same_outcome(fast, rowwise, arr):
    """Both accept with equal arrays, or both reject with the same message."""
    try:
        want = rowwise(arr.copy())
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            fast(arr)
        assert str(got.value) == str(e)
    else:
        got = fast(arr)
        assert np.array_equal(got, want) or got.size == want.size == 0


@settings(deadline=None, max_examples=200)
@given(st.lists(detection(), max_size=8), st.lists(detection(), max_size=8))
def test_image_scores_equal_per_row_values_bit_for_bit(a, b):
    p = np.array([probs for _, probs in a]).reshape(-1, N_CLASSES + 1)
    q = np.array([probs for _, probs in b]).reshape(-1, N_CLASSES + 1)
    # one-hot-ish rows reach the LOG_EPS clamp
    p = np.vstack([p, np.eye(N_CLASSES + 1)[:1]])
    q = np.vstack([q, np.eye(N_CLASSES + 1)[1:2]])
    # the oracle, whose per-image maxima the chunked scoring is pinned to below
    assert bits(_image_entropy(p)) == bits(max(entropy(r) for r in p))
    n = min(len(p), len(q))
    h, i = _image_entropy(p), _image_inconsistency(p[:n], q[:n])
    assert bits(i) == bits(max(sym_kl(x, y) for x, y in zip(p[:n], q[:n])))
    # a set of scores holds each value as it is, and its unified column is the float product
    [row] = image_scores(AcquisitionScores(["im"], [h], [i]))
    assert [bits(v) for v in row[1:]] == [bits(h), bits(i), bits(h * i)]


# -- the chunked pass against the per-image code it replaced ---------------------


@st.composite
def image_views(draw):
    """The two views of a run of images of two widths. Each view may be empty,
    and the grid detections tie on scores and IoUs, cluster within a class,
    peak on the background and fall below the score floors."""
    views = []
    for k in range(draw(st.integers(0, 7))):
        width = draw(st.sampled_from([SIZE, 130]))
        orig, flipped = (as_prediction(draw(st.lists(detection(), max_size=7)), f"im{k}")
                         for _ in range(2))
        views.append(tuple(one_image(f"im{k}", width, SIZE, p.detections, f)
                           for p, f in ((orig, False), (flipped, True))))
    return views


def score_bits(s):
    return s.image_id, bits(s.entropy), bits(s.inconsistency), bits(s.unified)


@settings(deadline=None, max_examples=250)
@given(image_views(), iou_thresholds, score_floors, st.sampled_from([0.0, 0.3, 0.5]), st.integers(1, 4))
def test_chunked_pass_equals_per_image_code_bit_for_bit(views, iou_threshold, score_floor, min_match_iou, size):
    cfg = AcquisitionConfig(iou_threshold, score_floor, min_match_iou)
    originals = [per_image_post_nms(o, cfg) for o, _ in views]
    unflipped = [per_image_post_nms(f, cfg) for _, f in views]
    expected = [per_image_unified_score(o, u, min_match_iou) for o, u in zip(originals, unflipped)]
    # chunks of one image and chunk sizes that do not divide the run
    sets = []
    for group, want_o, want_u in zip(chunked(views, size), chunked(originals, size), chunked(unflipped, size)):
        o = post_nms(chunk_of([v[0] for v in group]), cfg)
        u = post_nms(chunk_of([v[1] for v in group]), cfg)
        assert o == chunk_of(want_o)
        assert u == chunk_of(want_u)
        sets.append(unified_score(o, u, min_match_iou))
        # the per-image matches, their rows numbered across the chunk
        i0 = j0 = 0
        pairs = []
        for a, b in zip(want_o, want_u):
            pairs += [(i + i0, j + j0) for i, j in per_image_match(a, b, min_match_iou).pairs]
            i0, j0 = i0 + len(a.detections), j0 + len(b.detections)
        assert match_predictions(o, u, min_match_iou) == MatchResult(tuple(pairs))
    scores = image_scores(AcquisitionScores.concat(sets))
    assert [score_bits(s) for s in scores] == [score_bits(s) for s in expected]


finite = {"allow_nan": False, "allow_infinity": False}


@st.composite
def unclamped_prediction(draw):
    """A prediction of any size from boxes that may stick out of the image,
    which the constructor clamps."""
    width, height = draw(st.integers(1, 2000)), draw(st.integers(1, 2000))
    boxes = []
    for _ in range(draw(st.integers(0, 6))):
        x = sorted(draw(st.floats(-0.5 * width, 1.5 * width, **finite)) for _ in range(2))
        y = sorted(draw(st.floats(-0.5 * height, 1.5 * height, **finite)) for _ in range(2))
        boxes.append([x[0], y[0], x[1], y[1]])
    probs = np.full((len(boxes), N_CLASSES + 1), 0.1)
    probs[:, 1] = 1.0 - 0.1 * N_CLASSES
    return one_image("img", width, height, Detections(np.array(boxes).reshape(-1, 4), probs))


@settings(deadline=None, max_examples=300)
@given(st.lists(unclamped_prediction(), min_size=1, max_size=4), iou_thresholds, score_floors)
def test_derived_predictions_stay_inside_the_image(preds, iou_threshold, score_floor):
    cfg = AcquisitionConfig(iou_threshold, score_floor)
    # the images in one chunk and each in a chunk of its own
    chunks = [chunk_of(preds)] + [chunk_of([p]) for p in preds]
    derived = chunks + [hflip(c) for c in chunks] + [hflip(hflip(c)) for c in chunks]
    derived += [post_nms(replace(c, flipped=flipped), cfg) for c in chunks for flipped in (False, True)]
    for c in derived:
        d = c.detections
        w, h = np.array(c.widths)[d.image], np.array(c.heights)[d.image]
        assert ((d.boxes >= 0.0) & (d.boxes <= np.stack([w, h, w, h], axis=1))).all()


# -- the predictions reader against the per-record reader it replaced -----------


@st.composite
def distribution(draw, k):
    """A class distribution of width k; some peak at 1 + 1e-10 next to a
    -1e-10 entry, within the slack that the reader accepts and clips."""
    if draw(st.booleans()):
        z = np.exp(np.asarray(draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k)), dtype=np.float64))
        return (z / z.sum()).tolist()
    peak = draw(st.integers(0, k - 1))
    probs = [0.0] * k
    probs[peak], probs[(peak + 1) % k] = 1.0 + 1e-10, -1e-10
    return probs


@st.composite
def prediction_file(draw):
    """The lines of a predictions file and its images' sizes: both views or
    either or none of each image, records in any order with blank lines among
    them, some records empty, and boxes that may stick out of their image."""
    k = draw(st.sampled_from([2, 4]))
    sizes = {f"im{i}": (draw(st.sampled_from([20, 64, 300])), draw(st.sampled_from([20, 64, 300])))
             for i in range(draw(st.integers(1, 6)))}
    lines = []
    for image_id, (w, h) in sizes.items():
        for flipped in (False, True):
            if draw(st.integers(0, 3)) == 0:
                continue
            dets = []
            for _ in range(draw(st.integers(0, 3))):
                x = sorted(draw(st.floats(-0.5 * w, 1.5 * w, **finite)) for _ in range(2))
                y = sorted(draw(st.floats(-0.5 * h, 1.5 * h, **finite)) for _ in range(2))
                dets.append({"bbox": [x[0], y[0], x[1], y[1]], "encoded": [0.0, 0.0, 1.0, 1.0],
                             "probs": draw(distribution(k))})
            lines.append(json.dumps({"image_id": image_id, "flipped": flipped, "detections": dets}))
    lines = draw(st.permutations(lines + [""] * draw(st.integers(0, 2))))
    return "\n".join(lines) + "\n", sizes


@settings(deadline=None, max_examples=200)
@given(prediction_file(), st.integers(1, 4), st.randoms(use_true_random=False))
def test_reader_chunks_equal_per_record_reader_bit_for_bit(tmp_path_factory, file, size, rnd):
    # The reader reads each view into one chunk and cuts runs of images out
    # of it. The per-record reader built one clamped prediction per record:
    # the runs joined from its records must be the same arrays, whatever
    # the order of the images and the chunk size.
    text, sizes = file
    path = tmp_path_factory.getbasetemp() / "preds.jsonl"
    path.write_text(text)
    preds = formats.read_predictions_jsonl(path, sizes)
    reference = read_predictions_per_record(path, sizes)
    assert sorted(preds) == sorted(reference)
    for key, pred in reference.items():
        assert chunk_bits(preds[key]) == chunk_bits(pred)
    for flipped in (False, True):
        ids = [image_id for image_id, f in reference if f == flipped]
        assert chunk_bits(preds.views[flipped]) == chunk_bits(chunk_of([reference[(i, flipped)] for i in ids]))
        rnd.shuffle(ids)
        for group in chunked(ids, size):
            expected = chunk_of([reference[(i, flipped)] for i in group])
            assert chunk_bits(preds.chunk(group, flipped)) == chunk_bits(expected)


def _bits(preds):
    return [(flipped, view.flipped, chunk_bits(view)) for flipped, view in preds.views.items()]


def _error(read):
    try:
        read()
    except ValueError as e:
        return str(e)
    raise AssertionError("the read raised no error")


@settings(deadline=None, max_examples=100)
@given(prediction_file(), st.integers(1, 2), st.integers(1, 4), st.randoms(use_true_random=False))
def test_cached_read_equals_the_parse(tmp_path_factory, file, blank, size, rnd):
    # A read from the predictions cache must give the parse's views, and the
    # parse's error when the dataset lacks an image.
    text, sizes = file
    path = tmp_path_factory.getbasetemp() / "cached.jsonl"
    path.write_text("\n" * blank + text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", "not-absolute")  # the cache is off: every read parses
        cold = formats.read_predictions_jsonl(path, sizes)
    entry = formats._cache_dir() / formats._entry_name(hashlib.sha256(path.read_bytes()).hexdigest())
    formats.read_predictions_jsonl(path, sizes)  # a parse, or a hit of an earlier example's entry
    assert entry.exists()
    warm = formats.read_predictions_jsonl(path, sizes)
    assert _bits(warm) == _bits(cold)
    for flipped in (False, True):
        ids = list(cold.views[flipped].image_ids)
        rnd.shuffle(ids)
        for group in chunked(ids, size):
            assert chunk_bits(warm.chunk(group, flipped)) == chunk_bits(cold.chunk(group, flipped))
    for image_id in sorted({image_id for image_id, _ in cold}):
        fewer = {i: wh for i, wh in sizes.items() if i != image_id}
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("XDG_CACHE_HOME", "not-absolute")
            expected = _error(lambda: formats.read_predictions_jsonl(path, fewer))
        assert _error(lambda: formats.read_predictions_jsonl(path, fewer)) == expected
        # the first record of the image, counting the blank lines before it
        lineno = next(n for n, line in enumerate(path.read_text().split("\n"), start=1)
                      if line and json.loads(line)["image_id"] == image_id)
        assert expected == f"{path}: line {lineno}: unknown image id {image_id!r}"


# -- the dataset column set against the per-record loader it replaced --------------

# Integer and float coordinates, signed zero among them; sizes from 1 pixel.
gt_coords = st.integers(0, 60) | st.sampled_from([-0.0, 0.0, 0.5, 1.0 / 3.0]) | st.floats(0.0, 60.0)


@st.composite
def dataset_documents(draw):
    """A dataset JSON document of K = 1 to 3 classes and up to 5 images with
    0-3 objects each; an image without objects may lack the ``objects``
    key."""
    k = draw(st.integers(1, 3))
    images = []
    for image_id in draw(st.lists(escaped_ids, max_size=5, unique=True)):
        rec = {"id": image_id, "width": draw(st.integers(1, 400)), "height": draw(st.integers(1, 400))}
        objects = []
        for _ in range(draw(st.integers(0, 3))):
            (x0, x1), (y0, y1) = sorted((draw(gt_coords), draw(gt_coords))), sorted((draw(gt_coords), draw(gt_coords)))
            objects.append({"bbox": [x0, y0, x1, y1], "class_id": draw(st.integers(1, k))})
        if objects or draw(st.booleans()):
            rec["objects"] = objects
        images.append(rec)
    return {"classes": [f"c{c}" for c in range(1, k + 1)], "images": images}


# One fault each: (where, field, value); "image" and "object" are the last
# image and the last object of the last image, DELETE removes the field.
DELETE = object()
DATASET_FAULTS = [
    ("doc", "classes", []), ("image", "id", DELETE), ("image", "id", 5), ("image", "id", "a\0"),
    ("image", "id", "\ud800"), ("image", "id", "duplicate"), ("image", "width", DELETE), ("image", "width", 0),
    ("image", "width", -3), ("image", "width", 1.5), ("image", "width", True), ("image", "height", 0),
    ("image", "height", 10.0), ("image", "objects", 5), ("image", "objects", "ab"),
    ("object", "bbox", DELETE), ("object", "bbox", [0, 0, 5]), ("object", "bbox", [5, 0, 0, 5]),
    ("object", "bbox", [0, 0, "5", 5]), ("object", "bbox", [0, 0, 5, None]), ("object", "bbox", [0, float("nan"), 5, 5]),
    ("object", "bbox", [[0, 0, 5, 5]]), ("object", "class_id", DELETE), ("object", "class_id", 0),
    ("object", "class_id", 4), ("object", "class_id", 1.0), ("object", "class_id", False),
    ("object", "class_id", 10**30), ("object", "bbox", [0, 0, 5, 10**30]),
]


def with_fault(doc, fault):
    where, name, value = fault
    images = doc["images"]
    if where == "doc":
        target = doc
    elif where == "image":
        target = images[-1]
        if value == "duplicate":
            value = images[0]["id"]
    else:
        target = next(rec["objects"][-1] for rec in reversed(images) if rec.get("objects"))
    if value is DELETE:
        del target[name]
    else:
        target[name] = value
    return doc


def same_dataset(data, reference) -> None:
    classes, records = reference
    assert data.classes == classes and len(data) == len(records)
    for arr in (data.widths, data.heights, data.boxes, data.class_ids, data.counts, data.starts):
        assert not arr.flags.writeable

    def bits(rec):
        return (rec.image_id, type(rec.width), rec.width, type(rec.height), rec.height,
                *((a.dtype, a.shape, a.tobytes()) for a in (rec.boxes, rec.class_ids)))

    assert [bits(view) for view in data.images] == [bits(rec) for rec in records]
    for n, rec in enumerate(records):
        assert bits(data[rec.image_id]) == bits(rec) and data.index[rec.image_id] == n


@settings(deadline=None, max_examples=300)
@given(dataset_documents(), st.sampled_from([None] + DATASET_FAULTS))
@example(  # K=1, an image without objects, one without the key, and one with objects
    {"classes": ["c"], "images": [{"id": "a", "width": 5, "height": 5, "objects": []},
                                  {"id": "b", "width": 5, "height": 5},
                                  {"id": "c", "width": 5, "height": 5,
                                   "objects": [{"bbox": [0, 0, 5, 5], "class_id": 1}]}]},
    None,
)
def test_dataset_columns_equal_the_per_record_loader(tmp_path_factory, doc, fault):
    # load_dataset reads every record into flat columns and checks them once;
    # the per-record loader built and checked one record per image. On a
    # valid file they hold the same values bit for bit; with one fault they
    # raise the same message, naming the file and the image.
    if fault is not None:
        if not doc["images"] or fault[0] == "object" and not any(rec.get("objects") for rec in doc["images"]):
            return
        doc = with_fault(doc, fault)
    path = tmp_path_factory.getbasetemp() / "dataset.json"
    path.write_text(json.dumps(doc))
    try:
        reference = load_dataset_per_record(path)
    except ValueError as e:
        with pytest.raises(ValueError) as raised:
            formats.load_dataset(path)
        assert str(raised.value) == str(e)
        return
    assert fault is None or fault[2] == "duplicate" and len(doc["images"]) == 1  # a fault makes both raise
    same_dataset(formats.load_dataset(path), reference)


@settings(deadline=None, max_examples=200)
@given(dataset_documents(), st.sampled_from([None] + DATASET_FAULTS))
def test_cached_dataset_equals_the_parse(tmp_path_factory, doc, fault):
    # A read with the cache off, the first read with it on (a parse that
    # writes the entry) and the next (a hit that parses nothing) must each
    # give the per-record loader's dataset, or its message; a file that
    # the parse refuses writes no entry.
    if fault is not None:
        if not doc["images"] or fault[0] == "object" and not any(rec.get("objects") for rec in doc["images"]):
            return
        doc = with_fault(doc, fault)
    base = tmp_path_factory.getbasetemp()
    path = base / "cached-dataset.json"
    path.write_text(json.dumps(doc))
    try:
        reference = load_dataset_per_record(path)
    except ValueError as e:
        reference = str(e)

    def check(read) -> None:
        if isinstance(reference, str):
            assert _error(read) == reference
        else:
            same_dataset(read(), reference)

    with tempfile.TemporaryDirectory(dir=base) as home, pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", "not-absolute")
        check(lambda: formats.load_dataset(path))
        patch.setenv("XDG_CACHE_HOME", home)
        patch.setattr(formats, "_STAT_MARGIN_NS", 1 << 63)  # never bound, however slow: entries only
        check(lambda: formats.load_dataset(path))
        cache = Path(home) / "aldet"
        entries = sorted(p.name for p in cache.iterdir()) if cache.exists() else []
        if isinstance(reference, str):
            assert entries == []
        else:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert entries == [formats._entry_name(digest, "dataset-")]
            patch.setattr(formats, "_parse_dataset", None)  # a hit parses nothing
        check(lambda: formats.load_dataset(path))


# -- the stat binding in front of the parse cache ------------------------------

binding_steps = st.lists(st.one_of(
    st.tuples(st.just("rewrite"), st.booleans(), st.booleans()),  # with the other bytes? the mtime restored?
    st.tuples(st.just("advance"), st.sampled_from([10**9, formats._STAT_MARGIN_NS, 10 * 10**9])),
    st.tuples(st.just("read")),
), max_size=10)


def _dataset_bits(data):
    return (data.classes, data.image_ids,
            *(a.tobytes() for a in (data.widths, data.heights, data.boxes, data.class_ids, data.counts)))


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(["predictions", "dataset"]), prediction_file(), dataset_documents(), binding_steps)
def test_stat_bound_reads_equal_the_parse(tmp_path_factory, kind, file, doc, steps):
    # However a file is rewritten (with its bytes or others of the same
    # size, its mtime restored or not) and however far the clock moves, a
    # read through the cache after every step must give what the cache-off
    # parse of the file's bytes gives.
    if kind == "predictions":
        text, sizes = file
        lines = text.split("\n")[:-1]
        contents = [text, "\n".join(reversed(lines)) + "\n"]

        def read(path):
            return _bits(formats.read_predictions_jsonl(path, sizes))
    else:
        contents = [json.dumps(doc), json.dumps({**doc, "images": doc["images"][::-1]})]

        def read(path):
            return _dataset_bits(formats.load_dataset(path))
    contents = [content.encode() for content in contents]
    assert len(contents[0]) == len(contents[1])
    base = tmp_path_factory.getbasetemp()
    path, real, offset = base / f"bound-{kind}", time.time_ns, [0]
    with tempfile.TemporaryDirectory(dir=base) as home, pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", "not-absolute")
        expected = []
        for data in contents:
            (base / "unbound").write_bytes(data)
            expected.append(read(base / "unbound"))
        patch.setenv("XDG_CACHE_HOME", home)
        patch.setattr(formats.time, "time_ns", lambda: real() + offset[0])
        path.write_bytes(contents[0])
        current = 0  # the content the file holds
        for step in steps + [("read",)]:
            if step[0] == "rewrite":
                current = int(step[1])
                rewrite(path, contents[current], path.stat().st_mtime_ns if step[2] else None)
            elif step[0] == "advance":
                offset[0] += step[1]
            assert read(path) == expected[current]

