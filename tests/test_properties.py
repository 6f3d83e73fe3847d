"""Properties that let every prediction pass through one post-NMS stage,
whose output pseudo-labelling and scoring share, that let the pseudo-label
audit compare only within (image, class), that keep the JSONL readers from
failing on any input without naming the line, and that pin the array-backed
detection core to the per-detection code it replaced, kept here as oracles."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aldet import formats, pseudo_label
from aldet.acquisition import AcquisitionConfig, post_nms, unified_score
from aldet.boxes import BoxCorner, Detections, ImagePrediction, encode_boxes, hflip, iou, iou_matrix, nms
from aldet.matching import match_predictions
from aldet.pseudo_label import GroundTruthObject, PseudoLabel, audit_pl_correctness

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


def as_prediction(dets, image_id="img") -> ImagePrediction:
    boxes = np.array([box for box, _ in dets]).reshape(-1, 4)
    probs = np.array([probs for _, probs in dets]).reshape(len(dets), N_CLASSES + 1)
    return ImagePrediction(image_id, SIZE, SIZE, Detections(boxes, encode_boxes(boxes, SIZE, SIZE), probs))


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
    once = post_nms(orig, cfg)
    assert post_nms(once, cfg) == once
    unflipped = post_nms(flipped, cfg, flipped=True)
    assert unified_score(post_nms(once, cfg), unflipped, min_match_iou) == unified_score(
        once, unflipped, min_match_iou
    )


# -- pseudo-label audit ---------------------------------------------------------


def brute_force_audit(pls, gt, iou_thresh=0.5):
    """The O(P*G) audit: every pseudo-label against every ground-truth object."""
    if not pls:
        return 1.0
    candidates = []
    for pi, pl in enumerate(pls):
        for gi, obj in enumerate(gt):
            if obj.image_id != pl.image_id or obj.class_id != pl.class_id:
                continue
            v = iou(pl.box_corner, obj.box_corner)
            if v > iou_thresh:
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


# Few images, classes and grid positions, so that several labels share a
# group, IoU ties are common and IoU is exactly 0.5 (e.g. 20x10 against 10x10).
audit_coords = st.integers(0, 3).map(lambda v: 10.0 * v)
audit_sides = st.integers(1, 3).map(lambda v: 10.0 * v)


@st.composite
def labelled_box(draw):
    x0, y0 = draw(audit_coords), draw(audit_coords)
    box = BoxCorner(x0, y0, x0 + draw(audit_sides), y0 + draw(audit_sides))
    return draw(st.sampled_from("abc")), box, draw(st.integers(1, 3))


pseudo_labels = st.lists(labelled_box(), max_size=12).map(
    lambda items: [PseudoLabel(i, box, c, 0.99) for i, box, c in items]
)
ground_truth = st.lists(labelled_box(), max_size=12).map(
    lambda items: [GroundTruthObject(i, box, c) for i, box, c in items]
)


@settings(deadline=None, max_examples=200)
@given(pseudo_labels, ground_truth, st.sampled_from([0.0, 0.3, 0.5]))
def test_audit_equals_brute_force(pls, gt, iou_thresh):
    assert audit_pl_correctness(pls, gt, iou_thresh) == brute_force_audit(pls, gt, iou_thresh)


class CountingSequence(tuple):
    """A tuple that counts how often it is iterated."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_audit_compares_within_image_and_class(monkeypatch):
    # every box is unique, so each IoU call can be traced back to its groups
    group_of = {}

    def item(image_id, class_id, k):
        box = BoxCorner(float(k), 0.0, k + 10.0, 10.0)
        group_of[box] = (image_id, class_id)
        return image_id, box, class_id

    groups = [(i, c) for i in "abcd" for c in (1, 2, 3)]
    pls = [PseudoLabel(*item(i, c, 3 * k), 0.99) for k, (i, c) in enumerate(groups * 2)]
    gt = CountingSequence(
        GroundTruthObject(*item(i, c, 3 * k + 1)) for k, (i, c) in enumerate(groups * 3)
    )
    calls = []

    def counting_iou(a, b):
        calls.append((group_of[a], group_of[b]))
        return iou(a, b)

    monkeypatch.setattr(pseudo_label, "iou", counting_iou)
    audit_pl_correctness(pls, gt)
    assert all(a == b for a, b in calls)
    assert len(calls) == len(groups) * 2 * 3
    # the ground truth is read once, not once per pseudo-label
    assert gt.passes == 1


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
        formats.read_pseudo_labels_jsonl,
    )
    for read in readers:
        try:
            read(path)
        except ValueError as e:
            assert str(e).startswith(f"{path}: line "), e


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
    got = iou_matrix(np.array(a), np.array(b))
    assert got.shape == (len(a), len(b))
    for i, ra in enumerate(a):
        for j, rb in enumerate(b):
            assert bits(got[i, j]) == bits(iou(BoxCorner(*ra), BoxCorner(*rb)))


def test_iou_matrix_equals_scalar_iou_on_40k_random_pairs():
    rng = np.random.default_rng(0)
    lo = rng.uniform(0, 100, (400, 2))
    boxes = np.hstack([lo, lo + rng.uniform(0, 40, (400, 2))])
    got = iou_matrix(boxes[:200], boxes[200:])
    corners = [BoxCorner(*row) for row in boxes.tolist()]
    expected = [[iou(a, b) for b in corners[200:]] for a in corners[:200]]
    assert got.tolist() == expected


def oracle_nms(dets, iou_threshold, score_floor):
    """The per-detection NMS: rows kept, grouped by argmax class, each class
    greedy by (-score, index), then sorted by (-score, index)."""
    rows = [(BoxCorner(*box), int(np.argmax(p)), float(p[int(np.argmax(p))])) for box, p in dets]
    by_class: dict[int, list[int]] = {}
    for idx, (_, cls, score) in enumerate(rows):
        if cls == 0 or score < score_floor:
            continue
        by_class.setdefault(cls, []).append(idx)
    kept: list[int] = []
    for cls in sorted(by_class):
        cls_kept: list[int] = []
        for i in sorted(by_class[cls], key=lambda i: (-rows[i][2], i)):
            if all(iou(rows[i][0], rows[j][0]) <= iou_threshold for j in cls_kept):
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
        (iou(BoxCorner(*a), BoxCorner(*b)), i, j)
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
        return as_prediction([(box, np.full(N_CLASSES + 1, 1.0 / (N_CLASSES + 1))) for box in boxes])

    result = match_predictions(pred(boxes_a), pred(boxes_b), floor)
    expected = oracle_match(boxes_a, boxes_b, floor)
    assert list(result.pairs) == expected
    assert result.unmatched_original == tuple(i for i in range(len(boxes_a)) if i not in {i for i, _ in expected})
    assert result.unmatched_flipped == tuple(j for j in range(len(boxes_b)) if j not in {j for _, j in expected})


@settings(deadline=None, max_examples=200)
@given(prediction())
def test_hflip_is_an_involution(pred):
    once = hflip(pred)
    assert np.array_equal(once.detections.encoded[:, 0], -pred.detections.encoded[:, 0])
    assert hflip(once) == pred
