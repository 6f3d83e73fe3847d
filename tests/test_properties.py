"""Properties that let every prediction pass through one post-NMS stage,
whose output pseudo-labelling and scoring share, that let the pseudo-label
audit compare only within (image, class), and that keep the JSONL readers
from failing on any input without naming the line."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aldet import formats, pseudo_label
from aldet.acquisition import AcquisitionConfig, post_nms, unified_score
from aldet.boxes import BoxCorner, ClassDist, Detection, ImagePrediction, encode_box, image_anchor, iou, nms
from aldet.pseudo_label import GroundTruthObject, PseudoLabel, audit_pl_correctness

SIZE = 100
N_CLASSES = 3
ANCHOR = image_anchor(SIZE, SIZE)

# Coarse grids make overlapping boxes and equal scores common, so the
# suppression and tie-breaking paths are exercised.
coords = st.integers(0, 9).map(lambda v: 10.0 * v)
sides = st.integers(1, 6).map(lambda v: 10.0 * v)
logits = st.lists(st.integers(-4, 4), min_size=N_CLASSES + 1, max_size=N_CLASSES + 1)


@st.composite
def detection(draw) -> Detection:
    x0, y0 = draw(coords), draw(coords)
    box = BoxCorner(x0, y0, min(SIZE, x0 + draw(sides)), min(SIZE, y0 + draw(sides)))
    z = np.exp(np.asarray(draw(logits), dtype=np.float64))
    return Detection(box, encode_box(box, ANCHOR), ClassDist(z / z.sum()))


def prediction(max_dets=8):
    return st.lists(detection(), max_size=max_dets).map(
        lambda dets: ImagePrediction("img", SIZE, SIZE, tuple(dets))
    )


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
