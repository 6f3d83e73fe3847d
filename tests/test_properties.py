"""Properties that let the cycle score from the post-NMS predictions that
pseudo-labelling already built, instead of predicting the originals again."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aldet.acquisition import AcquisitionConfig, unified_score
from aldet.boxes import BoxCorner, ClassDist, Detection, ImagePrediction, encode_box, image_anchor, nms

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
    st.booleans(),
)
def test_scores_from_post_nms_originals_equal_scores_from_raw(
    orig, flipped, iou_threshold, score_floor, min_match_iou, include_background
):
    cfg = AcquisitionConfig(iou_threshold, score_floor, min_match_iou, include_background)
    post_nms = orig.with_detections(nms(orig.detections, iou_threshold, score_floor))
    assert unified_score(post_nms, flipped, cfg) == unified_score(orig, flipped, cfg)
