"""Greedy original/flipped matching against an exhaustive enumeration oracle."""

import numpy as np
import pytest

from aldet.boxes import (
    BoxCorner,
    ClassDist,
    Detection,
    ImagePrediction,
    encode_box,
    image_anchor,
    iou,
)
from aldet.matching import greedy_assign, match_predictions


def make_pred(image_id, boxes, width=100, height=100):
    anchor = image_anchor(width, height)
    dets = tuple(
        Detection(b, encode_box(b, anchor), ClassDist([0.1, 0.9])) for b in boxes
    )
    return ImagePrediction(image_id, width, height, dets)


def random_boxes(rng, n, width=100.0):
    out = []
    for _ in range(n):
        x0 = rng.uniform(0, width - 10)
        y0 = rng.uniform(0, width - 10)
        w = rng.uniform(5, min(40.0, width - x0))
        h = rng.uniform(5, min(40.0, width - y0))
        out.append(BoxCorner(x0, y0, x0 + w, y0 + h))
    return out


def enumerate_best_first(boxes_a, boxes_b, floor):
    """Oracle: enumerate every maximal injective matching and pick the one the
    best-first criterion prefers (lexicographically smallest sequence of
    (-iou, i, j) keys)."""
    candidates = sorted(
        (
            (-iou(a, b), i, j)
            for i, a in enumerate(boxes_a)
            for j, b in enumerate(boxes_b)
            if iou(a, b) >= floor
        )
    )

    best_sequence = None

    def maximal(used_a, used_b):
        return not any(
            i not in used_a and j not in used_b for _key, i, j in candidates
        )

    def recurse(remaining, used_a, used_b, chosen):
        nonlocal best_sequence
        feasible = [
            (key, i, j) for key, i, j in remaining if i not in used_a and j not in used_b
        ]
        if not feasible:
            if not maximal(used_a, used_b):
                return
            seq = sorted(chosen)
            if best_sequence is None or seq < best_sequence:
                best_sequence = seq
            return
        key, i, j = feasible[0]
        # include the highest-priority pair ...
        recurse(feasible[1:], used_a | {i}, used_b | {j}, chosen + [(key, i, j)])
        # ... or exclude it permanently
        recurse(feasible[1:], used_a, used_b, chosen)

    recurse(candidates, set(), set(), [])
    if best_sequence is None:
        return []
    return [(i, j) for _key, i, j in best_sequence]


class TestGreedyAssign:
    def test_ties_taken_by_first_then_second_index(self):
        assert greedy_assign([(0.5, 1, 0), (0.5, 0, 1)]) == [(0.5, 0, 1), (0.5, 1, 0)]

    def test_each_side_taken_once_by_iou_descending(self):
        candidates = [(0.5, 0, 1), (0.5, 0, 0), (0.8, 1, 0)]
        assert greedy_assign(candidates) == [(0.8, 1, 0), (0.5, 0, 1)]

    def test_empty(self):
        assert greedy_assign([]) == []


class TestMatchPredictions:
    def test_identical_sets_match_to_self(self):
        boxes = [BoxCorner(0, 0, 10, 10), BoxCorner(50, 50, 70, 80)]
        a, b = make_pred("x", boxes), make_pred("x", boxes)
        result = match_predictions(a, b)
        assert len(result.pairs) == 2
        assert all(p.iou == 1.0 for p in result.pairs)
        assert [(p.orig_index, p.flipped_index) for p in result.pairs] == [(0, 0), (1, 1)]
        assert result.unmatched_original == ()
        assert result.unmatched_flipped == ()

    def test_disjoint_sets_no_pairs(self):
        a = make_pred("x", [BoxCorner(0, 0, 10, 10)])
        b = make_pred("x", [BoxCorner(60, 60, 90, 90)])
        result = match_predictions(a, b)
        assert result.pairs == ()
        assert result.unmatched_original == (0,)
        assert result.unmatched_flipped == (0,)

    def test_frame_mismatch(self):
        a = make_pred("x", [BoxCorner(0, 0, 10, 10)])
        b = make_pred("y", [BoxCorner(0, 0, 10, 10)])
        with pytest.raises(ValueError, match="frame mismatch"):
            match_predictions(a, b)

    def test_one_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = make_pred("x", random_boxes(rng, int(rng.integers(0, 6))))
            b = make_pred("x", random_boxes(rng, int(rng.integers(0, 6))))
            result = match_predictions(a, b, 0.1)
            orig_idx = [p.orig_index for p in result.pairs]
            flip_idx = [p.flipped_index for p in result.pairs]
            assert len(set(orig_idx)) == len(orig_idx)
            assert len(set(flip_idx)) == len(flip_idx)

    def test_monotone_in_floor(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            a = make_pred("x", random_boxes(rng, 4))
            b = make_pred("x", random_boxes(rng, 4))
            counts = [
                len(match_predictions(a, b, floor).pairs) for floor in (0.0, 0.25, 0.5, 0.75)
            ]
            assert counts == sorted(counts, reverse=True)

    def test_symmetric_stability(self):
        # with distinct IoUs, swapping roles yields the same unordered index pairs
        rng = np.random.default_rng(13)
        for _ in range(30):
            boxes_a = random_boxes(rng, 4)
            boxes_b = random_boxes(rng, 4)
            fwd = match_predictions(make_pred("x", boxes_a), make_pred("x", boxes_b), 0.1)
            rev = match_predictions(make_pred("x", boxes_b), make_pred("x", boxes_a), 0.1)
            fwd_pairs = {(p.orig_index, p.flipped_index) for p in fwd.pairs}
            rev_pairs = {(p.flipped_index, p.orig_index) for p in rev.pairs}
            assert fwd_pairs == rev_pairs

    def test_greedy_equals_enumeration_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n, m = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            boxes_a, boxes_b = random_boxes(rng, n), random_boxes(rng, m)
            floor = float(rng.choice([0.0, 0.1, 0.3, 0.5]))
            got = match_predictions(make_pred("x", boxes_a), make_pred("x", boxes_b), floor)
            expected = enumerate_best_first(boxes_a, boxes_b, floor)
            assert [(p.orig_index, p.flipped_index) for p in got.pairs] == expected
