"""Greedy original/flipped matching against an exhaustive enumeration oracle."""

import numpy as np
import pytest

from oracles import Box, one_image, scalar_iou

from aldet.boxes import Detections, hflip
from aldet.matching import greedy_assign, match_predictions


def make_pred(image_id, boxes, width=100, height=100):
    """A chunk of the one image."""
    rows = np.array(boxes, dtype=np.float64).reshape(-1, 4)
    dets = Detections(rows, [[0.1, 0.9]] * len(boxes))
    return one_image(image_id, width, height, dets)


def random_boxes(rng, n, width=100.0):
    out = []
    for _ in range(n):
        x0 = rng.uniform(0, width - 10)
        y0 = rng.uniform(0, width - 10)
        w = rng.uniform(5, min(40.0, width - x0))
        h = rng.uniform(5, min(40.0, width - y0))
        out.append(Box(x0, y0, x0 + w, y0 + h))
    return out


def enumerate_best_first(boxes_a, boxes_b, floor):
    """Oracle: enumerate every maximal injective matching and pick the one the
    best-first criterion prefers (lexicographically smallest sequence of
    (-iou, i, j) keys)."""
    candidates = sorted(
        (
            (-scalar_iou(a, b), i, j)
            for i, a in enumerate(boxes_a)
            for j, b in enumerate(boxes_b)
            if scalar_iou(a, b) >= floor
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
        boxes = [Box(0, 0, 10, 10), Box(50, 50, 70, 80)]
        a, b = make_pred("x", boxes), make_pred("x", boxes)
        result = match_predictions(a, b)
        assert result.pairs == ((0, 0), (1, 1))

    def test_disjoint_sets_no_pairs(self):
        a = make_pred("x", [Box(0, 0, 10, 10)])
        b = make_pred("x", [Box(60, 60, 90, 90)])
        result = match_predictions(a, b)
        assert result.pairs == ()

    def test_image_id_mismatch(self):
        a = make_pred("x", [Box(0, 0, 10, 10)])
        b = make_pred("y", [Box(0, 0, 10, 10)])
        with pytest.raises(ValueError, match="image-id mismatch: cannot match image 'x' against image 'y'"):
            match_predictions(a, b)

    @pytest.mark.parametrize("side", ["orig", "flipped"])
    def test_chunk_in_the_flipped_frame_refused(self, side):
        # a flipped view not mapped back would be matched on mirrored boxes
        chunks = {"orig": make_pred("x", [Box(0, 0, 10, 10)]), "flipped": make_pred("x", [Box(0, 0, 10, 10)])}
        chunks[side] = hflip(chunks[side])
        with pytest.raises(ValueError, match="chunk of image 'x' is in the flipped frame, expected the original"):
            match_predictions(**chunks)

    def test_one_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = make_pred("x", random_boxes(rng, int(rng.integers(0, 6))))
            b = make_pred("x", random_boxes(rng, int(rng.integers(0, 6))))
            result = match_predictions(a, b, 0.1)
            orig_idx = [i for i, _ in result.pairs]
            flip_idx = [j for _, j in result.pairs]
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
            fwd_pairs = set(fwd.pairs)
            rev_pairs = {(j, i) for i, j in rev.pairs}
            assert fwd_pairs == rev_pairs

    def test_greedy_equals_enumeration_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n, m = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            boxes_a, boxes_b = random_boxes(rng, n), random_boxes(rng, m)
            floor = float(rng.choice([0.0, 0.1, 0.3, 0.5]))
            got = match_predictions(make_pred("x", boxes_a), make_pred("x", boxes_b), floor)
            expected = enumerate_best_first(boxes_a, boxes_b, floor)
            assert list(got.pairs) == expected
