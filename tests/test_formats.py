"""Serialization round-trips and format validation."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from oracles import dataset_of, per_image

from aldet import formats
from aldet.acquisition import AcquisitionScores
from aldet.boxes import hflip
from aldet.dataset import Dataset, make_synthetic_dataset
from aldet.evaluation import EvalResult
from aldet.pool import Pool, init_pool, with_pseudo
from aldet.pseudo_label import PseudoLabels
from aldet.sim_detector import SyntheticDetector, SyntheticDetectorConfig


@pytest.fixture()
def world(tmp_path):
    return make_synthetic_dataset(8, 3, seed=0)


def sizes(dataset):
    return {img.image_id: (img.width, img.height) for img in dataset.images}


class TestDatasetJSON:
    def test_duplicate_image_id_is_named(self, world):
        with pytest.raises(ValueError, match="duplicate image id 'img_0001' in dataset"):
            dataset_of(world.classes, world.images + world.images[1:3])

    def test_roundtrip(self, world, tmp_path):
        path = tmp_path / "data.json"
        formats.save_dataset(world, path)
        back = formats.load_dataset(path)
        assert back.classes == world.classes
        assert len(back.images) == len(world.images)
        for a, b in zip(back.images, world.images):
            assert (a.image_id, a.width, a.height) == (b.image_id, b.width, b.height)
            assert np.array_equal(a.boxes, b.boxes)
            assert np.array_equal(a.class_ids, b.class_ids)

    def test_deterministic_file(self, world, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        formats.save_dataset(world, p1)
        formats.save_dataset(world, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_integer_coordinates_written_as_floats(self, tmp_path):
        # ground-truth boxes are float64 rows, so an integer coordinate read
        # from a file is written back as a float; the reader accepts both
        path = tmp_path / "data.json"
        image = {"id": "a", "width": 20, "height": 20, "objects": [{"bbox": [0, 5, 10, 15], "class_id": 1}]}
        path.write_text(json.dumps({"classes": ["c"], "images": [image]}))
        formats.save_dataset(formats.load_dataset(path), path)
        assert json.loads(path.read_text())["images"][0]["objects"][0]["bbox"] == [0, 5, 10, 15]
        assert '"bbox": [0.0, 5.0, 10.0, 15.0]' in path.read_text()

    # The inverted and short boxes are covered through the CLI (test_cli.py).
    @pytest.mark.parametrize("objects, message", [
        ([{"bbox": [0, 0, 5, 5], "class_id": 2}], "image 'a': class_id 2 outside 1..1"),
        ([{"bbox": [0, 0, "5", 5], "class_id": 1}], "image 'a': bbox: expected numbers"),
        ([{"bbox": [0, 0, 5, None], "class_id": 1}], "image 'a': bbox: expected numbers"),
    ])
    def test_invalid_record_names_the_file_and_the_image(self, tmp_path, objects, message):
        path = tmp_path / "data.json"
        images = [{"id": "ok", "width": 10, "height": 10, "objects": [{"bbox": [0, 0, 5, 5], "class_id": 1}]},
                  {"id": "a", "width": 10, "height": 10, "objects": objects}]
        path.write_text(json.dumps({"classes": ["c"], "images": images}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            formats.load_dataset(path)

    @pytest.mark.parametrize("classes, message", [
        ("ab", "classes: expected an array of class names, got 'ab'"),
        ({"a": 1}, "classes: expected an array of class names, got {'a': 1}"),
        ([1, 2], "classes: expected distinct class names (strings), got [1, 2]"),
        (["a", "a"], "classes: expected distinct class names (strings), got ['a', 'a']"),
    ])
    def test_classes_must_be_an_array_of_distinct_names(self, tmp_path, classes, message):
        # A string would load as one class per character, and a repeated or
        # numeric name would load as a class of its own.
        path = tmp_path / "data.json"
        image = {"id": "a", "width": 10, "height": 10, "objects": [{"bbox": [0, 0, 5, 5], "class_id": 2}]}
        path.write_text(json.dumps({"classes": classes, "images": [image]}))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            formats.load_dataset(path)

    @pytest.mark.parametrize("classes, message", [
        ("ab", "classes: expected a sequence of class names, got 'ab'"),
        (("a", "a"), "classes: expected distinct class names (strings), got ['a', 'a']"),
        (("a", 1), "classes: expected distinct class names (strings), got ['a', 1]"),
    ])
    def test_every_dataset_checks_its_class_names(self, classes, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(classes, ())


class TestPredictionsJSONL:
    def test_encoded_is_written_from_the_box(self, tmp_path):
        # the reader checks and drops "encoded"; the writer encodes the box it
        # holds, which for a clamped box differs from the field it was read with
        sizes = {"a": (100, 50)}
        path = tmp_path / "preds.jsonl"
        det = '{"bbox": [-10.0, 0.0, 50.0, 50.0], "encoded": [-0.3, 0.0, 0.6, 1.0], "probs": [0.25, 0.75]}'
        path.write_text('{"image_id": "a", "flipped": false, "detections": [%s]}\n' % det)
        pred = formats.read_predictions_jsonl(path, sizes)[("a", False)]
        assert pred.detections.boxes.tolist() == [[0.0, 0.0, 50.0, 50.0]]
        formats.write_predictions_jsonl([pred], path)
        (written,) = json.loads(path.read_text())["detections"]
        assert written["bbox"] == [0.0, 0.0, 50.0, 50.0]
        assert written["encoded"] == [-0.25, 0.0, 0.5, 1.0]

    def test_roundtrip(self, world, tmp_path):
        det = SyntheticDetector(SyntheticDetectorConfig(seed=1), world)
        records = [pred for flipped in (False, True) for pred in per_image(det.predict(world.image_ids, flipped))]
        path = tmp_path / "preds.jsonl"
        formats.write_predictions_jsonl(records, path)
        back = formats.read_predictions_jsonl(path, sizes(world))
        assert len(back) == len(records)
        for pred in records:  # each record's chunk in the frame it was written from
            assert back[(pred.image_ids[0], pred.flipped)] == pred

    def test_second_record_of_an_image_and_frame_is_refused_before_writing(self, world, tmp_path):
        # the reader refuses a file with two records of one (image, frame)
        det = SyntheticDetector(SyntheticDetectorConfig(seed=1), world)
        path = tmp_path / "preds.jsonl"
        original = det.predict(world.image_ids[:2])
        with pytest.raises(ValueError, match="duplicate record for image 'img_0000', flipped=False"):
            formats.write_predictions_jsonl([original, original], path)
        with pytest.raises(ValueError, match="duplicate record for image 'img_0001', flipped=True"):
            formats.write_predictions_jsonl([det.predict(["img_0001", "img_0001"], flipped=True)], path)
        assert not path.exists()
        # one record of each view of an image is no duplicate
        formats.write_predictions_jsonl([original, hflip(original)], path)
        assert len(formats.read_predictions_jsonl(path, sizes(world))) == 4

    def test_malformed_line_reports_number(self, world, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"image_id": "img_0000", "flipped": false, "detections": []}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            formats.read_predictions_jsonl(path, sizes(world))

    def test_unknown_image_rejected(self, world, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"image_id": "ghost", "flipped": false, "detections": []}\n')
        with pytest.raises(ValueError, match="ghost"):
            formats.read_predictions_jsonl(path, sizes(world))

    @pytest.mark.parametrize("value", ['"no"', "0", "1", "null"])
    def test_flipped_must_be_a_boolean(self, world, tmp_path, value):
        # bool("no") is True: a string would be filed as a flipped view
        path = tmp_path / "bad.jsonl"
        path.write_text('{"image_id": "img_0000", "flipped": %s, "detections": []}\n' % value)
        expected = f"{path}: line 1: flipped: expected a boolean, got {json.loads(value)!r}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            formats.read_predictions_jsonl(path, sizes(world))

    def test_empty_record_of_unknown_k(self, world, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"image_id": "img_0000", "flipped": false, "detections": []}\n')
        pred = formats.read_predictions_jsonl(path, sizes(world))[("img_0000", False)]
        assert len(pred.detections) == 0
        assert pred.detections.probs.shape == (0, 0)

    @pytest.mark.parametrize("detection, message", [
        ('{"bbox": [0, 0, 5], "encoded": [0, 0, 1, 1], "probs": [0.5, 0.5]}',
         "bbox: expected 4 numbers per detection"),
        ('{"bbox": [0, 0, "5", 5], "encoded": [0, 0, 1, 1], "probs": [0.5, 0.5]}', "bbox: expected numbers"),
        ('{"bbox": [5, 0, 0, 5], "encoded": [0, 0, 1, 1], "probs": [0.5, 0.5]}', "inverted box"),
        ('{"bbox": [0, 0, 5, 5], "encoded": [0, 0, 0, 1], "probs": [0.5, 0.5]}',
         "encoded scale coefficients must be positive"),
        ('{"bbox": [0, 0, 5, 5], "encoded": [0, 0, 1, 1], "probs": [0.5, 0.6]}', "probabilities sum to"),
    ])
    def test_invalid_detection_names_the_line(self, world, tmp_path, detection, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"image_id": "img_0000", "flipped": false, "detections": [%s]}\n' % detection)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 1: {message}")):
            formats.read_predictions_jsonl(path, sizes(world))

    def test_ragged_probabilities_rejected(self, world, tmp_path):
        path = tmp_path / "bad.jsonl"
        dets = ('{"bbox": [0, 0, 5, 5], "encoded": [0, 0, 1, 1], "probs": [0.5, 0.5]}, '
                '{"bbox": [0, 0, 5, 5], "encoded": [0, 0, 1, 1], "probs": [0.5, 0.25, 0.25]}')
        path.write_text('{"image_id": "img_0000", "flipped": false, "detections": [%s]}\n' % dets)
        with pytest.raises(ValueError, match="line 1: probs: every detection needs the same number"):
            formats.read_predictions_jsonl(path, sizes(world))


    @staticmethod
    def record(image_id, flipped, *dets):
        return json.dumps({"image_id": image_id, "flipped": flipped, "detections": list(dets)}) + "\n"

    @staticmethod
    def det(bbox=(0, 0, 5, 5), encoded=(0, 0, 1, 1), probs=(0.25, 0.75)):
        return {"bbox": list(bbox), "encoded": list(encoded), "probs": list(probs)}

    def test_one_chunk_per_view_in_file_order(self, world, tmp_path):
        # records in any order, an empty one among them; a view without
        # records is an empty chunk
        path = tmp_path / "preds.jsonl"
        path.write_text(self.record("img_0002", False, self.det(), self.det((1, 1, 4, 4)))
                        + self.record("img_0000", False) + "\n"
                        + self.record("img_0001", False, self.det((-3, 0, 500, 5))))
        preds = formats.read_predictions_jsonl(path, sizes(world))
        original, flipped = preds.views[False], preds.views[True]
        assert original.image_ids == ("img_0002", "img_0000", "img_0001")
        assert original.detections.image.tolist() == [0, 0, 2]
        assert original.detections.boxes.tolist() == [[0, 0, 5, 5], [1, 1, 4, 4], [0, 0, 300, 5]]
        assert flipped.image_ids == () and len(flipped.detections) == 0
        assert (original.flipped, flipped.flipped) == (False, True)
        assert set(preds) == {("img_0002", False), ("img_0000", False), ("img_0001", False)}
        cut = preds.chunk(["img_0001", "img_0000", "img_0002"])
        assert cut.image_ids == ("img_0001", "img_0000", "img_0002")
        assert cut.detections.image.tolist() == [0, 2, 2]
        assert cut.detections.boxes.tolist() == [[0, 0, 300, 5], [0, 0, 5, 5], [1, 1, 4, 4]]
        assert not cut.flipped and preds.chunk([], flipped=True).flipped
        with pytest.raises(ValueError, match="missing flipped record for image 'img_0000'"):
            preds.chunk(["img_0000"], flipped=True)
        assert ("img_0000", True) not in preds

    @pytest.mark.parametrize("fault, message", [
        ({"bbox": [5, 0, 0, 5]}, "inverted box"),
        ({"probs": [0.5, 0.6]}, "probabilities sum to"),
        ({"encoded": [0, 0, 1, 0]}, "encoded scale coefficients must be positive"),
    ])
    def test_value_fault_names_its_line(self, world, tmp_path, fault, message):
        # values are checked once per view; a fault is then found record by record
        path = tmp_path / "preds.jsonl"
        path.write_text(self.record("img_0000", False, self.det()) + self.record("img_0000", True, self.det())
                        + self.record("img_0001", False, self.det(), {**self.det(), **fault})
                        + self.record("img_0001", True, self.det()))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: {message}")):
            formats.read_predictions_jsonl(path, sizes(world))

    def test_probability_width_fixed_per_view(self, world, tmp_path):
        # the first non-empty record of a view fixes its width; the other view has its own
        path = tmp_path / "preds.jsonl"
        path.write_text(self.record("img_0000", False) + self.record("img_0000", True, self.det(probs=(0.5, 0.25, 0.25)))
                        + self.record("img_0001", False, self.det())
                        + self.record("img_0002", False, self.det(probs=(0.5, 0.25, 0.25))))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: probs: expected 2 numbers per detection")):
            formats.read_predictions_jsonl(path, sizes(world))

    def test_structural_fault_reported_before_an_earlier_value_fault(self, world, tmp_path):
        # a record's shape is checked as it is read and its values per view,
        # after the whole file: the later line's fault is the one named
        path = tmp_path / "preds.jsonl"
        path.write_text(self.record("img_0000", False, self.det(bbox=(5, 0, 0, 5)))
                        + self.record("ghost", False))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: unknown image id 'ghost'")):
            formats.read_predictions_jsonl(path, sizes(world))


class TestPseudoLabelJSONL:
    def test_roundtrip(self, tmp_path):
        pls = PseudoLabels(["b", "b", "a"], [[1, 2, 3, 4], [0, 0, 2, 2], [0, 0, 5, 5]], [2, 1, 1],
                           [0.995, 0.999, 0.999])
        path = tmp_path / "pl.jsonl"
        formats.write_pseudo_labels_jsonl(pls, path)
        # records are sorted by image then confidence, and read back in file order
        assert formats.read_pseudo_labels_jsonl(path, 2) == pls.take([2, 1, 0])

    def test_empty_file_reads_as_no_labels(self, tmp_path):
        path = tmp_path / "pl.jsonl"
        formats.write_pseudo_labels_jsonl(PseudoLabels(), path)
        assert path.read_bytes() == b""
        assert formats.read_pseudo_labels_jsonl(path, 1) == PseudoLabels()

    def test_writer_holds_one_block_of_rows(self, tmp_path):
        # The writer sorts the set once (8 bytes of order per row) and holds
        # one block of formatted rows: 1.19 MB above the set over these
        # 50,000 rows, where the whole file formatted as one string took
        # 29.8 MB. The bound is about twice the measured peak.
        n, rng = 50_000, np.random.default_rng(0)
        xy, wh = rng.uniform(0, 500, (n, 2)), rng.uniform(1, 100, (n, 2))
        pls = PseudoLabels([f"tr_{k:05d}" for k in rng.integers(0, 20_000, n).tolist()], np.hstack([xy, xy + wh]),
                           rng.integers(1, 21, n), rng.uniform(0.99, 1.0, n))
        path = tmp_path / "pl.jsonl"
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            formats.write_pseudo_labels_jsonl(pls, path)
            extra = tracemalloc.get_traced_memory()[1] - held
        finally:
            if not tracing:
                tracemalloc.stop()
        assert extra < 2.5e6, f"{extra / 1e6:.2f} MB above the set"
        assert path.read_bytes().count(b"\n") == n

    def test_class_id_above_k_names_the_line(self, tmp_path):
        path = tmp_path / "pl.jsonl"
        path.write_text('{"image_id": "a", "bbox": [0, 0, 9, 9], "class_id": 3, "confidence": 0.99}\n'
                        '{"image_id": "a", "bbox": [0, 0, 9, 9], "class_id": 99, "confidence": 0.99}\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: class_id 99 outside 1..3")):
            formats.read_pseudo_labels_jsonl(path, 3)
        path.write_text('{"image_id": "a", "bbox": [0, 0, 9, 9], "class_id": 3, "confidence": 0.99}\n')
        assert formats.read_pseudo_labels_jsonl(path, 3).class_ids.tolist() == [3]

    @pytest.mark.parametrize("record, message", [
        ('"bbox": [5, 0, 0, 5], "class_id": 1, "confidence": 0.99', "inverted box"),
        ('"bbox": [0, 0, 5, 5], "class_id": 0, "confidence": 0.99', "pseudo-label class must be a foreground class"),
        ('"bbox": [0, 0, 5, 5], "class_id": 1, "confidence": 1.5', "confidence must be in (0, 1]"),
    ])
    def test_invalid_record_names_the_line(self, tmp_path, record, message):
        path = tmp_path / "pl.jsonl"
        path.write_text('{"image_id": "a", "bbox": [0, 0, 9, 9], "class_id": 1, "confidence": 0.99}\n'
                        '{"image_id": "a", %s}\n' % record)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: {message}")):
            formats.read_pseudo_labels_jsonl(path, 1)

    @pytest.mark.parametrize("value", ["5", "null", '["a"]'])
    def test_image_id_must_be_a_string(self, tmp_path, value):
        # a numpy string column would file the image id 5 under "5"
        path = tmp_path / "pl.jsonl"
        path.write_text('{"image_id": "a", "bbox": [0, 0, 9, 9], "class_id": 1, "confidence": 0.99}\n'
                        '{"image_id": %s, "bbox": [0, 0, 9, 9], "class_id": 1, "confidence": 0.99}\n' % value)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: image_id: expected a string")):
            formats.read_pseudo_labels_jsonl(path, 1)


class TestPoolState:
    def test_roundtrip(self, world, tmp_path):
        pool = init_pool(world.image_ids, 3, seed=5)
        target = sorted(pool.unlabeled)[0]
        second = sorted(pool.unlabeled)[1]
        pool = with_pseudo(pool, PseudoLabels([target, target, second], [[0, 0, 9, 9], [1, 1, 5, 5], [0, 0, 9, 9]],
                                              [1, 2, 1], [0.99, 0.995, 0.99]))
        path = tmp_path / "pool.json"
        formats.save_pool(pool, path)
        assert formats.load_pool(path) == pool
        # the file keeps its format: each image's labels filed under its id
        pseudo = json.loads(path.read_text())["pseudo"]
        assert list(pseudo) == [target, second]
        assert [rec["class_id"] for rec in pseudo[target]] == [1, 2]

    def test_rows_out_of_id_order_roundtrip(self, tmp_path):
        # the file lists the labels image by image in id order, and so does the pool
        pool = Pool(frozenset(), frozenset({"a", "b"}),
                    PseudoLabels(["b", "a"], [[0, 0, 1, 1]] * 2, [1, 1], [0.9, 0.9]))
        formats.save_pool(pool, tmp_path / "pool.json")
        assert formats.load_pool(tmp_path / "pool.json") == pool

    def test_id_the_loader_refuses_is_not_saved(self, tmp_path):
        # the pool is checked before anything is written, as load_pool checks it
        path = tmp_path / "pool.json"
        message = "image_id: expected a string without a trailing NUL, got 1"
        with pytest.raises(ValueError, match=f"^{message}$"):
            formats.save_pool(Pool(frozenset({1, 2}), frozenset({3})), path)
        with pytest.raises(ValueError, match=re.escape("got 'b\\x00'")):
            formats.save_pool(Pool(frozenset({"a"}), frozenset({"b\0"})), path)
        assert not path.exists()

    def test_misfiled_pseudo_label_rejected(self, tmp_path):
        path = tmp_path / "pool.json"
        record = {"image_id": "c", "bbox": [0, 0, 9, 9], "class_id": 1, "confidence": 0.99}
        path.write_text(json.dumps(
            {"cycle": 0, "labeled": ["a"], "unlabeled": ["b", "c"], "pseudo": {"b": [record]}}
        ))
        with pytest.raises(ValueError, match=r"filed under another image's id: \['b'\]"):
            formats.load_pool(path)

    def test_class_id_above_k_refused_when_k_is_given(self, tmp_path):
        # Without K (select --pool, which reads no dataset) class ids are not
        # checked against it.
        path = tmp_path / "pool.json"
        pool = Pool(frozenset(), frozenset({"a", "b"}),
                    PseudoLabels(["a", "b", "b"], [[0, 0, 9, 9]] * 3, [3, 2, 4], [0.99] * 3))
        formats.save_pool(pool, path)
        assert formats.load_pool(path) == formats.load_pool(path, 4) == pool
        with pytest.raises(ValueError, match=re.escape(f"{path}: image 'b': class_id 4 outside 1..3")):
            formats.load_pool(path, 3)

    def test_image_id_must_be_a_string(self, tmp_path):
        # JSON keys are strings, so a record with the image id 5 is misfiled under "5"
        path = tmp_path / "pool.json"
        record = {"image_id": 5, "bbox": [0, 0, 9, 9], "class_id": 1, "confidence": 0.99}
        path.write_text(json.dumps({"cycle": 0, "labeled": [], "unlabeled": ["5"], "pseudo": {"5": [record]}}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: pseudo-labels filed under another image's id: ['5']")):
            formats.load_pool(path)


@pytest.mark.parametrize("image_id, shown", [(5, "5"), ("a\u0000", "'a\\x00'")])
def test_dataset_image_id_must_be_a_string_the_pseudo_labels_hold(tmp_path, image_id, shown):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"classes": ["c"], "images": [{"id": image_id, "width": 10, "height": 10}]}))
    message = f"{path}: image_id: expected a string without a trailing NUL, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        formats.load_dataset(path)


def test_dataset_image_id_must_encode_as_utf8(tmp_path):
    # json reads "\ud800" as a lone surrogate, which no UTF-8 writer can encode
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"classes": ["c"], "images": [{"id": "\ud800", "width": 10, "height": 10}]}))
    message = f"{path}: image_id: expected a string that UTF-8 can encode, got '\\ud800'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        formats.load_dataset(path)


@pytest.mark.parametrize("write", [
    lambda i, path: formats.write_scores_csv(AcquisitionScores([i], [1.0], [1.0]), path),
    lambda i, path: formats.write_pseudo_labels_jsonl(PseudoLabels([i], [[0, 0, 1, 1]], [1], [0.9]), path),
])
def test_lone_surrogate_id_refused_before_a_file_is_opened(tmp_path, write):
    # the scores writer once opened the file and then failed to encode the id
    path = tmp_path / "out"
    with pytest.raises(ValueError, match="image_id: expected a string that UTF-8 can encode"):
        write("a\ud800", path)
    assert not path.exists()


class TestSelectedTxt:
    def test_one_id_per_line(self, tmp_path):
        path = tmp_path / "sel.txt"
        formats.write_selected_txt(("b", "a,c", " d"), path)
        assert path.read_text() == "b\na,c\n d\n"

    @pytest.mark.parametrize("bad", ["x\ny", "x\r", "\n"])
    def test_line_break_rejected_before_writing(self, tmp_path, bad):
        # ["x\ny"] read back as ["x", "y"]
        path = tmp_path / "sel.txt"
        with pytest.raises(ValueError, match=re.escape(f"image_id {bad!r} cannot be written to a selection file")):
            formats.write_selected_txt(["a", bad], path)
        assert not path.exists()


class TestIntegerFields:
    """class_id, width, height and cycle must be JSON integers: int() would file
    1.9 under class 1 and overflow on Infinity."""

    @pytest.mark.parametrize("value", ["1.5", "1.9", "true", "Infinity"])
    def test_pseudo_label_class_id(self, tmp_path, value):
        path = tmp_path / "pl.jsonl"
        path.write_text('{"image_id": "a", "bbox": [0, 0, 9, 9], "class_id": %s, '
                        '"confidence": 0.99}\n' % value)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 1: class_id: expected an integer")):
            formats.read_pseudo_labels_jsonl(path, 1)

    @pytest.mark.parametrize("field", ["width", "height", "class_id"])
    @pytest.mark.parametrize("value", [10.0, True])
    def test_dataset_fields(self, tmp_path, field, value):
        image = {"id": "a", "width": 10, "height": 10, "objects": [{"bbox": [0, 0, 5, 5], "class_id": 1}]}
        (image["objects"][0] if field == "class_id" else image)[field] = value
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"classes": ["c"], "images": [image]}))
        with pytest.raises(ValueError, match=f"{field}: expected an integer, got {value}"):
            formats.load_dataset(path)

    def test_pool_cycle(self, tmp_path):
        path = tmp_path / "pool.json"
        path.write_text(json.dumps({"cycle": 1.0, "labeled": ["a"], "unlabeled": ["b"]}))
        with pytest.raises(ValueError, match="cycle: expected an integer, got 1.0"):
            formats.load_pool(path)


class TestScoresCSV:
    def test_roundtrip_and_format(self, tmp_path):
        scores = AcquisitionScores(["img_b", "img_a"], [1.25, 0.123456789], [0.5, 0.987654321])
        path = tmp_path / "scores.csv"
        formats.write_scores_csv(scores, path)
        text = path.read_text()
        assert text.splitlines()[0] == "image_id,entropy,inconsistency,unified"
        assert text.splitlines()[1].startswith("img_a,0.123457,")  # sorted, 6 decimals
        back = formats.read_scores_csv(path)
        assert isinstance(back, AcquisitionScores)
        assert back.image_ids.tolist() == ["img_a", "img_b"]
        assert back.entropy.tolist() == [0.123457, 1.25]
        assert back.inconsistency.tolist() == [0.987654, 0.5]
        assert np.array_equal(back.unified, back.entropy * back.inconsistency)
        empty = tmp_path / "empty.csv"
        formats.write_scores_csv(AcquisitionScores(), empty)
        assert empty.read_text() == "image_id,entropy,inconsistency,unified\n"
        assert formats.read_scores_csv(empty) == AcquisitionScores()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "nope.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="header"):
            formats.read_scores_csv(path)

    def test_duplicate_image_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("image_id,entropy,inconsistency,unified\n"
                        "a,1.0,1.0,1.0\nb,0.5,0.5,0.25\na,0.1,0.1,0.01\n")
        with pytest.raises(ValueError, match=r"scores.csv: line 4: duplicate image_id 'a'"):
            formats.read_scores_csv(path)


class TestEvalCSV:
    def test_roundtrip_with_excluded(self, tmp_path):
        result = EvalResult({1: 0.5, 3: 0.75}, {1: 4, 2: 0, 3: 2})
        assert result.excluded == (2,)
        path = tmp_path / "eval.csv"
        formats.write_eval_csv(result, path)
        back = formats.read_eval_csv(path)
        assert back == result
        lines = path.read_text().splitlines()
        assert lines[0] == "class_id,ap,n_gt"
        assert lines[-1].startswith("mAP,0.625000,")

    def test_duplicate_class_rejected(self, tmp_path):
        # a second row for a class used to replace the first
        path = tmp_path / "eval.csv"
        path.write_text("class_id,ap,n_gt\n1,0.500000,4\n1,0.900000,4\nmAP,0.500000,4\n")
        with pytest.raises(ValueError, match=r"eval.csv: line 3: duplicate class_id 1"):
            formats.read_eval_csv(path)

    @pytest.mark.parametrize("rows, error", [
        # a mAP row that contradicts the class rows used to be skipped unread
        ("1,0.500000,4\nmAP,0.100000,4\nmAP,0.900000,9\n",
         "line 3: mAP row 0.100000 is not 0.500000, the mean AP of the class rows"),
        ("1,0.500000,4\nmAP,0.500000,4\nmAP,0.500000,4\n", "line 4: duplicate mAP row"),
        ("1,0.500000,4\n2,0.500000,3\nmAP,0.500000,4\n",
         "line 4: mAP row n_gt 4 is not 7, the sum of the class rows"),
        ("1,0.500000,4\n3,0.250000,1\nmAP,0.375002,5\n", "line 4: mAP row 0.375002 is not 0.375000"),
        ("1,0.500000,4\nmAP,nan,4\n", "line 3: mAP row nan is not 0.500000"),
        ("mAP,0.000000,0\n1,0.500000,4\n", "line 3: class row after the mAP row"),
    ])
    def test_map_row_must_agree_with_class_rows(self, tmp_path, rows, error):
        path = tmp_path / "eval.csv"
        path.write_text("class_id,ap,n_gt\n" + rows)
        with pytest.raises(ValueError, match=re.escape(f"eval.csv: {error}")):
            formats.read_eval_csv(path)

    @pytest.mark.parametrize("rows", ["1,0.5,4\n2,0.25,3\n", ""])
    def test_missing_map_row_rejected(self, tmp_path, rows):
        # a table cut before its mAP row used to read as complete
        path = tmp_path / "eval.csv"
        path.write_text("class_id,ap,n_gt\n" + rows)
        with pytest.raises(ValueError, match=re.escape(f"{path}: no mAP row after the class rows")):
            formats.read_eval_csv(path)

    def bad_row(self, tmp_path, row, error):
        # the faulty class row is line 2, ahead of rows that are all valid
        path = tmp_path / "eval.csv"
        path.write_text(f"class_id,ap,n_gt\n{row}\n3,0.250000,1\nmAP,0.250000,1\n")
        with pytest.raises(ValueError, match=re.escape(f"eval.csv: line 2: class_id {error}")):
            formats.read_eval_csv(path)

    @pytest.mark.parametrize("row", ["0,0.5,3", "-2,0.25,1"])
    def test_class_id_below_one_rejected(self, tmp_path, row):
        cls = row.split(",")[0]
        self.bad_row(tmp_path, row, f"{cls}: foreground classes start at 1")

    @pytest.mark.parametrize("ap", ["7.5", "-0.25", "1.000001", "nan", "inf"])
    def test_ap_outside_unit_interval_rejected(self, tmp_path, ap):
        self.bad_row(tmp_path, f"1,{ap},4", f"1: AP {ap} outside [0, 1]")

    def test_negative_n_gt_rejected(self, tmp_path):
        self.bad_row(tmp_path, "1,7.5,-3", "1: negative n_gt -3")
        self.bad_row(tmp_path, "1,,-3", "1: negative n_gt -3")

    @pytest.mark.parametrize("row, ap, n", [("2,,4", "", 4), ("2,0.25,0", "0.25", 0)])
    def test_ap_present_iff_class_has_ground_truth(self, tmp_path, row, ap, n):
        # excluded classes are the ones with n_gt 0, so an empty AP must say the same
        self.bad_row(tmp_path, row, f"2: AP {ap!r} with n_gt {n}; the AP is empty iff n_gt is 0")

    def test_map_row_within_rounding_accepted(self, tmp_path):
        # the APs and their mean are each rounded to six decimals, so the mAP
        # row may miss the mean of the written APs (0.3117285) by up to 1e-6
        path = tmp_path / "eval.csv"
        path.write_text("class_id,ap,n_gt\n1,0.123457,2\n2,0.500000,3\nmAP,0.311728,5\n")
        assert formats.read_eval_csv(path).map50 == (0.123457 + 0.5) / 2


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\nstrategy = unified\n\ntau=0.99  # inline\n")
        assert formats.parse_config_file(path) == {"strategy": "unified", "tau": "0.99"}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("tau = 0.9\ntau = 0.99\n")
        with pytest.raises(ValueError, match="duplicate"):
            formats.parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("just a line\n")
        with pytest.raises(ValueError, match="key = value"):
            formats.parse_config_file(path)
