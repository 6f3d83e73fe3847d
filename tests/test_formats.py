"""Serialization round-trips and format validation."""

import hashlib
import json
import os
import re
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import chunk_bits, dataset_of, per_image, rewrite

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


def view_bits(preds):
    """Every view of a read predictions file, as its frame and its bits."""
    return [(flipped, view.flipped, chunk_bits(view)) for flipped, view in preds.views.items()]


def entry_columns(entry):
    """The digest and the columns of a cache entry, read by its layout: a
    one-line JSON header, then each column's bytes from the next multiple of
    64, the last ending the file."""
    data = entry.read_bytes()
    end = data.index(b"\n") + 1
    header, columns = json.loads(data[:end]), {}
    for name, dtype, shape in header["columns"]:
        end += -end % 64
        columns[name] = np.frombuffer(data, dtype, int(np.prod(shape)), end).reshape(shape)
        end += columns[name].nbytes
    assert end == len(data)
    return header["digest"], columns


def write_entry(entry, digest, columns, shapes=None):
    """A cache entry of ``columns`` in the layout, each written with its own
    dtype, its header naming ``shapes[name]`` where given."""
    shapes = shapes or {}
    header = {"digest": digest, "columns": [[name, a.dtype.str, shapes.get(name, a.shape)] for name, a in columns.items()]}
    data = json.dumps(header).encode() + b"\n"
    for a in columns.values():
        data += bytes(-len(data) % 64) + np.ascontiguousarray(a).tobytes()
    entry.write_bytes(data)


def spoil_columns(shapes=None, **changes):
    """A spoiler that writes the good entry again with ``changes``, each a
    column's new value made from the good columns, and with ``shapes``, each
    a column's header shape made from them."""
    def spoil(entry, good, other):
        digest, columns = good
        write_entry(entry, digest, {**columns, **{name: change(columns) for name, change in changes.items()}},
                    {name: shape(columns) for name, shape in (shapes or {}).items()})
    return spoil


NEVER_BOUND = 1 << 63  # a stat binding margin (formats._STAT_MARGIN_NS) that no file's age reaches

# Spoilers of either kind of entry, each a miss that is written again.
TRUNCATED = lambda entry, good, other: entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])  # noqa: E731
OTHER_CONTENT = lambda entry, good, other: entry.write_bytes(other.read_bytes())  # noqa: E731


def without_column(name):
    """A spoiler that writes the good entry again without the column ``name``,
    in its header and its body."""
    def spoil(entry, good, other):
        digest, columns = good
        write_entry(entry, digest, {key: a for key, a in columns.items() if key != name})
    return spoil


class TestPredictionsCache:
    """``read_predictions_jsonl`` keeps a regular file's checked columns in
    ``$XDG_CACHE_HOME/aldet``; a hit must give what a parse gives."""

    @pytest.fixture()
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        # No file is ever old enough to be bound, however slowly a test runs,
        # so the cache holds entries only (TestStatBinding covers markers).
        monkeypatch.setattr(formats, "_STAT_MARGIN_NS", NEVER_BOUND)
        return tmp_path / "xdg" / "aldet"

    @pytest.fixture()
    def file(self, world, tmp_path):
        det = SyntheticDetector(SyntheticDetectorConfig(seed=3, fp_rate=1.0), world)
        path = tmp_path / "preds.jsonl"
        formats.write_predictions_jsonl([det.predict(world.image_ids), det.predict(world.image_ids[:5], True)], path)
        return path

    @staticmethod
    def entry(cache, path):
        return cache / f"{formats._CACHE_TAG}-{hashlib.sha256(path.read_bytes()).hexdigest()}.cols"

    @staticmethod
    def cold(path, image_sizes):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("XDG_CACHE_HOME", "not-absolute")  # turns the cache off
            return formats.read_predictions_jsonl(path, image_sizes)

    @staticmethod
    def columns(entry):
        return entry_columns(entry)[1]

    def test_hit_equals_the_parse(self, world, cache, file):
        cold = view_bits(self.cold(file, sizes(world)))
        assert not cache.exists()
        assert view_bits(formats.read_predictions_jsonl(file, sizes(world))) == cold
        assert [p.name for p in cache.iterdir()] == [self.entry(cache, file).name]
        assert cache.stat().st_mode & 0o777 == 0o700
        warm = formats.read_predictions_jsonl(file, sizes(world))
        assert view_bits(warm) == cold
        # the clamp depends on the sizes, so a hit runs it again
        small = {image_id: (10, 10) for image_id in world.image_ids}
        assert view_bits(formats.read_predictions_jsonl(file, small)) == view_bits(self.cold(file, small))

    @pytest.mark.parametrize("spoil", [
        TRUNCATED,
        OTHER_CONTENT,
        spoil_columns(counts0=lambda c: c["counts0"] + 1),
        spoil_columns(probs0=lambda c: np.full_like(c["probs0"], np.nan)),
        # the last column's rows run past the end of the file
        spoil_columns(shapes={"probs1": lambda c: [len(c["probs1"]) + 1, c["probs1"].shape[1]]}),
        # bytes after the last column: a body longer than the header says
        lambda entry, good, other: entry.write_bytes(entry.read_bytes() + bytes(64)),
        # the same values, big-endian: a dtype the cache does not write
        spoil_columns(probs0=lambda c: c["probs0"].astype(">f8")),
        without_column("counts1"),
    ], ids=["truncated", "other-content", "row-count", "non-finite", "overrun", "trailing", "dtype",
            "missing-column"])
    def test_spoilt_entry_is_a_miss_and_is_written_again(self, world, cache, file, tmp_path, spoil):
        other_file = tmp_path / "other.jsonl"  # the same records, a line further down
        other_file.write_text("\n" + file.read_text())
        formats.read_predictions_jsonl(other_file, sizes(world))
        formats.read_predictions_jsonl(file, sizes(world))
        entry, other = self.entry(cache, file), self.entry(cache, other_file)
        good, good_bytes = entry_columns(entry), entry.read_bytes()
        spoil(entry, good, other)
        assert entry.read_bytes() != good_bytes
        assert view_bits(formats.read_predictions_jsonl(file, sizes(world))) == view_bits(self.cold(file, sizes(world)))
        rewritten = self.columns(entry)
        assert rewritten.keys() == good[1].keys()
        assert all(np.array_equal(rewritten[name], good[1][name]) for name in good[1])
        assert entry.read_bytes() == good_bytes  # each column with its dtype too

    def test_image_id_the_sizes_lack_is_a_miss_and_the_parse_raises(self, world, cache, file):
        formats.read_predictions_jsonl(file, sizes(world))
        entry = self.entry(cache, file)
        good, listing = entry.read_bytes(), sorted(p.name for p in cache.iterdir())
        fewer = {image_id: wh for image_id, wh in sizes(world).items() if image_id != world.image_ids[3]}
        with pytest.raises(ValueError) as cold:
            self.cold(file, fewer)
        with pytest.raises(ValueError) as warm:
            formats.read_predictions_jsonl(file, fewer)
        assert str(warm.value) == str(cold.value)
        assert "unknown image id" in str(cold.value)
        assert entry.read_bytes() == good
        assert sorted(p.name for p in cache.iterdir()) == listing

    def test_unwritable_directory_writes_nothing(self, world, cache, file, monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(formats.tempfile, "mkstemp", refuse)
        assert view_bits(formats.read_predictions_jsonl(file, sizes(world))) == view_bits(self.cold(file, sizes(world)))
        assert list(cache.iterdir()) == []

    def test_directory_that_cannot_be_made_writes_nothing(self, world, file, tmp_path, monkeypatch):
        (tmp_path / "xdg").write_text("a file where the cache directory's parent would be")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert view_bits(formats.read_predictions_jsonl(file, sizes(world))) == view_bits(self.cold(file, sizes(world)))

    def test_relative_directory_turns_the_cache_off(self, world, file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        formats.read_predictions_jsonl(file, sizes(world))
        assert not (tmp_path / "relative").exists()
        # as HOME unset would leave "~" unexpanded
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setattr(formats.os.path, "expanduser", lambda path: path)
        formats.read_predictions_jsonl(file, sizes(world))
        assert not (tmp_path / "~").exists()

    def test_fifo_is_read_once_and_not_cached(self, world, cache, file, tmp_path):
        fifo = tmp_path / "preds.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(file.read_bytes()), daemon=True)
        writer.start()
        try:
            preds = formats.read_predictions_jsonl(fifo, sizes(world))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert view_bits(preds) == view_bits(self.cold(file, sizes(world)))
        assert not cache.exists()

    def test_file_descriptor_is_read_once_and_not_cached(self, world, cache, file):
        preds = formats.read_predictions_jsonl(os.open(file, os.O_RDONLY), sizes(world))
        assert view_bits(preds) == view_bits(self.cold(file, sizes(world)))
        assert not cache.exists()

    def test_file_changed_after_the_lookup_is_stored_under_the_bytes_parsed(self, world, cache, file, monkeypatch):
        before = file.read_bytes()
        lookup = formats._file_digest

        def lookup_then_change(*args, **kwargs):
            digest = lookup(*args, **kwargs)
            file.write_bytes(swapped_lines(before))
            return digest

        monkeypatch.setattr(formats, "_file_digest", lookup_then_change)
        formats.read_predictions_jsonl(file, sizes(world))
        assert [p.name for p in cache.iterdir()] == [self.entry(cache, file).name]
        first = json.loads(file.read_bytes().splitlines()[0])
        assert json.loads(self.columns(self.entry(cache, file))["ids0"].tobytes())[0] == first["image_id"]

    def test_eight_entries_kept_the_least_recently_hit_goes(self, world, cache, file, tmp_path):
        paths = []
        for k in range(9):
            paths.append(tmp_path / f"preds{k}.jsonl")
            paths[-1].write_bytes(b"\n" * k + file.read_bytes())
        for path in paths[:8]:
            formats.read_predictions_jsonl(path, sizes(world))
        for k in (1, 0, 3, 4, 5, 6, 7):  # every entry but 2's is hit again
            formats.read_predictions_jsonl(paths[k], sizes(world))
        formats.read_predictions_jsonl(paths[8], sizes(world))
        kept = {p.name for p in cache.iterdir()}
        assert kept == {self.entry(cache, path).name for k, path in enumerate(paths) if k != 2}

    def test_every_older_tag_goes_and_eight_entries_of_both_kinds_are_kept(self, world, cache, file, tmp_path):
        cache.mkdir(parents=True)
        planted = cache / f"v1-{'0' * 64}.npz"  # an entry of the former layout, the newest file
        planted.write_bytes(b"PK")
        os.utime(planted, ns=(2 * time.time_ns(),) * 2)
        paths = []
        for k in range(9):  # predictions and datasets, alternately
            paths.append(tmp_path / f"input{k}")
            if k % 2:
                formats.save_dataset(world, paths[-1])
                paths[-1].write_bytes(b"\n" * k + paths[-1].read_bytes())
            else:
                paths[-1].write_bytes(b"\n" * k + file.read_bytes())
        formats.read_predictions_jsonl(paths[0], sizes(world))
        assert not planted.exists()
        for k, path in enumerate(paths[1:], start=1):
            if k % 2:
                formats.load_dataset(path)
            else:
                formats.read_predictions_jsonl(path, sizes(world))
        kept = {p.name for p in cache.iterdir()}
        assert kept == {TestDatasetCache.entry(cache, path).name if k % 2 else self.entry(cache, path).name
                        for k, path in enumerate(paths) if k}


def dataset_bits(data):
    """A dataset's class names, ids and columns, each with its dtype."""
    return (data.classes, data.image_ids, *((a.dtype, a.shape, a.tobytes()) for a in
                                            (data.widths, data.heights, data.boxes, data.class_ids, data.counts,
                                             data.starts)))


class TestDatasetCache:
    """``load_dataset`` keeps a regular file's dataset in the cache of the
    predictions; a hit must give what a parse gives."""

    @pytest.fixture()
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        # No file is ever old enough to be bound, however slowly a test runs,
        # so the cache holds entries only (TestStatBinding covers markers).
        monkeypatch.setattr(formats, "_STAT_MARGIN_NS", NEVER_BOUND)
        return tmp_path / "xdg" / "aldet"

    @pytest.fixture()
    def file(self, world, tmp_path):
        path = tmp_path / "data.json"
        formats.save_dataset(world, path)
        return path

    @staticmethod
    def entry(cache, path):
        return cache / f"{formats._CACHE_TAG}-dataset-{hashlib.sha256(path.read_bytes()).hexdigest()}.cols"

    @staticmethod
    def cold(path):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("XDG_CACHE_HOME", "not-absolute")  # turns the cache off
            return dataset_bits(formats.load_dataset(path))

    def test_hit_equals_the_parse(self, cache, file, monkeypatch):
        cold = self.cold(file)
        assert not cache.exists()
        assert dataset_bits(formats.load_dataset(file)) == cold
        assert [p.name for p in cache.iterdir()] == [self.entry(cache, file).name]

        def no_parse(*args):
            raise AssertionError("a hit parses nothing")

        monkeypatch.setattr(formats, "_parse_dataset", no_parse)
        assert dataset_bits(formats.load_dataset(file)) == cold

    @pytest.mark.parametrize("spoil", [
        TRUNCATED,
        OTHER_CONTENT,
        spoil_columns(widths=lambda c: c["widths"].astype(np.float64)),
        spoil_columns(boxes=lambda c: np.full_like(c["boxes"], np.nan)),
        spoil_columns(class_ids=lambda c: np.where(np.arange(len(c["class_ids"])) == 0, 4, c["class_ids"])),  # K = 3
        spoil_columns(counts=lambda c: c["counts"] + 1),
        without_column("class_ids"),
    ], ids=["truncated", "other-content", "float-width", "nan-box", "class-id-above-k", "row-count",
            "missing-column"])
    def test_spoilt_entry_is_a_miss_and_is_written_again(self, cache, file, tmp_path, spoil):
        other_file = tmp_path / "other.json"  # the same document, a line further down
        other_file.write_text("\n" + file.read_text())
        formats.load_dataset(other_file)
        formats.load_dataset(file)
        entry, other = self.entry(cache, file), self.entry(cache, other_file)
        good, good_bytes = entry_columns(entry), entry.read_bytes()
        spoil(entry, good, other)
        assert entry.read_bytes() != good_bytes
        assert dataset_bits(formats.load_dataset(file)) == self.cold(file)
        assert entry.read_bytes() == good_bytes

    def test_unwritable_directory_writes_nothing(self, cache, file, monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(formats.tempfile, "mkstemp", refuse)
        assert dataset_bits(formats.load_dataset(file)) == self.cold(file)
        assert list(cache.iterdir()) == []

    def test_fifo_is_read_once_and_not_cached(self, cache, file, tmp_path):
        fifo = tmp_path / "data.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(file.read_bytes()), daemon=True)
        writer.start()
        try:
            data = formats.load_dataset(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert dataset_bits(data) == self.cold(file)
        assert not cache.exists()


def predictions_file(world, path):
    """``path``, written with both views of ``world``'s predictions."""
    det = SyntheticDetector(SyntheticDetectorConfig(seed=3, fp_rate=1.0), world)
    formats.write_predictions_jsonl([det.predict(world.image_ids), det.predict(world.image_ids[:5], True)], path)
    return path


def swapped_lines(data: bytes) -> bytes:
    """A predictions file of the same size with its first record moved after
    the third: the original view lists another image first."""
    lines = data.splitlines(keepends=True)
    return b"".join([lines[2], lines[1], lines[0], *lines[3:]])


def other_class(data: bytes) -> bytes:
    """A dataset file of the same size with its first class id 1 made 2."""
    assert b'"class_id": 1' in data
    return data.replace(b'"class_id": 1', b'"class_id": 2', 1)


class TestStatBinding:
    """A file whose times are older than the margin is bound to its digest
    by its stat key, and a later read of it hashes nothing; every other file
    is hashed as before. Each case for predictions and datasets alike; the
    clock is moved forward, not waited for."""

    @pytest.fixture()
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        return tmp_path / "xdg" / "aldet"

    @pytest.fixture(params=["predictions", "dataset"])
    def subject(self, request, world, tmp_path):
        """The file, a reader through the cache, the cache-off reader, that
        kind's entry, and other bytes of the same size."""
        if request.param == "predictions":
            path = predictions_file(world, tmp_path / "preds.jsonl")
            return SimpleNamespace(
                path=path, read=lambda: view_bits(formats.read_predictions_jsonl(path, sizes(world))),
                cold=lambda: view_bits(TestPredictionsCache.cold(path, sizes(world))),
                entry=TestPredictionsCache.entry, other=swapped_lines(path.read_bytes()))
        path = tmp_path / "data.json"
        formats.save_dataset(world, path)
        return SimpleNamespace(path=path, read=lambda: dataset_bits(formats.load_dataset(path)),
                               cold=lambda: TestDatasetCache.cold(path), entry=TestDatasetCache.entry,
                               other=other_class(path.read_bytes()))

    @staticmethod
    def move_clock(patch):
        """Move the clock the binding reads forward by more than the margin."""
        real = time.time_ns
        patch.setattr(formats.time, "time_ns", lambda: real() + formats._STAT_MARGIN_NS + 10**9)

    @pytest.fixture()
    def later(self, monkeypatch):
        self.move_clock(monkeypatch)

    @pytest.fixture()
    def hashes(self, monkeypatch):
        """The number of SHA-256 hashes the reader has begun."""
        count = [0]

        def sha256(*data):
            count[0] += 1
            return hashlib.sha256(*data)

        monkeypatch.setattr(formats, "hashlib", SimpleNamespace(sha256=sha256))
        return count

    @staticmethod
    def markers(cache):
        return sorted(p.name for p in cache.iterdir() if p.name.startswith(f"{formats._CACHE_TAG}-stat-"))

    @staticmethod
    def marker(cache, path):
        st = path.stat()
        key = ".".join(f"{n:x}" for n in (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns))
        return f"{formats._CACHE_TAG}-stat-{key}-{hashlib.sha256(path.read_bytes()).hexdigest()}"

    def test_young_file_is_hashed_on_every_read_and_binds_nothing(self, cache, subject, hashes):
        cold = subject.cold()
        for _ in range(3):
            before = hashes[0]
            assert subject.read() == cold
            assert hashes[0] > before
        assert [p.name for p in cache.iterdir()] == [subject.entry(cache, subject.path).name]

    def test_old_file_is_bound_once_and_then_read_without_a_hash(self, cache, subject, hashes, later):
        cold = subject.cold()
        before = hashes[0]
        assert subject.read() == cold  # a miss: the lookup hashes, and a predictions parse too
        assert hashes[0] > before
        assert self.markers(cache) == [self.marker(cache, subject.path)]
        before = hashes[0]
        assert subject.read() == cold
        assert subject.read() == cold
        assert hashes[0] == before
        assert self.markers(cache) == [self.marker(cache, subject.path)]

    def test_same_size_rewrite_with_the_mtime_restored_is_a_miss(self, cache, subject, later):
        subject.read()
        assert self.markers(cache)
        old, mtime = subject.cold(), subject.path.stat().st_mtime_ns
        rewrite(subject.path, subject.other, mtime)
        assert subject.path.stat().st_mtime_ns == mtime
        new = subject.cold()
        assert new != old
        assert subject.read() == new
        assert subject.read() == new

    def test_file_replaced_with_the_same_size_and_mtime_is_a_miss(self, cache, subject, tmp_path, later):
        subject.read()
        old, st = subject.cold(), subject.path.stat()
        replacement = tmp_path / "replacement"
        replacement.write_bytes(subject.other)
        os.utime(replacement, ns=(st.st_atime_ns, st.st_mtime_ns))
        os.replace(replacement, subject.path)
        after = subject.path.stat()
        assert (after.st_size, after.st_mtime_ns) == (st.st_size, st.st_mtime_ns)
        assert after.st_ino != st.st_ino
        assert subject.cold() != old
        assert subject.read() == subject.cold()

    def test_file_changed_while_it_is_hashed_binds_nothing(self, cache, subject, monkeypatch, later):
        data, changed = subject.path.read_bytes(), []

        def change_then_hash(*args):
            if not changed:  # the lookup's hash, after its stat
                changed.append(True)
                rewrite(subject.path, data)
            return hashlib.sha256(*args)

        monkeypatch.setattr(formats, "hashlib", SimpleNamespace(sha256=change_then_hash))
        assert subject.read() == subject.cold()
        assert changed and self.markers(cache) == []
        assert subject.entry(cache, subject.path).exists()

    def test_marker_without_its_entry_leads_to_a_parse(self, cache, subject, hashes, later):
        cold = subject.cold()
        subject.read()
        entry = subject.entry(cache, subject.path)
        good = entry.read_bytes()
        entry.unlink()
        before = hashes[0]
        assert subject.read() == cold
        assert hashes[0] == before + 1  # the parse hashes the bytes it reads; the lookup, nothing
        assert entry.read_bytes() == good
        assert self.markers(cache) == [self.marker(cache, subject.path)]

    def test_rewriting_the_same_bytes_keeps_at_most_eight_markers(self, cache, subject, later):
        cold, data = subject.cold(), subject.path.read_bytes()
        for _ in range(20):
            rewrite(subject.path, data)
            assert subject.read() == cold
            assert self.marker(cache, subject.path) in self.markers(cache)
        assert len(self.markers(cache)) == formats.CACHE_ENTRIES
        assert [p.name for p in cache.iterdir() if not p.name.startswith(f"{formats._CACHE_TAG}-stat-")] == [
            subject.entry(cache, subject.path).name]

    def test_file_changed_after_a_bound_lookup_is_stored_under_the_bytes_parsed(self, cache, subject, monkeypatch,
                                                                                later):
        subject.read()
        old_entry = subject.entry(cache, subject.path)
        old_entry.unlink()  # so that the marker's digest is looked up and missed
        lookup = formats._file_digest

        def lookup_then_change(*args, **kwargs):
            found = lookup(*args, **kwargs)
            rewrite(subject.path, subject.other)
            return found

        monkeypatch.setattr(formats, "_file_digest", lookup_then_change)
        assert subject.read() == subject.cold()
        assert subject.entry(cache, subject.path).exists()
        assert not old_entry.exists()

    def test_marker_whose_entry_is_pruned_goes(self, cache, subject, world, tmp_path, later):
        subject.read()
        marker = self.marker(cache, subject.path)
        assert self.markers(cache) == [marker]
        other = predictions_file(world, tmp_path / "other.jsonl")
        data = other.read_bytes()
        for k in range(1, formats.CACHE_ENTRIES + 1):
            other.write_bytes(b"\n" * k + data)
            os.utime(other, ns=(time.time_ns(),) * 2)  # young by the moved clock, so bound by no marker
            formats.read_predictions_jsonl(other, sizes(world))
            assert self.markers(cache) == ([marker] if k < formats.CACHE_ENTRIES else [])
        assert not subject.entry(cache, subject.path).exists()

    def test_temporary_file_older_than_the_margin_goes_at_the_next_save(self, cache, subject):
        # A save stopped between mkstemp and its rename (a kill, an interrupt)
        # leaves its temporary file. The next save's prune deletes it once it
        # is older than the margin, leaves a live writer's alone, and goes on
        # past one that is gone by the time it is looked at.
        cache.mkdir(parents=True)
        stale, fresh, gone = (cache / f"{formats._TMP_PREFIX}{name}" for name in ("stale", "fresh", "gone"))
        stale.write_bytes(b"a save stopped before its rename")
        fresh.write_bytes(b"a save still being written")
        gone.symlink_to(cache / "nothing")  # its stat fails as a vanished file's does
        old = time.time_ns() - formats._STAT_MARGIN_NS - 10**9
        os.utime(stale, ns=(old, old))
        (cache / f"v1-{'0' * 64}.npz").write_bytes(b"PK")  # an older tag's entry: the rest of the prune runs
        assert subject.read() == subject.cold()
        entry = subject.entry(cache, subject.path)
        assert sorted(p.name for p in cache.iterdir()) == sorted([entry.name, fresh.name, gone.name])
        assert subject.read() == subject.cold()  # a hit of the entry written


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


class TestNumberFields:
    """Coordinates, probabilities and confidences must be JSON numbers:
    numpy reads true as 1 in a row of numbers, and float() reads the string
    "0.99" and true alike."""

    PL = '{"image_id": "a", "bbox": [0, 0, 9, 9], "class_id": 1, "confidence": 0.99}\n'

    @pytest.mark.parametrize("value", ['"0.99"', '" 1e-1 "', "true", "null"])
    def test_pseudo_label_confidence(self, tmp_path, value):
        path = tmp_path / "pl.jsonl"
        path.write_text(self.PL + self.PL.replace("0.99", value))
        message = f"{path}: line 2: confidence: expected a number, got {json.loads(value)!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            formats.read_pseudo_labels_jsonl(path, 1)
        path.write_text(self.PL.replace("0.99", "1"))  # a JSON integer is a number
        assert formats.read_pseudo_labels_jsonl(path, 1).scores.tolist() == [1.0]

    @pytest.mark.parametrize("value", ["0.99", " 1e-1 ", True])
    def test_pool_confidence(self, tmp_path, value):
        path = tmp_path / "pool.json"
        record = {"image_id": "a", "bbox": [0, 0, 9, 9], "class_id": 1, "confidence": value}
        path.write_text(json.dumps({"cycle": 0, "labeled": [], "unlabeled": ["a"], "pseudo": {"a": [record]}}))
        message = f"{path}: image 'a': confidence: expected a number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            formats.load_pool(path)

    @pytest.mark.parametrize("bbox", [[True, 0, 5, 5], [0, 0, 5.5, False]])
    def test_dataset_bbox(self, tmp_path, bbox):
        images = [{"id": "ok", "width": 10, "height": 10, "objects": [{"bbox": [0, 0, 5, 5], "class_id": 1}]},
                  {"id": "a", "width": 10, "height": 10, "objects": [{"bbox": bbox, "class_id": 1}]}]
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"classes": ["c"], "images": images}))
        message = f"{path}: image 'a': bbox: expected numbers, got a boolean"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            formats.load_dataset(path)

    @pytest.mark.parametrize("field, value", [
        ("bbox", [True, 0, 5, 5]), ("encoded", [0, 0, 1, True]), ("probs", [False, True]), ("probs", [0.0, True]),
    ])
    def test_predictions(self, world, tmp_path, field, value):
        det = {"bbox": [0, 0, 5, 5], "encoded": [0, 0, 1, 1], "probs": [0.0, 1.0]}
        path = tmp_path / "preds.jsonl"
        path.write_text(TestPredictionsJSONL.record("img_0000", False, det)
                        + TestPredictionsJSONL.record("img_0001", False, det, {**det, field: value}))
        message = f"{path}: line 2: {field}: expected numbers, got a boolean"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            formats.read_predictions_jsonl(path, sizes(world))

    def test_pseudo_label_bbox(self, tmp_path):
        path = tmp_path / "pl.jsonl"
        path.write_text(self.PL + self.PL.replace("[0, 0, 9, 9]", "[0, 0, 9, true]"))
        message = f"{path}: line 2: bbox: expected numbers, got a boolean"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            formats.read_pseudo_labels_jsonl(path, 1)

    def test_pool_bbox(self, tmp_path):
        path = tmp_path / "pool.json"
        record = {"image_id": "a", "bbox": [False, 0, 9, 9], "class_id": 1, "confidence": 0.99}
        path.write_text(json.dumps({"cycle": 0, "labeled": [], "unlabeled": ["a"], "pseudo": {"a": [record]}}))
        message = f"{path}: image 'a': bbox: expected numbers, got a boolean"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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
