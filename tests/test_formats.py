"""Serialization round-trips and format validation."""

import json

import numpy as np
import pytest

from aldet import formats
from aldet.acquisition import AcquisitionScore
from aldet.boxes import BoxCorner
from aldet.dataset import make_synthetic_dataset
from aldet.evaluation import EvalResult
from aldet.pool import init_pool, with_pseudo
from aldet.pseudo_label import PseudoLabel
from aldet.sim_detector import SyntheticDetector, SyntheticDetectorConfig


@pytest.fixture()
def world(tmp_path):
    return make_synthetic_dataset(8, 3, seed=0)


def sizes(dataset):
    return {img.image_id: (img.width, img.height) for img in dataset.images}


class TestDatasetJSON:
    def test_roundtrip(self, world, tmp_path):
        path = tmp_path / "data.json"
        formats.save_dataset(world, path)
        back = formats.load_dataset(path)
        assert back.classes == world.classes
        assert len(back.images) == len(world.images)
        for a, b in zip(back.images, world.images):
            assert a.image_id == b.image_id
            assert len(a.objects) == len(b.objects)
            for oa, ob in zip(a.objects, b.objects):
                assert oa.class_id == ob.class_id
                assert oa.box_corner == ob.box_corner

    def test_deterministic_file(self, world, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        formats.save_dataset(world, p1)
        formats.save_dataset(world, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestPredictionsJSONL:
    def test_roundtrip(self, world, tmp_path):
        det = SyntheticDetector(SyntheticDetectorConfig(n_classes=3, seed=1), world)
        records = []
        for image_id in world.image_ids:
            records.append((det.predict(image_id), False))
            records.append((det.predict(image_id, True), True))
        path = tmp_path / "preds.jsonl"
        formats.write_predictions_jsonl(records, path)
        back = formats.read_predictions_jsonl(path, sizes(world))
        assert len(back) == len(records)
        for pred, flipped in records:
            assert back[(pred.image_id, flipped)] == pred

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


class TestPseudoLabelJSONL:
    def test_roundtrip(self, tmp_path):
        pls = [
            PseudoLabel("b", BoxCorner(1, 2, 3, 4), 2, 0.995),
            PseudoLabel("a", BoxCorner(0, 0, 5, 5), 1, 0.999),
        ]
        path = tmp_path / "pl.jsonl"
        formats.write_pseudo_labels_jsonl(pls, path)
        back = formats.read_pseudo_labels_jsonl(path)
        assert sorted(back, key=lambda p: p.image_id) == sorted(pls, key=lambda p: p.image_id)
        # records are sorted by image then confidence
        assert back[0].image_id == "a"


class TestPoolState:
    def test_roundtrip(self, world, tmp_path):
        pool = init_pool(world.image_ids, 3, seed=5)
        target = sorted(pool.unlabeled)[0]
        pool = with_pseudo(pool, {target: [PseudoLabel(target, BoxCorner(0, 0, 9, 9), 1, 0.99)]})
        path = tmp_path / "pool.json"
        formats.save_pool(pool, path)
        assert formats.load_pool(path) == pool

    def test_misfiled_pseudo_label_rejected(self, tmp_path):
        path = tmp_path / "pool.json"
        record = {"image_id": "c", "bbox": [0, 0, 9, 9], "class_id": 1, "confidence": 0.99}
        path.write_text(json.dumps(
            {"cycle": 0, "labeled": ["a"], "unlabeled": ["b", "c"], "pseudo": {"b": [record]}}
        ))
        with pytest.raises(ValueError, match=r"filed under another image's id: \['b'\]"):
            formats.load_pool(path)


class TestScoresCSV:
    def test_roundtrip_and_format(self, tmp_path):
        scores = [
            AcquisitionScore.from_parts("img_b", 1.25, 0.5),
            AcquisitionScore.from_parts("img_a", 0.123456789, 0.987654321),
        ]
        path = tmp_path / "scores.csv"
        formats.write_scores_csv(scores, path)
        text = path.read_text()
        assert text.splitlines()[0] == "image_id,entropy,inconsistency,unified"
        assert text.splitlines()[1].startswith("img_a,0.123457,")  # sorted, 6 decimals
        back = formats.read_scores_csv(path)
        assert [s.image_id for s in back] == ["img_a", "img_b"]
        for s in back:
            assert s.unified == s.entropy * s.inconsistency

    def test_header_checked(self, tmp_path):
        path = tmp_path / "nope.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="header"):
            formats.read_scores_csv(path)


class TestEvalCSV:
    def test_roundtrip_with_excluded(self, tmp_path):
        result = EvalResult.from_per_class({1: 0.5, 3: 0.75}, {1: 4, 2: 0, 3: 2}, excluded=(2,))
        path = tmp_path / "eval.csv"
        formats.write_eval_csv(result, path)
        back = formats.read_eval_csv(path)
        assert back == result
        lines = path.read_text().splitlines()
        assert lines[0] == "class_id,ap,n_gt"
        assert lines[-1].startswith("mAP,0.625000,")


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
