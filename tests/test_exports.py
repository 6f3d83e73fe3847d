"""Every exported name resolves, and the per-detection and per-box types, the
one-image prediction type and the one-image forms of the chunked stages stay
gone."""

import importlib
import pkgutil

import pytest

import aldet
from aldet.boxes import Detections, PredictionChunk
from aldet.dataset import Dataset, ImageRecord

MODULES = sorted(m.name for m in pkgutil.iter_modules(aldet.__path__))
DELETED = ("Detection", "BoxEncoded", "ClassDist", "MatchedPair", "encode_box", "decode_box",
           "image_anchor", "BoxCorner", "GroundTruthObject", "PseudoLabel", "iou_matrix",
           "average_precision", "as_chunk", "image_entropy", "image_inconsistency", "ImagePrediction")


@pytest.mark.parametrize("name", ["aldet"] + [f"aldet.{m}" for m in MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_per_detection_types_are_gone():
    for name in ["aldet"] + [f"aldet.{m}" for m in MODULES]:
        module = importlib.import_module(name)
        assert [n for n in DELETED if hasattr(module, n)] == [], name
    assert "Detections" in aldet.__all__
    assert "PseudoLabels" in aldet.__all__
    assert "PredictionChunk" in aldet.__all__
    # one prediction type: a chunk is built by a detector or the reader, never joined from images
    assert not hasattr(PredictionChunk, "of")


def test_one_box_representation():
    # boxes are float64 corner rows: no per-object ground truth, no stored encoded copy
    assert not hasattr(Dataset, "all_objects")
    assert "objects" not in ImageRecord.__dataclass_fields__
    assert "encoded" not in Detections.__slots__
    assert not hasattr(Detections([], []), "encoded")
