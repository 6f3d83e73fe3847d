"""Every exported name resolves, and the per-detection and per-box types, the
one-image prediction type, the one-image forms of the chunked stages and of
the pseudo-labels, the losses, the scalar entropy and symmetric KL, and the
evaluation settings other than VOC07 11-point mAP@0.5 stay gone. A prediction
chunk carries its coordinate frame, so no stage takes it as an argument. The
command line offers exactly the subcommands its module docstring lists."""

import argparse
import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import aldet
from aldet import cli, formats
from aldet.acquisition import AcquisitionScores, post_nms
from aldet.boxes import Detections, PredictionChunk
from aldet.dataset import Dataset, ImageRecord
from aldet.evaluation import EvalResult
from aldet.matching import MatchResult
from aldet.pool import Pool, RunConfig
from aldet.pseudo_label import PseudoLabels
from aldet.sim_detector import SyntheticDetectorConfig

MODULES = sorted(m.name for m in pkgutil.iter_modules(aldet.__path__))
DELETED = ("Detection", "BoxEncoded", "ClassDist", "MatchedPair", "encode_box", "decode_box",
           "image_anchor", "BoxCorner", "GroundTruthObject", "PseudoLabel", "iou_matrix",
           "average_precision", "as_chunk", "image_entropy", "image_inconsistency", "ImagePrediction",
           "GroundTruthAssignment", "multibox_conf_loss", "pl_multibox_conf_loss", "smooth_l1",
           "smooth_l1_loc_loss", "consistency_class_loss", "consistency_loc_loss", "total_loss",
           "sym_kl", "entropy", "INTERPOLATIONS", "AcquisitionScore")


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
    # one pseudo-label set for any number of images: no per-image sets cut from detections, no count of them
    assert not hasattr(PseudoLabels, "from_rows")
    assert not hasattr(Pool, "n_pseudo_labels")
    assert "image_ids" in PseudoLabels._fields
    # one set of scores for any number of images: no per-image score, no unified value that could disagree
    assert "AcquisitionScores" in aldet.__all__
    assert AcquisitionScores._fields == ("image_ids", "entropy", "inconsistency", "unified")
    assert not hasattr(AcquisitionScores, "from_parts") and not hasattr(AcquisitionScores, "value")


def test_one_box_representation():
    # boxes are float64 corner rows: no per-object ground truth, no stored encoded copy
    assert not hasattr(Dataset, "all_objects")
    assert "objects" not in ImageRecord.__dataclass_fields__
    # a dataset is one column set; a record of one image is a view built on demand
    assert [f.name for f in dataclasses.fields(Dataset)] == [
        "classes", "image_ids", "widths", "heights", "boxes", "class_ids", "counts", "starts", "index"]
    assert "encoded" not in Detections.__slots__
    assert not hasattr(Detections([], []), "encoded")


def test_chunks_carry_their_coordinate_frame():
    # the frame travels on the chunk, not beside it as an argument
    assert [f.name for f in dataclasses.fields(PredictionChunk)][-1] == "flipped"
    assert "flipped" not in inspect.signature(post_nms).parameters
    assert list(inspect.signature(formats.write_predictions_jsonl).parameters) == ["chunks", "path"]


def test_results_store_nothing_they_can_derive():
    # the mean and the excluded classes follow from per_class_ap and n_gt
    assert [f.name for f in dataclasses.fields(EvalResult)] == ["per_class_ap", "n_gt"]
    assert not hasattr(EvalResult, "from_per_class")
    # a side's unmatched rows number its row count less len(pairs)
    assert [f.name for f in dataclasses.fields(MatchResult)] == ["pairs"]
    assert "interpolation" not in {f.name for f in dataclasses.fields(RunConfig)}
    # the number of classes is the detector's dataset's
    assert "n_classes" not in SyntheticDetectorConfig.__dataclass_fields__


def test_subcommands_are_the_ones_the_docstring_lists():
    (action,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (line,) = [line for line in cli.__doc__.splitlines() if line.startswith("Subcommands: ")]
    assert list(action.choices) == line[len("Subcommands: "):].rstrip(".").split(", ")


def test_loss_check_is_an_unknown_subcommand(capsys):
    assert "losses" not in MODULES
    with pytest.raises(SystemExit) as exc:
        cli.main(["loss-check", "--fixture", "fixture.json"])
    assert exc.value.code == 2
    assert "invalid choice: 'loss-check'" in capsys.readouterr().err
