"""Active learning for object detection with robustness-aware acquisition.

The library scores unlabeled images by combining prediction uncertainty
(entropy) with prediction robustness under horizontal flip (symmetric-KL
inconsistency between matched detections), selects a labeling budget per
cycle, pseudo-labels confident detections, and evaluates with VOC07 11-point
mAP@0.5. A seeded synthetic detector makes the whole loop runnable and
reproducible without any network training.

Typical entry points:

- :func:`aldet.acquisition.post_nms` / :func:`unified_score` / :func:`select_for_labeling`
- :func:`aldet.pseudo_label.extract_pseudo_labels`
- :func:`aldet.pool.run_cycles` with a :class:`aldet.sim_detector.SyntheticDetector`,
  a generator that runs the protocol one cycle per :class:`CycleReport` it yields
- the ``aldet`` command line (score/select/pseudolabel/simulate/eval/...)

A prediction is a :class:`PredictionChunk` of images, from the detector and
from a predictions file alike: a detector predicts one chunk per call and
view, and the predictions reader gives one chunk per view, out of which
runs of images are cut. The library functions above take chunks: NMS,
matching, scoring, pseudo-labelling and evaluation each make one pass per
chunk. A chunk carries the coordinate frame of its boxes (``flipped``), set
by the view that made it: :func:`post_nms` maps a flipped view back into the
original frame, and matching, scoring, pseudo-labelling and evaluation
refuse a chunk still in the flipped frame.

Every box is a float64 corner row (xmin, ymin, xmax, ymax) of a
:class:`Detections`, of the ground truth of a :class:`Dataset`, or of a
:class:`PseudoLabels` set, which holds the pseudo-labels of any number of
images with one image id per row. Scores are one :class:`AcquisitionScores`
set, which holds the scores of any number of images, one row per image.
Each of these sets is a frozen column set: one read-only array per column,
a row per item. A dataset holds a row per image (its id and size) and a row
per object, each image's objects found by its offset and count.

Only these entry points and the types they take or return are re-exported
here; everything else is imported from its module.
"""

from .acquisition import AcquisitionConfig, AcquisitionScores, post_nms, select_for_labeling, unified_score
from .boxes import Detections, PredictionChunk
from .dataset import Dataset, make_synthetic_dataset
from .evaluation import EvalResult, map50
from .pool import CycleReport, Pool, RunConfig, init_pool, run_cycles
from .pseudo_label import PseudoLabels, extract_pseudo_labels
from .sim_detector import DetectorInterface, SyntheticDetector, SyntheticDetectorConfig

__all__ = [
    "AcquisitionConfig",
    "AcquisitionScores",
    "post_nms",
    "select_for_labeling",
    "unified_score",
    "Detections",
    "PredictionChunk",
    "Dataset",
    "make_synthetic_dataset",
    "EvalResult",
    "map50",
    "CycleReport",
    "Pool",
    "RunConfig",
    "init_pool",
    "run_cycles",
    "PseudoLabels",
    "extract_pseudo_labels",
    "DetectorInterface",
    "SyntheticDetector",
    "SyntheticDetectorConfig",
]

__version__ = "0.1.0"
