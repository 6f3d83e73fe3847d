"""File formats: dataset JSON, predictions JSONL, pseudo-label JSONL,
pool-state JSON, and the CSV reports.

All text outputs are UTF-8 with LF line endings; floats in CSVs are written
with six decimal places. Writers sort their rows so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .acquisition import AcquisitionScore
from .boxes import BoxCorner, BoxEncoded, ClassDist, Detection, ImagePrediction
from .dataset import Dataset, ImageRecord
from .evaluation import EvalResult
from .pool import CycleReport, Pool
from .pseudo_label import GroundTruthObject, PseudoLabel

__all__ = [
    "load_dataset",
    "save_dataset",
    "read_predictions_jsonl",
    "write_predictions_jsonl",
    "read_pseudo_labels_jsonl",
    "write_pseudo_labels_jsonl",
    "load_pool",
    "save_pool",
    "read_scores_csv",
    "write_scores_csv",
    "write_reports_csv",
    "read_eval_csv",
    "write_eval_csv",
    "write_winrate_csv",
    "parse_config_file",
]


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


# -- dataset JSON -----------------------------------------------------------


def load_dataset(path) -> Dataset:
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    images = []
    for rec in raw["images"]:
        image_id = rec["id"]
        objects = tuple(
            GroundTruthObject(image_id, BoxCorner(*obj["bbox"]), int(obj["class_id"]))
            for obj in rec.get("objects", [])
        )
        images.append(ImageRecord(image_id, int(rec["width"]), int(rec["height"]), objects))
    return Dataset(tuple(raw["classes"]), tuple(images))


def save_dataset(dataset: Dataset, path) -> None:
    payload = {
        "classes": list(dataset.classes),
        "images": [
            {
                "id": img.image_id,
                "width": img.width,
                "height": img.height,
                "objects": [
                    {"class_id": obj.class_id, "bbox": obj.box_corner.as_list()}
                    for obj in img.objects
                ],
            }
            for img in dataset.images
        ],
    }
    _write_text(path, json.dumps(payload, sort_keys=True) + "\n")


# -- predictions JSONL --------------------------------------------------------

# One record per (image, orientation):
# {"image_id": ..., "flipped": bool, "detections": [{"bbox": [4], "encoded": [4], "probs": [K+1]}]}


def _read_jsonl(path, parse) -> list:
    """``parse(record)`` of every non-blank line, in order; a malformed or
    rejected line raises a ValueError that names the file and line number."""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(parse(json.loads(line)))
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: line {lineno}: malformed JSON: {e}") from None
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from None
    return out


def read_predictions_jsonl(
    path, sizes: Mapping[str, tuple[int, int]]
) -> dict[tuple[str, bool], ImagePrediction]:
    out: dict[tuple[str, bool], ImagePrediction] = {}

    def add(rec) -> None:
        image_id = rec["image_id"]
        flipped = bool(rec["flipped"])
        if image_id not in sizes:
            raise ValueError(f"unknown image id {image_id!r}")
        width, height = sizes[image_id]
        dets = tuple(
            Detection(BoxCorner(*d["bbox"]), BoxEncoded(*d["encoded"]), ClassDist(d["probs"]))
            for d in rec["detections"]
        )
        key = (image_id, flipped)
        if key in out:
            raise ValueError(f"duplicate record for image {image_id!r}, flipped={flipped}")
        out[key] = ImagePrediction(image_id, width, height, dets)

    _read_jsonl(path, add)
    return out


def write_predictions_jsonl(
    predictions: Iterable[tuple[ImagePrediction, bool]], path
) -> None:
    records = []
    for pred, flipped in predictions:
        records.append(
            {
                "image_id": pred.image_id,
                "flipped": bool(flipped),
                "detections": [
                    {
                        "bbox": det.box_corner.as_list(),
                        "encoded": det.box_encoded.as_list(),
                        "probs": det.dist.probs.tolist(),
                    }
                    for det in pred.detections
                ],
            }
        )
    records.sort(key=lambda r: (r["image_id"], r["flipped"]))
    _write_text(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


# -- pseudo-label JSONL -------------------------------------------------------

# One record per pseudo-label, shared by the JSONL file and the pool state:
# {"image_id": ..., "bbox": [4], "class_id": int, "confidence": float}


def _pl_record(pl: PseudoLabel) -> dict:
    return {
        "image_id": pl.image_id,
        "bbox": pl.box_corner.as_list(),
        "class_id": pl.class_id,
        "confidence": pl.confidence,
    }


def _pl_from_record(rec) -> PseudoLabel:
    return PseudoLabel(
        rec["image_id"], BoxCorner(*rec["bbox"]), int(rec["class_id"]), float(rec["confidence"])
    )


def write_pseudo_labels_jsonl(pls: Iterable[PseudoLabel], path) -> None:
    records = [_pl_record(pl) for pl in pls]
    records.sort(key=lambda r: (r["image_id"], -r["confidence"], r["class_id"]))
    _write_text(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def read_pseudo_labels_jsonl(path) -> list[PseudoLabel]:
    return _read_jsonl(path, _pl_from_record)


# -- pool state JSON ----------------------------------------------------------


def save_pool(pool: Pool, path) -> None:
    payload = {
        "cycle": pool.cycle,
        "labeled": sorted(pool.labeled),
        "unlabeled": sorted(pool.unlabeled),
        "pseudo": {
            image_id: [_pl_record(pl) for pl in pls] for image_id, pls in pool.pseudo.items()
        },
    }
    _write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def load_pool(path) -> Pool:
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    pseudo = {
        image_id: tuple(_pl_from_record(rec) for rec in recs)
        for image_id, recs in raw.get("pseudo", {}).items()
    }
    return Pool(frozenset(raw["labeled"]), frozenset(raw["unlabeled"]), pseudo, int(raw["cycle"]))


# -- scores CSV ---------------------------------------------------------------


def write_scores_csv(scores: Iterable[AcquisitionScore], path) -> None:
    lines = ["image_id,entropy,inconsistency,unified\n"]
    for s in sorted(scores, key=lambda s: s.image_id):
        lines.append(f"{s.image_id},{s.entropy:.6f},{s.inconsistency:.6f},{s.unified:.6f}\n")
    _write_text(path, "".join(lines))


def read_scores_csv(path) -> list[AcquisitionScore]:
    """Read a scores table back; the unified column is recomputed from the
    rounded entropy and inconsistency so the product identity holds exactly."""
    out = []
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip()
        if header != "image_id,entropy,inconsistency,unified":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 columns")
            out.append(AcquisitionScore.from_parts(parts[0], float(parts[1]), float(parts[2])))
    return out


# -- cycle report CSV ----------------------------------------------------------


def write_reports_csv(
    reports: Sequence[CycleReport], path, selected_files: Sequence[str] | None = None
) -> None:
    if selected_files is None:
        selected_files = [""] * len(reports)
    lines = ["cycle,n_labeled,n_pl,pl_ratio,pl_correctness,map50,selected_file\n"]
    for rep, sel in zip(reports, selected_files):
        lines.append(
            f"{rep.cycle},{rep.n_labeled},{rep.pl_count},"
            f"{rep.pl_ratio:.6f},{rep.pl_correctness:.6f},{rep.evaluation.map50:.6f},{sel}\n"
        )
    _write_text(path, "".join(lines))


# -- eval CSV -------------------------------------------------------------------


def write_eval_csv(result: EvalResult, path) -> None:
    lines = ["class_id,ap,n_gt\n"]
    for cls in sorted(result.n_gt):
        if cls in result.per_class_ap:
            lines.append(f"{cls},{result.per_class_ap[cls]:.6f},{result.n_gt[cls]}\n")
        else:
            lines.append(f"{cls},,{result.n_gt[cls]}\n")
    lines.append(f"mAP,{result.map50:.6f},{sum(result.n_gt.values())}\n")
    _write_text(path, "".join(lines))


def read_eval_csv(path) -> EvalResult:
    per_class: dict[int, float] = {}
    n_gt: dict[int, int] = {}
    excluded: list[int] = []
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip()
        if header != "class_id,ap,n_gt":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            cls_s, ap_s, n_s = line.split(",")
            if cls_s == "mAP":
                continue
            cls = int(cls_s)
            n_gt[cls] = int(n_s)
            if ap_s == "":
                excluded.append(cls)
            else:
                per_class[cls] = float(ap_s)
    return EvalResult.from_per_class(per_class, n_gt, tuple(excluded))


def write_winrate_csv(names: Sequence[str], matrix, path) -> None:
    lines = ["method," + ",".join(names) + "\n"]
    for i, name in enumerate(names):
        row = ",".join(
            "" if i == j else f"{matrix[i][j]:.6f}" for j in range(len(names))
        )
        lines.append(f"{name},{row}\n")
    _write_text(path, "".join(lines))


# -- flat key-value config -------------------------------------------------------


def parse_config_file(path) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines are skipped."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            key = key.strip()
            if not key:
                raise ValueError(f"{path}: line {lineno}: empty key")
            if key in out:
                raise ValueError(f"{path}: line {lineno}: duplicate key {key!r}")
            out[key] = value.strip()
    return out
