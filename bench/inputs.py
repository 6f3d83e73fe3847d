"""Seeded input generator for the benchmark.

Writes the dataset JSON and predictions JSONL formats documented in
``aldet.formats`` with the benchmark's own numpy code. It deliberately does not
call ``aldet.dataset.make_synthetic_dataset`` or ``SyntheticDetector``, so the
inputs stay fixed while the program under test changes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

N_CLASSES = 20


def _rng(seed: int, stream: str) -> np.random.Generator:
    """Independent stream per (seed, purpose), so resizing one input leaves the others alone."""
    return np.random.default_rng([seed, int.from_bytes(stream.encode("utf-8"), "little")])


def _shuffled_counts(rng, values, n: int) -> np.ndarray:
    """``n`` counts cycling through ``values``, shuffled: the total does not
    depend on the seed, so neither does the amount of work."""
    return rng.permutation(np.resize(np.asarray(values), n))


def make_dataset(seed: int, n_images: int, prefix: str) -> dict:
    """Images of varied size with 1-3 ground-truth objects each, uniform classes."""
    rng = _rng(seed, "dataset-" + prefix)
    widths = rng.integers(240, 481, n_images)
    heights = rng.integers(200, 401, n_images)
    counts = _shuffled_counts(rng, [1, 2, 3], n_images)
    images = []
    for n in range(n_images):
        w, h = int(widths[n]), int(heights[n])
        k = int(counts[n])
        bw = rng.uniform(0.12, 0.45, k) * w
        bh = rng.uniform(0.12, 0.45, k) * h
        x0 = rng.uniform(0.0, 1.0, k) * (w - bw)
        y0 = rng.uniform(0.0, 1.0, k) * (h - bh)
        cls = rng.integers(1, N_CLASSES + 1, k)
        objects = [
            {
                "class_id": int(cls[j]),
                "bbox": [round(float(x0[j]), 3), round(float(y0[j]), 3),
                         round(float(x0[j] + bw[j]), 3), round(float(y0[j] + bh[j]), 3)],
            }
            for j in range(k)
        ]
        images.append({"id": f"{prefix}_{n:05d}", "width": w, "height": h, "objects": objects})
    return {"classes": [f"class_{k:02d}" for k in range(1, N_CLASSES + 1)], "images": images}


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _detections(rng, gt: np.ndarray, gt_cls: np.ndarray, w: int, h: int,
                copies: np.ndarray, n_clutter: int) -> list[dict]:
    """Each object gets ``copies`` overlapping jittered boxes that NMS should
    merge, plus clutter; rows are (bbox, encoded, probs) in one frame."""
    src = np.repeat(np.arange(len(gt)), copies)
    n = len(src) + n_clutter

    boxes = np.empty((n, 4))
    size = np.stack([gt[:, 2] - gt[:, 0], gt[:, 3] - gt[:, 1]], axis=1)
    jitter = rng.normal(0.0, 0.06, (len(src), 4)) * np.tile(size[src], 2)
    boxes[: len(src)] = gt[src] + jitter
    cw = rng.uniform(0.1, 0.5, n_clutter) * w
    ch = rng.uniform(0.1, 0.5, n_clutter) * h
    cx0 = rng.uniform(0.0, 1.0, n_clutter) * (w - cw)
    cy0 = rng.uniform(0.0, 1.0, n_clutter) * (h - ch)
    boxes[len(src):] = np.stack([cx0, cy0, cx0 + cw, cy0 + ch], axis=1)

    boxes[:, [0, 2]] = np.sort(np.clip(boxes[:, [0, 2]], 0.0, w), axis=1)
    boxes[:, [1, 3]] = np.sort(np.clip(boxes[:, [1, 3]], 0.0, h), axis=1)
    boxes[:, 2] = np.maximum(boxes[:, 2], boxes[:, 0] + 1.0)
    boxes[:, 3] = np.maximum(boxes[:, 3], boxes[:, 1] + 1.0)
    boxes[:, [0, 2]] -= np.maximum(boxes[:, 2] - w, 0.0)[:, None]
    boxes[:, [1, 3]] -= np.maximum(boxes[:, 3] - h, 0.0)[:, None]

    # Objects peak on their class (80%) or a confused one, with a temperature
    # that spans tau; clutter is flatter and sometimes background-argmax.
    peak = np.empty(n, dtype=np.int64)
    confused = rng.uniform(size=len(src)) >= 0.8
    peak[: len(src)] = np.where(
        confused, rng.integers(1, N_CLASSES + 1, len(src)), gt_cls[src]
    )
    peak[len(src):] = rng.integers(0, N_CLASSES + 1, n_clutter)
    temperature = np.concatenate(
        [rng.uniform(0.08, 0.4, len(src)), rng.uniform(0.4, 1.5, n_clutter)]
    )
    logits = rng.normal(0.0, 0.3, (n, N_CLASSES + 1))
    logits[np.arange(n), peak] += 1.0 / temperature
    probs = _softmax_rows(logits)

    cx = 0.5 * (boxes[:, 0] + boxes[:, 2])
    cy = 0.5 * (boxes[:, 1] + boxes[:, 3])
    encoded = np.stack(
        [(cx - 0.5 * w) / w, (cy - 0.5 * h) / h,
         (boxes[:, 2] - boxes[:, 0]) / w, (boxes[:, 3] - boxes[:, 1]) / h],
        axis=1,
    )
    return [
        {"bbox": boxes[i].round(3).tolist(), "encoded": encoded[i].tolist(), "probs": probs[i].tolist()}
        for i in range(n)
    ]


def write_predictions(seed: int, dataset: dict, path: Path) -> int:
    """Both orientations of every image, sorted like ``write_predictions_jsonl``.

    The flipped record mirrors the ground truth and is drawn independently,
    so matched pairs disagree and the inconsistency score is non-trivial.
    Returns the number of bytes written.
    """
    rng = _rng(seed, "predictions")
    images = dataset["images"]
    n_objects = sum(len(img["objects"]) for img in images)
    copies = _shuffled_counts(rng, [2, 3, 4], 2 * n_objects)
    clutter = _shuffled_counts(rng, [0, 1, 2, 3], 2 * len(images))
    lines = []
    first = 0  # index of the image's first object in ``copies``
    for n, img in enumerate(images):
        w, h = img["width"], img["height"]
        gt = np.array([o["bbox"] for o in img["objects"]], dtype=np.float64)
        gt_cls = np.array([o["class_id"] for o in img["objects"]], dtype=np.int64)
        mirrored = gt.copy()
        mirrored[:, 0], mirrored[:, 2] = w - gt[:, 2], w - gt[:, 0]
        for flipped, boxes in ((False, gt), (True, mirrored)):
            k = len(gt)
            dets = _detections(rng, boxes, gt_cls, w, h, copies[first:first + k],
                               int(clutter[2 * n + flipped]))
            first += k
            rec = {
                "detections": dets,
                "flipped": flipped,
                "image_id": img["id"],
            }
            lines.append(json.dumps(rec) + "\n")
    text = "".join(lines)
    path.write_text(text, encoding="utf-8", newline="\n")
    return len(text.encode("utf-8"))


def write_dataset(dataset: dict, path: Path) -> None:
    path.write_text(json.dumps(dataset, sort_keys=True) + "\n", encoding="utf-8", newline="\n")
