"""Annotation-level dataset model and a seeded synthetic dataset generator.

The simulator operates purely on annotations: an image is an id, a size, and
its ground truth, corner boxes (M, 4) with their class ids (M,). No pixels are
involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .boxes import _rows, checked_boxes

__all__ = ["ImageRecord", "Dataset", "checked_image_id", "image_id_column", "make_synthetic_dataset"]


@dataclass(frozen=True)
class ImageRecord:
    """One image: its size, and its ground truth as read-only arrays of corner
    ``boxes`` (M, 4) and foreground ``class_ids`` (M,). The values are checked
    by the :class:`Dataset` that holds the record."""

    image_id: str
    width: int
    height: int
    boxes: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")
        boxes = _rows(self.boxes, "bbox", 4, row="box")
        class_ids = np.array(self.class_ids, dtype=np.intp)
        if len(boxes) != len(class_ids):
            raise ValueError(f"{len(boxes)} boxes for {len(class_ids)} class ids")
        for name, arr in (("boxes", boxes), ("class_ids", class_ids)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def checked_image_id(value) -> str:
    """``value``, which must be a string that a numpy string column holds as
    it is: numpy drops trailing NUL characters."""
    if not isinstance(value, str) or value.endswith("\0"):
        raise ValueError(f"image_id: expected a string without a trailing NUL, got {value!r}")
    return value


def image_id_column(values) -> np.ndarray:
    """``values`` as the numpy string column of a frozen set of rows, each
    value passing :func:`checked_image_id`."""
    return np.array([checked_image_id(i) for i in values], dtype=str)


def _check_ground_truth(boxes: np.ndarray, class_ids: np.ndarray, k: int) -> None:
    checked_boxes(boxes)
    bad = (class_ids < 1) | (class_ids > k)
    if bad.any():
        raise ValueError(f"class_id {class_ids[np.argmax(bad)]} outside 1..{k}")


@dataclass(frozen=True)
class Dataset:
    """Class names plus image records; class_id k corresponds to classes[k-1].

    Every image id must pass :func:`checked_image_id`, every box must be
    finite and not inverted, and every class id must be in 1..K.
    """

    classes: tuple[str, ...]
    images: tuple[ImageRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "images", tuple(self.images))
        if not self.classes:
            raise ValueError("dataset needs at least one foreground class")
        seen: set[str] = set()
        for img in self.images:
            if checked_image_id(img.image_id) in seen:
                raise ValueError(f"duplicate image id {img.image_id!r} in dataset")
            seen.add(img.image_id)
        k = len(self.classes)
        try:  # one pass over the whole dataset; per image only to name the failure
            _check_ground_truth(
                np.concatenate([img.boxes for img in self.images] or [np.zeros((0, 4))]),
                np.concatenate([img.class_ids for img in self.images] or [np.zeros(0, np.intp)]),
                k,
            )
        except ValueError:
            for img in self.images:
                try:
                    _check_ground_truth(img.boxes, img.class_ids, k)
                except ValueError as e:
                    raise ValueError(f"image {img.image_id!r}: {e}") from None
        object.__setattr__(self, "_by_id", {img.image_id: img for img in self.images})

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def image_ids(self) -> list[str]:
        return [img.image_id for img in self.images]

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, image_id: str) -> ImageRecord:
        by_id: Mapping[str, ImageRecord] = getattr(self, "_by_id")
        try:
            return by_id[image_id]
        except KeyError:
            raise KeyError(f"unknown image id {image_id!r}") from None

    def __contains__(self, image_id: str) -> bool:
        return image_id in getattr(self, "_by_id")


def make_synthetic_dataset(
    n_images: int,
    n_classes: int,
    seed,
    width: int = 300,
    height: int = 300,
    objects_per_image: tuple[int, int] = (1, 3),
    min_box: float = 30.0,
    max_box: float = 120.0,
    id_prefix: str = "img",
) -> Dataset:
    """Random boxes and uniform class labels, reproducible from the seed."""
    if n_images < 1 or n_classes < 1:
        raise ValueError("need at least one image and one class")
    lo, hi = objects_per_image
    if lo < 0 or hi < lo:
        raise ValueError(f"bad objects_per_image range {objects_per_image}")

    rng = np.random.default_rng(seed)
    digits = max(4, len(str(n_images - 1)))
    images = []
    for n in range(n_images):
        image_id = f"{id_prefix}_{n:0{digits}d}"
        count = int(rng.integers(lo, hi + 1))
        boxes, class_ids = [], []
        for _ in range(count):
            bw = float(rng.uniform(min_box, max_box))
            bh = float(rng.uniform(min_box, max_box))
            x0 = float(rng.uniform(0.0, width - bw))
            y0 = float(rng.uniform(0.0, height - bh))
            boxes.append([x0, y0, x0 + bw, y0 + bh])
            class_ids.append(int(rng.integers(1, n_classes + 1)))
        images.append(ImageRecord(image_id, width, height, boxes, class_ids))

    classes = tuple(f"class_{k:02d}" for k in range(1, n_classes + 1))
    return Dataset(classes, tuple(images))
