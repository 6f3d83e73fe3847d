"""Annotation-level dataset model and a seeded synthetic dataset generator.

The simulator operates purely on annotations: an image is an id, a size, and
a list of ground-truth objects. No pixels are involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .boxes import BoxCorner
from .pseudo_label import GroundTruthObject

__all__ = ["ImageRecord", "Dataset", "make_synthetic_dataset"]


@dataclass(frozen=True)
class ImageRecord:
    image_id: str
    width: int
    height: int
    objects: tuple[GroundTruthObject, ...]

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")
        object.__setattr__(self, "objects", tuple(self.objects))
        for obj in self.objects:
            if obj.image_id != self.image_id:
                raise ValueError(
                    f"object belongs to {obj.image_id!r}, record is {self.image_id!r}"
                )


@dataclass(frozen=True)
class Dataset:
    """Class names plus image records; class_id k corresponds to classes[k-1]."""

    classes: tuple[str, ...]
    images: tuple[ImageRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "images", tuple(self.images))
        if not self.classes:
            raise ValueError("dataset needs at least one foreground class")
        ids = [img.image_id for img in self.images]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate image ids in dataset")
        k = len(self.classes)
        for img in self.images:
            for obj in img.objects:
                if not (1 <= obj.class_id <= k):
                    raise ValueError(
                        f"class_id {obj.class_id} outside 1..{k} in image {img.image_id!r}"
                    )
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

    def all_objects(self) -> list[GroundTruthObject]:
        return [obj for img in self.images for obj in img.objects]


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
        objects = []
        for _ in range(count):
            bw = float(rng.uniform(min_box, max_box))
            bh = float(rng.uniform(min_box, max_box))
            x0 = float(rng.uniform(0.0, width - bw))
            y0 = float(rng.uniform(0.0, height - bh))
            cls = int(rng.integers(1, n_classes + 1))
            objects.append(
                GroundTruthObject(image_id, BoxCorner(x0, y0, x0 + bw, y0 + bh), cls)
            )
        images.append(ImageRecord(image_id, width, height, tuple(objects)))

    classes = tuple(f"class_{k:02d}" for k in range(1, n_classes + 1))
    return Dataset(classes, tuple(images))
