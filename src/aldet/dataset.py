"""Annotation-level dataset model and a seeded synthetic dataset generator.

The simulator operates purely on annotations: an image is an id, a size, and
its ground truth, corner boxes with their class ids. No pixels are involved
anywhere.

A :class:`Dataset` holds every image as one frozen column set: the image ids,
``widths`` and ``heights`` (N,), every image's objects one after another as
corner ``boxes`` (M, 4) and ``class_ids`` (M,), each image's ``starts`` and
``counts`` into those rows, and an ``index`` from id to position. Consumers
gather the ground truth of any images with a fixed number of numpy calls
(:func:`~aldet.boxes.span_pairs` over ``starts`` and ``counts``); an
:class:`ImageRecord` of one image is only a view, built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .boxes import _rows, checked_boxes

__all__ = ["ImageRecord", "Dataset", "checked_image_id", "image_id_column", "make_synthetic_dataset"]


@dataclass(frozen=True)
class ImageRecord:
    """One image of a :class:`Dataset`, as ``dataset[image_id]`` and
    :attr:`Dataset.images` build it on demand: its size, and its ground
    truth as read-only views of the dataset's corner ``boxes`` (M, 4) and
    foreground ``class_ids`` (M,)."""

    image_id: str
    width: int
    height: int
    boxes: np.ndarray
    class_ids: np.ndarray


def checked_image_id(value) -> str:
    """``value``, which must be a string that a numpy string column holds as
    it is (numpy drops trailing NUL characters) and that every writer can
    encode as UTF-8 (a lone surrogate cannot be)."""
    if not isinstance(value, str) or value.endswith("\0"):
        raise ValueError(f"image_id: expected a string without a trailing NUL, got {value!r}")
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"image_id: expected a string that UTF-8 can encode, got {value!r}") from None
    return value


def image_id_column(values) -> np.ndarray:
    """``values`` as the numpy string column of a frozen set of rows, each
    value passing :func:`checked_image_id`."""
    return np.array([checked_image_id(i) for i in values], dtype=str)


def _image_columns(widths, heights, boxes, class_ids):
    """The size and ground-truth columns of one image or of many, checked
    for shape: positive integer sizes and 4-wide rows of numbers."""
    widths, heights = np.array(widths, dtype=np.intp), np.array(heights, dtype=np.intp)
    bad = (widths <= 0) | (heights <= 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"image size must be positive, got {widths[k]}x{heights[k]}")
    return widths, heights, _rows(boxes, "bbox", 4, row="box"), np.array(class_ids, dtype=np.intp)


def _check_ground_truth(boxes: np.ndarray, class_ids: np.ndarray, k: int) -> None:
    checked_boxes(boxes)
    bad = (class_ids < 1) | (class_ids > k)
    if bad.any():
        raise ValueError(f"class_id {class_ids[np.argmax(bad)]} outside 1..{k}")


def _naming_the_image(check, ids, starts, counts, image_columns, object_columns):
    """``check(*image_columns, *object_columns)`` over every image at once.
    When it fails, it is run again image by image, on each image's entry of
    ``image_columns`` and its rows of ``object_columns`` (cut by ``starts``
    and ``counts``), to raise the first failure naming its image."""
    try:
        return check(*image_columns, *object_columns)
    except (ValueError, OverflowError):
        for k, image_id in enumerate(ids):
            rows = slice(starts[k], starts[k] + counts[k])
            try:
                check(*(c[k:k + 1] for c in image_columns), *(c[rows] for c in object_columns))
            except (ValueError, OverflowError) as e:
                raise ValueError(f"image {image_id!r}: {e}") from None
        raise


@dataclass(frozen=True, eq=False)
class Dataset:
    """Class names plus every image as one frozen column set; class_id k
    corresponds to classes[k-1].

    Image n has id ``image_ids[n]``, size ``widths[n]`` x ``heights[n]``
    and the objects ``starts[n]`` to ``starts[n] + counts[n] - 1`` of the
    read-only ``boxes`` (M, 4) and ``class_ids`` (M,); ``index`` maps an id
    to its position n. The constructor takes the columns with ``counts``
    and checks them in one pass, each check once over all images: every
    image id must pass :func:`checked_image_id` and be unique, every size
    must be positive, every box finite and not inverted and every class id
    in 1..K, and the class names must be distinct strings. An error about
    one image names it; only when a check fails is it run again image by
    image, to find that image. :meth:`concat` joins datasets without
    checking them again.
    """

    classes: tuple[str, ...]
    image_ids: tuple[str, ...] = ()
    widths: np.ndarray = ()
    heights: np.ndarray = ()
    boxes: np.ndarray = ()
    class_ids: np.ndarray = ()
    counts: np.ndarray = ()
    starts: np.ndarray = field(init=False, repr=False)
    index: Mapping[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        ids, raw_boxes = tuple(self.image_ids), self.boxes
        counts = np.array(self.counts, dtype=np.intp).reshape(-1)
        if len(counts) != len(ids) or (counts < 0).any():
            raise ValueError(f"counts: expected a non-negative object count for each of {len(ids)} images")
        if not counts.sum() == len(raw_boxes) == len(self.class_ids):
            raise ValueError(f"{len(raw_boxes)} boxes for {len(self.class_ids)} class ids, "
                             f"{counts.sum()} objects counted")
        starts = np.cumsum(counts) - counts
        widths, heights, boxes, class_ids = _naming_the_image(
            _image_columns, ids, starts, counts, (self.widths, self.heights), (raw_boxes, self.class_ids))
        if isinstance(self.classes, str):  # not one class per character
            raise ValueError(f"classes: expected a sequence of class names, got {self.classes!r}")
        classes = tuple(self.classes)
        if not classes:
            raise ValueError("dataset needs at least one foreground class")
        if not all(isinstance(name, str) for name in classes) or len(set(classes)) != len(classes):
            raise ValueError(f"classes: expected distinct class names (strings), got {list(classes)!r}")
        index = dict(zip(map(checked_image_id, ids), range(len(ids))))
        if len(index) != len(ids):
            seen: set[str] = set()
            for image_id in ids:
                if image_id in seen:
                    raise ValueError(f"duplicate image id {image_id!r} in dataset")
                seen.add(image_id)
        _naming_the_image(lambda b, c: _check_ground_truth(b, c, len(classes)), ids, starts, counts, (),
                          (boxes, class_ids))
        self._init(classes, ids, widths, heights, boxes, class_ids, counts, starts, index)

    def _init(self, classes, ids, widths, heights, boxes, class_ids, counts, starts, index) -> None:
        arrays = {"widths": widths, "heights": heights, "boxes": boxes, "class_ids": class_ids, "counts": counts,
                  "starts": starts}
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "image_ids", ids)
        object.__setattr__(self, "index", MappingProxyType(index))

    def __reduce__(self):
        # copy and pickle rebuild the dataset from its columns: the index, a
        # read-only mapping, cannot be pickled.
        return type(self), (self.classes, self.image_ids, self.widths, self.heights, self.boxes, self.class_ids,
                            self.counts)

    @classmethod
    def concat(cls, datasets: Iterable["Dataset"]) -> "Dataset":
        """The images of every dataset, in order, as one dataset, without
        checking them again. The datasets must have the same classes and no
        image id in common."""
        datasets = list(datasets)
        classes = datasets[0].classes
        if any(d.classes != classes for d in datasets):
            raise ValueError("datasets disagree on class names")
        ids = tuple(i for d in datasets for i in d.image_ids)
        index = dict(zip(ids, range(len(ids))))
        if len(index) != len(ids):
            raise ValueError("datasets share image ids")
        counts = np.concatenate([d.counts for d in datasets])
        out = cls.__new__(cls)
        out._init(classes, ids, *(np.concatenate([getattr(d, name) for d in datasets])
                                  for name in ("widths", "heights", "boxes", "class_ids")),
                  counts, np.cumsum(counts) - counts, index)
        return out

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def positions(self, image_ids: Iterable[str]) -> np.ndarray:
        """The position of each of ``image_ids``; an unknown id raises
        KeyError."""
        try:
            return np.fromiter(map(self.index.__getitem__, image_ids), np.intp)
        except KeyError as e:
            raise KeyError(f"unknown image id {e.args[0]!r}") from None

    @property
    def images(self) -> tuple[ImageRecord, ...]:
        """Every image as an :class:`ImageRecord` view, built on demand."""
        return tuple(self._record(k) for k in range(len(self)))

    def _record(self, k: int) -> ImageRecord:
        rows = slice(self.starts[k], self.starts[k] + self.counts[k])
        return ImageRecord(self.image_ids[k], int(self.widths[k]), int(self.heights[k]),
                           self.boxes[rows], self.class_ids[rows])

    def __len__(self) -> int:
        return len(self.image_ids)

    def __getitem__(self, image_id: str) -> ImageRecord:
        return self._record(int(self.positions([image_id])[0]))

    def __contains__(self, image_id: str) -> bool:
        return image_id in self.index


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
    counts, boxes, class_ids = [], [], []
    for _ in range(n_images):
        counts.append(int(rng.integers(lo, hi + 1)))
        for _ in range(counts[-1]):
            bw = float(rng.uniform(min_box, max_box))
            bh = float(rng.uniform(min_box, max_box))
            x0 = float(rng.uniform(0.0, width - bw))
            y0 = float(rng.uniform(0.0, height - bh))
            boxes.append([x0, y0, x0 + bw, y0 + bh])
            class_ids.append(int(rng.integers(1, n_classes + 1)))

    classes = tuple(f"class_{k:02d}" for k in range(1, n_classes + 1))
    ids = [f"{id_prefix}_{n:0{digits}d}" for n in range(n_images)]
    return Dataset(classes, ids, [width] * n_images, [height] * n_images, boxes, class_ids, counts)
