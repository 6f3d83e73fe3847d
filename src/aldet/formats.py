"""File formats: dataset JSON, predictions JSONL, pseudo-label JSONL,
pool-state JSON, and the CSV reports.

All text outputs are UTF-8 with LF line endings; floats in CSVs are written
with six decimal places. Writers sort their rows so identical inputs produce
byte-identical files. Readers name the file, and the line for line-based
formats, in every error about its content, undecodable bytes included. The
dataset reader reads every record into the flat columns of one
:class:`~aldet.dataset.Dataset` and runs each check once over them; an error
about a record names its image.

Writers check their input before they open the file, then write it in
pieces. Above its input, the pseudo-label and scores writers hold their
sort order (8 bytes a row) and one block of ``WRITE_BLOCK_ROWS`` formatted
rows, and the selection writer one block: about 1.2 MB for 50,000
pseudo-labels, where the whole file as one string took 30 MB. The
predictions writer holds every record, to sort them across chunks, and
writes one line at a time. The dataset and pool-state JSON documents, and
the report, eval and win-rate CSVs (a line per cycle, class or method), are
formatted whole.
"""

from __future__ import annotations

import json
import re
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .acquisition import AcquisitionScores
from .boxes import (
    ChunkDetections,
    PredictionChunk,
    _rows,
    checked_encoded,
    clamp_to_images,
    encode_boxes,
    span_pairs,
)
from .dataset import Dataset, checked_image_id
from .evaluation import EvalResult
from .pool import CycleReport, Pool
from .pseudo_label import PseudoLabels

__all__ = [
    "load_dataset",
    "save_dataset",
    "PredictionViews",
    "read_predictions_jsonl",
    "write_predictions_jsonl",
    "read_pseudo_labels_jsonl",
    "write_pseudo_labels_jsonl",
    "load_pool",
    "save_pool",
    "read_scores_csv",
    "write_scores_csv",
    "write_selected_txt",
    "check_ids",
    "write_reports_csv",
    "read_eval_csv",
    "write_eval_csv",
    "write_winrate_csv",
    "parse_config_file",
]


# Rows formatted and written at a time by the row writers. Writing 50,000
# pseudo-labels took the same time, within a shared host's noise, in blocks
# of 128 to 16,384 rows. The writer's tracemalloc peak above the set was
# 0.81 MB up to 512 rows (the sort order, held at any block size), 1.19 MB
# at 1,024, 3.5 MB at 4,096 and 29.8 MB for the whole file as one string.
WRITE_BLOCK_ROWS = 1024


def _write_pieces(path, pieces: Iterable[str]) -> None:
    """Write the text ``pieces`` to ``path`` in order, each as it comes, so
    a writer that yields one block of rows at a time holds only that block.
    The file is opened before the first piece is made: a writer checks its
    input first."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for piece in pieces:
            f.write(piece)


def _blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of ``range(n)`` of ``WRITE_BLOCK_ROWS`` rows each."""
    return (slice(start, start + WRITE_BLOCK_ROWS) for start in range(0, n, WRITE_BLOCK_ROWS))


def _read_lines(path, parse, header: str | None = None) -> list:
    """``parse(line)`` of every non-blank line, stripped, in order.

    Each line is decoded as UTF-8 on its own, so an undecodable byte, like a
    line that ``parse`` rejects, raises a ValueError that names the file and
    the line number. With ``header``, line 1 must equal it and is not parsed.
    """
    out, lineno = [], 0
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if lineno == 1 and header is not None:
                    if line != header:
                        raise ValueError(f"unexpected header {line!r}")
                elif line:
                    out.append(parse(line))
            # OverflowError: a JSON integer too large for a float
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from None
    if lineno == 0 and header is not None:
        raise ValueError(f"{path}: empty file, expected the header {header!r}")
    return out


def _read_json(path):
    """The file's one JSON document; undecodable bytes or malformed JSON raise
    a ValueError that names the file."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _typed_field(rec, name: str, kind: type):
    """``rec[name]``, which must be a JSON value of exactly the type ``kind``:
    an integer (``int``, not a float or a boolean) or a boolean (``bool``,
    not a number or a string)."""
    return _typed(name, rec[name], kind)


def _typed(name: str, value, kind: type):
    if type(value) is not kind:
        raise ValueError(f"{name}: expected {'a boolean' if kind is bool else 'an integer'}, got {value!r}")
    return value


def _structure_error(path, e: Exception, image_id=None) -> ValueError:
    """A missing field or a wrong-typed container in a JSON document, as a
    ValueError that names the file (and the image, if known)."""
    where = "" if image_id is None else f"image {image_id!r}: "
    what = f"missing field {e}" if isinstance(e, KeyError) else e
    return ValueError(f"{path}: {where}{what}")


# -- dataset JSON -----------------------------------------------------------


def load_dataset(path) -> Dataset:
    """The dataset at ``path`` as one column set. Every record is read into
    flat columns, each image's objects after the last image's; then each
    check runs once over the columns: the JSON types of the integer fields,
    then :class:`Dataset`'s checks. Every error about a record names the
    file and the image. A file with several faults reports the first fault
    of the first check that fails: a missing field or a wrong-typed
    container before any value, and a width before a height or a class id."""
    raw = _read_json(path)
    ids, widths, heights, counts, boxes, class_ids = [], [], [], [], [], []
    image_id = None
    try:
        classes = raw["classes"]
        if type(classes) is not list:
            raise ValueError(f"classes: expected an array of class names, got {classes!r}")
        classes = tuple(classes)
        for rec in raw["images"]:
            image_id = None  # until this record's id is read
            image_id = rec["id"]
            widths.append(rec["width"])
            heights.append(rec["height"])
            objects = rec.get("objects", ())
            boxes += [obj["bbox"] for obj in objects]
            class_ids += [obj["class_id"] for obj in objects]
            counts.append(len(objects))
            ids.append(image_id)
        image_id = None
        for name, values in (("width", widths), ("height", heights), ("class_id", class_ids)):
            if not set(map(type, values)) <= {int}:  # JSON integers only, not floats or booleans
                k = next(k for k, value in enumerate(values) if type(value) is not int)
                image_id = ids[k if name != "class_id" else int(np.searchsorted(np.cumsum(counts), k, "right"))]
                _typed(name, values[k], int)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise _structure_error(path, e, image_id) from None
    try:
        return Dataset(classes, ids, widths, heights, boxes, class_ids, counts)
    except (ValueError, OverflowError) as e:
        raise ValueError(f"{path}: {e}") from None


def save_dataset(dataset: Dataset, path) -> None:
    boxes, class_ids = iter(dataset.boxes.tolist()), iter(dataset.class_ids.tolist())
    payload = {
        "classes": list(dataset.classes),
        "images": [
            {
                "id": image_id,
                "width": width,
                "height": height,
                "objects": [{"class_id": c, "bbox": box} for box, c in zip(islice(boxes, n), class_ids)],
            }
            for image_id, width, height, n in zip(dataset.image_ids, dataset.widths.tolist(),
                                                  dataset.heights.tolist(), dataset.counts.tolist())
        ],
    }
    _write_pieces(path, (json.dumps(payload, sort_keys=True), "\n"))


# -- predictions JSONL --------------------------------------------------------

# One record per (image, orientation):
# {"image_id": str, "flipped": true|false,
#  "detections": [{"bbox": [xmin, ymin, xmax, ymax], "encoded": [dx, dy, w, h], "probs": [K+1]}]}
# "flipped" is the coordinate frame of the record's boxes: the writer writes
# the frame of the chunk a record comes from (PredictionChunk.flipped), and
# the reader gives each record's chunk that frame. Coordinates are written as
# floats. "encoded" is the box's encoded form (see aldet.boxes): the reader
# checks it and drops it, the writer computes it from the box it holds and
# the image size.


def _read_jsonl(path, parse) -> list:
    """``parse(record)`` of every non-blank line's JSON record, in order."""

    def record(line):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"malformed JSON: {e}") from None
        return parse(rec)

    return _read_lines(path, record)


class _View:
    """The records of one view, in the ``flipped`` frame, as they are read.
    Each record's rows are appended to one byte buffer per array, so no
    per-record array outlives its line; :meth:`chunk` checks the values and
    clamps the boxes at once."""

    def __init__(self, flipped: bool = False):
        self.flipped = flipped
        self.image_ids: dict[str, None] = {}  # an ordered set, in file order
        self.counts, self.k = [], None  # k: the first non-empty record's width
        self.buffers = (bytearray(), bytearray(), bytearray())  # boxes, probs, encoded

    def add(self, image_id: str, records) -> "_View":
        """One record's rows, with its shape checks."""
        boxes = _rows([d["bbox"] for d in records], "bbox", 4)
        probs = _rows([d["probs"] for d in records], "probs", self.k)
        if len(boxes) != len(probs):
            raise ValueError(f"row counts differ: {len(boxes)} boxes, {len(probs)} distributions")
        encoded = _rows([d["encoded"] for d in records], "encoded", 4)
        for buffer, rows in zip(self.buffers, (boxes, probs, encoded)):
            buffer += rows.data
        self.k = probs.shape[1] if len(probs) else self.k
        self.image_ids[image_id] = None
        self.counts.append(len(boxes))
        return self

    def chunk(self, sizes: Mapping[str, tuple[int, int]]) -> PredictionChunk:
        """The view as one chunk, its images in file order."""
        n, image = sum(self.counts), np.repeat(np.arange(len(self.counts)), self.counts)
        boxes, probs, encoded = (np.frombuffer(buffer) for buffer in self.buffers)
        dets = ChunkDetections(boxes.reshape(n, 4), probs.reshape(n, self.k or 0), image)
        checked_encoded(encoded.reshape(n, 4))
        widths, heights = [sizes[i][0] for i in self.image_ids], [sizes[i][1] for i in self.image_ids]
        dets = clamp_to_images(dets, widths, heights, image)
        return PredictionChunk(tuple(self.image_ids), tuple(widths), tuple(heights), dets, self.flipped)


class PredictionViews(Mapping):
    """The records of a predictions file: ``views[flipped]`` is the chunk of
    one view, its images in file order and its boxes in that view's frame,
    and :meth:`chunk` cuts images out of it. As a mapping,
    ``(image_id, flipped)`` gives one record's chunk."""

    def __init__(self, views: Iterable[PredictionChunk]):
        self.views = {view.flipped: view for view in views}
        self._at = {flipped: {image_id: k for k, image_id in enumerate(view.image_ids)}
                    for flipped, view in self.views.items()}
        # flipped -> each image's first row and row count in that view
        self._spans = {}
        for flipped, view in self.views.items():
            counts = np.bincount(view.detections.image, minlength=len(view.image_ids))
            self._spans[flipped] = (np.cumsum(counts) - counts, counts)

    def chunk(self, image_ids: Sequence[str], flipped: bool = False) -> PredictionChunk:
        """The given images' records of one view as one chunk in that view's
        frame, in the given order; the first image without a record is
        named."""
        view = self.views[flipped]
        try:
            pos = np.array([self._at[flipped][image_id] for image_id in image_ids], dtype=np.intp)
        except KeyError as e:
            kind = "flipped" if view.flipped else "original"
            raise ValueError(f"missing {kind} record for image {e.args[0]!r}") from None
        d = view.detections
        starts, counts = self._spans[flipped]
        image, rows = span_pairs(starts[pos], counts[pos])
        # Without rows the width is 0, as in every set checked from no rows.
        probs = d.probs[rows] if len(rows) else np.zeros((0, 0))
        return PredictionChunk(
            *(tuple(values[k] for k in pos.tolist()) for values in (view.image_ids, view.widths, view.heights)),
            ChunkDetections._of(d.boxes[rows], probs, d.class_ids[rows], d.scores[rows], image), view.flipped,
        )

    def __getitem__(self, key: tuple[str, bool]) -> PredictionChunk:
        image_id, flipped = key
        if image_id not in self._at[flipped]:
            raise KeyError(key)
        return self.chunk([image_id], flipped)

    def __iter__(self) -> Iterator[tuple[str, bool]]:
        return ((image_id, flipped) for flipped, at in self._at.items() for image_id in at)

    def __len__(self) -> int:
        return sum(map(len, self._at.values()))


def read_predictions_jsonl(path, sizes: Mapping[str, tuple[int, int]]) -> PredictionViews:
    """The file's records, one chunk per view. A record's shape is checked
    as it is read, and every value once per view; only when a value check
    fails is the file read again, record by record, to name the line."""
    views = {False: _View(False), True: _View(True)}

    def add(rec) -> None:
        image_id = rec["image_id"]
        flipped = _typed_field(rec, "flipped", bool)
        if image_id not in sizes:
            raise ValueError(f"unknown image id {image_id!r}")
        if image_id in views[flipped].image_ids:
            raise ValueError(f"duplicate record for image {image_id!r}, flipped={flipped}")
        views[flipped].add(image_id, rec["detections"])

    _read_jsonl(path, add)
    try:
        return PredictionViews(view.chunk(sizes) for view in views.values())
    except ValueError:  # each record a view of its own, to raise naming its line
        _read_jsonl(path, lambda rec: _View().add(rec["image_id"], rec["detections"]).chunk(sizes))
        raise


def write_predictions_jsonl(chunks: Iterable[PredictionChunk], path) -> None:
    """One record per image of every chunk, in the chunk's frame. A second
    record of an (image, frame), which :func:`read_predictions_jsonl` would
    refuse, raises a ValueError naming it before anything is written."""
    records = []
    for chunk in chunks:
        d = chunk.detections
        encoded = encode_boxes(d.boxes, np.array(chunk.widths)[d.image], np.array(chunk.heights)[d.image])
        rows = zip(d.boxes.tolist(), encoded.tolist(), d.probs.tolist())
        for image_id, n in zip(chunk.image_ids, np.bincount(d.image, minlength=len(chunk.image_ids)).tolist()):
            dets = [{"bbox": box, "encoded": enc, "probs": probs} for box, enc, probs in islice(rows, n)]
            records.append({"image_id": image_id, "flipped": bool(chunk.flipped), "detections": dets})
    records.sort(key=lambda r: (r["image_id"], r["flipped"]))
    for a, b in zip(records, records[1:]):
        if (a["image_id"], a["flipped"]) == (b["image_id"], b["flipped"]):
            raise ValueError(f"duplicate record for image {a['image_id']!r}, flipped={a['flipped']}")
    _write_pieces(path, (json.dumps(r, sort_keys=True) + "\n" for r in records))


# -- pseudo-label JSONL -------------------------------------------------------

# One record per row of a PseudoLabels set, in the JSONL file and the pool
# state: {"image_id": str, "bbox": [4], "class_id": int, "confidence": float}


def _pl_set(recs, n_classes: int | None = None) -> PseudoLabels:
    """The pseudo-labels of the given records, checked: with ``n_classes``,
    a ``class_id`` outside 1..``n_classes`` is refused."""
    pls = PseudoLabels(
        [rec["image_id"] for rec in recs],
        [rec["bbox"] for rec in recs],
        [_typed_field(rec, "class_id", int) for rec in recs],
        [float(rec["confidence"]) for rec in recs],
    )
    if n_classes is not None:
        outside = pls.class_ids > n_classes
        if outside.any():
            raise ValueError(f"class_id {pls.class_ids[outside.argmax()]} outside 1..{n_classes}")
    return pls


# A record as json.dumps(record, sort_keys=True) writes it: json writes a
# finite float as float.__repr__, an int as int.__repr__ and a string with
# encode_basestring_ascii.
_PL_LINE = '{"bbox": [%r, %r, %r, %r], "class_id": %d, "confidence": %r, "image_id": %s}\n'


def write_pseudo_labels_jsonl(pls: PseudoLabels, path) -> None:
    """One record per label, ordered by (image_id, -confidence, class_id),
    ties in row order. The order is sorted once; the rows are then taken,
    formatted and written one block at a time."""
    order = np.lexsort((pls.class_ids, -pls.scores, pls.image_ids))
    _write_pieces(path, (_pl_lines(pls.take(order[rows])) for rows in _blocks(len(order))))


def _pl_lines(pls: PseudoLabels) -> str:
    return "".join(
        _PL_LINE % (x0, y0, x1, y1, c, conf, encode_basestring_ascii(image_id))
        for image_id, (x0, y0, x1, y1), c, conf in zip(
            pls.image_ids.tolist(), pls.boxes.tolist(), pls.class_ids.tolist(), pls.scores.tolist()
        )
    )


def read_pseudo_labels_jsonl(path, n_classes: int) -> PseudoLabels:
    """The file's pseudo-labels, in file order; a ``class_id`` outside
    1..``n_classes`` is refused naming its line."""

    # One record at a time, so that an error names its line.
    return PseudoLabels.concat(_read_jsonl(path, lambda rec: _pl_set([rec], n_classes)))


# -- pool state JSON ----------------------------------------------------------


def save_pool(pool: Pool, path) -> None:
    """Raises a ValueError before writing anything if an id is not one
    :func:`load_pool` reads back."""
    labeled, unlabeled = (sorted(map(checked_image_id, ids)) for ids in (pool.labeled, pool.unlabeled))
    pls, pseudo = pool.pseudo, {}
    for image_id, box, c, conf in zip(pls.image_ids.tolist(), pls.boxes.tolist(), pls.class_ids.tolist(),
                                      pls.scores.tolist()):
        rec = {"image_id": image_id, "bbox": box, "class_id": c, "confidence": conf}
        pseudo.setdefault(image_id, []).append(rec)
    payload = {
        "cycle": pool.cycle,
        "labeled": labeled,
        "unlabeled": unlabeled,
        "pseudo": pseudo,
    }
    _write_pieces(path, (json.dumps(payload, sort_keys=True), "\n"))


def load_pool(path, n_classes: int | None = None) -> Pool:
    """Every error names the file, and one about a pseudo-label record the
    image. ``labeled`` and ``unlabeled`` must be arrays of image ids. With
    ``n_classes``, a pseudo-label ``class_id`` outside 1..``n_classes`` is
    refused; without it (``aldet select --pool``, which reads no dataset)
    class ids are not checked against K."""
    raw = _read_json(path)
    image_id = None
    try:
        pseudo = raw.get("pseudo", {})
        # JSON keys are strings, so a record whose image_id is not one is misfiled.
        misfiled = sorted(k for k, recs in pseudo.items() if any(rec["image_id"] != k for rec in recs))
        if misfiled:
            raise ValueError(f"pseudo-labels filed under another image's id: {misfiled[:5]}")
        sets = []
        for image_id, recs in pseudo.items():
            sets.append(_pl_set(recs, n_classes))
        image_id = None  # the records are read
        return Pool(_id_set(raw, "labeled"), _id_set(raw, "unlabeled"), PseudoLabels.concat(sets),
                    _typed_field(raw, "cycle", int))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise _structure_error(path, e, image_id) from None


def _id_set(raw, name: str) -> frozenset[str]:
    """``raw[name]``, which must be a JSON array of image ids."""
    ids = raw[name]
    # A number or null raises TypeError when iterated; a string or an object does not, but is no array.
    if isinstance(ids, (str, dict)):
        raise ValueError(f"{name}: expected an array of image ids, got {ids!r}")
    return frozenset(map(checked_image_id, ids))


# -- scores CSV ---------------------------------------------------------------


# An id written unquoted into a line of text must not hold what its reader
# splits or strips at, so that it reads back as it is: a line break, and in
# a scores CSV a comma or leading whitespace. Writers check every id first,
# so a rejected set writes nothing.
_SCORES_CSV_IDS = (re.compile(r"[,\n]|^\s"), "a scores CSV: it holds a comma or a line break, or starts with "
                   "whitespace")
_SELECTED_TXT_IDS = (re.compile(r"[\n\r]"), "a selection file: it holds a line break")


def check_ids(image_ids: Sequence[str], rules=(_SCORES_CSV_IDS, _SELECTED_TXT_IDS)) -> None:
    """Raise a ValueError naming the first of ``image_ids`` that breaks one
    of ``rules``; by default both, so that every id passes into the scores
    CSV and the selection file alike."""
    for pattern, what in rules:
        bad = next(filter(pattern.search, image_ids), None)
        if bad is not None:
            raise ValueError(f"image_id {str(bad)!r} cannot be written to {what}")


_SCORES_HEADER = "image_id,entropy,inconsistency,unified"


def write_scores_csv(scores: AcquisitionScores, path) -> None:
    """One row per image, ordered by image id, ties in row order, written
    one block of rows at a time. Ids are written unquoted, so an id that
    :func:`read_scores_csv` would not read back as it is raises a ValueError
    naming it before anything is written."""
    order = np.argsort(scores.image_ids, kind="stable")
    check_ids(scores.image_ids[order], (_SCORES_CSV_IDS,))
    _write_pieces(path, chain([_SCORES_HEADER + "\n"],
                              (_scores_lines(scores.take(order[rows])) for rows in _blocks(len(order)))))


def _scores_lines(scores: AcquisitionScores) -> str:
    rows = zip(scores.image_ids.tolist(), scores.entropy.tolist(), scores.inconsistency.tolist(),
               scores.unified.tolist())
    return "".join("%s,%.6f,%.6f,%.6f\n" % row for row in rows)


def _columns(line: str, n: int) -> list[str]:
    parts = line.split(",")
    if len(parts) != n:
        raise ValueError(f"expected {n} columns, got {len(parts)}")
    return parts


def read_scores_csv(path) -> AcquisitionScores:
    """Read a scores table back as one set, in file order; the unified
    column is recomputed from the rounded entropy and inconsistency, so the
    product identity holds exactly. The values are checked once, as
    columns; only when that check fails is the file read again, row by row,
    to name the line."""
    seen: set[str] = set()

    def row(line):
        image_id, h, inc, _unified = _columns(line, 4)
        if image_id in seen:
            raise ValueError(f"duplicate image_id {image_id!r}")
        seen.add(image_id)
        return image_id, float(h), float(inc)

    columns = zip(*_read_lines(path, row, header=_SCORES_HEADER))
    try:
        return AcquisitionScores(*columns)
    except ValueError:
        seen.clear()
        _read_lines(path, lambda line: AcquisitionScores(*zip(row(line))), header=_SCORES_HEADER)
        raise


# -- selection text ------------------------------------------------------------


def write_selected_txt(image_ids: Sequence[str], path) -> None:
    """One selected image id per line, in the given order; an id holding a
    line break raises a ValueError naming it before anything is written."""
    check_ids(image_ids, (_SELECTED_TXT_IDS,))
    _write_pieces(path, ("".join(f"{image_id}\n" for image_id in image_ids[rows])
                         for rows in _blocks(len(image_ids))))


# -- cycle report CSV ----------------------------------------------------------


def write_reports_csv(rows: Iterable[tuple[CycleReport, str]], path) -> None:
    """One line per (report, selection file name) row, in the given order."""
    lines = ["cycle,n_labeled,n_pl,pl_ratio,pl_correctness,map50,selected_file\n"]
    for rep, sel in rows:
        lines.append(
            f"{rep.cycle},{rep.n_labeled},{rep.pl_count},"
            f"{rep.pl_ratio:.6f},{rep.pl_correctness:.6f},{rep.evaluation.map50:.6f},{sel}\n"
        )
    _write_pieces(path, lines)


# -- eval CSV -------------------------------------------------------------------


def write_eval_csv(result: EvalResult, path) -> None:
    lines = ["class_id,ap,n_gt\n"]
    for cls in sorted(result.n_gt):
        if cls in result.per_class_ap:
            lines.append(f"{cls},{result.per_class_ap[cls]:.6f},{result.n_gt[cls]}\n")
        else:
            lines.append(f"{cls},,{result.n_gt[cls]}\n")
    lines.append(f"mAP,{result.map50:.6f},{sum(result.n_gt.values())}\n")
    _write_pieces(path, lines)


# The mAP row is the mean of unrounded APs rounded to six decimals, and each
# class row's AP is rounded the same way: the two means differ by at most 1e-6.
_MAP_ROW_TOL = 1e-6 + 1e-12


def read_eval_csv(path) -> EvalResult:
    """Read an eval table back: the class rows, then one ``mAP`` row whose
    ``n_gt`` is the sum of theirs and whose value is the mean of their APs
    within six-decimal rounding. The mean is recomputed from the class rows;
    a table without the ``mAP`` row is rejected as cut short.

    A class row has a ``class_id`` of at least 1 and a non-negative ``n_gt``;
    its AP is empty iff ``n_gt`` is 0 (the class is excluded) and otherwise
    lies in [0, 1]."""
    per_class: dict[int, float] = {}
    n_gt: dict[int, int] = {}
    map_row_seen = False

    def row(line):
        nonlocal map_row_seen
        cls_s, ap_s, n_s = _columns(line, 3)
        if map_row_seen:
            raise ValueError("duplicate mAP row" if cls_s == "mAP" else "class row after the mAP row")
        if cls_s == "mAP":
            map_row_seen = True
            total, mean = sum(n_gt.values()), EvalResult(per_class, n_gt).map50
            if int(n_s) != total:
                raise ValueError(f"mAP row n_gt {n_s} is not {total}, the sum of the class rows")
            if not abs(float(ap_s) - mean) <= _MAP_ROW_TOL:  # NaN fails too
                raise ValueError(f"mAP row {ap_s} is not {mean:.6f}, the mean AP of the class rows")
            return
        cls, n = int(cls_s), int(n_s)
        if cls < 1:
            raise ValueError(f"class_id {cls}: foreground classes start at 1")
        if cls in n_gt:
            raise ValueError(f"duplicate class_id {cls}")
        if n < 0:
            raise ValueError(f"class_id {cls}: negative n_gt {n}")
        if (ap_s == "") != (n == 0):
            raise ValueError(f"class_id {cls}: AP {ap_s!r} with n_gt {n}; the AP is empty iff n_gt is 0")
        n_gt[cls] = n
        if n:
            ap = float(ap_s)
            if not 0.0 <= ap <= 1.0:  # NaN fails too
                raise ValueError(f"class_id {cls}: AP {ap_s} outside [0, 1]")
            per_class[cls] = ap

    _read_lines(path, row, header="class_id,ap,n_gt")
    if not map_row_seen:
        raise ValueError(f"{path}: no mAP row after the class rows")
    return EvalResult(per_class, n_gt)


def write_winrate_csv(names: Sequence[str], matrix, path) -> None:
    lines = ["method," + ",".join(names) + "\n"]
    for i, name in enumerate(names):
        row = ",".join(
            "" if i == j else f"{matrix[i][j]:.6f}" for j in range(len(names))
        )
        lines.append(f"{name},{row}\n")
    _write_pieces(path, lines)


# -- flat key-value config -------------------------------------------------------


def parse_config_file(path) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines are skipped."""
    out: dict[str, str] = {}

    def entry(line):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            return
        if "=" not in stripped:
            raise ValueError("expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError("empty key")
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value.strip()

    _read_lines(path, entry)
    return out
