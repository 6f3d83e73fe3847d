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

The predictions and dataset readers parse each file content once. After a
read that succeeds, a regular file's checked columns are kept as one entry
in ``$XDG_CACHE_HOME/aldet``, else ``~/.cache/aldet``, named by the SHA-256
of the bytes parsed:

- a predictions file's entry holds, for each view, its image ids, each
  record's row count, and the raw boxes and probabilities. A later read of
  the same bytes runs again only the checks that depend on the dataset or
  on the values, and the clamp; an image id that the dataset's sizes lack
  makes it a miss, and the parse names the record's line;
- a dataset's entry (named ``dataset-`` after the tag) holds its class
  names, image ids, sizes, object counts, boxes and class ids. A later read
  checks each column's dtype and shape and builds the dataset through the
  :class:`~aldet.dataset.Dataset` constructor, which runs its checks again.

An entry is one flat file: a one-line JSON header with the digest and each
column's name, dtype and shape, then each column's raw bytes, each starting
at a multiple of 64 bytes. It is read with one read, its columns taken as
views of the bytes. An entry that cannot be used (unreadable, of other
bytes, a header that does not match the body's length, a dtype the cache
does not write, or a column that fails a check) is a miss, and the file is
parsed. The ``CACHE_ENTRIES`` most recently used entries of both kinds
together are kept, and every entry of an older format tag is deleted. No
output and no error depends on the cache: a cold, warm, corrupt or
unwritable cache gives the same views, datasets and messages.

An unchanged file is found by its stat, not hashed again. Once a file is
hashed, an empty marker ``<tag>-stat-<key>-<sha256>`` binds its key (device,
inode, size, and modification and change times in ns) to the digest, but
only when the binding is provably unambiguous: the file's stat did not
change while it was hashed, and both its times were at least
``_STAT_MARGIN_NS`` (3 s) older than the clock read before the first stat.
A later read whose stat gives a marked key reads the entry without opening
the file. A younger file is hashed on every read, and a miss hashes the
bytes as they are parsed, so that an entry is named by the bytes it holds
even if the file changed after the lookup. Markers are not entries: the
``CACHE_ENTRIES`` newest are kept, and a marker whose entry is gone is
deleted. See :func:`_file_digest` for the argument and its limits.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import stat
import tempfile
import time
from contextlib import suppress
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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


def _read_lines(path, parse, header: str | None = None, digest=None) -> list:
    """``parse(line)`` of every non-blank line, stripped, in order.

    Each line is decoded as UTF-8 on its own, so an undecodable byte, like a
    line that ``parse`` rejects, raises a ValueError that names the file and
    the line number. With ``header``, line 1 must equal it and is not parsed.
    ``digest`` (a hashlib object) is fed every byte read.
    """
    out, lineno = [], 0
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            if digest is not None:
                digest.update(raw)
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


def _read_json(path, data: bytes | None = None):
    """The file's one JSON document, from its bytes ``data`` if they were
    read already; undecodable bytes or malformed JSON raise a ValueError
    that names the file."""
    try:
        return json.loads((Path(path).read_bytes() if data is None else data).decode("utf-8"))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _typed_field(rec, name: str, kind: type):
    """``rec[name]``, which must be a JSON value of the type ``kind``: an
    integer (``int``, not a float or a boolean), a number (``float``: an
    integer or a float, not a boolean or a string) or a boolean (``bool``,
    not a number or a string)."""
    return _typed(name, rec[name], kind)


# kind -> the Python types of its JSON values, and its name in an error
_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"), bool: ((bool,), "a boolean")}


def _typed(name: str, value, kind: type):
    types, what = _KINDS[kind]
    if type(value) not in types:
        raise ValueError(f"{name}: expected {what}, got {value!r}")
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
    container before any value, and a width before a height or a class id.

    A regular file is read once, and its dataset kept in the cache (see the
    module docstring) by the SHA-256 of those bytes: a later read of the
    same bytes gives what this parse would give. A file that a marker finds
    is not read unless its entry is a miss."""

    def parse(data, digest):
        if data is None:  # not a regular file, or its digest came from a marker
            data = Path(path).read_bytes()
            if digest is not None:
                digest.update(data)
        dataset = _parse_dataset(path, data)
        return dataset, {"classes": _json_column(dataset.classes), "ids": _json_column(dataset.image_ids),
                         **{name: getattr(dataset, name) for name in _DATASET_COLUMNS}}

    return _through_cache(path, _DATASET_PREFIX, _cached_dataset, parse, keep=True)


def _parse_dataset(path, data: bytes) -> Dataset:
    """The dataset of the file's bytes ``data``, checked as
    :func:`load_dataset` describes."""
    raw = _read_json(path, data)
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


def _read_jsonl(path, parse, **read_options) -> list:
    """``parse(record)`` of every non-blank line's JSON record, in order;
    ``read_options`` go to :func:`_read_lines`."""

    def record(line):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"malformed JSON: {e}") from None
        return parse(rec)

    return _read_lines(path, record, **read_options)


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

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The raw boxes (N, 4) and probabilities (N, K+1) of the view's
        rows; a view without rows has probabilities of shape (0, 0)."""
        n = sum(self.counts)
        return np.frombuffer(self.buffers[0]).reshape(n, 4), np.frombuffer(self.buffers[1]).reshape(n, self.k or 0)

    def chunk(self, sizes: Mapping[str, tuple[int, int]]) -> PredictionChunk:
        """The view as one chunk, its images in file order."""
        dets = _detections(self.counts, *self.columns())
        checked_encoded(np.frombuffer(self.buffers[2]).reshape(-1, 4))
        return _clamped_chunk(tuple(self.image_ids), dets, sizes, self.flipped)


def _detections(counts: Sequence[int], boxes: np.ndarray, probs: np.ndarray) -> ChunkDetections:
    """The rows of one view, ``counts[k]`` of them for its k-th image, checked."""
    return ChunkDetections(boxes, probs, np.repeat(np.arange(len(counts)), counts))


def _clamped_chunk(image_ids: tuple[str, ...], dets: ChunkDetections, sizes, flipped: bool) -> PredictionChunk:
    """One view's chunk, its boxes clamped to the images' ``sizes``."""
    widths, heights = [sizes[i][0] for i in image_ids], [sizes[i][1] for i in image_ids]
    return PredictionChunk(image_ids, tuple(widths), tuple(heights),
                           clamp_to_images(dets, widths, heights, dets.image), flipped)


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
    fails is the file read again, record by record, to name the line.

    A regular file's checked columns are kept in the predictions cache (see
    the module docstring): a later read of the same bytes rebuilds the views
    from them with every check that depends on ``sizes`` or on the values
    run again, and gives what this parse would give, errors too."""

    def parse(data, digest):
        views = {False: _View(False), True: _View(True)}

        def add(rec) -> None:
            image_id = rec["image_id"]
            flipped = _typed_field(rec, "flipped", bool)
            if image_id not in sizes:
                raise ValueError(f"unknown image id {image_id!r}")
            if image_id in views[flipped].image_ids:
                raise ValueError(f"duplicate record for image {image_id!r}, flipped={flipped}")
            views[flipped].add(image_id, rec["detections"])

        # Hashed as it is parsed, so that an entry is named by the bytes it
        # holds even if the file changed after the lookup.
        _read_jsonl(path, add, digest=digest)
        try:
            preds = PredictionViews(view.chunk(sizes) for view in views.values())
        except ValueError:  # each record a view of its own, to raise naming its line
            _read_jsonl(path, lambda rec: _View().add(rec["image_id"], rec["detections"]).chunk(sizes))
            raise
        # An entry holds only ids that JSON writes back as they are.
        if not all(type(i) is str for view in views.values() for i in view.image_ids):
            return preds, None
        columns = {}
        for v, view in enumerate(views.values()):
            columns[f"ids{v}"], columns[f"counts{v}"] = _json_column(view.image_ids), np.array(view.counts, np.int64)
            columns[f"boxes{v}"], columns[f"probs{v}"] = view.columns()
        return preds, columns

    return _through_cache(path, "", lambda columns: _cached_views(columns, sizes), parse)


# -- the parse cache ------------------------------------------------------------

# An entry holds what a successful read of a file found that no later input
# can change (see the module docstring), named by the format tag, the kind's
# prefix and the SHA-256 of the bytes parsed. Bump the tag whenever a
# reader's acceptance rules or the entry layout change, so that no entry
# written under the old ones is read.
_CACHE_TAG = "v3"
_DATASET_PREFIX = "dataset-"
CACHE_ENTRIES = 8  # the newest entries of the tag kept, by mtime; a hit refreshes it; markers alike
_STAT_PREFIX = "stat-"  # a marker's, after the tag: an empty file that binds a stat key to a digest
# How much older than the clock a file's times must be for its stat key to be
# bound: FAT's 2 s timestamp granularity plus the coarse clock's lag, with
# room to spare (see _file_digest).
_STAT_MARGIN_NS = 3_000_000_000
_TMP_PREFIX = ".tmp-"  # a save's file before its rename; pruned once older than the margin
_HASH_BLOCK = 1 << 20
_ENTRY_ALIGN = 64  # each column starts at a multiple of this many bytes
_ENTRY_DTYPES = frozenset({"<i8", "<f8", "|u1"})  # the only dtypes an entry is written with
# A dataset entry's numeric columns and the dtype and number of dimensions
# each must have; a float width must not get past the parse's JSON-integer
# check.
_DATASET_COLUMNS = {"widths": ("<i8", 1), "heights": ("<i8", 1), "counts": ("<i8", 1),
                    "boxes": ("<f8", 2), "class_ids": ("<i8", 1)}


def _cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/aldet``, else ``~/.cache/aldet``; None, which turns
    the cache off, when that is not an absolute path."""
    path = Path(os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache"), "aldet")
    return path if path.is_absolute() else None


def _through_cache(path, prefix: str, rebuild, parse, keep: bool = False):
    """A read of ``path`` through the cache: ``rebuild(columns)`` of the
    entry of the file's digest (named with the kind's ``prefix``), a hit;
    else ``parse(data, digest)``, a miss, which gives the result and the
    columns of its entry, or None to keep none.

    ``data`` is the file's bytes if the lookup kept them (``keep``), else
    None, and the parse reads the file itself; ``digest`` is then a hashlib
    object that the parse feeds every byte it reads, or None when the file
    is not cached. The entry is saved under the digest of the bytes parsed.
    An entry that ``rebuild`` refuses (None), or that raises anything while
    it is read or rebuilt, is a miss: the entry comes from outside the
    program, and a damaged one fails in many ways (a missing key, a wrong
    type, a body shorter than it says). So every error a read raises is
    the parse's."""
    cache = _cache_dir()
    found = _file_digest(path, cache, keep) if cache is not None else None
    if found is not None:
        entry = cache / _entry_name(found.sha256, prefix)
        try:
            columns = _entry_columns(entry, found.sha256)
            result = None if columns is None else rebuild(columns)
        except Exception:
            result = None
        if result is not None:
            _touch(entry)
            _mark(cache, found, prune=True)
            return result
    data = None if found is None else found.data
    digest = hashlib.sha256() if found is not None and data is None else None
    result, columns = parse(data, digest)
    if found is not None and columns is not None:
        found = found if digest is None else _parsed(found, digest)
        _mark(cache, found)
        _save_entry(cache, _entry_name(found.sha256, prefix), found.sha256, columns)
    return result


def _entry_name(digest: str, prefix: str = "") -> str:
    return f"{_CACHE_TAG}-{prefix}{digest}.cols"


def _json_column(strings: Iterable[str]) -> np.ndarray:
    """A list of strings as the bytes of its JSON array, one column."""
    return np.frombuffer(json.dumps(list(strings)).encode(), np.uint8)


def _stat_key(st: os.stat_result) -> str | None:
    """The key that binds a regular file to its digest: its device, inode,
    size, and modification and change times in ns, in hex; None for a file
    without an inode number (``st_ino`` 0), which is never bound."""
    if st.st_ino == 0:
        return None
    return ".".join(f"{n:x}" for n in (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns))


class _Digest(NamedTuple):
    """A regular file's SHA-256, as :func:`_file_digest` found it."""

    sha256: str
    key: str | None = None  # the stat key bound to the digest; None if no binding is proven
    data: bytes | None = None  # the bytes hashed, if they were kept


def _parsed(found: _Digest, digest) -> _Digest:
    """The digest of the bytes a parse after the lookup ``found`` hashed
    (``digest``, a hashlib object), bound as ``found`` was if they are the
    bytes it names; a file that changed after the lookup is bound to
    nothing."""
    sha256 = digest.hexdigest()
    return found if sha256 == found.sha256 else _Digest(sha256)


def _file_digest(path, cache: Path, keep: bool = False) -> _Digest | None:
    """The digest of a regular file, and its stat binding if one is proven;
    None for anything else (a FIFO, ``/dev/stdin`` on a pipe, a missing
    file, an open file descriptor, which the parse's ``open`` closes), which
    is read as it comes, once, and not cached. With ``keep``, the bytes
    hashed are kept, unless a marker gave the digest and nothing was read.

    A marker of the file's stat key gives the digest without the file being
    opened. Else the file is hashed, and the key is bound to the digest only
    when the ``fstat`` of the descriptor hashed, after the hash, equals the
    ``stat`` taken first, and ``t0 − max(mtime, ctime) >= _STAT_MARGIN_NS``
    for the clock ``t0`` read before that ``stat``.

    Why that is enough: ``ctime`` cannot be set from user space: any change
    to the content, or to the times through ``os.utime``, sets it to the
    kernel's clock at that moment. A change after the first ``stat`` is
    later than ``t0``, and the coarse clock that stamps it lags ``t0`` by a
    tick at most, so the new ``ctime``, rounded down to the file system's
    granularity, is later than ``t0`` minus a tick minus that granularity.
    The margin is larger than the coarsest granularity covered (FAT's 2 s)
    plus the coarse clock's lag (a tick, at most 10 ms), so the new
    ``ctime`` differs from the bound one: the file keeps its key exactly
    while it keeps its bytes. A young file that may still change within its
    timestamp's tick gets no binding and is hashed on every read.

    The limits: a wall clock stepped back by more than the margin, and a
    network file system whose server clock is skewed against this host's by
    more than the margin, can give a later change an earlier ``ctime``; a
    file system whose ``ctime`` is not a change time (FAT keeps a creation
    time) lets a rewrite with the ``mtime`` restored keep the key; and data
    can reach a file later than the timestamp that its write set, through a
    shared memory mapping's page that is already dirty, or from one write
    call still copying more than the margin after it stamped the file. A
    file without an inode number is never bound."""
    try:
        if isinstance(path, int):
            return None
        t0 = time.time_ns()
        st = os.stat(path)
        if not stat.S_ISREG(st.st_mode):
            return None
        key = _stat_key(st)
        marked = _marked_digest(cache, key)
        if marked is not None:
            return _Digest(marked, key)
        with open(path, "rb", buffering=0) as f:
            if keep:
                data = f.read()
                digest = hashlib.sha256(data)
            else:
                data, digest, block = None, hashlib.sha256(), memoryview(bytearray(_HASH_BLOCK))
                while n := f.readinto(block):
                    digest.update(block[:n])
            unchanged = _stat_key(os.fstat(f.fileno())) == key
        old = t0 - max(st.st_mtime_ns, st.st_ctime_ns) >= _STAT_MARGIN_NS
        return _Digest(digest.hexdigest(), key if unchanged and old else None, data=data)
    except OSError:
        return None


def _marker_name(key: str, digest: str) -> str:
    return f"{_CACHE_TAG}-{_STAT_PREFIX}{key}-{digest}"


def _marked_digest(cache: Path, key: str | None) -> str | None:
    """The digest a marker in ``cache`` binds ``key`` to, if there is one."""
    if key is None:
        return None
    prefix = _marker_name(key, "")
    with suppress(OSError):
        for name in os.listdir(cache):
            if name.startswith(prefix) and len(name) == len(prefix) + 64:
                return name[len(prefix):]
    return None


def _mark(cache: Path, found: _Digest, prune: bool = False) -> None:
    """Write, or refresh as the most recently used, the marker of a proven
    binding. With ``prune``, a new marker prunes the cache; else the entry
    saved after it does, so the cache directory may not exist yet."""
    if found.key is None:
        return
    marker = cache / _marker_name(found.key, found.sha256)
    try:
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        os.close(os.open(marker, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600))
    except FileExistsError:
        _touch(marker)
        return
    except OSError:  # a cache directory that cannot be made or written
        return
    _touch(marker)
    if prune:
        _prune(cache)


def _entry_columns(entry: Path, digest: str) -> dict[str, np.ndarray] | None:
    """The columns of the entry of ``digest``, read-only views of its bytes;
    None (a miss) when the entry belongs to other bytes, holds a dtype the
    cache does not write, or its header does not match the length of its
    body exactly. A missing or damaged entry raises."""
    data = entry.read_bytes()
    end = data.index(b"\n") + 1
    header = json.loads(data[:end])
    if header["digest"] != digest:
        return None
    columns = {}
    for name, dtype, shape in header["columns"]:
        if dtype not in _ENTRY_DTYPES or not all(type(n) is int and n >= 0 for n in shape):
            return None
        end += -end % _ENTRY_ALIGN
        columns[name] = np.frombuffer(data, dtype, math.prod(shape), end).reshape(shape)
        end += columns[name].nbytes
    return columns if end == len(data) else None


def _cached_views(columns: Mapping[str, np.ndarray], sizes) -> PredictionViews | None:
    """The views rebuilt from an entry's ``columns`` with every check that
    depends on ``sizes`` or on the values run again; None when the columns
    are inconsistent. A check that fails raises, and so does an image id
    that ``sizes`` lacks: the parse names its line."""
    chunks = []
    for v in (0, 1):
        image_ids, counts = json.loads(columns[f"ids{v}"].tobytes()), columns[f"counts{v}"]
        if not (type(image_ids) is list and set(map(type, image_ids)) <= {str} and counts.ndim == 1
                and counts.dtype.kind == "i" and len(image_ids) == len(set(image_ids)) == len(counts)):
            return None  # rows: checked as the views are built
        dets = _detections(counts, columns[f"boxes{v}"], columns[f"probs{v}"])
        chunks.append(_clamped_chunk(tuple(image_ids), dets, sizes, bool(v)))
    return PredictionViews(chunks)


def _cached_dataset(columns: Mapping[str, np.ndarray]) -> Dataset | None:
    """The dataset rebuilt from an entry's ``columns`` through the
    :class:`Dataset` constructor, which runs every check and raises if one
    fails; None when a column has another dtype or shape."""
    if any(columns[name].dtype.str != dtype or columns[name].ndim != ndim
           for name, (dtype, ndim) in _DATASET_COLUMNS.items()) or columns["boxes"].shape[1] != 4:
        return None
    classes, ids = (json.loads(columns[name].tobytes()) for name in ("classes", "ids"))
    if type(classes) is not list or type(ids) is not list:
        return None
    return Dataset(tuple(classes), ids, *(columns[name] for name in
                                          ("widths", "heights", "boxes", "class_ids", "counts")))


def _save_entry(cache: Path, name: str, digest: str, columns: Mapping[str, np.ndarray]) -> None:
    """Write the entry ``name`` of a file of ``digest`` with ``columns``,
    atomically, then prune the cache. A directory that cannot be made or
    written leaves the cache off."""
    arrays = {key: np.ascontiguousarray(a, a.dtype.newbyteorder("<")) for key, a in columns.items()}
    header = {"digest": digest, "columns": [[key, a.dtype.str, a.shape] for key, a in arrays.items()]}
    pieces = [json.dumps(header).encode() + b"\n"]
    end = len(pieces[0])
    for a in arrays.values():
        pad = bytes(-end % _ENTRY_ALIGN)
        pieces += [pad, a.data]
        end += len(pad) + a.nbytes
    entry, tmp = cache / name, None
    try:
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache, prefix=_TMP_PREFIX)
        with os.fdopen(fd, "wb") as f:
            f.writelines(pieces)
        os.replace(tmp, entry)
    except OSError:
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)
        return
    _touch(entry)
    _prune(cache)


def _prune(cache: Path) -> None:
    """Delete every save's temporary file older than ``_STAT_MARGIN_NS``,
    which a writer stopped before its rename leaves (a live writer whose
    file goes loses only that save), every entry and marker of another tag,
    all but the newest ``CACHE_ENTRIES`` entries of this one, of both kinds
    together, every marker whose entry is gone, and all but the newest
    ``CACHE_ENTRIES`` markers left."""

    def newest(names: Iterable[str]) -> list[str]:
        return sorted(names, key=lambda name: ((cache / name).stat().st_mtime_ns, name),
                      reverse=True)[:CACHE_ENTRIES]

    with suppress(OSError):  # another process may be pruning too
        for tmp in cache.glob(f"{_TMP_PREFIX}*"):
            with suppress(OSError):  # gone since the listing
                if time.time_ns() - tmp.stat().st_mtime_ns > _STAT_MARGIN_NS:
                    tmp.unlink()
        names = {name for name in os.listdir(cache) if name.startswith("v") and "-" in name}  # every tag's
        tag, marker = f"{_CACHE_TAG}-", f"{_CACHE_TAG}-{_STAT_PREFIX}"
        entries = newest(n for n in names if n.startswith(tag) and not n.startswith(marker))
        digests = {name.removesuffix(".cols")[-64:] for name in entries}
        markers = newest(n for n in names if n.startswith(marker) and n[-64:] in digests)
        for name in names.difference(entries, markers):
            (cache / name).unlink(missing_ok=True)


def _touch(entry: Path) -> None:
    """Mark the entry as the most recently used; mtimes taken from the
    clock, not the file system's coarser timestamps, so that entries made
    or hit one after another are told apart."""
    now = time.time_ns()
    with suppress(OSError):
        os.utime(entry, ns=(now, now))


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
        [float(_typed_field(rec, "confidence", float)) for rec in recs],
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
