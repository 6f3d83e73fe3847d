"""In-process span tracer for the traced benchmark run.

Public ``aldet`` functions are wrapped wherever a module has bound them (for
example ``nms`` is bound in ``aldet.boxes``, ``aldet.acquisition``,
``aldet.pool`` and ``aldet.cli``), and ``SyntheticDetector.predict`` and
``update`` are patched on the class. Spans are kept in memory; self time
(span duration minus the durations of its direct child spans) is computed
from them when the command has finished. A hook whose target no longer exists
is reported as absent instead of failing the run.

``iou`` and ``ClassDist`` are deliberately not wrapped: they are called
hundreds of thousands of times per command and a wrapper would dominate the
numbers it is meant to measure.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs[name]


def _size(path) -> int:
    return os.path.getsize(os.fspath(path))


# Counters run after the wrapped call returns: (counts, args, kwargs, result).
def _count_predict(c, a, k, r):
    c["sim_detector.predict.dets"] += len(r.detections)


def _count_nms(c, a, k, r):
    c["boxes.nms.in"] += len(_arg(a, k, 0, "dets"))
    c["boxes.nms.out"] += len(r)


def _count_match(c, a, k, r):
    n = len(_arg(a, k, 0, "orig").detections)
    m = len(_arg(a, k, 1, "flipped").detections)
    c["matching.match_predictions.possible"] += min(n, m)
    c["matching.match_predictions.pairs"] += len(r.pairs)


def _count_labels(c, a, k, r):
    c["pseudo_label.labels"] += len(r)


def _count_audit(c, a, k, r):
    c["pseudo_label.audit_pl_correctness.pairs"] += len(_arg(a, k, 0, "pls")) * len(_arg(a, k, 1, "gt"))


def _count_map50(c, a, k, r):
    c["evaluation.map50.dets"] += len(_arg(a, k, 0, "dets"))


def _count_read_bytes(c, a, k, r):
    c["formats.read_predictions_jsonl.bytes"] += _size(_arg(a, k, 0, "path"))


def _count_write_bytes(c, a, k, r):
    c["formats.write.bytes"] += _size(_arg(a, k, 1, "path"))


# (layer name, module under aldet, attribute path, counter)
HOOKS = (
    ("cli", "cli", "main", None),
    ("sim_detector.predict", "sim_detector", "SyntheticDetector.predict", _count_predict),
    ("sim_detector.update", "sim_detector", "SyntheticDetector.update", None),
    ("boxes.nms", "boxes", "nms", _count_nms),
    ("boxes.hflip", "boxes", "hflip", None),
    ("matching.match_predictions", "matching", "match_predictions", _count_match),
    ("acquisition.unified_score", "acquisition", "unified_score", None),
    ("acquisition.select_for_labeling", "acquisition", "select_for_labeling", None),
    ("pseudo_label.extract_pseudo_labels", "pseudo_label", "extract_pseudo_labels", _count_labels),
    ("pseudo_label.extract_topk_per_class", "pseudo_label", "extract_topk_per_class", _count_labels),
    ("pseudo_label.audit_pl_correctness", "pseudo_label", "audit_pl_correctness", _count_audit),
    ("evaluation.map50", "evaluation", "map50", _count_map50),
    ("formats.read_predictions_jsonl", "formats", "read_predictions_jsonl", _count_read_bytes),
    ("formats.load_dataset", "formats", "load_dataset", None),
    ("pool.score_pool", "pool", "score_pool", None),
    ("pool.commit_selection", "pool", "commit_selection", None),
    ("pool.with_pseudo", "pool", "with_pseudo", None),
    ("pool.run_cycles", "pool", "run_cycles", None),
)
COUNTERS = (
    "sim_detector.predict.dets", "boxes.nms.in", "boxes.nms.out",
    "matching.match_predictions.possible", "matching.match_predictions.pairs",
    "pseudo_label.labels", "pseudo_label.audit_pl_correctness.pairs",
    "evaluation.map50.dets", "formats.read_predictions_jsonl.bytes", "formats.write.bytes",
)
# Every writer in aldet.formats is folded into one "formats.write" layer.
WRITER_PREFIXES = ("write_", "save_")


class Tracer:
    """Span recorder; create one per process, then :meth:`install` it once."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.broken: set[str] = set()

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts, broken = self.spans, self._stack, self.counts, self.broken

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None and name not in broken:
                try:
                    counter(counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    broken.add(name)
            return result

        return traced

    def install(self) -> None:
        """Patch every hook; record the ones whose target is missing."""
        self.counts.update(dict.fromkeys(COUNTERS, 0))
        for name, module, attr, counter in HOOKS:
            if not self._hook(name, module, attr, counter):
                self.absent.append(name)
        formats = _module("formats")
        writers = [n for n in dir(formats) if n.startswith(WRITER_PREFIXES)] if formats else []
        for attr in writers:
            self._hook("formats.write", "formats", attr, _count_write_bytes)
        if not writers:
            self.absent.append("formats.write")

    def _hook(self, name, module, attr, counter) -> bool:
        mod = _module(module)
        if mod is None:
            return False
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        target = getattr(owner, leaf, None) if owner is not None else None
        if not callable(target):
            return False
        wrapped = self.wrap(name, target, counter)
        if owner_name:
            setattr(owner, leaf, wrapped)
            return True
        # Rebind the function in every aldet module that imported it by name.
        for mod_name, loaded in list(sys.modules.items()):
            if loaded is None or not (mod_name == "aldet" or mod_name.startswith("aldet.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is target:
                    setattr(loaded, key, wrapped)
        return True

    def summary(self) -> dict:
        """Per-layer calls and self time, plus the raw counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, dict] = {}
        for (name, start, end, _parent), inner in zip(self.spans, child_time):
            entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - inner
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "absent": sorted(set(self.absent)),
            "broken_counters": sorted(self.broken),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _module(name: str):
    try:
        return importlib.import_module("aldet." + name)
    except ImportError:
        return None
