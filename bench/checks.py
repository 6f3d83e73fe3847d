"""Output checks for one benchmark operation.

Two kinds of check feed the failure count:

- reference digests: for the two named seeds, the SHA-256 of every output
  file must equal the digest recorded in ``references.json``;
- invariants that need no reference and hold for any seed (row counts,
  selection sizes and uniqueness, mAP = mean of the class APs, A = H * I).

Every function returns a list of problems; an empty list means the output
passed. Only the text formats documented in ``aldet.formats`` are parsed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")
# CSV floats carry six decimals, so a mean of rounded values can differ from
# the rounded mean by up to one unit in the last place of each.
CSV_TOL = 1.5e-6


def digest(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def check_reference(out_dir: Path, expected: dict[str, str] | None) -> list[str]:
    if expected is None:
        return []
    got = digest(out_dir)
    problems = [f"{name}: digest differs from reference" for name in sorted(expected)
                if name in got and got[name] != expected[name]]
    problems += [f"{name}: missing" for name in sorted(set(expected) - set(got))]
    problems += [f"{name}: not in reference" for name in sorted(set(got) - set(expected))]
    return problems


def _rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: unexpected header")
    return [line.split(",") for line in lines[1:] if line]


def check_eval_csv(path: Path) -> list[str]:
    """The mAP row must equal the mean of the class APs that are present."""
    try:
        rows = _rows(path, "class_id,ap,n_gt")
    except (OSError, ValueError) as e:
        return [str(e)]
    aps = [float(ap) for cls, ap, _ in rows if cls != "mAP" and ap != ""]
    maps = [float(ap) for cls, ap, _ in rows if cls == "mAP"]
    if len(maps) != 1:
        return [f"{path.name}: expected one mAP row, got {len(maps)}"]
    mean = sum(aps) / len(aps) if aps else 0.0
    if abs(maps[0] - mean) > CSV_TOL:
        return [f"{path.name}: mAP {maps[0]} != mean class AP {mean:.7f}"]
    return []


def _read_ids(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def check_selection(ids: list[str], budget: int, name: str, pool: set[str]) -> list[str]:
    problems = []
    if len(ids) != budget:
        problems.append(f"{name}: {len(ids)} ids selected, budget is {budget}")
    if len(set(ids)) != len(ids):
        problems.append(f"{name}: duplicate ids")
    if not set(ids) <= pool:
        problems.append(f"{name}: ids outside the unlabeled pool")
    return problems


def check_simulate(out_dir: Path, cycles: int, budget: int, train_ids: set[str],
                   expect_pseudo: bool) -> list[str]:
    """report.csv has cycles+1 rows; selections are disjoint and budget-sized."""
    try:
        report = _rows(out_dir / "report.csv",
                       "cycle,n_labeled,n_pl,pl_ratio,pl_correctness,map50,selected_file")
    except (OSError, ValueError) as e:
        return [str(e)]
    problems = []
    if len(report) != cycles + 1:
        problems.append(f"report.csv: {len(report)} rows, expected {cycles + 1}")
    if expect_pseudo and any(int(row[2]) == 0 for row in report):
        problems.append("report.csv: a cycle produced no pseudo-labels")
    seen: set[str] = set()
    for t in range(1, cycles + 1):
        path = out_dir / f"selected_cycle{t}.txt"
        if not path.is_file():
            problems.append(f"{path.name}: missing")
            continue
        ids = _read_ids(path)
        problems += check_selection(ids, budget, path.name, train_ids - seen)
        seen |= set(ids)
    for t in range(cycles + 1):
        problems += check_eval_csv(out_dir / f"eval_cycle{t}.csv")
    return problems


def check_scores(path: Path, image_ids: set[str]) -> list[str]:
    """One row per image, and unified = entropy * inconsistency up to rounding."""
    try:
        rows = _rows(path, "image_id,entropy,inconsistency,unified")
    except (OSError, ValueError) as e:
        return [str(e)]
    problems = []
    if {r[0] for r in rows} != image_ids or len(rows) != len(image_ids):
        problems.append(f"{path.name}: rows do not cover each image exactly once")
    for image_id, h, inc, a in rows:
        h, inc, a = float(h), float(inc), float(a)
        if min(h, inc, a) < 0 or abs(a - h * inc) > CSV_TOL * (1.0 + h + inc):
            problems.append(f"{path.name}: {image_id}: unified != entropy * inconsistency")
            break
    return problems


def expected_selection(scores_path: Path, budget: int) -> list[str]:
    """Top ``budget`` by H * I of the rounded columns, ties by ascending id."""
    rows = _rows(scores_path, "image_id,entropy,inconsistency,unified")
    ranked = sorted(rows, key=lambda r: (-(float(r[1]) * float(r[2])), r[0]))
    return [r[0] for r in ranked[:budget]]


def check_pseudo_jsonl(path: Path, image_ids: set[str], n_classes: int) -> list[str]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as e:
        return [str(e)]
    if not lines:
        return [f"{path.name}: no pseudo-labels"]
    for lineno, line in enumerate(lines, start=1):
        try:
            rec = json.loads(line)
            valid = (rec["image_id"] in image_ids and 1 <= rec["class_id"] <= n_classes
                     and 0.0 < rec["confidence"] <= 1.0 and len(rec["bbox"]) == 4
                     and all(map(math.isfinite, rec["bbox"])))
        except (ValueError, KeyError, TypeError):
            valid = False
        if not valid:
            return [f"{path.name}: line {lineno}: invalid pseudo-label"]
    return []


def check_cli_files(out_dir: Path, budget: int, image_ids: set[str], n_classes: int) -> list[str]:
    problems = check_scores(out_dir / "scores.csv", image_ids)
    sel_path = out_dir / "selected.txt"
    if not sel_path.is_file():
        problems.append("selected.txt: missing")
    else:
        ids = _read_ids(sel_path)
        problems += check_selection(ids, budget, sel_path.name, image_ids)
        if not problems and ids != expected_selection(out_dir / "scores.csv", budget):
            problems.append("selected.txt: not the top-budget images by unified score")
    problems += check_pseudo_jsonl(out_dir / "pseudo.jsonl", image_ids, n_classes)
    problems += check_eval_csv(out_dir / "eval.csv")
    return problems
