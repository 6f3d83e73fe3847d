"""Command-line surface binding the library into runnable experiments.

Subcommands: score, select, pseudolabel, simulate, eval, loss-check, winrate.
Experiment settings come from a flat ``key = value`` config file; every key
can be overridden by a same-named command-line flag, and flags win. Commands
are deterministic: identical inputs and seeds give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

from . import formats
from .acquisition import AcquisitionConfig, select_for_labeling
from .boxes import BoxCorner, BoxEncoded, ClassDist, Detection
from .dataset import Dataset
from .evaluation import INTERPOLATIONS, map50, winrate_matrix
from .losses import (
    GroundTruthAssignment,
    consistency_class_loss,
    consistency_loc_loss,
    pl_multibox_conf_loss,
    smooth_l1_loc_loss,
    total_loss,
)
from .matching import MatchedPair
from .pool import (
    PL_STRATEGIES,
    SELECTION_STRATEGIES,
    RunConfig,
    commit_selection,
    init_pool,
    pseudo_label_pool,
    run_cycles,
    score_pool,
)
from .sim_detector import SyntheticDetector, SyntheticDetectorConfig

__all__ = ["main", "ExperimentConfig", "ConfigError"]


class ConfigError(Exception):
    """Aggregated configuration problem; the message lists every violation."""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_per_class(raw: str):
    """Either a scalar ('0.8') or a per-class mapping ('1:0.3,2:0.9')."""
    if ":" not in raw:
        return float(raw)
    out = {}
    for part in raw.split(","):
        cls, val = part.split(":")
        out[int(cls)] = float(val)
    return out


def _parse_optional_int(raw: str) -> int | None:
    return None if raw == "" else int(raw)


# Checks: (predicate on the parsed value, message when it fails). An unset
# optional key parses to None and passes.
_NON_NEGATIVE = (lambda v: v is None or v >= 0, "must be non-negative")
_POSITIVE = (lambda v: v > 0, "must be positive")
_UNIT_INTERVAL = (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")


def _one_of(options):
    return (lambda v: v in options, f"must be one of {options}")


def _key(default: str, parse=str, check=None):
    """One config key: its default as written in a config file, its parser,
    and an optional check on the parsed value."""
    return field(metadata={"default": default, "parse": parse, "check": check})


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of the merged config (defaults < config file < flags).

    Each field is one config key, and this class is the only list of them:
    the command-line flags, the unknown-key check and validation are all
    derived from the fields and their metadata (see :func:`_key`).
    """

    dataset: str = _key("")
    test_dataset: str = _key("")
    output_dir: str = _key("out")
    initial_budget: int = _key("20", int, _NON_NEGATIVE)
    cycles: int = _key("5", int, (lambda v: v >= 1, "need at least one cycle"))
    # Either budget may be set; budget_per_cycle wins, and a total_budget is
    # divided across the cycles. Only simulate needs one (see run_config).
    total_budget: int | None = _key("", _parse_optional_int, _NON_NEGATIVE)
    budget_per_cycle: int | None = _key("", _parse_optional_int, _NON_NEGATIVE)
    strategy: str = _key("unified", str, _one_of(SELECTION_STRATEGIES))
    tau: float = _key("0.99", float, (lambda v: 0.0 < v < 1.0, "must be in (0, 1)"))
    pl_enabled: bool = _key("true", _parse_bool)
    pl_strategy: str = _key("threshold", str, _one_of(PL_STRATEGIES))
    pl_topk_fraction: float = _key("0.2", float, (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"))
    nms_iou: float = _key("0.45", float, (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"))
    nms_score_floor: float = _key("0.01", float, (lambda v: 0.0 <= v < 1.0, "must be in [0, 1)"))
    min_match_iou: float = _key("0.5", float, _UNIT_INTERVAL)
    include_background: bool = _key("true", _parse_bool)
    seed: int = _key("0", int)
    interpolation: str = _key("eleven_point", str, _one_of(INTERPOLATIONS))
    detector_seed: int = _key("0", int)
    detector_accuracy: object = _key("0.8", _parse_per_class)
    detector_flip_robustness: object = _key("0.9", _parse_per_class)
    detector_temperature: float = _key("0.15", float, _POSITIVE)
    detector_logit_noise: float = _key("0.1", float, _NON_NEGATIVE)
    detector_box_noise: float = _key("0.05", float, _NON_NEGATIVE)
    detector_fp_rate: float = _key("0.0", float, _NON_NEGATIVE)
    detector_skill_gain: float = _key("0.0", float, _NON_NEGATIVE)
    detector_skill_gain_pl: float = _key("0.0", float, _NON_NEGATIVE)
    detector_accuracy_ceiling: float = _key("0.97", float, _UNIT_INTERVAL)
    detector_robustness_ceiling: float = _key("0.99", float, _UNIT_INTERVAL)

    def acquisition_config(self) -> AcquisitionConfig:
        return AcquisitionConfig(
            nms_iou=self.nms_iou,
            nms_score_floor=self.nms_score_floor,
            min_match_iou=self.min_match_iou,
            include_background=self.include_background,
        )

    def run_config(self) -> RunConfig:
        if self.budget_per_cycle is None:
            raise ConfigError("budget: set either total_budget or budget_per_cycle")
        return RunConfig(
            cycles=self.cycles,
            budget_per_cycle=self.budget_per_cycle,
            strategy=self.strategy,
            tau=self.tau,
            pl_enabled=self.pl_enabled,
            acquisition=self.acquisition_config(),
            seed=self.seed,
            interpolation=self.interpolation,
            pl_strategy=self.pl_strategy,
            pl_topk_fraction=self.pl_topk_fraction,
        )

    def detector_config(self, n_classes: int) -> SyntheticDetectorConfig:
        return SyntheticDetectorConfig(
            n_classes=n_classes,
            accuracy=self.detector_accuracy,
            flip_robustness=self.detector_flip_robustness,
            temperature=self.detector_temperature,
            logit_noise=self.detector_logit_noise,
            box_noise=self.detector_box_noise,
            fp_rate=self.detector_fp_rate,
            skill_gain_per_labeled=self.detector_skill_gain,
            skill_gain_per_pseudo=self.detector_skill_gain_pl,
            accuracy_ceiling=self.detector_accuracy_ceiling,
            robustness_ceiling=self.detector_robustness_ceiling,
            seed=self.detector_seed,
        )


CONFIG_DEFAULTS: dict[str, str] = {f.name: f.metadata["default"] for f in fields(ExperimentConfig)}


def build_config(
    config_path: str | None,
    overrides: Mapping[str, str],
    require_files: Sequence[str] = (),
) -> ExperimentConfig:
    """Merge defaults, the config file, and flag overrides; validate everything
    at once and raise a single ConfigError listing all violations."""
    merged = dict(CONFIG_DEFAULTS)
    errors: list[str] = []

    if config_path is not None:
        try:
            file_values = formats.parse_config_file(config_path)
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from None
        unknown = set(file_values) - set(CONFIG_DEFAULTS)
        if unknown:
            errors.append(f"unknown config keys: {', '.join(sorted(unknown))}")
        merged.update({k: v for k, v in file_values.items() if k in CONFIG_DEFAULTS})
    merged.update({k: v for k, v in overrides.items() if v is not None})

    parsed: dict[str, object] = {}
    for key in fields(ExperimentConfig):
        try:
            value = key.metadata["parse"](merged[key.name])
            check = key.metadata["check"]
            if check is not None and not check[0](value):
                raise ValueError(check[1])
            parsed[key.name] = value
        except ValueError as e:
            errors.append(f"{key.name}: {e}")
            parsed[key.name] = None

    total, cycles = parsed["total_budget"], parsed["cycles"]
    if parsed["budget_per_cycle"] is None and total is not None and cycles:
        if total % cycles != 0:
            errors.append(f"budget: total budget {total} not divisible by {cycles} cycles")
        else:
            parsed["budget_per_cycle"] = total // cycles

    for key in require_files:
        path = parsed.get(key)
        if not path:
            errors.append(f"{key}: required")
        elif not Path(path).is_file():
            errors.append(f"{key}: file not found: {path}")

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))

    return ExperimentConfig(**parsed)  # type: ignore[arg-type]


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    for key in CONFIG_DEFAULTS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", metavar="V")


def _overrides(args: argparse.Namespace) -> dict[str, str]:
    return {
        key[len("cfg_"):]: value
        for key, value in vars(args).items()
        if key.startswith("cfg_") and value is not None
    }


def _read_predictions(path, dataset: Dataset):
    """Predictions JSONL for ``dataset``'s images, each with K+1 probabilities."""
    sizes = {img.image_id: (img.width, img.height) for img in dataset.images}
    preds = formats.read_predictions_jsonl(path, sizes)
    expected = dataset.n_classes + 1
    for (image_id, flipped), pred in preds.items():
        bad = [len(det.dist) for det in pred.detections if len(det.dist) != expected]
        if bad:
            raise ValueError(
                f"{path}: {'flipped' if flipped else 'original'} record for image {image_id!r}: "
                f"{bad[0]} probabilities, expected {expected} for {dataset.n_classes} classes"
            )
    return preds


# -- subcommands ------------------------------------------------------------


def _record(preds, flipped: bool):
    """Lookup of one orientation's prediction, naming the image when it is missing."""
    kind = "flipped" if flipped else "original"

    def get(image_id: str):
        try:
            return preds[(image_id, flipped)]
        except KeyError:
            raise ValueError(f"missing {kind} record for image {image_id!r}") from None

    return get


def cmd_score(args) -> int:
    cfg = build_config(args.config, _overrides(args), require_files=("dataset",))
    dataset = formats.load_dataset(cfg.dataset)
    preds = _read_predictions(args.predictions, dataset)

    image_ids = sorted({image_id for image_id, _ in preds})
    original = _record(preds, flipped=False)
    scores = score_pool(
        (original(i) for i in image_ids), _record(preds, flipped=True), cfg.acquisition_config()
    )
    formats.write_scores_csv(scores, args.out)
    return 0


def cmd_select(args) -> int:
    scores = formats.read_scores_csv(args.scores)
    selected = select_for_labeling(scores, args.budget, args.strategy, seed=args.seed)
    Path(args.out).write_text(
        "".join(f"{image_id}\n" for image_id in selected), encoding="utf-8", newline="\n"
    )
    if args.pool:
        pool = formats.load_pool(args.pool)
        pool = commit_selection(pool, selected)
        formats.save_pool(pool, args.pool_out or args.pool)
    return 0


def cmd_pseudolabel(args) -> int:
    cfg = build_config(args.config, _overrides(args), require_files=("dataset",))
    dataset = formats.load_dataset(cfg.dataset)
    preds = _read_predictions(args.predictions, dataset)

    candidates = sorted({image_id for (image_id, flipped) in preds if not flipped})
    if args.pool:
        pool = formats.load_pool(args.pool)
        candidates = [i for i in candidates if i in pool.unlabeled]

    _, pseudo = pseudo_label_pool(
        (preds[(image_id, False)] for image_id in candidates),
        cfg.acquisition_config(),
        cfg.pl_strategy,
        cfg.tau,
        cfg.pl_topk_fraction,
    )
    formats.write_pseudo_labels_jsonl([pl for pls in pseudo.values() for pl in pls], args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = build_config(args.config, _overrides(args), require_files=("dataset", "test_dataset"))
    run_cfg = cfg.run_config()
    train = formats.load_dataset(cfg.dataset)
    test = formats.load_dataset(cfg.test_dataset)
    if train.classes != test.classes:
        raise ValueError("train and test datasets disagree on class names")

    world = Dataset(train.classes, train.images + test.images)
    detector = SyntheticDetector(cfg.detector_config(train.n_classes), world)
    pool = init_pool(train.image_ids, cfg.initial_budget, cfg.seed)
    reports = run_cycles(pool, detector, run_cfg, train, test)

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    selected_files = []
    for rep in reports:
        tag = f"cycle{rep.cycle}"
        if rep.cycle > 0:
            formats.write_scores_csv(rep.scores, out_dir / f"scores_{tag}.csv")
            sel_name = f"selected_{tag}.txt"
            (out_dir / sel_name).write_text(
                "".join(f"{i}\n" for i in rep.selected), encoding="utf-8", newline="\n"
            )
            selected_files.append(sel_name)
        else:
            selected_files.append("")
        formats.write_pseudo_labels_jsonl(rep.pseudo_labels, out_dir / f"pseudo_{tag}.jsonl")
        formats.write_eval_csv(rep.evaluation, out_dir / f"eval_{tag}.csv")

    formats.write_reports_csv(reports, out_dir / "report.csv", selected_files)
    return 0


def cmd_eval(args) -> int:
    """mAP@0.5 of the original-view records against ground truth. The
    detections are scored as given: eval applies no NMS, so pass post-NMS
    detections (simulate applies NMS to its detector's raw output)."""
    gt_data = formats.load_dataset(args.gt)
    preds = _read_predictions(args.predictions, gt_data)
    dets = []
    for (image_id, flipped), pred in sorted(preds.items()):
        if flipped:
            continue
        for det in pred.detections:
            dets.append((det, image_id))
    result = map50(
        dets,
        gt_data.all_objects(),
        interpolation=args.interpolation,
        class_ids=range(1, gt_data.n_classes + 1),
    )
    formats.write_eval_csv(result, args.out)
    return 0


def cmd_loss_check(args) -> int:
    import json

    with open(args.fixture, encoding="utf-8") as f:
        fixture = json.load(f)

    dists = [ClassDist(p) for p in fixture.get("dists", [])]
    asg_raw = fixture.get("assignment", {})
    asg = GroundTruthAssignment(
        positives=tuple(tuple(p) for p in asg_raw.get("positives", [])),
        negatives=tuple(asg_raw.get("negatives", [])),
        pl_positives=tuple(tuple(p) for p in asg_raw.get("pl_positives", [])),
    )
    conf = pl_multibox_conf_loss(dists, asg) if dists else 0.0

    loc_pred = [BoxEncoded(*b) for b in fixture.get("loc_pred", [])]
    loc_target = [BoxEncoded(*b) for b in fixture.get("loc_target", [])]
    loc_positives = fixture.get("loc_positives", list(range(len(loc_pred))))
    loc = smooth_l1_loc_loss(loc_pred, loc_target, loc_positives) if loc_pred else 0.0

    pairs = []
    dummy_box = BoxCorner(0.0, 0.0, 1.0, 1.0)
    for rec in fixture.get("pairs", []):
        orig = Detection(dummy_box, BoxEncoded(*rec["orig_encoded"]), ClassDist(rec["orig_probs"]))
        flip = Detection(dummy_box, BoxEncoded(*rec["flip_encoded"]), ClassDist(rec["flip_probs"]))
        pairs.append(MatchedPair(orig, flip, 1.0))
    cons_c = consistency_class_loss(pairs)
    cons_l = consistency_loc_loss(pairs)

    total = total_loss(conf, cons_c, cons_l, loc)
    print(f"conf_loss={conf:.6f}")
    print(f"smooth_l1={loc:.6f}")
    print(f"consistency_class={cons_c:.6f}")
    print(f"consistency_loc={cons_l:.6f}")
    print(f"total={total:.6f}")
    return 0


def cmd_winrate(args) -> int:
    by_method = {}
    for spec_arg in args.methods:
        if "=" not in spec_arg:
            raise ValueError(f"expected NAME=eval.csv[,eval.csv...], got {spec_arg!r}")
        name, paths = spec_arg.split("=", 1)
        by_method[name] = [formats.read_eval_csv(p) for p in paths.split(",")]
    if len(by_method) < 2:
        raise ValueError("need at least two methods to compare")
    names, matrix = winrate_matrix(by_method)
    formats.write_winrate_csv(names, matrix, args.out)
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aldet",
        description="Active learning for object detection: scoring, selection, "
        "pseudo-labeling, simulation, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="acquisition scores from a predictions JSONL")
    _add_config_flags(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("select", help="pick images for labeling from a scores CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--strategy", default="unified", choices=SELECTION_STRATEGIES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--pool", help="pool state JSON to commit the selection into")
    p.add_argument("--pool-out", help="where to write the updated pool (default: in place)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("pseudolabel", help="extract pseudo-labels from predictions")
    _add_config_flags(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--pool", help="restrict to the pool's unlabeled images")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pseudolabel)

    p = sub.add_parser("simulate", help="run the full active-learning protocol")
    _add_config_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="mAP@0.5 of a predictions JSONL against ground truth, "
                       "no NMS", description=cmd_eval.__doc__)
    p.add_argument("--gt", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--interpolation", default="eleven_point", choices=INTERPOLATIONS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("loss-check", help="print loss terms for a JSON fixture")
    p.add_argument("--fixture", required=True)
    p.set_defaults(func=cmd_loss_check)

    p = sub.add_parser("winrate", help="pairwise per-class win-rate matrix")
    p.add_argument("methods", nargs="+", metavar="NAME=eval.csv[,eval.csv...]")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_winrate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
