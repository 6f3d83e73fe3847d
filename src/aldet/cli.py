"""Command-line surface binding the library into runnable experiments.

Subcommands: score, select, pseudolabel, simulate, eval, winrate.
Experiment settings come from a flat ``key = value`` config file; every key
can be overridden by a same-named command-line flag, and flags win. Commands
are deterministic: identical inputs and seeds give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

from . import formats
from .acquisition import NON_NEGATIVE, AcquisitionConfig, AcquisitionScores, post_nms_stream, select_for_labeling
from .dataset import Dataset
from .evaluation import winrate_matrix
from .pool import (
    SELECTION_STRATEGIES,
    RunConfig,
    commit_selection,
    evaluate,
    init_pool,
    pseudo_label_pool,
    run_cycles,
    score_pool,
)
from .pseudo_label import PseudoLabels
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
        if part.count(":") != 1:
            raise ValueError(f"expected class:value pairs, got {part!r}")
        cls, val = part.split(":")
        if int(cls) in out:
            raise ValueError(f"duplicate class id {int(cls)}")
        out[int(cls)] = float(val)
    return out


def _parse_optional_int(raw: str) -> int | None:
    return None if raw == "" else int(raw)


def _key(default: str, parse=str, check=None):
    """A key of the command line's own: its default as written in a config
    file, its parser, and an optional check on the parsed value."""
    return field(metadata={"default": default, "parse": parse, "check": check})


def _setting(owner, name: str, parse, default: str | None = None):
    """A key that sets the field ``name`` of the library config ``owner``:
    the field's default, unless the field has none and the key gives one,
    and the field's check in ``owner.CHECKS`` are the owner's."""
    if default is None:
        value = owner.__dataclass_fields__[name].default
        default = str(value).lower() if isinstance(value, bool) else str(value)
    return field(metadata={"default": default, "parse": parse, "check": owner.CHECKS.get(name),
                           "owner": owner, "field": name})


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of the merged config (defaults < config file < flags).

    Each field is one config key, and this class is the only list of them:
    the command-line flags, the unknown-key check and validation are all
    derived from the fields and their metadata. A key that sets a field of a
    library config names its owner and field (:func:`_setting`) and takes
    the field's default and check from there; the builders pass each owner
    the keys that name it. The other keys are the command line's own
    (:func:`_key`).
    """

    dataset: str = _key("")
    test_dataset: str = _key("")
    output_dir: str = _key("out")
    initial_budget: int = _key("20", int, NON_NEGATIVE)
    cycles: int = _setting(RunConfig, "cycles", int, default="5")
    # Only simulate needs a budget (see run_config).
    budget_per_cycle: int | None = _setting(RunConfig, "budget_per_cycle", _parse_optional_int, default="")
    strategy: str = _setting(RunConfig, "strategy", str)
    tau: float = _setting(RunConfig, "tau", float)
    pl_enabled: bool = _setting(RunConfig, "pl_enabled", _parse_bool)
    pl_strategy: str = _setting(RunConfig, "pl_strategy", str)
    pl_topk_fraction: float = _setting(RunConfig, "pl_topk_fraction", float)
    nms_iou: float = _setting(AcquisitionConfig, "nms_iou", float)
    nms_score_floor: float = _setting(AcquisitionConfig, "nms_score_floor", float)
    min_match_iou: float = _setting(AcquisitionConfig, "min_match_iou", float)
    seed: int = _setting(RunConfig, "seed", int)
    detector_seed: int = _setting(SyntheticDetectorConfig, "seed", int)
    detector_accuracy: object = _setting(SyntheticDetectorConfig, "accuracy", _parse_per_class)
    detector_flip_robustness: object = _setting(SyntheticDetectorConfig, "flip_robustness", _parse_per_class)
    detector_temperature: float = _setting(SyntheticDetectorConfig, "temperature", float)
    detector_logit_noise: float = _setting(SyntheticDetectorConfig, "logit_noise", float)
    detector_box_noise: float = _setting(SyntheticDetectorConfig, "box_noise", float)
    detector_fp_rate: float = _setting(SyntheticDetectorConfig, "fp_rate", float)
    detector_skill_gain: float = _setting(SyntheticDetectorConfig, "skill_gain_per_labeled", float)
    detector_skill_gain_pl: float = _setting(SyntheticDetectorConfig, "skill_gain_per_pseudo", float)
    detector_accuracy_ceiling: float = _setting(SyntheticDetectorConfig, "accuracy_ceiling", float)
    detector_robustness_ceiling: float = _setting(SyntheticDetectorConfig, "robustness_ceiling", float)

    def _settings_of(self, owner) -> dict[str, object]:
        """The values of the keys that set fields of ``owner``, by field name."""
        return {key.metadata["field"]: getattr(self, key.name)
                for key in fields(self) if key.metadata.get("owner") is owner}

    def acquisition_config(self) -> AcquisitionConfig:
        return AcquisitionConfig(**self._settings_of(AcquisitionConfig))

    def run_config(self) -> RunConfig:
        if self.budget_per_cycle is None:
            raise ConfigError("budget_per_cycle: required")
        return RunConfig(acquisition=self.acquisition_config(), **self._settings_of(RunConfig))

    def detector_config(self) -> SyntheticDetectorConfig:
        return SyntheticDetectorConfig(**self._settings_of(SyntheticDetectorConfig))


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
            # An unset optional key parses to None and passes its check.
            check = key.metadata["check"]
            if check is not None and value is not None and not check[0](value):
                raise ValueError(check[1])
            parsed[key.name] = value
        except ValueError as e:
            errors.append(f"{key.name}: {e}")
            parsed[key.name] = None

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


def _read_predictions(path, dataset: Dataset) -> formats.PredictionViews:
    """Predictions JSONL for ``dataset``'s images, each with K+1 probabilities."""
    sizes = dict(zip(dataset.image_ids, zip(dataset.widths.tolist(), dataset.heights.tolist())))
    preds = formats.read_predictions_jsonl(path, sizes)
    expected = dataset.n_classes + 1
    # The reader gives each view one probability width: its first non-empty record's.
    for view in preds.views.values():
        d = view.detections
        if len(d) and d.probs.shape[1] != expected:
            raise ValueError(
                f"{path}: {'flipped' if view.flipped else 'original'} record for image "
                f"{view.image_ids[d.image[0]]!r}: {d.probs.shape[1]} probabilities, "
                f"expected {expected} for {dataset.n_classes} classes"
            )
    return preds


# -- subcommands ------------------------------------------------------------


def cmd_score(args) -> int:
    cfg = build_config(args.config, _overrides(args), require_files=("dataset",))
    dataset = formats.load_dataset(cfg.dataset)
    preds = _read_predictions(args.predictions, dataset)

    acq = cfg.acquisition_config()
    image_ids = sorted(set(preds.views[False].image_ids) | set(preds.views[True].image_ids))
    scores = score_pool(post_nms_stream(preds.chunk, image_ids, acq), preds.chunk, acq)
    formats.write_scores_csv(scores, args.out)
    return 0


def cmd_select(args) -> int:
    if args.pool_out and not args.pool:
        raise ValueError("--pool-out needs --pool")
    scores = formats.read_scores_csv(args.scores)
    selected = select_for_labeling(scores, args.budget, args.strategy, seed=args.seed)
    # The selection is committed before any file is written, so a selection
    # the pool rejects leaves no output behind.
    pool = commit_selection(formats.load_pool(args.pool), selected) if args.pool else None
    formats.write_selected_txt(selected, args.out)
    if pool is not None:
        formats.save_pool(pool, args.pool_out or args.pool)
    return 0


def cmd_pseudolabel(args) -> int:
    cfg = build_config(args.config, _overrides(args), require_files=("dataset",))
    dataset = formats.load_dataset(cfg.dataset)
    preds = _read_predictions(args.predictions, dataset)

    candidates = sorted(preds.views[False].image_ids)
    if args.pool:
        pool = formats.load_pool(args.pool, dataset.n_classes)
        # load_pool does not know the dataset's ids.
        unknown = pool.all_ids - set(dataset.image_ids)
        if unknown:
            raise ValueError(f"{args.pool}: image ids not in {cfg.dataset}: {sorted(unknown)[:5]}")
        candidates = [i for i in candidates if i in pool.unlabeled]

    acq = cfg.acquisition_config()
    originals = post_nms_stream(preds.chunk, candidates, acq)
    pseudo = pseudo_label_pool(originals, cfg.pl_strategy, cfg.tau, cfg.pl_topk_fraction)
    formats.write_pseudo_labels_jsonl(pseudo, args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = build_config(args.config, _overrides(args), require_files=("dataset", "test_dataset"))
    run_cfg = cfg.run_config()
    train = formats.load_dataset(cfg.dataset)
    test = formats.load_dataset(cfg.test_dataset)
    if train.classes != test.classes:
        raise ValueError("train and test datasets disagree on class names")
    shared = sorted(set(train.image_ids) & set(test.image_ids))
    if shared:
        raise ValueError(f"{cfg.dataset} and {cfg.test_dataset} share image ids: {shared[:5]}")
    # Every training id may be scored and selected: one that the scores or the
    # selection file cannot hold stops the run before any work or output.
    formats.check_ids(train.image_ids)

    world = Dataset.concat([train, test])
    detector = SyntheticDetector(cfg.detector_config(), world)
    pool = init_pool(train.image_ids, cfg.initial_budget, cfg.seed)
    out_dir = Path(cfg.output_dir)

    # Each cycle's files are written as its report arrives, and the report is
    # kept without its pool-sized scores and pseudo-labels, which report.csv
    # does not need. report.csv is written last, so it marks a complete run.
    rows = []
    for rep in run_cycles(pool, detector, run_cfg, train, test):
        if rep.cycle == 0:  # after the loop's up-front refusals: a refused run leaves no directory behind
            out_dir.mkdir(parents=True, exist_ok=True)
        tag, sel_name = f"cycle{rep.cycle}", ""
        if rep.cycle > 0:
            formats.write_scores_csv(rep.scores, out_dir / f"scores_{tag}.csv")
            sel_name = f"selected_{tag}.txt"
            formats.write_selected_txt(rep.selected, out_dir / sel_name)
        formats.write_pseudo_labels_jsonl(rep.pseudo_labels, out_dir / f"pseudo_{tag}.jsonl")
        formats.write_eval_csv(rep.evaluation, out_dir / f"eval_{tag}.csv")
        rep = replace(rep, scores=AcquisitionScores(), pseudo_labels=PseudoLabels())
        rows.append((rep, sel_name))

    formats.write_reports_csv(rows, out_dir / "report.csv")
    return 0


def cmd_eval(args) -> int:
    """VOC07 11-point mAP@0.5 of the original-view records against ground
    truth, over the ground truth's classes 1..K. The detections are scored
    as given: eval applies no NMS, so pass post-NMS detections (simulate
    applies NMS to its detector's raw output)."""
    gt_data = formats.load_dataset(args.gt)
    preds = _read_predictions(args.predictions, gt_data)
    originals = preds.chunk(sorted(preds.views[False].image_ids))
    formats.write_eval_csv(evaluate([originals], gt_data), args.out)
    return 0


def cmd_winrate(args) -> int:
    by_method = {}
    for spec_arg in args.methods:
        if "=" not in spec_arg:
            raise ValueError(f"expected NAME=eval.csv[,eval.csv...], got {spec_arg!r}")
        name, paths = spec_arg.split("=", 1)
        # the name becomes a CSV header cell and a row label
        if not name or any(c in name for c in ",\r\n"):
            raise ValueError(f"method name must be non-empty, without commas or line breaks, got {name!r}")
        if name in by_method:
            raise ValueError(f"duplicate method name {name!r}")
        by_method[name] = [formats.read_eval_csv(p) for p in paths.split(",")]
    if len(by_method) < 2:
        raise ValueError("need at least two methods to compare")
    names, matrix = winrate_matrix(by_method)
    formats.write_winrate_csv(names, matrix, args.out)
    return 0


# -- parser -------------------------------------------------------------------

PREDICTIONS_HELP = (
    "predictions JSONL. A regular file is parsed once per content: its checked columns are kept in "
    "$XDG_CACHE_HOME/aldet (else ~/.cache/aldet), one entry per SHA-256 of the file; dataset files "
    f"are cached there too, and of all entries the {formats.CACHE_ENTRIES} most recently used kept. "
    "No output or error depends on the cache. An unchanged file is found by its inode, size and "
    "timestamps, not hashed again, once its timestamps are a few seconds old."
)


_SUBCOMMANDS = ("score", "select", "pseudolabel", "simulate", "eval", "winrate")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line's parser, every subcommand's; with ``command``, only
    that subcommand's parser is built, and its help, its errors and the
    top-level usage read as in the full parser."""
    parser = argparse.ArgumentParser(
        prog="aldet",
        description="Active learning for object detection: scoring, selection, "
        "pseudo-labeling, simulation, and evaluation.",
    )
    # The full parser's usage names every subcommand; with one built, so
    # does its usage, which an error about unrecognized arguments prints.
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    built = _SUBCOMMANDS if command is None else (command,)

    if "score" in built:
        p = sub.add_parser("score", help="acquisition scores from a predictions JSONL")
        _add_config_flags(p)
        p.add_argument("--predictions", required=True, help=PREDICTIONS_HELP)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_score)

    if "select" in built:
        p = sub.add_parser("select", help="pick images for labeling from a scores CSV")
        p.add_argument("--scores", required=True)
        p.add_argument("--budget", type=int, required=True)
        p.add_argument("--strategy", default=RunConfig.strategy, choices=SELECTION_STRATEGIES)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--pool", help="pool state JSON to commit the selection into; select reads no "
                       "dataset, so the pool's pseudo-label class ids are not checked against K")
        p.add_argument("--pool-out", help="where to write the updated pool (default: in place)")
        p.set_defaults(func=cmd_select)

    if "pseudolabel" in built:
        p = sub.add_parser("pseudolabel", help="extract pseudo-labels from predictions")
        _add_config_flags(p)
        p.add_argument("--predictions", required=True, help=PREDICTIONS_HELP)
        p.add_argument("--pool", help="restrict to the pool's unlabeled images")
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_pseudolabel)

    if "simulate" in built:
        p = sub.add_parser("simulate", help="run the full active-learning protocol")
        _add_config_flags(p)
        p.set_defaults(func=cmd_simulate)

    if "eval" in built:
        p = sub.add_parser("eval", help="VOC07 11-point mAP@0.5 of a predictions JSONL against "
                           "ground truth, no NMS", description=cmd_eval.__doc__)
        p.add_argument("--gt", required=True, help="ground-truth dataset JSON. A regular file is parsed once "
                       "per content and cached with the predictions (see --predictions).")
        p.add_argument("--predictions", required=True, help=PREDICTIONS_HELP)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_eval)

    if "winrate" in built:
        p = sub.add_parser("winrate", help="pairwise per-class win-rate matrix")
        p.add_argument("methods", nargs="+", metavar="NAME=eval.csv[,eval.csv...]")
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_winrate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the invoked subcommand's parser is built; without one (--help, an
    # unknown command), every subcommand's, for the full usage and choices.
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
