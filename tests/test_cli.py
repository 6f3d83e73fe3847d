"""End-to-end command-line behavior, file contracts, and determinism."""

import gc
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from oracles import dataset_of, image_scores, one_image

import aldet
from aldet import formats
from aldet.acquisition import AcquisitionConfig, AcquisitionScores, post_nms, unified_score
from aldet.boxes import Detections
from aldet.cli import (
    CONFIG_DEFAULTS,
    ConfigError,
    ExperimentConfig,
    _parse_per_class,
    build_config,
    build_parser,
    main,
)
from aldet.dataset import Dataset, ImageRecord, make_synthetic_dataset
from aldet.evaluation import EvalResult
from aldet.pool import Pool, RunConfig, init_pool
from aldet.pseudo_label import PseudoLabels
from aldet.sim_detector import SyntheticDetector, SyntheticDetectorConfig


@pytest.fixture()
def workspace(tmp_path):
    train = make_synthetic_dataset(20, 3, seed=0, id_prefix="tr")
    test = make_synthetic_dataset(10, 3, seed=1, id_prefix="te")
    train_path = tmp_path / "train.json"
    test_path = tmp_path / "test.json"
    formats.save_dataset(train, train_path)
    formats.save_dataset(test, test_path)

    world = Dataset.concat([train, test])
    det = SyntheticDetector(
        SyntheticDetectorConfig(temperature=0.1, seed=2), world
    )
    preds_path = tmp_path / "preds.jsonl"
    formats.write_predictions_jsonl([det.predict(train.image_ids, flipped) for flipped in (False, True)], preds_path)
    return tmp_path, train, test, det, preds_path


class TestConfig:
    def test_aggregated_errors(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("tau = 1.5\nstrategy = bogus\ncycles = 0\nmystery = 1\n")
        with pytest.raises(ConfigError) as err:
            build_config(str(cfg), {})
        message = str(err.value)
        for fragment in ("tau", "strategy", "cycles", "mystery"):
            assert fragment in message

    def test_flags_beat_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("tau = 0.9\nbudget_per_cycle = 5\n")
        built = build_config(str(cfg), {"tau": "0.5"})
        assert built.tau == 0.5

    def test_budget_required(self, workspace, capsys):
        # only simulate consumes a budget, so only simulate demands one
        tmp_path, *_ = workspace
        with pytest.raises(ConfigError, match="budget_per_cycle: required"):
            build_config(None, {}).run_config()
        rc = main(["simulate", "--dataset", str(tmp_path / "train.json"),
                   "--test-dataset", str(tmp_path / "test.json"),
                   "--output-dir", str(tmp_path / "run")])
        assert rc == 1
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_keys_named_once(self, tmp_path):
        # the config table, every subcommand's flags and ExperimentConfig agree
        keys = set(CONFIG_DEFAULTS)
        assert keys == {f.name for f in fields(ExperimentConfig)}
        assert len(keys) == 26
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        for command in ("score", "pseudolabel", "simulate"):
            flags = {a.dest[len("cfg_"):] for a in sub.choices[command]._actions
                     if a.dest.startswith("cfg_")}
            assert flags == keys, command
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in CONFIG_DEFAULTS.items()))
        assert build_config(str(cfg), {}) == build_config(None, {})
        cfg.write_text("batch_mode = random\n")
        with pytest.raises(ConfigError, match="unknown config keys: batch_mode"):
            build_config(str(cfg), {})

    def test_every_library_setting_has_one_key(self):
        # a library setting added without a key, or set by two keys, fails here
        owned = [(f.metadata["owner"], f.metadata["field"]) for f in fields(ExperimentConfig)
                 if "owner" in f.metadata]
        assert len(owned) == len(set(owned)) == 22
        for owner, skip in ((RunConfig, {"acquisition"}), (AcquisitionConfig, set()),
                            (SyntheticDetectorConfig, set())):
            library = {f.name for f in fields(owner)} - skip
            assert {name for o, name in owned if o is owner} == library, owner.__name__

    def test_defaults_unchanged(self):
        # in order: the keys' order is the flags' and the error lines' order
        assert list(CONFIG_DEFAULTS.items()) == list({
            "dataset": "", "test_dataset": "", "output_dir": "out", "initial_budget": "20",
            "cycles": "5", "budget_per_cycle": "", "strategy": "unified", "tau": "0.99",
            "pl_enabled": "true", "pl_strategy": "threshold", "pl_topk_fraction": "0.2",
            "nms_iou": "0.45", "nms_score_floor": "0.01", "min_match_iou": "0.5", "seed": "0",
            "detector_seed": "0", "detector_accuracy": "0.8", "detector_flip_robustness": "0.9",
            "detector_temperature": "0.15", "detector_logit_noise": "0.1",
            "detector_box_noise": "0.05", "detector_fp_rate": "0.0", "detector_skill_gain": "0.0",
            "detector_skill_gain_pl": "0.0", "detector_accuracy_ceiling": "0.97",
            "detector_robustness_ceiling": "0.99",
        }.items())

    @pytest.mark.parametrize("key, value, build", [
        ("tau", "1.5", lambda: RunConfig(cycles=1, budget_per_cycle=1, tau=1.5)),
        ("nms_iou", "0", lambda: AcquisitionConfig(nms_iou=0.0)),
        ("detector_temperature", "0", lambda: SyntheticDetectorConfig(temperature=0.0)),
    ])
    def test_cli_and_library_report_the_same_message(self, key, value, build):
        with pytest.raises(ConfigError) as cli_err:
            build_config(None, {key: value})
        with pytest.raises(ValueError) as lib_err:
            build()
        (line,) = str(cli_err.value).splitlines()[1:]
        assert line.startswith(f"  {key}: ")
        message = line[len(f"  {key}: "):]
        assert str(lib_err.value).split(": ", 1)[1] == f"{message}, got {float(value)}"

    @pytest.mark.parametrize("line", ["interpolation = all_point", "total_budget = 100"])
    def test_deleted_keys_are_unknown(self, tmp_path, line):
        # mAP has one protocol, and budget_per_cycle is the one budget
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{line}\nbudget_per_cycle = 5\n")
        with pytest.raises(ConfigError, match=f"unknown config keys: {line.split()[0]}$"):
            build_config(str(cfg), {})

    def test_repeated_class_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate class id 1"):
            _parse_per_class("1:0.3,1:0.5,2:0.9")
        with pytest.raises(ConfigError, match="detector_accuracy: duplicate class id 2"):
            build_config(None, {"detector_accuracy": "1:0.3,2:0.5,2:0.9"})
        assert _parse_per_class("1:0.3,2:0.9") == {1: 0.3, 2: 0.9}

    @pytest.mark.parametrize("raw, part", [("1:0.5,2", "2"), ("1:0.5:3", "1:0.5:3")])
    def test_malformed_class_value_pair_named(self, raw, part):
        with pytest.raises(ValueError, match=f"^expected class:value pairs, got '{part}'$"):
            _parse_per_class(raw)
        with pytest.raises(ConfigError, match=f"detector_accuracy: expected class:value pairs, got '{part}'"):
            build_config(None, {"detector_accuracy": raw})

    def test_per_class_range_reported_with_the_other_keys(self, tmp_path, capsys):
        # The detector's [0, 1] check needs no K, so it runs with every key's
        # check, before any dataset is read.
        ghost = str(tmp_path / "ghost.json")
        assert main(["simulate", "--dataset", ghost, "--test-dataset", ghost, "--budget-per-cycle", "1",
                     "--detector-accuracy", "1.5", "--tau", "2", "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid configuration:",
            "  tau: must be in (0, 1)",
            "  detector_accuracy: values must lie in [0, 1]",
            f"  dataset: file not found: {ghost}",
            f"  test_dataset: file not found: {ghost}",
        ]
        assert not (tmp_path / "out").exists()

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            build_config(
                None,
                {"dataset": str(tmp_path / "ghost.json"), "budget_per_cycle": "1"},
                require_files=("dataset",),
            )


class TestScoreCommand:
    def test_matches_library_and_is_deterministic(self, workspace):
        tmp_path, train, _test, det, preds_path = workspace
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        base = ["score", "--dataset", str(tmp_path / "train.json"),
                "--budget-per-cycle", "1", "--predictions", str(preds_path)]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        scores = {s.image_id: s for s in image_scores(formats.read_scores_csv(out1))}
        assert len(scores) == len(train.image_ids)
        cfg = AcquisitionConfig()
        for image_id in train.image_ids[:5]:
            [expected] = image_scores(unified_score(
                post_nms(det.predict([image_id]), cfg),
                post_nms(det.predict([image_id], True), cfg),
                cfg.min_match_iou,
            ))
            got = scores[image_id]
            assert got.entropy == pytest.approx(expected.entropy, abs=5e-7)
            assert got.inconsistency == pytest.approx(expected.inconsistency, abs=5e-7)

    def test_no_budget_needed(self, workspace):
        tmp_path, train, _test, _det, preds_path = workspace
        out = tmp_path / "s.csv"
        assert main(["score", "--dataset", str(tmp_path / "train.json"),
                     "--predictions", str(preds_path), "--out", str(out)]) == 0
        assert len(formats.read_scores_csv(out)) == len(train.image_ids)

    def test_id_the_csv_cannot_hold_is_rejected(self, tmp_path, capsys):
        # Ids are written unquoted, so "a,b" would read back as five columns:
        # score fails with one error line that names the id, and writes nothing.
        base = make_synthetic_dataset(4, 3, seed=0, id_prefix="tr")
        first = base.images[0]
        renamed = ImageRecord("a,b", first.width, first.height, first.boxes, first.class_ids)
        data = dataset_of(base.classes, (renamed,) + tuple(base.images[1:]))
        formats.save_dataset(data, tmp_path / "d.json")
        det = SyntheticDetector(SyntheticDetectorConfig(seed=2), data)
        formats.write_predictions_jsonl([det.predict(data.image_ids, f) for f in (False, True)], tmp_path / "p.jsonl")
        out = tmp_path / "s.csv"
        assert main(["score", "--dataset", str(tmp_path / "d.json"), "--predictions", str(tmp_path / "p.jsonl"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: image_id 'a,b' cannot be written to a scores CSV") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_flipped_record_names_image(self, workspace, capsys):
        tmp_path, train, _test, det, _ = workspace
        partial = tmp_path / "partial.jsonl"
        formats.write_predictions_jsonl([det.predict(train.image_ids[:1])], partial)
        rc = main([
            "score", "--dataset", str(tmp_path / "train.json"), "--budget-per-cycle", "1",
            "--predictions", str(partial), "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "missing flipped record" in err
        assert train.image_ids[0] in err


class TestSelectCommand:
    def test_select_and_pool_commit(self, workspace):
        tmp_path, train, _test, _det, preds_path = workspace
        scores_csv = tmp_path / "scores.csv"
        main(["score", "--dataset", str(tmp_path / "train.json"), "--budget-per-cycle", "1",
              "--predictions", str(preds_path), "--out", str(scores_csv)])

        pool = init_pool(train.image_ids, 5, seed=0)
        pool_path = tmp_path / "pool.json"
        # scores cover all images; select only among unlabeled by filtering first
        scores = formats.read_scores_csv(scores_csv)
        unlabeled_scores = scores.take([r for r, i in enumerate(scores.image_ids.tolist()) if i in pool.unlabeled])
        filtered_csv = tmp_path / "unlabeled_scores.csv"
        formats.write_scores_csv(unlabeled_scores, filtered_csv)
        formats.save_pool(pool, pool_path)

        out = tmp_path / "selected.txt"
        rc = main(["select", "--scores", str(filtered_csv), "--budget", "4",
                   "--strategy", "unified", "--out", str(out), "--pool", str(pool_path)])
        assert rc == 0
        chosen = out.read_text().split()
        assert len(chosen) == 4
        after = formats.load_pool(pool_path)
        assert after.cycle == 1
        assert set(chosen) <= after.labeled

    def test_help_says_the_pool_is_not_checked_against_k(self, capsys):
        with pytest.raises(SystemExit):
            main(["select", "--help"])
        assert "pseudo-label class ids are not checked against K" in " ".join(capsys.readouterr().out.split())

    def test_rejected_selection_writes_nothing(self, tmp_path, capsys):
        # the pool is loaded and the selection committed before any file is written
        scores_csv, pool_path, out = tmp_path / "scores.csv", tmp_path / "pool.json", tmp_path / "sel.txt"
        formats.write_scores_csv(AcquisitionScores(["a", "b"], [1.0, 0.5], [1.0, 0.5]), scores_csv)
        formats.save_pool(Pool(frozenset({"a"}), frozenset({"b"})), pool_path)
        before = pool_path.read_bytes()
        rc = main(["select", "--scores", str(scores_csv), "--budget", "1",
                   "--out", str(out), "--pool", str(pool_path)])
        assert rc == 1
        assert "already labeled or unknown: ['a']" in capsys.readouterr().err
        assert not out.exists()
        assert pool_path.read_bytes() == before

    @pytest.mark.parametrize("ids, message", [
        ({"labeled": [1, "a"]}, "image_id: expected a string without a trailing NUL, got 1"),
        ({"labeled": "a", "unlabeled": "bc"}, "labeled: expected an array of image ids, got 'a'"),
        ({"unlabeled": {"b": 1}}, "unlabeled: expected an array of image ids, got {'b': 1}"),
    ])
    def test_pool_id_lists_must_be_arrays_of_ids(self, tmp_path, capsys, ids, message):
        # [1, "a"] once loaded, wrote the selection and then failed to sort the
        # ids when saving the pool; "a" and "bc" loaded as sets of characters.
        scores_csv, pool_path, out = tmp_path / "scores.csv", tmp_path / "pool.json", tmp_path / "sel.txt"
        formats.write_scores_csv(AcquisitionScores(["b"], [1.0], [1.0]), scores_csv)
        pool_path.write_text(json.dumps({"cycle": 0, "labeled": ["a"], "unlabeled": ["b"], **ids}))
        before = pool_path.read_bytes()
        rc = main(["select", "--scores", str(scores_csv), "--budget", "1",
                   "--out", str(out), "--pool", str(pool_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {pool_path}: {message}\n"
        assert not out.exists()
        assert pool_path.read_bytes() == before

    def test_pool_out_without_pool_rejected(self, tmp_path, capsys):
        scores_csv, out, pool_out = tmp_path / "scores.csv", tmp_path / "sel.txt", tmp_path / "pool.json"
        formats.write_scores_csv(AcquisitionScores(["a"], [1.0], [1.0]), scores_csv)
        rc = main(["select", "--scores", str(scores_csv), "--budget", "1",
                   "--out", str(out), "--pool-out", str(pool_out)])
        assert rc == 1
        assert "--pool-out needs --pool" in capsys.readouterr().err
        assert not out.exists()
        assert not pool_out.exists()

    def test_random_needs_seed(self, workspace, capsys):
        tmp_path, *_ , preds_path = workspace
        scores_csv = tmp_path / "scores.csv"
        main(["score", "--dataset", str(tmp_path / "train.json"), "--budget-per-cycle", "1",
              "--predictions", str(preds_path), "--out", str(scores_csv)])
        rc = main(["select", "--scores", str(scores_csv), "--budget", "2",
                   "--strategy", "random", "--out", str(tmp_path / "sel.txt")])
        assert rc == 1
        assert "seed" in capsys.readouterr().err


class TestPseudolabelCommand:
    def test_extraction(self, workspace):
        tmp_path, train, _test, det, preds_path = workspace
        out = tmp_path / "pls.jsonl"
        rc = main(["pseudolabel", "--dataset", str(tmp_path / "train.json"),
                   "--budget-per-cycle", "1", "--tau", "0.9",
                   "--predictions", str(preds_path), "--out", str(out)])
        assert rc == 0
        pls = formats.read_pseudo_labels_jsonl(out, train.n_classes)
        assert pls, "expected some pseudo-labels at tau=0.9 with a cold detector"
        assert (pls.scores >= 0.9).all() and (pls.class_ids >= 1).all()


class TestEvalCommand:
    def test_perfect_and_empty(self, tmp_path):
        data = make_synthetic_dataset(6, 2, seed=3)
        gt_path = tmp_path / "gt.json"
        formats.save_dataset(data, gt_path)

        # perfect predictions: exact GT boxes, confident correct classes
        det = SyntheticDetector(
            SyntheticDetectorConfig(
                accuracy=1.0, temperature=0.05, logit_noise=0.0, box_noise=0.0, seed=0
            ),
            data,
        )
        preds_path = tmp_path / "perfect.jsonl"
        formats.write_predictions_jsonl([det.predict(data.image_ids)], preds_path)
        out = tmp_path / "eval.csv"
        assert main(["eval", "--gt", str(gt_path), "--predictions", str(preds_path),
                     "--out", str(out)]) == 0
        result = formats.read_eval_csv(out)
        assert result.map50 == 1.0

        empty_path = tmp_path / "empty.jsonl"
        formats.write_predictions_jsonl(
            [one_image(i, data[i].width, data[i].height, Detections([], [])) for i in data.image_ids],
            empty_path,
        )
        assert main(["eval", "--gt", str(gt_path), "--predictions", str(empty_path),
                     "--out", str(out)]) == 0
        assert formats.read_eval_csv(out).map50 == 0.0

    def test_malformed_predictions_line_number(self, tmp_path, capsys):
        data = make_synthetic_dataset(2, 2, seed=3)
        gt_path = tmp_path / "gt.json"
        formats.save_dataset(data, gt_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{}\n{broken\n")
        rc = main(["eval", "--gt", str(gt_path), "--predictions", str(bad),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "line" in capsys.readouterr().err

    def test_interpolation_is_an_unknown_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["eval", "--gt", "gt.json", "--predictions", "p.jsonl",
                  "--interpolation", "all_point", "--out", str(tmp_path / "o.csv")])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --interpolation" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


class TestMalformedInput:
    """A malformed input file ends in one ``error:`` line that names the file,
    and the line for line-based formats, instead of a traceback."""

    def error(self, capsys, argv) -> str:
        assert main(argv) == 1
        return capsys.readouterr().err

    def test_eval_csv_wrong_column_count(self, tmp_path, capsys):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        formats.write_eval_csv(EvalResult({1: 0.5}, {1: 2}), good)
        bad.write_text("class_id,ap,n_gt\n1,0.5,2\n2,0.5\n")
        err = self.error(capsys, ["winrate", f"a={bad}", f"b={good}", "--out", str(tmp_path / "w.csv")])
        assert err == f"error: {bad}: line 3: expected 3 columns, got 2\n"

    def test_eval_csv_without_map_row(self, tmp_path, capsys):
        good, cut = tmp_path / "good.csv", tmp_path / "cut.csv"
        formats.write_eval_csv(EvalResult({1: 0.5}, {1: 2}), good)
        cut.write_text("class_id,ap,n_gt\n1,0.5,4\n2,0.25,3\n")
        err = self.error(capsys, ["winrate", f"a={good}", f"b={cut}", "--out", str(tmp_path / "w.csv")])
        assert err == f"error: {cut}: no mAP row after the class rows\n"
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("row, message", [
        ("b,x,0.2,0.1", "could not convert string to float: 'x'"),  # not a number
        ("b,-0.5,0.2,0.1", "must be non-negative"),  # rejected by AcquisitionScores
        ("b,nan,0.2,0.1", "must be non-negative"),
        ("b,inf,0.2,0.1", "must be non-negative"),  # would rank first
        ("b,0.5,1e309,0", "must be non-negative"),  # 1e309 reads as inf
    ])
    def test_scores_csv_bad_row(self, tmp_path, capsys, row, message):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"image_id,entropy,inconsistency,unified\na,0.1,0.2,0.02\n{row}\n")
        err = self.error(capsys, ["select", "--scores", str(scores), "--budget", "1",
                                  "--out", str(tmp_path / "sel.txt")])
        assert err.startswith(f"error: {scores}: line 3: ") and message in err

    def test_undecodable_byte(self, workspace, capsys):
        tmp_path, *_, preds_path = workspace
        lines = preds_path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:2] + b"\xff" + lines[2][2:]
        preds = tmp_path / "bad.jsonl"
        preds.write_bytes(b"".join(lines))
        data = tmp_path / "bad.json"
        data.write_bytes(b"\xff" + (tmp_path / "train.json").read_bytes())
        for dataset, path, where in ((tmp_path / "train.json", preds, "line 3: "), (data, data, "")):
            err = self.error(capsys, ["score", "--dataset", str(dataset), "--predictions", str(preds),
                                      "--out", str(tmp_path / "s.csv")])
            assert err.startswith(f"error: {path}: {where}'utf-8' codec can't decode byte 0xff")

    def test_pool_class_id_must_be_an_integer(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        formats.write_scores_csv(AcquisitionScores(["a"], [0.1], [0.2]), scores)
        pool = tmp_path / "pool.json"
        pool.write_text('{"cycle": 0, "labeled": [], "unlabeled": ["a", "b"], "pseudo": {"b": '
                        '[{"image_id": "b", "bbox": [0, 0, 9, 9], "class_id": Infinity, '
                        '"confidence": 0.99}]}}\n')
        err = self.error(capsys, ["select", "--scores", str(scores), "--budget", "1",
                                  "--out", str(tmp_path / "sel.txt"), "--pool", str(pool)])
        assert err == f"error: {pool}: image 'b': class_id: expected an integer, got inf\n"

    @pytest.mark.parametrize("record, message", [
        ({"bbox": [5, 0, 0, 5]}, "inverted box: (5.0, 0.0, 0.0, 5.0)"),
        ({"confidence": 1.5}, "confidence must be in (0, 1], got 1.5"),
        ({"bbox": None}, "missing field 'bbox'"),
    ])
    def test_pool_record_error_names_the_file_and_the_image(self, tmp_path, capsys, record, message):
        scores = tmp_path / "scores.csv"
        formats.write_scores_csv(AcquisitionScores(["a"], [0.1], [0.2]), scores)
        label = {"image_id": "b", "bbox": [0, 0, 9, 9], "class_id": 1, "confidence": 0.99}
        label.update(record)
        pool = tmp_path / "pool.json"
        pool.write_text(json.dumps({"cycle": 0, "labeled": [], "unlabeled": ["a", "b"], "pseudo": {
            "b": [{k: v for k, v in label.items() if v is not None}]}}))
        err = self.error(capsys, ["select", "--scores", str(scores), "--budget", "1",
                                  "--out", str(tmp_path / "sel.txt"), "--pool", str(pool)])
        assert err == f"error: {pool}: image 'b': {message}\n"

    def test_pseudolabel_pool_class_id_must_be_a_dataset_class(self, workspace, capsys):
        # pseudolabel loads the dataset, so it hands K to load_pool
        tmp_path, train, _test, _det, preds_path = workspace
        image = sorted(train.image_ids)[-1]
        labels = [{"image_id": image, "bbox": [0, 0, 9, 9], "class_id": c, "confidence": 0.99}
                  for c in (3, 99)]
        pool = tmp_path / "pool.json"
        pool.write_text(json.dumps({"cycle": 0, "labeled": [], "unlabeled": train.image_ids,
                                    "pseudo": {image: labels}}))
        err = self.error(capsys, ["pseudolabel", "--dataset", str(tmp_path / "train.json"),
                                  "--predictions", str(preds_path), "--pool", str(pool),
                                  "--out", str(tmp_path / "pl.jsonl")])
        assert err == f"error: {pool}: image '{image}': class_id 99 outside 1..3\n"
        assert not (tmp_path / "pl.jsonl").exists()

    def test_pseudolabel_pool_ids_must_be_the_datasets(self, workspace, capsys):
        # A pool of another dataset once gave an empty pseudo.jsonl and exit 0.
        tmp_path, train, _test, _det, preds_path = workspace
        pool = tmp_path / "pool.json"
        others = [f"zz_{i:04d}" for i in range(7)]
        formats.save_pool(Pool(frozenset(others[:2]), frozenset(others[2:] + list(train.image_ids[:3]))), pool)
        err = self.error(capsys, ["pseudolabel", "--dataset", str(tmp_path / "train.json"),
                                  "--predictions", str(preds_path), "--pool", str(pool),
                                  "--out", str(tmp_path / "pl.jsonl")])
        assert err == f"error: {pool}: image ids not in {tmp_path / 'train.json'}: {others[:5]}\n"
        assert not (tmp_path / "pl.jsonl").exists()

    def test_eval_gt_width_must_be_an_integer(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        gt.write_text('{"classes": ["c"], "images": [{"id": "a", "width": Infinity, '
                      '"height": 10, "objects": []}]}\n')
        preds = tmp_path / "preds.jsonl"
        preds.write_text("")
        err = self.error(capsys, ["eval", "--gt", str(gt), "--predictions", str(preds),
                                  "--out", str(tmp_path / "eval.csv")])
        assert err == f"error: {gt}: image 'a': width: expected an integer, got inf\n"

    def test_flipped_must_be_a_boolean(self, workspace, capsys):
        tmp_path, train, *_ = workspace
        preds = tmp_path / "bad.jsonl"
        preds.write_text('{"image_id": "%s", "flipped": "no", "detections": []}\n' % train.image_ids[0])
        err = self.error(capsys, ["score", "--dataset", str(tmp_path / "train.json"),
                                  "--predictions", str(preds), "--out", str(tmp_path / "s.csv")])
        assert err == f"error: {preds}: line 1: flipped: expected a boolean, got 'no'\n"

    @pytest.mark.parametrize("image, message", [
        ({"id": "a", "width": 10, "height": 10, "objects": [{"bbox": [0, 0, 5], "class_id": 1}]},
         "image 'a': bbox: expected 4 numbers per box, got shape (1, 3)"),
        ({"id": "a", "width": 10, "height": 10, "objects": 5}, "image 'a': 'int' object is not iterable"),
        ({"width": 10, "height": 10, "objects": []}, "missing field 'id'"),
        (5, "'int' object is not subscriptable"),
        ({"id": "a", "width": 10, "height": 10, "objects": [{"bbox": [5, 0, 0, 5], "class_id": 1}]},
         "image 'a': inverted box: (5.0, 0.0, 0.0, 5.0)"),
    ])
    def test_eval_gt_malformed_structure(self, tmp_path, capsys, image, message):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({"classes": ["c"], "images": [image]}))
        preds = tmp_path / "preds.jsonl"
        preds.write_text("")
        err = self.error(capsys, ["eval", "--gt", str(gt), "--predictions", str(preds),
                                  "--out", str(tmp_path / "eval.csv")])
        assert err == f"error: {gt}: {message}\n"

    @pytest.mark.parametrize("change, message", [
        ({"pseudo": {"b": 5}}, "'int' object is not iterable"),
        ({"labeled": 5}, "'int' object is not iterable"),
        ({"labeled": None}, "missing field 'labeled'"),
        ({"pseudo": []}, "'list' object has no attribute 'items'"),
    ])
    def test_select_pool_malformed_structure(self, tmp_path, capsys, change, message):
        scores = tmp_path / "scores.csv"
        formats.write_scores_csv(AcquisitionScores(["a"], [0.1], [0.2]), scores)
        state = {"cycle": 0, "labeled": [], "unlabeled": ["a", "b"], "pseudo": {}}
        state.update(change)
        pool = tmp_path / "pool.json"
        pool.write_text(json.dumps({k: v for k, v in state.items() if v is not None}))
        err = self.error(capsys, ["select", "--scores", str(scores), "--budget", "1",
                                  "--out", str(tmp_path / "sel.txt"), "--pool", str(pool)])
        assert err == f"error: {pool}: {message}\n"


class TestIntegerCoordinates:
    """Corner boxes are float64 rows, so an integer coordinate read from a
    predictions JSONL, or a box clamped to an integer image width, is written
    back into the pseudo-label JSONL as a float."""

    def test_written_as_floats(self, tmp_path):
        data = tmp_path / "gt.json"
        data.write_text(json.dumps({"classes": ["c"], "images": [
            {"id": "a", "width": 100, "height": 100, "objects": []}]}))
        preds = tmp_path / "preds.jsonl"
        dets = [{"bbox": [10, 10, 50, 50], "encoded": [0, 0, 1, 1], "probs": [0.005, 0.995]},
                {"bbox": [60, 10, 120, 50], "encoded": [0, 0, 1, 1], "probs": [0.002, 0.998]}]
        preds.write_text(json.dumps({"image_id": "a", "flipped": False, "detections": dets}) + "\n")
        out = tmp_path / "pl.jsonl"
        assert main(["pseudolabel", "--dataset", str(data), "--predictions", str(preds),
                     "--out", str(out)]) == 0
        boxes = [json.loads(line)["bbox"] for line in out.read_text().splitlines()]
        assert boxes == [[60.0, 10.0, 100.0, 50.0], [10.0, 10.0, 50.0, 50.0]]
        assert '"bbox": [60.0, 10.0, 100.0, 50.0]' in out.read_text()
        assert '"bbox": [10.0, 10.0, 50.0, 50.0]' in out.read_text()


class TestProbabilityLength:
    """score, pseudolabel and eval reject probability vectors without K+1 entries."""

    @pytest.fixture()
    def k5(self, tmp_path):
        data = make_synthetic_dataset(2, 5, seed=3)
        formats.save_dataset(data, tmp_path / "gt.json")
        return tmp_path, data

    @staticmethod
    def write_preds(path, data, n_original, n_flipped):
        # one confident class-1 detection per view, with the given vector lengths
        records = []
        for img in data.images:
            box = img.boxes[:1]
            for flipped, n in ((False, n_original), (True, n_flipped)):
                probs = np.full(n, 0.05 / (n - 1))
                probs[1] = 0.95
                det = Detections(box, [probs])
                records.append(one_image(img.image_id, img.width, img.height, det, flipped))
        formats.write_predictions_jsonl(records, path)

    def run(self, k5, capsys, command, n_original, n_flipped):
        tmp_path, data = k5
        preds = tmp_path / "preds.jsonl"
        self.write_preds(preds, data, n_original, n_flipped)
        out = tmp_path / "out"
        data_flag = "--gt" if command == "eval" else "--dataset"
        rc = main([command, data_flag, str(tmp_path / "gt.json"), "--predictions", str(preds),
                   "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        return capsys.readouterr().err, data.image_ids[0]

    def test_score(self, k5, capsys):
        err, first = self.run(k5, capsys, "score", 6, 3)
        assert f"flipped record for image {first!r}: 3 probabilities, expected 6" in err

    def test_pseudolabel(self, k5, capsys):
        err, first = self.run(k5, capsys, "pseudolabel", 3, 6)
        assert f"original record for image {first!r}: 3 probabilities, expected 6" in err

    def test_eval(self, k5, capsys):
        err, first = self.run(k5, capsys, "eval", 3, 3)
        assert f"original record for image {first!r}: 3 probabilities, expected 6" in err

    def test_matching_length_accepted(self, k5, capsys):
        tmp_path, data = k5
        self.write_preds(tmp_path / "preds.jsonl", data, 6, 6)
        out = tmp_path / "eval.csv"
        assert main(["eval", "--gt", str(tmp_path / "gt.json"),
                     "--predictions", str(tmp_path / "preds.jsonl"), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert set(formats.read_eval_csv(out).n_gt) == {1, 2, 3, 4, 5}


class TestWinrateCommand:
    def test_matrix_output(self, tmp_path):
        from aldet.evaluation import EvalResult

        a = EvalResult({1: 0.9, 2: 0.2}, {1: 5, 2: 5})
        b = EvalResult({1: 0.5, 2: 0.5}, {1: 5, 2: 5})
        formats.write_eval_csv(a, tmp_path / "a.csv")
        formats.write_eval_csv(b, tmp_path / "b.csv")
        out = tmp_path / "win.csv"
        rc = main(["winrate", f"ours={tmp_path / 'a.csv'}", f"base={tmp_path / 'b.csv'}",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,ours,base"
        assert lines[1] == "ours,,0.500000"
        assert lines[2] == "base,0.500000,"

    def winrate(self, tmp_path, *methods):
        for name in ("a", "b", "c"):
            formats.write_eval_csv(EvalResult({1: 0.5}, {1: 5}), tmp_path / f"{name}.csv")
        out = tmp_path / "win.csv"
        rc = main(["winrate", *(m.format(d=tmp_path) for m in methods), "--out", str(out)])
        return rc, out

    def test_repeated_method_name_rejected(self, tmp_path, capsys):
        # several runs of one method go comma-joined in one argument
        rc, out = self.winrate(tmp_path, "x={d}/a.csv", "x={d}/c.csv", "y={d}/b.csv")
        assert rc == 1
        assert "duplicate method name 'x'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["", "p,q", "p\rq", "p\nq"])
    def test_bad_method_name_rejected(self, tmp_path, capsys, name):
        rc, out = self.winrate(tmp_path, name + "={d}/a.csv", "y={d}/b.csv")
        assert rc == 1
        assert f"method name must be non-empty, without commas or line breaks, got {name!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_comma_joined_runs_of_one_method(self, tmp_path):
        rc, out = self.winrate(tmp_path, "x={d}/a.csv,{d}/c.csv", "y={d}/b.csv")
        assert rc == 0
        assert out.read_text().splitlines()[0] == "method,x,y"


def write_sim_config(tmp_path, train_path, test_path, out_dir, **extra):
    values = {
        "dataset": train_path,
        "test_dataset": test_path,
        "output_dir": out_dir,
        "initial_budget": 5,
        "cycles": 2,
        "budget_per_cycle": 3,
        "strategy": "unified",
        "tau": 0.9,
        "seed": 0,
        "detector_seed": 1,
        "detector_temperature": 0.1,
        "detector_skill_gain": 0.01,
    }
    values.update(extra)
    path = tmp_path / "sim.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


class TestSimulateCommand:
    def test_artifacts_and_determinism(self, workspace):
        tmp_path, train, test, _det, _preds = workspace
        cfg = write_sim_config(
            tmp_path, tmp_path / "train.json", tmp_path / "test.json", tmp_path / "run1"
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        run1 = tmp_path / "run1"
        report = (run1 / "report.csv").read_text().splitlines()
        assert report[0] == "cycle,n_labeled,n_pl,pl_ratio,pl_correctness,map50,selected_file"
        assert len(report) == 4  # header + cycles 0..2
        assert (run1 / "selected_cycle1.txt").exists()
        assert (run1 / "scores_cycle2.csv").exists()
        assert (run1 / "eval_cycle0.csv").exists()
        assert (run1 / "pseudo_cycle1.jsonl").exists()

        assert main(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path / "run2")]) == 0
        for name in ("report.csv", "scores_cycle1.csv", "selected_cycle2.txt"):
            assert (run1 / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()

    @pytest.mark.parametrize("flag", ["--detector-accuracy", "--detector-flip-robustness"])
    def test_nan_detector_setting_rejected(self, workspace, capsys, flag):
        tmp_path, *_ = workspace
        cfg = write_sim_config(tmp_path, tmp_path / "train.json", tmp_path / "test.json", tmp_path / "nan")
        assert main(["simulate", "--config", str(cfg), flag, "nan"]) == 1
        assert "values must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "nan" / "report.csv").exists()

    def test_infeasible_budget_fails_before_any_cycle(self, tmp_path, capsys):
        # 40 train images, 8 labeled at the start: two cycles of 20 need 40 of
        # the 32 unlabeled. The run once wrote cycles 0 and 1 before failing.
        train, test, out = tmp_path / "train.json", tmp_path / "test.json", tmp_path / "out"
        formats.save_dataset(make_synthetic_dataset(40, 3, seed=0, id_prefix="tr"), train)
        formats.save_dataset(make_synthetic_dataset(10, 3, seed=1, id_prefix="te"), test)
        cfg = write_sim_config(tmp_path, train, test, out, initial_budget=8, cycles=2, budget_per_cycle=20)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: budget exceeds pool: 2 cycles of 20 images > 32 unlabeled images\n"
        assert not out.exists()

    def test_shared_image_ids_named(self, tmp_path, capsys):
        train, test = tmp_path / "train.json", tmp_path / "test.json"
        formats.save_dataset(make_synthetic_dataset(6, 2, seed=0, id_prefix="x"), train)
        formats.save_dataset(make_synthetic_dataset(3, 2, seed=1, id_prefix="x"), test)
        cfg = write_sim_config(tmp_path, train, test, tmp_path / "out")
        assert main(["simulate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{train} and {test} share image ids: ['x_0000', 'x_0001', 'x_0002']" in err

    @pytest.mark.parametrize("bad_id, where", [("a,b", "a scores CSV"), (" a", "a scores CSV"),
                                               ("a\rb", "a selection file")])
    def test_id_the_outputs_cannot_hold_stops_the_run_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                                      bad_id, where):
        # The scores and selection files hold ids unquoted, one row per line:
        # a training id they cannot hold is named before anything is
        # predicted or written, not after cycle 0 has written its files.
        base = make_synthetic_dataset(30, 3, seed=0, id_prefix="tr")
        first = base.images[7]
        renamed = ImageRecord(bad_id, first.width, first.height, first.boxes, first.class_ids)
        train, test, out = tmp_path / "train.json", tmp_path / "test.json", tmp_path / "out"
        formats.save_dataset(dataset_of(base.classes, base.images[:7] + (renamed,) + base.images[8:]), train)
        formats.save_dataset(make_synthetic_dataset(5, 3, seed=1, id_prefix="te"), test)
        predicted = []
        monkeypatch.setattr(SyntheticDetector, "predict", lambda self, ids, flipped=False: predicted.append(ids))
        assert main(["simulate", "--config", str(write_sim_config(tmp_path, train, test, out))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: image_id {bad_id!r} cannot be written to {where}") and err.count("\n") == 1
        assert predicted == []
        assert not out.exists()

    def test_seed_changes_selections(self, workspace):
        tmp_path, *_ = workspace
        cfg = write_sim_config(
            tmp_path, tmp_path / "train.json", tmp_path / "test.json", tmp_path / "runA"
        )
        main(["simulate", "--config", str(cfg)])
        main(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path / "runB"),
              "--seed", "9", "--detector-seed", "9"])
        a = (tmp_path / "runA" / "selected_cycle1.txt").read_text()
        b = (tmp_path / "runB" / "selected_cycle1.txt").read_text()
        assert a != b

    def test_strategy_sweep(self, workspace):
        tmp_path, *_ = workspace
        for strategy in ("random", "entropy", "inconsistency", "unified"):
            out = tmp_path / f"sweep_{strategy}"
            cfg = write_sim_config(
                tmp_path, tmp_path / "train.json", tmp_path / "test.json", out,
                strategy=strategy, cycles=1,
            )
            assert main(["simulate", "--config", str(cfg)]) == 0
            assert (out / "report.csv").exists()


    @staticmethod
    def cycle_files(t):
        """The files simulate writes for cycle ``t``, in the order it writes them."""
        scored = [f"scores_cycle{t}.csv", f"selected_cycle{t}.txt"] if t else []
        return scored + [f"pseudo_cycle{t}.jsonl", f"eval_cycle{t}.csv"]

    def test_each_cycle_is_written_before_the_next_cycle_predicts(self, workspace, monkeypatch):
        # The detector of version v predicts every view it predicts in cycle
        # v - 1: the test set's originals, then each pool chunk's original
        # view and its flipped view (the pass that pseudo-labels the pool and
        # scores it for cycle v). Whenever it predicts, the files of every
        # earlier cycle exist and no other; report.csv is written last.
        tmp_path, *_ = workspace
        out = tmp_path / "run"
        cfg = write_sim_config(tmp_path, tmp_path / "train.json", tmp_path / "test.json", out, cycles=3)
        predict, write_pieces, seen, written = SyntheticDetector.predict, formats._write_pieces, [], []

        def spy(self, image_ids, flipped=False):
            seen.append((self.version - 1, {p.name for p in out.glob("*")}))
            return predict(self, image_ids, flipped)

        def logged(path, pieces):
            written.append(Path(path).name)
            write_pieces(path, pieces)

        monkeypatch.setattr(SyntheticDetector, "predict", spy)
        monkeypatch.setattr(formats, "_write_pieces", logged)
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert sorted({cycle for cycle, _ in seen}) == [0, 1, 2, 3]
        for cycle, files in seen:
            assert files == {name for t in range(cycle) for name in self.cycle_files(t)}, cycle
        assert written == [name for t in range(4) for name in self.cycle_files(t)] + ["report.csv"]

    def test_holds_one_cycle_of_pseudo_labels_and_scores(self, workspace, monkeypatch):
        # Whenever the detector predicts, at most one non-empty pseudo-label
        # set made by this run is alive: each cycle's set is written and let
        # go once the next cycle has replaced it in the pool. When version v
        # starts scoring the pool for cycle v (its first flipped call, in
        # cycle v - 1), the only scores alive are the ones cycle v - 1
        # selected by, which its report is still to carry: none of an
        # earlier cycle, and none of cycle v yet: the rows of the live score
        # sets number exactly the images cycle v - 1 scored.
        tmp_path, *_ = workspace
        out = tmp_path / "run"
        cfg = write_sim_config(tmp_path, tmp_path / "train.json", tmp_path / "test.json", out, cycles=4)
        earlier = [o for o in gc.get_objects() if isinstance(o, (PseudoLabels, AcquisitionScores))]
        earlier_ids = {id(o) for o in earlier}  # the objects are kept alive, so their ids stay unique
        predict, live = SyntheticDetector.predict, []

        def spy(self, image_ids, flipped=False):
            gc.collect()
            made = [o for o in gc.get_objects()
                    if isinstance(o, (PseudoLabels, AcquisitionScores)) and id(o) not in earlier_ids]
            live.append((self.version, flipped, sum(isinstance(o, PseudoLabels) and len(o) > 0 for o in made),
                         sum(len(o) for o in made if isinstance(o, AcquisitionScores))))
            return predict(self, image_ids, flipped)

        monkeypatch.setattr(SyntheticDetector, "predict", spy)
        assert main(["simulate", "--config", str(cfg)]) == 0
        report = (out / "report.csv").read_text().splitlines()[1:]
        assert len(report) == 5 and all(int(row.split(",")[2]) > 0 for row in report), report
        assert max(n_sets for *_, n_sets, _ in live) == 1
        first_flipped = {}
        for version, flipped, _, n_scores in live:
            if flipped:
                first_flipped.setdefault(version, n_scores)
        scored = [len((out / f"scores_cycle{t}.csv").read_text().splitlines()) - 1 if t else 0 for t in range(4)]
        assert 0 not in scored[1:]
        assert first_flipped == {v: scored[v - 1] for v in range(1, 5)}


# Run in a fresh interpreter as ``-c PROBE OUT ARGS...``: simulate into
# OUT_threshold and OUT_topk, then print the exit codes and whether numpy.ma
# was loaded before and after.
NUMPY_MA_PROBE = """
import sys
import aldet.cli
before = "numpy.ma" in sys.modules
out, args = sys.argv[1], sys.argv[2:]
rcs = [aldet.cli.main(args + ["--pl-strategy", s, "--output-dir", f"{out}_{s}"]) for s in ("threshold", "topk")]
print(rcs, before, "numpy.ma" in sys.modules)
"""


def test_pseudo_labelling_simulate_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique, and np.isin with a selection this large, import numpy.ma on
    # first use, which raises the peak memory of every run; the pool's
    # pseudo-labels get by without them.
    train, test = tmp_path / "train.json", tmp_path / "test.json"
    formats.save_dataset(make_synthetic_dataset(60, 3, seed=0, id_prefix="tr"), train)
    formats.save_dataset(make_synthetic_dataset(10, 3, seed=1, id_prefix="te"), test)
    cfg = write_sim_config(tmp_path, train, test, tmp_path / "unused", budget_per_cycle=25,
                           detector_skill_gain_pl=0.01)
    src = str(Path(aldet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE, str(tmp_path / "run"), "simulate",
                             "--config", str(cfg)], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() in ("[0, 0] False False", "[0, 0] True True"), result.stdout + result.stderr
    for strategy in ("threshold", "topk"):
        report = (tmp_path / f"run_{strategy}" / "report.csv").read_text().splitlines()[1:]
        assert all(int(row.split(",")[2]) > 0 for row in report), report  # every cycle pseudo-labelled
