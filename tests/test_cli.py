"""End-to-end command-line behavior, file contracts, and determinism."""

import json
from dataclasses import fields

import numpy as np
import pytest

from aldet import formats
from aldet.acquisition import AcquisitionConfig, unified_score
from aldet.boxes import ClassDist, Detection, ImagePrediction, encode_box, image_anchor
from aldet.cli import CONFIG_DEFAULTS, ConfigError, ExperimentConfig, build_config, build_parser, main
from aldet.dataset import Dataset, make_synthetic_dataset
from aldet.pool import init_pool
from aldet.sim_detector import SyntheticDetector, SyntheticDetectorConfig


@pytest.fixture()
def workspace(tmp_path):
    train = make_synthetic_dataset(20, 3, seed=0, id_prefix="tr")
    test = make_synthetic_dataset(10, 3, seed=1, id_prefix="te")
    train_path = tmp_path / "train.json"
    test_path = tmp_path / "test.json"
    formats.save_dataset(train, train_path)
    formats.save_dataset(test, test_path)

    world = Dataset(train.classes, train.images + test.images)
    det = SyntheticDetector(
        SyntheticDetectorConfig(n_classes=3, temperature=0.1, seed=2), world
    )
    preds_path = tmp_path / "preds.jsonl"
    records = []
    for image_id in train.image_ids:
        records.append((det.predict(image_id), False))
        records.append((det.predict(image_id, True), True))
    formats.write_predictions_jsonl(records, preds_path)
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

    def test_total_budget_division(self, tmp_path):
        built = build_config(None, {"total_budget": "5000", "cycles": "5"})
        assert built.budget_per_cycle == 1000
        with pytest.raises(ConfigError, match="divisible"):
            build_config(None, {"total_budget": "5001", "cycles": "5"})

    def test_budget_required(self, workspace, capsys):
        # only simulate consumes a budget, so only simulate demands one
        tmp_path, *_ = workspace
        with pytest.raises(ConfigError, match="budget"):
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
        assert len(keys) == 29
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

        scores = {s.image_id: s for s in formats.read_scores_csv(out1)}
        assert len(scores) == len(train.image_ids)
        cfg = AcquisitionConfig()
        for image_id in train.image_ids[:5]:
            expected = unified_score(det.predict(image_id), det.predict(image_id, True), cfg)
            got = scores[image_id]
            assert got.entropy == pytest.approx(expected.entropy, abs=5e-7)
            assert got.inconsistency == pytest.approx(expected.inconsistency, abs=5e-7)

    def test_no_budget_needed(self, workspace):
        tmp_path, train, _test, _det, preds_path = workspace
        out = tmp_path / "s.csv"
        assert main(["score", "--dataset", str(tmp_path / "train.json"),
                     "--predictions", str(preds_path), "--out", str(out)]) == 0
        assert len(formats.read_scores_csv(out)) == len(train.image_ids)

    def test_missing_flipped_record_names_image(self, workspace, capsys):
        tmp_path, train, _test, det, _ = workspace
        partial = tmp_path / "partial.jsonl"
        formats.write_predictions_jsonl([(det.predict(train.image_ids[0]), False)], partial)
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
        unlabeled_scores = [s for s in formats.read_scores_csv(scores_csv) if s.image_id in pool.unlabeled]
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
        pls = formats.read_pseudo_labels_jsonl(out)
        assert pls, "expected some pseudo-labels at tau=0.9 with a cold detector"
        assert all(pl.confidence >= 0.9 for pl in pls)
        assert all(pl.class_id >= 1 for pl in pls)


class TestEvalCommand:
    def test_perfect_and_empty(self, tmp_path):
        data = make_synthetic_dataset(6, 2, seed=3)
        gt_path = tmp_path / "gt.json"
        formats.save_dataset(data, gt_path)

        # perfect predictions: exact GT boxes, confident correct classes
        det = SyntheticDetector(
            SyntheticDetectorConfig(
                n_classes=2, accuracy=1.0, temperature=0.05, logit_noise=0.0, box_noise=0.0, seed=0
            ),
            data,
        )
        records = [(det.predict(i), False) for i in data.image_ids]
        preds_path = tmp_path / "perfect.jsonl"
        formats.write_predictions_jsonl(records, preds_path)
        out = tmp_path / "eval.csv"
        assert main(["eval", "--gt", str(gt_path), "--predictions", str(preds_path),
                     "--out", str(out)]) == 0
        result = formats.read_eval_csv(out)
        assert result.map50 == 1.0

        empty_path = tmp_path / "empty.jsonl"
        formats.write_predictions_jsonl(
            [(det.predict(i).with_detections(()), False) for i in data.image_ids], empty_path
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
            box = img.objects[0].box_corner
            for flipped, n in ((False, n_original), (True, n_flipped)):
                probs = np.full(n, 0.05 / (n - 1))
                probs[1] = 0.95
                anchor = image_anchor(img.width, img.height)
                det = Detection(box, encode_box(box, anchor), ClassDist(probs))
                pred = ImagePrediction(img.image_id, img.width, img.height, (det,))
                records.append((pred, flipped))
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


class TestLossCheckCommand:
    def test_prints_terms(self, tmp_path, capsys):
        fixture = {
            "dists": [[0.0, 1.0], [1.0, 0.0]],
            "assignment": {"positives": [[0, 0, 1]], "negatives": [1], "pl_positives": []},
            "loc_pred": [[0.5, 0.0, 1.0, 1.0]],
            "loc_target": [[0.0, 0.0, 1.0, 1.0]],
            "loc_positives": [0],
            "pairs": [
                {
                    "orig_probs": [0.5, 0.5],
                    "flip_probs": [0.5, 0.5],
                    "orig_encoded": [0.1, 0.0, 1.0, 1.0],
                    "flip_encoded": [-0.1, 0.0, 1.0, 1.0],
                }
            ],
        }
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(fixture))
        assert main(["loss-check", "--fixture", str(path)]) == 0
        out = capsys.readouterr().out
        assert "conf_loss=0.000000" in out
        assert "smooth_l1=0.125000" in out
        assert "consistency_class=0.000000" in out
        assert "consistency_loc=0.000000" in out
        assert "total=0.125000" in out


class TestWinrateCommand:
    def test_matrix_output(self, tmp_path):
        from aldet.evaluation import EvalResult

        a = EvalResult.from_per_class({1: 0.9, 2: 0.2}, {1: 5, 2: 5})
        b = EvalResult.from_per_class({1: 0.5, 2: 0.5}, {1: 5, 2: 5})
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
