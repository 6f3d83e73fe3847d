"""Self-tests of the benchmark: deterministic inputs, checks that catch bad
outputs, and a traced command that reports its layers.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from aldet import cli, formats  # noqa: E402


def test_generator_is_deterministic_per_seed(tmp_path):
    a = inputs.make_dataset(3, 30, "img")
    assert a == inputs.make_dataset(3, 30, "img")
    assert a != inputs.make_dataset(4, 30, "img")
    sizes = []
    for name in ("p1.jsonl", "p2.jsonl"):
        sizes.append(inputs.write_predictions(3, a, tmp_path / name))
    assert (tmp_path / "p1.jsonl").read_bytes() == (tmp_path / "p2.jsonl").read_bytes()
    assert sizes[0] == (tmp_path / "p1.jsonl").stat().st_size
    inputs.write_predictions(4, a, tmp_path / "p3.jsonl")
    assert (tmp_path / "p3.jsonl").read_bytes() != (tmp_path / "p1.jsonl").read_bytes()


def test_generated_files_parse_in_the_documented_formats(tmp_path):
    data = inputs.make_dataset(5, 25, "img")
    inputs.write_dataset(data, tmp_path / "d.json")
    inputs.write_predictions(5, data, tmp_path / "p.jsonl")
    dataset = formats.load_dataset(tmp_path / "d.json")
    assert dataset.n_classes == inputs.N_CLASSES and len(dataset) == 25
    sizes = {img.image_id: (img.width, img.height) for img in dataset.images}
    preds = formats.read_predictions_jsonl(tmp_path / "p.jsonl", sizes)
    assert set(preds) == {(i, f) for i in sizes for f in (False, True)}
    # every object is drawn 2-4 times, so the files carry overlaps for NMS
    assert all(len(p.detections) >= 2 for p in preds.values())


@pytest.fixture()
def cli_outputs(tmp_path):
    data = inputs.make_dataset(2, 40, "img")
    inputs.write_dataset(data, tmp_path / "d.json")
    inputs.write_predictions(2, data, tmp_path / "p.jsonl")
    out = tmp_path / "out"
    out.mkdir()
    d, p = str(tmp_path / "d.json"), str(tmp_path / "p.jsonl")
    for argv in (
        ["score", "--dataset", d, "--predictions", p, "--out", str(out / "scores.csv"),
         "--budget-per-cycle", "0"],
        ["select", "--scores", str(out / "scores.csv"), "--budget", "5",
         "--out", str(out / "selected.txt")],
        ["pseudolabel", "--dataset", d, "--predictions", p, "--out", str(out / "pseudo.jsonl"),
         "--budget-per-cycle", "0", "--pl-strategy", "topk"],
        ["eval", "--gt", d, "--predictions", p, "--out", str(out / "eval.csv")],
    ):
        assert cli.main(argv) == 0
    return out, {img["id"] for img in data["images"]}


def test_checker_accepts_real_cli_outputs(cli_outputs):
    out, ids = cli_outputs
    assert checks.check_cli_files(out, 5, ids, inputs.N_CLASSES) == []
    assert checks.check_reference(out, checks.digest(out)) == []


def test_checker_flags_corrupted_cli_outputs(cli_outputs):
    out, ids = cli_outputs
    reference = checks.digest(out)

    sel = out / "selected.txt"
    first = sel.read_text().splitlines()[0]
    sel.write_text(sel.read_text() + first + "\n")
    assert checks.check_cli_files(out, 5, ids, inputs.N_CLASSES)
    assert checks.check_reference(out, reference) == ["selected.txt: digest differs from reference"]

    ev = out / "eval.csv"
    lines = ev.read_text().splitlines()
    lines[-1] = "mAP,0.999999," + lines[-1].split(",")[2]
    ev.write_text("\n".join(lines) + "\n")
    assert any("mAP" in p for p in checks.check_eval_csv(ev))

    (out / "pseudo.jsonl").write_text("not json\n")
    assert checks.check_pseudo_jsonl(out / "pseudo.jsonl", ids, inputs.N_CLASSES)


def test_checker_flags_a_truncated_simulate_report(tmp_path):
    train, test = inputs.make_dataset(3, 60, "tr"), inputs.make_dataset(3, 20, "te")
    inputs.write_dataset(train, tmp_path / "tr.json")
    inputs.write_dataset(test, tmp_path / "te.json")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--dataset", str(tmp_path / "tr.json"),
                     "--test-dataset", str(tmp_path / "te.json"), "--output-dir", str(out),
                     "--initial-budget", "10", "--cycles", "2", "--budget-per-cycle", "5",
                     "--detector-temperature", "0.1"]) == 0
    ids = {img["id"] for img in train["images"]}
    assert checks.check_simulate(out, 2, 5, ids, expect_pseudo=True) == []
    report = out / "report.csv"
    report.write_text("".join(report.read_text().splitlines(keepends=True)[:-1]))
    assert checks.check_simulate(out, 2, 5, ids, expect_pseudo=True) == [
        "report.csv: 2 rows, expected 3"]


def test_probe_does_fixed_work():
    assert probe.kernel(300) == probe.kernel(300)
    assert run.scale_times({"a.self_s": 2.0, "a.calls": 3}, 0.5) == {"a.self_s": 1.0, "a.calls": 3}


def test_missing_hook_is_reported_absent_not_fatal():
    t = tracer.Tracer()
    assert t._hook("gone", "no_such_module", "f", None) is False
    assert t._hook("gone", "boxes", "no_such_function", None) is False
    assert t._hook("gone", "sim_detector", "NoSuchClass.predict", None) is False


def test_benchmark_metric_names_are_produced_by_the_tracer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = [name for name, *_ in tracer.HOOKS] + ["formats.write"]
    produced = {f"{layer}.{stat}" for layer in layers for stat in ("calls", "self_s")}
    produced |= set(run.layer_values({"layers": {}, "counts": dict.fromkeys(tracer.COUNTERS, 0)}))
    produced |= {"trace_overhead_frac", "score_s", "pseudolabel_s", "eval_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "peak_rss_mb", "setup_s"}


def test_traced_child_reports_self_time_per_layer(tmp_path):
    train, test = inputs.make_dataset(4, 40, "tr"), inputs.make_dataset(4, 15, "te")
    inputs.write_dataset(train, tmp_path / "tr.json")
    inputs.write_dataset(test, tmp_path / "te.json")
    request = {
        "src": str(ROOT / "src"), "trace": True, "spans_out": str(tmp_path / "spans.jsonl"),
        "argv": ["simulate", "--dataset", str(tmp_path / "tr.json"),
                 "--test-dataset", str(tmp_path / "te.json"), "--output-dir", str(tmp_path / "o"),
                 "--initial-budget", "10", "--cycles", "1", "--budget-per-cycle", "5",
                 "--detector-temperature", "0.1", "--detector-fp-rate", "2"],
    }
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "run", json.dumps(request)],
                          capture_output=True, text=True, timeout=120, env=run.child_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    summary = result["trace"]
    assert summary["absent"] == [] and summary["broken_counters"] == []
    for layer in ("cli", "sim_detector.predict", "boxes.nms", "acquisition.unified_score",
                  "pseudo_label.audit_pl_correctness", "evaluation.map50", "pool.run_cycles"):
        assert summary["layers"][layer]["self_s"] > 0, layer
    assert summary["counts"]["pseudo_label.labels"] > 0
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(spans) == sum(v["calls"] for v in summary["layers"].values())
