"""aldet benchmark: end-to-end times with tracing off, per-layer times from a traced run.

    python3 bench/run.py --workload sim-pl --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and nothing needs to be installed. Inputs are generated from
``--seed`` into ``bench/work/<workload>/``. Operations then run one after
another until ``--seconds`` have passed, each command in its own fresh
interpreter and never two at a time, with a set-up sample before and a
host-speed probe after each; reported times are scaled by the probes (see
probe.py). Every operation's outputs are checked. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``). The lines before it print every
metric with its unit, and the run metadata.

``--record-reference`` stores the output digests of this run as the
reference for a named seed; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import checks
import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
CHILD = BENCH_DIR / "child.py"

DEFAULT_SEED = 1
HELDOUT_SEED = 7
NAMED_SEEDS = (DEFAULT_SEED, HELDOUT_SEED)

MIN_OPS = 3  # untraced operations per run, whatever --seconds says
# Reported times are scaled to a host on which the probe takes this long;
# see probe.py and README.md.
PROBE_NOMINAL_S = 0.3
NO_NEW_OP_AFTER_S = 110.0  # keeps a slow commit inside the 180 s limit
CHILD_DEADLINE_S = 165.0

# Sizes are scaled so one operation takes a few seconds and a run holds
# several of them; see README.md for the full-size figures and why.
WORKLOADS = {
    "sim-pl": {
        "kind": "simulate", "train": 1000, "test": 200, "initial": 100, "cycles": 2,
        "budget": 100, "pseudo": True,
        "flags": ["--detector-fp-rate", "2", "--detector-temperature", "0.1",
                  "--tau", "0.99", "--pl-enabled", "true", "--pl-strategy", "threshold"],
    },
    "sim-scan": {
        "kind": "simulate", "train": 2500, "test": 100, "initial": 100, "cycles": 1,
        "budget": 200, "pseudo": False,
        "flags": ["--detector-fp-rate", "4", "--pl-enabled", "false"],
    },
    "cli-files": {"kind": "cli", "images": 1000, "budget": 100},
}

# Child environment: one BLAS/OpenMP thread, fixed hashing, program from src/.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


class Workload:
    """Generated inputs plus the commands of one operation and its checks."""

    def __init__(self, name: str, seed: int, work: Path):
        self.seed, self.spec = seed, WORKLOADS[name]
        spec = self.spec
        if spec["kind"] == "simulate":
            train = inputs.make_dataset(seed, spec["train"], "tr")
            test = inputs.make_dataset(seed, spec["test"], "te")
            self.train_path, self.test_path = work / "train.json", work / "test.json"
            inputs.write_dataset(train, self.train_path)
            inputs.write_dataset(test, self.test_path)
            self.image_ids = {img["id"] for img in train["images"]}
            self.datasets = [self.train_path, self.test_path]
        else:
            data = inputs.make_dataset(seed, spec["images"], "img")
            self.data_path, self.pred_path = work / "dataset.json", work / "predictions.jsonl"
            inputs.write_dataset(data, self.data_path)
            inputs.write_predictions(seed, data, self.pred_path)
            self.image_ids = {img["id"] for img in data["images"]}
            self.datasets = [self.data_path]

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        spec, seed = self.spec, str(self.seed)
        if spec["kind"] == "simulate":
            return [("simulate", [
                "simulate", "--dataset", str(self.train_path), "--test-dataset", str(self.test_path),
                "--output-dir", str(out), "--initial-budget", str(spec["initial"]),
                "--cycles", str(spec["cycles"]), "--budget-per-cycle", str(spec["budget"]),
                "--seed", seed, "--detector-seed", seed, *spec["flags"]])]
        data, preds = str(self.data_path), str(self.pred_path)
        # score and pseudolabel demand a budget they never use.
        return [
            ("score", ["score", "--dataset", data, "--predictions", preds,
                       "--out", str(out / "scores.csv"), "--budget-per-cycle", "0"]),
            ("select", ["select", "--scores", str(out / "scores.csv"),
                        "--budget", str(spec["budget"]), "--out", str(out / "selected.txt")]),
            ("pseudolabel", ["pseudolabel", "--dataset", data, "--predictions", preds,
                             "--out", str(out / "pseudo.jsonl"), "--budget-per-cycle", "0",
                             "--pl-strategy", "topk"]),
            ("eval", ["eval", "--gt", data, "--predictions", preds, "--out", str(out / "eval.csv")]),
        ]

    def check(self, out: Path, reference: dict | None) -> list[str]:
        spec = self.spec
        try:
            if spec["kind"] == "simulate":
                problems = checks.check_simulate(out, spec["cycles"], spec["budget"],
                                                 self.image_ids, spec["pseudo"])
            else:
                problems = checks.check_cli_files(out, spec["budget"], self.image_ids,
                                                  inputs.N_CLASSES)
        except (ValueError, KeyError, IndexError, OSError) as e:
            problems = [f"unparseable output: {e}"]
        return problems + checks.check_reference(out, reference)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn_timed(cmd: list[str], env: dict, timeout: float) -> float:
    """Seconds from spawn to exit. A blocking wait4 sees the exit at once;
    subprocess's own timed wait polls and would round the time to 50 ms."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, _ = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return elapsed


def run_probe(env: dict) -> float:
    proc = subprocess.run([sys.executable, str(CHILD), "probe"], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(proc.stdout.split()[-1])


def run_op(wl: Workload, out: Path, trace: bool, env: dict, started: float) -> dict:
    """Run the operation's commands in turn; stop at the first failure."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    op = {"ok": True, "walls": {}, "maxrss_kb": 0, "traces": [], "error": ""}
    for label, argv in wl.commands(out):
        request = {"src": str(SRC), "argv": argv, "trace": trace,
                   "spans_out": str(out.parent / f"spans-{label}.jsonl") if trace else None}
        timeout = max(5.0, CHILD_DEADLINE_S - (perf_counter() - started))
        try:
            proc = subprocess.run([sys.executable, str(CHILD), "run", json.dumps(request)],
                                  env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            op.update(ok=False, error=f"{label}: timed out")
            return op
        result = None
        if proc.returncode == 0 and proc.stdout.strip():
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result is None or result["rc"] != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            op.update(ok=False, error=f"{label}: exit {proc.returncode}: {tail[0]}")
            return op
        op["walls"][label] = result["wall_s"]
        op["maxrss_kb"] = max(op["maxrss_kb"], result["maxrss_kb"])
        if trace:
            op["traces"].append(result["trace"])
    op["wall_s"] = sum(op["walls"].values())
    return op


def merge_traces(traces: list[dict]) -> dict:
    """Sum one operation's per-command trace summaries."""
    layers: dict[str, dict] = {}
    counts: dict[str, float] = {}
    absent: set[str] = set()
    broken: set[str] = set()
    for t in traces:
        for name, entry in t["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"]
        for name, value in t["counts"].items():
            counts[name] = counts.get(name, 0) + value
        absent |= set(t["absent"])
        broken |= set(t["broken_counters"])
    return {"layers": layers, "counts": counts, "absent": sorted(absent), "broken": sorted(broken)}


def layer_values(trace: dict) -> dict[str, float]:
    """Flatten a merged trace into the per-layer metric names."""
    values: dict[str, float] = {}
    for name, entry in trace["layers"].items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
    c = trace["counts"]
    values.update({k: v for k, v in c.items() if not k.startswith(("boxes.nms.", "matching."))})
    values["boxes.nms.kept_frac"] = c["boxes.nms.out"] / c["boxes.nms.in"] if c.get("boxes.nms.in") else 0.0
    possible = c.get("matching.match_predictions.possible")
    values["matching.match_predictions.matched_frac"] = (
        c["matching.match_predictions.pairs"] / possible if possible else 0.0)
    return values


def scale_times(values: dict[str, float], scale: float) -> dict[str, float]:
    return {k: v * scale if k.endswith("_s") else v for k, v in values.items()}


def source_loc() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "aldet").glob("*.py")))


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric_specs() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help=f"store this run's output digests as the reference (seeds {NAMED_SEEDS})")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = perf_counter()
    if not (SRC / "aldet" / "cli.py").is_file():
        print(f"error: no aldet sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference and args.seed not in NAMED_SEEDS:
        print(f"error: references are kept for seeds {NAMED_SEEDS} only", file=sys.stderr)
        return 2
    specs = metric_specs()

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = Workload(args.workload, args.seed, work)
    env = child_env()
    references = checks.load_references()
    reference = None
    if not args.record_reference:
        reference = references.get(args.workload, {}).get(str(args.seed))

    # Set-up: fresh interpreter + ``import aldet.cli`` + ``load_dataset`` of
    # the inputs, spawn to exit. An untimed warm-up writes the bytecode caches;
    # then one sample is taken before each untraced operation, so the samples
    # spread over the run like the operations do.
    setup_cmd = [sys.executable, str(CHILD), "setup", str(SRC), *map(str, wl.datasets)]
    if not args.trace:
        spawn_timed(setup_cmd, env, 60.0)

    # Closed loop, one client: the next operation starts when the last ends.
    # The traced run interleaves untraced and traced operations so the
    # tracing overhead is measured under the same conditions. A host-speed
    # probe runs between operations; each operation (and the set-up sample
    # before it) is scaled by the mean of the probes on either side.
    modes = [False, True] if args.trace else [False]
    ops: list[tuple[bool, dict]] = []
    problems: list[str] = []
    probes = [run_probe(env)]
    loop_start = perf_counter()
    while True:
        for traced in modes:
            setup_raw = None if args.trace else spawn_timed(setup_cmd, env, 60.0)
            out = work / ("out-traced" if traced else "out")
            op = run_op(wl, out, traced, env, started)
            probes.append(run_probe(env))
            op["scale"] = PROBE_NOMINAL_S / ((probes[-2] + probes[-1]) / 2)
            op["setup_s"] = setup_raw
            if op["ok"]:
                found = wl.check(out, reference)
                if found:
                    op.update(ok=False, error="; ".join(found[:3]))
            if not op["ok"]:
                problems.append(op["error"])
            elif args.record_reference and not traced and not ops:
                references.setdefault(args.workload, {})[str(args.seed)] = checks.digest(out)
            ops.append((traced, op))
        elapsed = perf_counter() - loop_start
        n_untraced = sum(1 for traced, _ in ops if not traced)
        if perf_counter() - started > NO_NEW_OP_AFTER_S or problems and args.record_reference:
            break
        if elapsed >= args.seconds and n_untraced >= (1 if args.trace else MIN_OPS):
            break

    failed = sum(1 for _, op in ops if not op["ok"])
    good_plain = [op for traced, op in ops if not traced and op["ok"]]
    good_traced = [op for traced, op in ops if traced and op["ok"]]
    setup = [op["setup_s"] for traced, op in ops if op["setup_s"] is not None]
    values: dict[str, float] = {}
    absent: list[str] = []
    if good_plain and not args.trace:
        values["setup_s"] = statistics.median(
            op["setup_s"] * op["scale"] for _, op in ops if op["setup_s"] is not None)
        values["wall_s"] = statistics.median(op["wall_s"] * op["scale"] for op in good_plain)
        values["peak_rss_mb"] = statistics.median(op["maxrss_kb"] / 1024 for op in good_plain)
    if good_plain and good_traced:
        merged = [merge_traces(op["traces"]) for op in good_traced]
        flat = [scale_times(layer_values(m), op["scale"]) for m, op in zip(merged, good_traced)]
        absent = merged[0]["absent"] + [f"{b} (counter)" for b in merged[0]["broken"]]
        for name in {k for f in flat for k in f}:
            values[name] = statistics.median(f.get(name, 0.0) for f in flat)
        values["trace_overhead_frac"] = (
            statistics.median(op["wall_s"] * op["scale"] for op in good_traced)
            / statistics.median(op["wall_s"] * op["scale"] for op in good_plain) - 1.0)
        for label in ("score", "pseudolabel", "eval"):
            values[f"{label}_s"] = statistics.median(
                op["walls"].get(label, 0.0) * op["scale"] for op in good_plain)

    gated = specs["per_layer"] if args.trace else specs["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in gated}
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "spec": WORKLOADS[args.workload],
        "commit": git_commit(), "source_loc": source_loc(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": inputs.np.__version__,
        "reference_checked": reference is not None,
        "ops_untraced": sum(1 for t, _ in ops if not t), "ops_traced": sum(1 for t, _ in ops if t),
        "fail_frac": failed / len(ops) if ops else 1.0,
        "absent_layers": absent, "probe_nominal_s": PROBE_NOMINAL_S, "probes_s": probes,
        "raw_setup_s": setup,
        "raw_untraced_walls_s": [op["wall_s"] for op in good_plain],
        "raw_traced_walls_s": [op["wall_s"] for op in good_traced],
        "problems": problems[:10],
    }
    if args.record_reference and not problems:
        checks.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
        meta["reference_recorded"] = True
    for name, m in metrics.items():
        note = " (absent)" if name.rsplit(".", 1)[0] in absent else ""
        print(f"{name:48s} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and bool(ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
