"""Byte-identical output contract: SHA-256 digests of small end-to-end runs.

The default-setting digests were recorded from the command line before the
cycle was reworked to make one pass per detector version, the
non-default-setting digests before NMS and the un-flip moved into one
post-NMS stage, and the seam digests before the pool was scored in chunks.
Any change to a digest is a behaviour change and must be argued on its own,
not absorbed here.
"""

import hashlib

from oracles import per_image

from aldet import formats
from aldet.acquisition import CHUNK_IMAGES
from aldet.cli import main
from aldet.dataset import Dataset, make_synthetic_dataset
from aldet.sim_detector import SyntheticDetector, SyntheticDetectorConfig

# Threshold pseudo-labels at tau=0.99 need a sharp softmax (T=0.1) to fire;
# false positives and a pseudo-label skill gain make the retrained detector
# depend on the pseudo-labels of the previous version.
SIMULATE_FLAGS = [
    "--initial-budget", "8", "--cycles", "2", "--budget-per-cycle", "5",
    "--seed", "3", "--detector-seed", "4", "--detector-fp-rate", "1.5",
    "--detector-temperature", "0.1", "--detector-skill-gain", "0.01",
    "--detector-skill-gain-pl", "0.002", "--tau", "0.99",
]
# Every NMS and matching threshold away from its default, so that each stage
# that applies NMS or matches is pinned to read them from the config.
NON_DEFAULT_FLAGS = ["--nms-iou", "0.3", "--nms-score-floor", "0.2", "--min-match-iou", "0.3"]

GOLDEN = {
    "files": {
        "preds.jsonl":
            "b8b32f568978cca82347733132181f945131484a59f7a4bff835f3cc3e5a2e35",
        "pseudo.jsonl":
            "09a08d378ef910fa5aa52b822ff71a4840549e0c00fa6a908fdfa910687f83b8",
        "scores.csv":
            "dba88d4e88847efca5e997ae7f4131e0310ced05c08e4d8e7981a7642e2729ff",
    },
    "simulate-pl": {
        "eval_cycle0.csv":
            "5f262ca2aafff1e06261c04190002e9c9d8b3fad3af8a037679e79ef7d63052d",
        "eval_cycle1.csv":
            "e73dcb2649411bcc409fee9d5e9da0ff29f645581527ce4275d5ea1b3052942d",
        "eval_cycle2.csv":
            "166b0626e5578b79582251250ba1700f2afe24ae2f7c66247d1b9a4979cdc8fa",
        "pseudo_cycle0.jsonl":
            "6d10feb81970fb3af2c126d9b99ff2eee9a04bab5168cd01252285df6a6ca1e5",
        "pseudo_cycle1.jsonl":
            "931b5d0e415e85f0919cdc03b5a08ac350bdacaca086e13c9fd26ab2b96c6554",
        "pseudo_cycle2.jsonl":
            "dc5f3a9c8882481a105cc39a1dd3e6bb269f723869efb3488975bb0e27432e31",
        "report.csv":
            "66852e860b790fb3c70365f7657492308e04239572adae732ce496943d08f1db",
        "scores_cycle1.csv":
            "0813d4e8747a2de2e7c25c8bfd44aa3e88975cf8c65e68588046e02d1593352e",
        "scores_cycle2.csv":
            "c5e817926cb8f8bb8b616f0005d4c76f3a344646821b798544642b295bacb428",
        "selected_cycle1.txt":
            "50ed4342d40a3453a0687c50f3008ba7825cbf40e24f091205ab24c803d8280b",
        "selected_cycle2.txt":
            "82419b5db9e445c21b8bc3a1275c2ccad798c68e53a35a55f9df48f4858c7ec5",
    },
    "simulate-scan": {
        "eval_cycle0.csv":
            "5f262ca2aafff1e06261c04190002e9c9d8b3fad3af8a037679e79ef7d63052d",
        "eval_cycle1.csv":
            "4c9133c25b32d95362496477e71a1fca00d851b26158af361f0f4a77708d3e57",
        "eval_cycle2.csv":
            "d218b84a3e1fd53df1d796ec7f892bf74a47c2a0cfd6868966a6a311a519f2cd",
        "pseudo_cycle0.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "pseudo_cycle1.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "pseudo_cycle2.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "report.csv":
            "29024cb059615bbbb12b2b400e751595be8d791a0e93386187d11b07b1938c7d",
        "scores_cycle1.csv":
            "0813d4e8747a2de2e7c25c8bfd44aa3e88975cf8c65e68588046e02d1593352e",
        "scores_cycle2.csv":
            "03cc88d5baed1aa32d8260cd05acdce6902a0e3f3d2ac8700731d0333c1f1072",
        "selected_cycle1.txt":
            "50ed4342d40a3453a0687c50f3008ba7825cbf40e24f091205ab24c803d8280b",
        "selected_cycle2.txt":
            "80b3eb177953245918cae80c50fbf99c49724d2185ac84755a4af159d4928b74",
    },
    "files-non-default": {
        "preds.jsonl":
            "b8b32f568978cca82347733132181f945131484a59f7a4bff835f3cc3e5a2e35",
        "pseudo.jsonl":
            "cbcf6774380c34d716b373b1fa6be98e23e254bd055cf281b22cbb434b1596ea",
        "scores.csv":
            "0f525ca587c3c7b2ce7bcdf6799aa85be59775861e6eabb81156932b2cbdca9a",
    },
    "simulate-non-default": {
        "eval_cycle0.csv":
            "5f262ca2aafff1e06261c04190002e9c9d8b3fad3af8a037679e79ef7d63052d",
        "eval_cycle1.csv":
            "e73dcb2649411bcc409fee9d5e9da0ff29f645581527ce4275d5ea1b3052942d",
        "pseudo_cycle0.jsonl":
            "5c802af4cba73ba16f093e9249787d9e4bf6691b2ce283a96f76b8b43344f706",
        "pseudo_cycle1.jsonl":
            "ba1467af2f9fac5fcf3a88ced6222009c61cc272dc6a170189d3c0ccffc72df5",
        "report.csv":
            "9687232750d8e97708229a0e59e35da605568413a575251cf59ea45ce467777d",
        "scores_cycle1.csv":
            "46814d7b90a1313b08bcb5be61f54eccdf4229a67f98ce242d7188c966db3b85",
        "selected_cycle1.txt":
            "9396a10aed33ed840378a035050d42677d68e02c3e916a25404298ad4733160c",
    },
    "seam-pl": {
        "eval_cycle0.csv":
            "a8910dfdb8f0f7778dee5134b71cd3cffd4106800f13b45f3a3efcf15fb077ca",
        "eval_cycle1.csv":
            "529487929b0da6649d11da27bce23ade9255e5c17c5982207d412bfc768ac46a",
        "eval_cycle2.csv":
            "2be06a5da5e511a258ed2f31540e5bfd550bc60adf3ab59eb227d779095b9aaf",
        "pseudo_cycle0.jsonl":
            "6fee35dc736b7a18d31783d51096688780623017c9c44a27a375dfef2cb94bc7",
        "pseudo_cycle1.jsonl":
            "cd233d6d05043953977c569e3358beeb6970936fe6413a9fc374bc239d43d587",
        "pseudo_cycle2.jsonl":
            "cfff4190a35856466a438d117ed0cb5c2fc20b3dcf59fb6a322327a28be31812",
        "report.csv":
            "e0a860145376bf07aff6e83d10da2fccb6fd23ddc4a0671e03747885456d5495",
        "scores_cycle1.csv":
            "c90cffc9f8156771af5c8be11545dca572cd49d9da82d6ec2d8f6ed1f3c52553",
        "scores_cycle2.csv":
            "348e411b088a94670b79ff4e138e75cf95d9675eb203db706455e2458d4a271c",
        "selected_cycle1.txt":
            "064ce8ed107173bd8249f5f08daf7e7f9f66bd9e979195c9c5e56a89ffa159d1",
        "selected_cycle2.txt":
            "1998c22ac7928d38e3eab764e123f9244803514e2f53eefab77b0adb90f7f54a",
    },
    "seam-scan": {
        "eval_cycle0.csv":
            "a8910dfdb8f0f7778dee5134b71cd3cffd4106800f13b45f3a3efcf15fb077ca",
        "eval_cycle1.csv":
            "2b11d5f06f7780d955bb949df59c58d72faf0c693757f9d762fa2b3489d6362e",
        "eval_cycle2.csv":
            "6f475384bd496cd7459e7a0a79ce9e2f9b80e2f821834d30fe2d5523e27a7555",
        "pseudo_cycle0.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "pseudo_cycle1.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "pseudo_cycle2.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "report.csv":
            "c03e7c05801a5518e70aff6efa7ab904a5d9d964d5b2d96d3e931e7f0ae815d9",
        "scores_cycle1.csv":
            "c90cffc9f8156771af5c8be11545dca572cd49d9da82d6ec2d8f6ed1f3c52553",
        "scores_cycle2.csv":
            "d19bc5ac1cdf7705c57c6eb4d9f8ad61d1b0ed85880855d8f548b2a96f44f4d3",
        "selected_cycle1.txt":
            "064ce8ed107173bd8249f5f08daf7e7f9f66bd9e979195c9c5e56a89ffa159d1",
        "selected_cycle2.txt":
            "6273a668d688b6769e78af7161ae3525af67786893dcb25e0e5260e80cf107fd",
    },
}


def _digests(out_dir) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def _datasets(tmp_path):
    train = make_synthetic_dataset(40, 3, seed=11, id_prefix="tr")
    test = make_synthetic_dataset(20, 3, seed=12, id_prefix="te")
    formats.save_dataset(train, tmp_path / "train.json")
    formats.save_dataset(test, tmp_path / "test.json")
    return train, test


def _simulate(tmp_path, name, extra, data=""):
    out = tmp_path / name
    argv = ["simulate", "--dataset", str(tmp_path / f"{data}train.json"),
            "--test-dataset", str(tmp_path / f"{data}test.json"), "--output-dir", str(out),
            *SIMULATE_FLAGS, *extra]
    assert main(argv) == 0
    return _digests(out)


def _files(tmp_path, train, test, name, pl_strategy, extra=()):
    """score and pseudolabel on predictions written from a synthetic detector."""
    out = tmp_path / name
    out.mkdir()
    world = Dataset.concat([train, test])
    det = SyntheticDetector(
        SyntheticDetectorConfig(temperature=0.1, fp_rate=1.5, seed=5), world
    )
    preds = out / "preds.jsonl"
    formats.write_predictions_jsonl(
        [pred for flipped in (False, True) for pred in per_image(det.predict(train.image_ids, flipped))],
        preds,
    )
    data = str(tmp_path / "train.json")
    assert main(["score", "--dataset", data, "--predictions", str(preds),
                 "--out", str(out / "scores.csv"), "--budget-per-cycle", "0", *extra]) == 0
    assert main(["pseudolabel", "--dataset", data, "--predictions", str(preds),
                 "--out", str(out / "pseudo.jsonl"), "--budget-per-cycle", "0",
                 "--pl-strategy", pl_strategy, *extra]) == 0
    return _digests(out)


def run_all(tmp_path) -> dict[str, dict[str, str]]:
    train, test = _datasets(tmp_path)
    return {
        "simulate-pl": _simulate(tmp_path, "sim-pl", ["--pl-strategy", "threshold"]),
        "simulate-scan": _simulate(tmp_path, "sim-scan", ["--pl-enabled", "false"]),
        "files": _files(tmp_path, train, test, "files", "topk"),
        "files-non-default": _files(
            tmp_path, train, test, "files-nd", "threshold", NON_DEFAULT_FLAGS
        ),
        "simulate-non-default": _simulate(
            tmp_path, "sim-nd", ["--cycles", "1", *NON_DEFAULT_FLAGS]
        ),
        **_seam(tmp_path),
    }


def _seam(tmp_path) -> dict[str, dict[str, str]]:
    """Pseudo-labels on and off, on a pool and a test set of more than two
    chunks each, neither a multiple of the chunk size, so that chunk seams
    fall inside every cycle's scoring, pseudo-labelling and evaluation."""
    train = make_synthetic_dataset(701, 3, seed=13, id_prefix="tr")
    test = make_synthetic_dataset(301, 3, seed=14, id_prefix="te")
    for n in (len(train) - 8, len(test)):  # the pool after the initial budget of 8
        assert n > 2 * CHUNK_IMAGES and n % CHUNK_IMAGES
    formats.save_dataset(train, tmp_path / "seam-train.json")
    formats.save_dataset(test, tmp_path / "seam-test.json")
    return {
        "seam-pl": _simulate(tmp_path, "seam-pl", ["--pl-strategy", "threshold"], "seam-"),
        "seam-scan": _simulate(tmp_path, "seam-scan", ["--pl-enabled", "false"], "seam-"),
    }


def test_outputs_match_recorded_digests(tmp_path):
    assert run_all(tmp_path) == GOLDEN
    # and every eval table the runs wrote reads back, mAP row included
    written = sorted(tmp_path.rglob("eval_*.csv"))
    assert len(written) == sum(name.startswith("eval_") for run in GOLDEN.values() for name in run)
    for path in written:
        formats.read_eval_csv(path)
