"""One benchmark child process: a fresh interpreter, as a user's shell gives.

    python3 child.py run '<json request>'    # run one aldet command, print a JSON result
    python3 child.py setup SRC DATASET...    # import aldet.cli and load the datasets
    python3 child.py probe                   # print the host-speed probe's seconds

``run`` times ``aldet.cli.main(argv)`` only, so interpreter start-up and the
import are left to the separately measured set-up. With ``"trace": true`` the
tracer is installed before the command and its per-layer summary is added to
the result; the raw spans are written to ``spans_out`` after timing ends.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def _import_aldet(src: str):
    sys.path.insert(0, src)
    import aldet.cli

    where = Path(aldet.cli.__file__).resolve()
    if not where.is_relative_to(Path(src).resolve()):
        raise SystemExit(f"aldet imported from {where}, expected under {src}")
    return aldet.cli


def run(request: dict) -> dict:
    cli = _import_aldet(request["src"])
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    main = cli.main  # looked up after install, so the traced wrapper is called
    start = perf_counter()
    rc = main(request["argv"])
    wall = perf_counter() - start
    result = {
        "rc": rc,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if request.get("spans_out"):
            tracer.write_spans(request["spans_out"])
    return result


def setup(src: str, datasets: list[str]) -> None:
    _import_aldet(src)
    from aldet import formats

    for path in datasets:
        formats.load_dataset(path)


if __name__ == "__main__":
    if sys.argv[1] == "run":
        print(json.dumps(run(json.loads(sys.argv[2]))))
    elif sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3:])
    elif sys.argv[1] == "probe":
        from probe import probe

        print(probe())
    else:
        raise SystemExit(f"unknown mode {sys.argv[1]!r}")
