"""One round of a workload in a fresh process: set up, then run the job once.

Usage: ``python3 bench/worker.py SPEC.json`` from the checkout root, where the
spec is written by ``bench/run.py``. The worker prints ``ready`` when set-up
is done (the parent times interpreter start to that line) and then one JSON
line with the job's wall time, its exit codes and the process's peak RSS. In a
traced round it also reports the per-layer metrics and writes its spans.
"""

from __future__ import annotations

import json
import os
import resource
import string
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be read."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def set_up(spec: dict) -> None:
    """Everything a user pays once per process before the job's first unit of work."""
    from qsc import cli
    from qsc.hilbert import RankingSpace, pair_projector, winner_projector
    from qsc.rankings import AlternativeSet

    for m in spec["alternatives"]:
        alternatives = AlternativeSet(tuple(string.ascii_lowercase[:m]))
        space = RankingSpace(alternatives)
        space.rankings()
        for x, y in alternatives.ordered_pairs():
            pair_projector(space, x, y)
        for a in alternatives.names:
            winner_projector(space, a)
        if spec["family"]:
            cli.parse_family(spec["family"]).ballots(space, spec["eps"])


def report_summary(paths: list[str]) -> tuple[int, int, int]:
    """(trials, manipulation witnesses, bytes) over the reports the job wrote."""
    trials = witnesses = size = 0
    for path in paths:
        size += os.path.getsize(path)
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        for part in report.get("reports", [report]):
            if "axiom" not in part:
                continue
            details = part["details"]
            trials += details.get("trials_run", details.get("alternatives", part["trials"]))
            witnesses += sum(1 for w in part["witnesses"] if w.get("kind") == "manipulation")
    return trials, witnesses, size


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    set_up(spec)
    print("ready", flush=True)

    from qsc import cli

    codes = []
    started = time.perf_counter()
    for argv in spec["invocations"]:
        codes.append(cli.main(argv))
    wall_s = time.perf_counter() - started

    result = {
        "wall_s": wall_s,
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        outputs = [argv[argv.index("--out") + 1] for argv in spec["invocations"]]
        trials, witnesses, size = report_summary(outputs)
        layers.update({"axioms.trials": trials, "axioms.witnesses": witnesses,
                       "cli.report_bytes": size})
        result["layers"] = layers
        tracer.write(spec["spans"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
