"""Benchmark for qsc: end-to-end metrics per workload, or per-layer metrics when traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload gs-m4 --seed 1 --seconds 8 --trace 0

Each round runs the workload in a fresh worker process (bench/worker.py): the
process sets up, then runs the job once through ``qsc.cli.main``. Rounds repeat
until ``--seconds`` is used up (at least two untraced rounds). Afterwards, out
of the timed section, the reports are checked against an independent
reference. The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; each metric is the median over the
rounds. An operation is one CLI invocation or one check.
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
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("qic-m3", "gs-m4", "evaluate-m56", "arrow-m4")
BLAS_THREADS = "1"  # the same for every workload, and within nproc
MIN_ROUNDS = 2
WORKER_TIMEOUT_S = 150.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    env.pop("PYTHONPATH", None)  # the worker puts this checkout's src/ first itself
    return env


def with_out_dir(argv: list[str], directory: str) -> list[str]:
    """The invocation with its ``--out`` report file placed in ``directory``."""
    at = argv.index("--out") + 1
    return [*argv[:at], os.path.join(directory, argv[at]), *argv[at + 1:]]


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def run_round(spec_path: str) -> dict:
    """One fresh worker: set-up time as the parent sees it, then the worker's result."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), spec_path],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        last = proc.stdout.read().strip().splitlines()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0 or not last:
        raise RuntimeError(f"worker failed (exit {code})")
    result = json.loads(last[-1])
    result["setup_s"] = setup_s
    result["round_s"] = time.perf_counter() - started
    return result


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qsc", "__init__.py")):
        print(f"no qsc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qsc  # noqa: F401  -- compiles the sources once, before any timed round
    import workloads

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    out = os.path.join(OUT, tag)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    workload = workloads.build(args.workload, args.seed, out)

    rounds: list[dict] = []
    reports: list[dict[str, str]] = []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    min_rounds = 1 if args.trace else MIN_ROUNDS
    while True:
        index = len(rounds)
        round_dir = os.path.join(out, f"round{index}")
        os.makedirs(round_dir)
        invocations = [with_out_dir(argv, round_dir) for _, argv in workload.invocations]
        spec = {
            "invocations": invocations,
            "trace": bool(args.trace),
            "spans": os.path.join(out, "spans.npz"),
            **workload.setup,
        }
        spec_path = os.path.join(round_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        result = run_round(spec_path)
        rounds.append(result)
        attempted += len(invocations)
        failed += sum(1 for code in result["codes"] if code != 0)
        reports.append({name: read_text(argv[argv.index("--out") + 1])
                        for (name, _), argv in zip(workload.invocations, invocations)})
        left = deadline - time.perf_counter()
        typical = statistics.median(r["round_s"] for r in rounds)
        if len(rounds) >= min_rounds and left < typical:
            break

    # Out of the timed section: every round must write the same bytes, and
    # the first round's reports must pass the checks.
    import checks

    results = [("rounds.identical", checks.check_identical([json.dumps(r, sort_keys=True)
                                                             for r in reports]))]
    results += workload.check(reports[0])
    attempted += len(results)
    problems = {name: p for name, p in results if p}
    failed += len(problems)

    if args.trace:
        names = sorted(rounds[0]["layers"])
        values = {n: statistics.median(r["layers"][n] for r in rounds) for n in names}
        units = {n: "s" if n.endswith("_s") or n.endswith(".s") else
                 "ratio" if n.endswith("ratio") else "bytes" if "bytes" in n else "count"
                 for n in names}
    else:
        values = {n: statistics.median(r[n] for r in rounds) for n in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    metrics = {n: {"value": values[n], "unit": units[n]} for n in values}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cli_seed": workload.cli_seed, "environment": environment(),
        "blas_threads": sorted({r["blas_threads"] for r in rounds}, key=str),
        "rounds": rounds, "problems": problems, "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for name, p in problems.items():
        print(f"check {name} failed: {'; '.join(p)}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
