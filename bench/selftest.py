"""Self-test of the benchmark's checks: each must pass a real output and reject corrupted ones.

Usage, from the root of a checkout: ``python3 bench/selftest.py``. It runs small
jobs through ``qsc.cli.main``, feeds every checker the real report and then
copies with one fault each (a perturbed distribution, a flipped verdict, a
dropped trial, a vacuous suite, ...), and exits 1 unless every real output
passes and every corrupted one is rejected with the expected problem.
"""

from __future__ import annotations

import copy
import io
import json
import os
import random
import shutil
import sys
from contextlib import redirect_stdout

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(BENCH, "out", "selftest")

# Every voter ranks a above b with certainty, and only that pair is unanimous.
UNANIMOUS_AB = {
    "alternatives": ["a", "b", "c"],
    "voters": [
        {"pure": [[0.6, 0.0, "a>b>c"], [0.0, 0.8, "a>c>b"]]},
        {"mixed": [[1.0, "c>a>b"], [3.0, "a>b>c"]]},
        {"pure": [[1.0, 0.0, "a>c>b"]]},
    ],
}

failures: list[str] = []
cases = 0


def expect(label: str, problems: list[str], reject: str | None) -> None:
    """``reject`` None: the output must pass; otherwise a problem must contain it."""
    global cases
    cases += 1
    if reject is None and problems:
        failures.append(f"{label}: real output rejected: {problems}")
    elif reject is not None and not any(reject in p for p in problems):
        failures.append(f"{label}: corruption not caught (problems: {problems})")


def run_cli(argv: list[str]) -> dict:
    from qsc import cli

    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        failures.append(f"{argv}: exit {code}")
    with open(argv[argv.index("--out") + 1], encoding="utf-8") as handle:
        return json.load(handle)


def evaluate(document: dict, rule: str, name: str) -> dict:
    path = os.path.join(OUT, f"{name}.profile.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return run_cli(["evaluate", "--rule", rule, "--profile", path,
                    "--out", os.path.join(OUT, f"{name}.{rule}.json")])


def test_evaluate() -> None:
    generated = workloads.make_document(random.Random(5), 4, [("pure", 2), ("mixed", 2), ("pure", 1)])
    for name, document in (("generated", generated), ("unanimous", UNANIMOUS_AB)):
        society_report = evaluate(document, "qcv", name)
        expect(f"{name} qcv", checks.check_evaluate_report(document, "qcv", society_report), None)
        terms = society_report["society"]["mixed"]

        def corrupt(edit):
            bad = copy.deepcopy(society_report)
            edit(bad["society"]["mixed"])
            return checks.check_evaluate_report(document, "qcv", bad)

        def perturb(t):
            t[0][0] -= 1e-3
            t[-1][0] += 1e-3

        expect(f"{name} qcv perturbed", corrupt(perturb), "differs from the reference")
        expect(f"{name} qcv negative",
               corrupt(lambda t: t.append([-1e-6, t[0][1][::-1]])), "negative weight")
        expect(f"{name} qcv trace",
               corrupt(lambda t: [w.__setitem__(0, w[0] * 1.01) for w in t]), "trace")
        expect(f"{name} qcv wrong rule",
               checks.check_evaluate_report(document, "qcvne", society_report), "expected 'qcvne'")
        if len(terms) < 2:
            failures.append(f"{name}: society too concentrated for the perturbation test")

        dist_report = evaluate(document, "qcvne", name)
        expect(f"{name} qcvne", checks.check_evaluate_report(document, "qcvne", dist_report), None)
        bad = copy.deepcopy(dist_report)
        top, low = sorted(bad["distribution"], key=bad["distribution"].get)[::-1][:2]
        bad["distribution"][top] -= 1e-3
        bad["distribution"][low] += 1e-3
        expect(f"{name} qcvne perturbed",
               checks.check_evaluate_report(document, "qcvne", bad), "differs from the reference")

    # The property checks on their own, with the reference comparison out of the way.
    society = {r: w for w, r in evaluate(UNANIMOUS_AB, "qcv", "unanimous")["society"]["mixed"]}
    broken = {r: 0.99 * w for r, w in society.items()}
    broken["b>a>c"] = 0.01
    expect("unanimous pair kept", checks._society_properties(UNANIMOUS_AB, society), None)
    expect("unanimous pair broken", checks._society_properties(UNANIMOUS_AB, broken),
           "unanimously certain pair a>b")
    dist = evaluate(UNANIMOUS_AB, "qcvne", "unanimous")["distribution"]
    expect("unanimous winner kept", checks._distribution_properties(UNANIMOUS_AB, dist), None)
    expect("unanimous winner broken",
           checks._distribution_properties(UNANIMOUS_AB, {**dist, "a": dist["a"] - 0.01, "b": 0.01}),
           "below unanimous a")
    expect("negative probability",
           checks._distribution_properties(UNANIMOUS_AB, {**dist, "c": -0.01}), "negative probability")


def edited(report: dict, *path_and_value) -> dict:
    """A copy of the report with the value at ``path`` replaced."""
    *path, value = path_and_value
    bad = copy.deepcopy(report)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return bad


def test_reports() -> None:
    seed = 11
    common = ["--alternatives", "3", "--voters", "3", "--seed", str(seed)]
    qic = run_cli(["check", "--axiom", "qic", "--rule", "qcv", "--trials", "5", *common,
                   "--out", os.path.join(OUT, "qic.json")])
    ok = lambda r: checks.check_qic_report(r, "qcv", 5, seed)  # noqa: E731
    expect("qic", ok(qic), None)
    expect("qic flipped verdict", ok(edited(qic, "verdict", "falsified")), "verdict")
    expect("qic dropped trial", ok(edited(qic, "details", "trials_run", 4)), "ran 4 of 5")
    expect("qic witness", ok(edited(qic, "witnesses", [{"kind": "manipulation"}])), "witnesses")
    expect("qic other seed", ok(edited(qic, "seed", seed + 1)), "seed")

    gs = run_cli(["check", "--axiom", "gs-suite", "--rule", "qcvne", "--trials", "10", *common,
                  "--out", os.path.join(OUT, "gs.json")])
    ok = lambda r: checks.check_gs_report(r, "qcvne", 10, seed, 3)  # noqa: E731
    expect("gs", ok(gs), None)
    expect("gs flipped verdict", ok(edited(gs, "verdict", "not-bypassed")), "verdict")
    expect("gs failed component", ok(edited(gs, "components", 2, "ok", False)), "component")
    expect("gs dropped trial", ok(edited(gs, "reports", 0, "details", "trials_run", 9)), "ran 9 of 10")
    expect("gs onto", ok(edited(gs, "reports", 1, "details", "reached", 2)), "onto reached 2")
    expect("gs dictator", ok(edited(gs, "reports", 2, "details", "survivors",
                                    [{"voter": 1, "variant": "sharp"}])), "dictator candidates")

    arrow = run_cli(["suite", "arrow", "--rule", "qcv", "--trials", "60", *common,
                     "--out", os.path.join(OUT, "arrow.json")])
    ok = lambda r: checks.check_arrow_report(r, "qcv", 60, seed)  # noqa: E731
    expect("arrow", ok(arrow), None)
    expect("arrow flipped verdict", ok(edited(arrow, "verdict", "not-bypassed")), "verdict")
    expect("arrow vacuous unanimity",
           ok(edited(arrow, "reports", 0, "details", "sharp", "instances", 0)), "vacuous")
    expect("arrow vacuous iia",
           ok(edited(arrow, "reports", 1, "details", "unsharp", "instances", 0)), "vacuous")
    expect("arrow iia violation", ok(edited(arrow, "reports", 1, "details", "violations", 1)),
           "iia violations")
    expect("arrow dropped trial", ok(edited(arrow, "reports", 0, "trials", 59)), "ran 59 of 60")


def test_sampled_and_rounds() -> None:
    profile = workloads.drawn_profiles(4, 3, 1)[0]
    from qsc import serialize_profile

    document = serialize_profile(profile)
    society, distribution = workloads._program_outputs(profile)
    expect("sampled qcv", checks.check_society(document, society), None)
    expect("sampled qcvne", checks.check_distribution(document, distribution), None)
    top = max(society, key=society.get)
    other = next(r for r in society if r != top)
    expect("sampled qcv perturbed",
           checks.check_society(document, {**society, top: society[top] - 1e-4,
                                           other: society[other] + 1e-4}),
           "differs from the reference")
    expect("rounds identical", checks.check_identical(["{}", "{}"]), None)
    expect("rounds differ", checks.check_identical(["{}", "{}", '{"a": 1}']), "rounds [2]")


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    test_evaluate()
    test_reports()
    test_sampled_and_rounds()
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {cases} cases, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
