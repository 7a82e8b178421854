"""Golden report bytes: fixed CLI runs must print exactly the committed bytes.

Each ``tests/golden/<name>.json`` records one ``qsc.cli.main`` run: its
arguments, the profile document it reads (if any), its exit code and its
stdout. A golden changes only when a change alters report bytes on purpose,
and the change log names the file and the reason.

Regenerate every golden with ``PYTHONPATH=src python tests/test_golden.py``
(or name the goldens to regenerate). ``--compare [name...]`` regenerates
nothing: it prints, for each golden, the largest difference in any float field
of the report, and exits 1 if anything else differs (a key, a string, a
verdict, a count, a list length or the exit code).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import qsc
from qsc.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

SPLIT_BALLOT_DOC = {
    "alternatives": ["x", "y", "z"],
    "voters": [
        {"pure": [[0.7071, 0, "x>y>z"], [0.7071, 0, "y>x>z"]]},
        {"pure": [[1, 0, "z>x>y"]]},
    ],
}

BASIS_M4_DOC = {
    "alternatives": ["a", "b", "c", "d"],
    "voters": [
        {"mixed": [[1, "a>b>c>d"]]},
        {"mixed": [[1, "b>a>d>c"]]},
        {"pure": [[1, 0, "a>c>b>d"]]},
    ],
}

CHECK_FLAGS = ["--trials", "100", "--seed", "42"]

CASES = {
    "check-qic-qcv": (["check", "--axiom", "qic", "--rule", "qcv", *CHECK_FLAGS], None),
    "check-qic-qcvne": (["check", "--axiom", "qic", "--rule", "qcvne", *CHECK_FLAGS], None),
    "check-qic-veto": (["check", "--axiom", "qic", "--rule", "veto:a>b>c", *CHECK_FLAGS], None),
    "check-dictatorship-qcv": (
        ["check", "--axiom", "dictatorship", "--rule", "qcv", *CHECK_FLAGS], None,
    ),
    "suite-arrow-qcv": (["suite", "arrow", "--rule", "qcv", *CHECK_FLAGS], None),
    # A rule without a statuses hook: its unanimity, IIA and dictatorship records come from exact evaluations.
    "suite-arrow-veto": (["suite", "arrow", "--rule", "veto:a>b>c", *CHECK_FLAGS], None),
    "check-gs-suite-qcvne-m4": (
        ["check", "--axiom", "gs-suite", "--rule", "qcvne", "--alternatives", "4",
         "--trials", "5", "--seed", "7"],
        None,
    ),
    "evaluate-qcv-split": (["evaluate", "--rule", "qcv"], SPLIT_BALLOT_DOC),
    "evaluate-qcvne-split": (["evaluate", "--rule", "qcvne"], SPLIT_BALLOT_DOC),
    "evaluate-qcv-stages-m4": (["evaluate", "--rule", "qcv", "--stages"], BASIS_M4_DOC),
}


def run_case(argv: list[str], document: dict | None, workdir: Path) -> tuple[int, str]:
    """Exit code and stdout of one CLI run; a document is passed via --profile."""
    if document is not None:
        path = workdir / "profile.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        argv = [*argv, "--profile", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report_bytes(name, tmp_path):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    argv, document = CASES[name]
    assert golden["argv"] == argv and golden["document"] == document
    code, stdout = run_case(argv, document, tmp_path)
    assert code == golden["exit_code"]
    assert stdout == golden["stdout"]


def test_golden_report_bytes_under_a_fixed_hash_seed(tmp_path):
    # The cases above run under the runner's own hash seed; a fresh interpreter under a fixed second one
    # shows that no report byte follows set or dict hash order.
    paths = [str(Path(qsc.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": os.pathsep.join(paths)}
    render = (
        "import json, sys, pathlib\n"
        "from test_golden import CASES, run_case\n"
        "print(json.dumps({name: run_case(*CASES[name], pathlib.Path(sys.argv[1])) for name in sorted(CASES)}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", render, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    rendered = json.loads(done.stdout)
    assert sorted(rendered) == sorted(CASES)
    for name, (code, stdout) in rendered.items():
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
        assert (code, stdout) == (golden["exit_code"], golden["stdout"]), name


def test_compare_separates_float_drift_from_other_changes():
    old = {"verdict": "holds", "trials": 3, "values": [0.5, 0.25], "name": "qcv"}
    drift = {"verdict": "holds", "trials": 3, "values": [0.5 + 2**-53, 0.25], "name": "qcv"}
    assert json_differences(old, old) == (0.0, 0, [])
    assert json_differences(old, drift) == (2**-53, 1, [])
    for changed in (
        {**old, "verdict": "falsified"},
        {**old, "trials": 4},
        {**old, "values": [0.5]},
        {**old, "values": [0.5, 1]},
        {"verdict": "holds", "trials": 3, "values": [0.5, 0.25]},
    ):
        assert json_differences(old, changed)[2]


def regenerate(names: list[str]) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            argv, document = CASES[name]
            code, stdout = run_case(argv, document, Path(workdir))
            record = {"argv": argv, "document": document, "exit_code": code, "stdout": stdout}
            text = json.dumps(record, indent=2, sort_keys=True) + "\n"
            (GOLDEN_DIR / f"{name}.json").write_text(text, encoding="utf-8")
            print(f"{name}: exit {code}, {len(stdout)} bytes", file=sys.stderr)


def json_differences(old, new, path: str = "$") -> tuple[float, int, list[str]]:
    """(largest float difference, float fields that differ, other differences)."""
    if isinstance(old, float) and isinstance(new, float):
        gap = abs(old - new)
        return gap, int(old != new), []
    if type(old) is not type(new):
        return 0.0, 0, [f"{path}: {old!r} -> {new!r}"]
    if isinstance(old, dict):
        pairs = [(f"{path}.{key}", old[key], new[key]) for key in sorted(old) if key in new]
        other = [f"{path}: keys {sorted(set(old) ^ set(new))} differ"] if old.keys() != new.keys() else []
    elif isinstance(old, list):
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(old, new))]
        other = [f"{path}: length {len(old)} -> {len(new)}"] if len(old) != len(new) else []
    else:
        return 0.0, 0, [] if old == new else [f"{path}: {old!r} -> {new!r}"]
    largest, fields = 0.0, 0
    for where, a, b in pairs:
        gap, changed, problems = json_differences(a, b, where)
        largest, fields = max(largest, gap), fields + changed
        other.extend(problems)
    return largest, fields, other


def compare(names: list[str]) -> int:
    """Print each golden's float drift against a fresh run; 1 on any other difference."""
    status = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
            argv, document = CASES[name]
            code, stdout = run_case(argv, document, Path(workdir))
            record = {"exit_code": code, "stdout": json.loads(stdout)}
            expected = {"exit_code": golden["exit_code"], "stdout": json.loads(golden["stdout"])}
            largest, fields, other = json_differences(expected, record)
            bytes_note = "identical bytes" if stdout == golden["stdout"] else "bytes differ"
            print(f"{name}: {bytes_note}, {fields} float fields differ, largest {largest:.3g}")
            for problem in other:
                print(f"  non-float difference {problem}")
            status |= bool(other)
    return status


if __name__ == "__main__":
    arguments = sys.argv[1:]
    if arguments[:1] == ["--compare"]:
        raise SystemExit(compare(arguments[1:] or sorted(CASES)))
    regenerate(arguments or sorted(CASES))
