"""Golden report bytes: fixed CLI runs must print exactly the committed bytes.

Each ``tests/golden/<name>.json`` records one ``qsc.cli.main`` run: its
arguments, the profile document it reads (if any), its exit code and its
stdout. A golden changes only when a change alters report bytes on purpose,
and the change log names the file and the reason.

Regenerate every golden with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

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


if __name__ == "__main__":
    regenerate(sys.argv[1:] or sorted(CASES))
