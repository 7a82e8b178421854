"""End-to-end acceptance suite.

One test per criterion; each prints a single ACCEPTANCE pass/fail line
(visible with ``pytest -s`` or in failure output). Desk scale throughout:
up to four alternatives and four voters, everything seeded.
"""

import json
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from qsc import (
    AlternativeSet,
    CandidateBallotFamily,
    ProfileState,
    QcvParams,
    Ranking,
    RankingSpace,
    check_composition_preservation,
    check_dictatorship,
    check_qic,
    compose,
    default_delta,
    default_profile_sampler,
    dictator_rule,
    pair_projector,
    pure_state,
    qcv,
    qcv_basis,
    qcv_rule,
    qcvne_rule,
    run_arrow_suite,
    run_gs_suite,
    support_probability,
    basis_state,
    veto_rule,
)
from qsc.axioms import VERDICT_BYPASS, VERDICT_FALSIFIED, VERDICT_HOLDS, VERDICT_NO_DICTATOR
from qsc.rankings import ranking_index
from qsc.serde import parse_density, parse_profile

from oracles import oracle_sigma3
from stepwise import encoded_pairs_all, encoded_pairs_any

ROOT2 = 2 ** -0.5
FULL_FAMILY = CandidateBallotFamily()
TOLERANCE = 1e-9


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def rk(alts, text):
    return Ranking.from_string(alts, text)


@pytest.fixture(scope="module")
def random_profile_sample():
    """At least 500 seeded profiles across m in {3,4}, n in {2,3,4}."""
    sample = []
    for m in (3, 4):
        alternatives = AlternativeSet(tuple("abcd")[:m])
        space = RankingSpace(alternatives)
        for n in (2, 3, 4):
            sampler = default_profile_sampler(space, n)
            rng = random.Random(10_000 * m + n)
            params = QcvParams(default_delta(m))
            for _ in range(85):
                sample.append((space, params, sampler(rng)))
    assert len(sample) >= 500
    return sample


def test_criterion_01_split_ballot_worked_example(xyz, xyz_space):
    with criterion(1, "split-ballot worked example"):
        rho1 = pure_state(
            xyz_space,
            [(ROOT2, rk(xyz, "x>y>z")), (ROOT2, rk(xyz, "y>x>z"))],
        )
        rho2 = basis_state(xyz_space, rk(xyz, "z>x>y"))
        profile = ProfileState.product_of([rho1, rho2])
        result = compose(dictator_rule(1)).evaluate(profile)
        assert result["x"] == pytest.approx(0.5, abs=TOLERANCE)
        assert result["y"] == pytest.approx(0.5, abs=TOLERANCE)
        assert result["z"] == pytest.approx(0.0, abs=TOLERANCE)


def test_criterion_02_unanimity_enforcement(random_profile_sample):
    with criterion(2, "unanimity enforcement over random profiles"):
        checked = 0
        for space, params, profile in random_profile_sample:
            society = qcv(profile, params)
            for pair in encoded_pairs_all(profile):
                value = support_probability(society, pair_projector(space, *pair))
                assert value >= 1.0 - TOLERANCE, (pair, value)
                checked += 1
        assert checked > 0


def test_criterion_03_minority_shot(random_profile_sample):
    with criterion(3, "minority shot over random profiles"):
        checked = 0
        for space, params, profile in random_profile_sample:
            society = qcv(profile, params)
            for pair in encoded_pairs_any(profile):
                value = support_probability(society, pair_projector(space, *pair))
                assert value > TOLERANCE, (pair, value)
                checked += 1
        assert checked > 0


def test_criterion_04_condorcet_cycle_oracle(alts3, cycle_profile):
    with criterion(4, "Condorcet cycle yields the uniform mixture"):
        exact_deltas = (Fraction(1, 50), Fraction(1, 20), Fraction(1, 10))
        for delta in exact_deltas:
            indices = [ranking_index(r) for r in cycle_profile]
            stages = qcv_basis(alts3, indices, QcvParams(float(delta)))
            diag = stages.sigma3.diagonal
            assert max(abs(float(w) - 1 / 6) for w in diag) <= TOLERANCE
            expected = oracle_sigma3(
                alts3.names, [r.labels for r in cycle_profile], delta
            )
            space = stages.sigma3.space
            for r, got in zip(space.rankings(), diag):
                assert float(got) == pytest.approx(float(expected[r.labels]), abs=TOLERANCE)


def test_criterion_05_two_voter_oracle(alts3, two_voter_profile):
    with criterion(5, "two-voter profile splits evenly on the shared top"):
        for delta in (0.005, 0.02, 0.05, 0.08, 0.1, 0.11):
            indices = [ranking_index(r) for r in two_voter_profile]
            stages = qcv_basis(alts3, indices, QcvParams(delta))
            weights = {
                r.to_string(): float(w)
                for r, w in zip(stages.sigma3.space.rankings(), stages.sigma3.diagonal)
            }
            assert weights["a>b>c"] == pytest.approx(0.5, abs=TOLERANCE)
            assert weights["a>c>b"] == pytest.approx(0.5, abs=TOLERANCE)
            assert sum(weights.values()) == pytest.approx(1.0, abs=TOLERANCE)


def test_criterion_06_manipulation_hunt(alts3, space3):
    with criterion(6, "manipulation hunt: clean rules clean, veto control caught"):
        params = QcvParams(0.05)
        sampler = default_profile_sampler(space3, 3)
        welfare_report = check_qic(qcv_rule(params), sampler, FULL_FAMILY, trials=500, seed=101)
        assert welfare_report.verdict == VERDICT_HOLDS
        assert welfare_report.witnesses == []
        choice_report = check_qic(qcvne_rule(params), sampler, FULL_FAMILY, trials=500, seed=102)
        assert choice_report.verdict == VERDICT_HOLDS
        assert choice_report.witnesses == []

        veto = veto_rule(rk(alts3, "a>b>c"))
        veto_report = check_qic(veto, sampler, FULL_FAMILY, trials=200, seed=103)
        assert veto_report.verdict == VERDICT_FALSIFIED
        assert len(veto_report.witnesses) >= 1
        record = veto_report.witnesses[0]
        replayed = parse_profile(record["profile"])
        ballot = parse_density(space3, record["dishonest_ballot"])
        projector = pair_projector(space3, *record["target"])
        truthful = support_probability(veto.evaluate(replayed), projector)
        dishonest = support_probability(
            veto.evaluate(replayed.substitute_ballot(record["voter"], ballot)), projector
        )
        assert truthful == pytest.approx(record["truthful_value"], abs=TOLERANCE)
        assert dishonest == pytest.approx(record["dishonest_value"], abs=TOLERANCE)


def test_criterion_07_gs_bundle_via_cli():
    with criterion(7, "gs bundle bypass (CLI, 500 trials, seed 42)"):
        result = subprocess.run(
            [
                sys.executable, "-m", "qsc.cli", "check",
                "--axiom", "gs-suite", "--rule", "qcvne",
                "--alternatives", "3", "--voters", "3",
                "--trials", "500", "--seed", "42",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["verdict"] == VERDICT_BYPASS
        by_name = {c["name"]: c for c in payload["components"]}
        assert by_name["qic"]["verdict"] == VERDICT_HOLDS
        assert by_name["onto"]["verdict"] == VERDICT_HOLDS
        assert by_name["non-dictatorship"]["verdict"] == VERDICT_NO_DICTATOR
        reports = {r["axiom"]: r for r in payload["reports"]}
        assert reports["onto"]["details"]["reached"] == 3
        assert reports["dictatorship-choice"]["details"]["survivors"] == []
        eliminated = {
            (w["voter"], w["variant"]) for w in reports["dictatorship-choice"]["witnesses"]
        }
        assert eliminated == {(v, kind) for v in (1, 2, 3) for kind in ("sharp", "unsharp")}


def test_criterion_08_arrow_bundle(alts3):
    with criterion(8, "arrow bundle: all five components pass"):
        report = run_arrow_suite(qcv_rule(QcvParams(0.05)), alts3, n_voters=3, trials=500, seed=42)
        assert report.verdict == VERDICT_BYPASS
        assert len(report.components) == 5
        assert all(component["ok"] for component in report.components)
        unanimity = next(r for r in report.reports if r.axiom == "unanimity")
        assert unanimity.details["sharp"]["instances"] > 0
        assert unanimity.details["unsharp"]["instances"] > 0


def test_criterion_09_composition_preservation(space3):
    with criterion(9, "welfare-clean triples stay clean under the extension"):
        report = check_composition_preservation(
            qcv_rule(QcvParams(0.05)),
            default_profile_sampler(space3, 3),
            FULL_FAMILY,
            trials=200,
            seed=77,
        )
        assert report.verdict == VERDICT_HOLDS
        assert report.witnesses == []


def test_criterion_10_determinism(space3):
    with criterion(10, "same seed, byte-identical reports"):
        def qic_bytes():
            sampler = default_profile_sampler(space3, 3)
            return check_qic(
                qcv_rule(QcvParams(0.05)), sampler, FULL_FAMILY, trials=50, seed=5
            ).to_json()

        assert qic_bytes() == qic_bytes()

        def dictatorship_bytes():
            sampler = default_profile_sampler(space3, 3)
            return check_dictatorship(
                qcv_rule(QcvParams(0.05)), space3, sampler, 80, seed=6
            ).to_json()

        assert dictatorship_bytes() == dictatorship_bytes()

        cli_args = [
            sys.executable, "-m", "qsc.cli", "check",
            "--axiom", "unanimity", "--rule", "qcv", "--trials", "40", "--seed", "7",
        ]
        first = subprocess.run(cli_args, capture_output=True)
        second = subprocess.run(cli_args, capture_output=True)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
