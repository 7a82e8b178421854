import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc import ParseError, QcvParams, Ranking, qcvne
from qsc.axioms import default_profile_sampler
from qsc.cli import main, parse_family
from qsc.serde import parse_profile, serialize_profile

SPLIT_TOP_DOC = {
    "alternatives": ["x", "y", "z"],
    "voters": [
        {"pure": [[0.7071, 0, "x>y>z"], [0.7071, 0, "y>x>z"]]},
        {"pure": [[1, 0, "z>x>y"]]},
    ],
}


def rk(alts, text):
    return Ranking.from_string(alts, text)


class TestParseProfile:
    def test_split_top_document(self, xyz_space):
        profile = parse_profile(json.dumps(SPLIT_TOP_DOC))
        rho1 = profile.partial_ballot(1)
        assert rho1.diagonal[rho1.space.basis_index(rk(rho1.space.alternatives, "x>y>z"))] == pytest.approx(0.5)
        assert profile.n_voters == 2

    def test_mixed_ballot(self):
        doc = {
            "alternatives": ["a", "b", "c"],
            "voters": [{"mixed": [[0.5, "a>b>c"], [0.5, "b>a>c"]]}],
        }
        profile = parse_profile(doc)
        diag = profile.partial_ballot(1).diagonal
        assert diag[0] == pytest.approx(0.5)

    def test_correlated_party_line(self):
        doc = {
            "alternatives": ["a", "b", "c"],
            "correlated": [[0.5, ["a>b>c", "a>b>c"]], [0.5, ["b>a>c", "b>a>c"]]],
        }
        profile = parse_profile(doc)
        assert profile.joint is not None
        one = profile.partial_ballot(1).diagonal
        two = profile.partial_ballot(2).diagonal
        assert np.allclose(one, two)

    def test_rejects_both_blocks(self):
        doc = {
            "alternatives": ["a", "b"],
            "voters": [{"mixed": [[1, "a>b"]]}],
            "correlated": [[1.0, ["a>b"]]],
        }
        with pytest.raises(ParseError):
            parse_profile(doc)

    def test_unknown_label_reports_locus(self):
        doc = {"alternatives": ["a", "b"], "voters": [{"mixed": [[1, "a>q"]]}]}
        with pytest.raises(ParseError) as err:
            parse_profile(doc)
        assert err.value.locus == "voters[0].mixed[0]"

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_profile("{\n  broken")
        assert "line" in err.value.locus

    def test_zero_ballot_rejected(self):
        doc = {"alternatives": ["a", "b"], "voters": [{"pure": [[0, 0, "a>b"]]}]}
        with pytest.raises(ParseError):
            parse_profile(doc)

    def test_negative_mixture_weight_rejected(self):
        doc = {"alternatives": ["a", "b"], "voters": [{"mixed": [[-0.5, "a>b"]]}]}
        with pytest.raises(ParseError):
            parse_profile(doc)

    def test_nonfinite_numbers_rejected_with_locus(self):
        # json.loads happily yields inf/nan from bare literals.
        text = '{"alternatives":["a","b"],"voters":[{"mixed":[[Infinity,"a>b"]]}]}'
        with pytest.raises(ParseError) as err:
            parse_profile(text)
        assert err.value.locus == "voters[0].mixed[0]"
        text = '{"alternatives":["a","b"],"voters":[{"pure":[[NaN,0,"a>b"]]}]}'
        with pytest.raises(ParseError):
            parse_profile(text)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_roundtrip_preserves_evaluations(self, space3, seed):
        sampler = default_profile_sampler(space3, 3)
        rng = random.Random(seed)
        params = QcvParams(0.05)
        profile = sampler(rng)
        rebuilt = parse_profile(serialize_profile(profile))
        original = qcvne(profile, params).as_dict()
        recovered = qcvne(rebuilt, params).as_dict()
        for name, value in original.items():
            assert recovered[name] == pytest.approx(value, abs=1e-12)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-5, 5)
    | st.text("abc>", max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["alternatives", "voters", "correlated", "pure", "mixed", "other"]),
        children,
        max_size=4,
    ),
    max_leaves=12,
)


class TestParserIsTotal:
    @given(doc=json_values)
    @settings(max_examples=200, deadline=None)
    def test_any_document_parses_or_raises_parse_error(self, doc):
        # The CLI's single-line error contract relies on nothing leaking
        # past ParseError, no matter how mangled the document is.
        try:
            parse_profile(doc if isinstance(doc, dict) else json.dumps(doc))
        except ParseError:
            pass


class TestFamilySpec:
    def test_default_tokens(self):
        family = parse_family("basis,sup2,sup3,grid")
        assert family.basis and family.pair_superpositions and family.triple_superpositions
        assert family.mixture_grid_step == 0.25
        assert family.random_pure == 0

    def test_custom_tokens(self):
        family = parse_family("basis,grid:0.5,random:8,seed:3")
        assert family.mixture_grid_step == 0.5
        assert family.random_pure == 8
        assert family.random_seed == 3

    def test_unknown_token_rejected(self):
        with pytest.raises(ParseError):
            parse_family("basis,warp")


class TestCliEvaluate:
    def write(self, tmp_path, doc):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_split_top_dictator(self, tmp_path, capsys):
        path = self.write(tmp_path, SPLIT_TOP_DOC)
        code = main(["evaluate", "--rule", "dictator:1", "--profile", path])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule"] == "dictator:1"
        assert set(payload["society"]) == {"pure"}

    def test_qcvne_unanimous(self, tmp_path, capsys):
        doc = {
            "alternatives": ["a", "b", "c"],
            "voters": [{"mixed": [[1, "a>b>c"]]}] * 3,
        }
        code = main(["evaluate", "--rule", "qcvne", "--delta", "0.05", "--profile", self.write(tmp_path, doc)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distribution"] == {"a": 1.0, "b": 0.0, "c": 0.0}

    def test_qcv_cycle_twelve_digits(self, tmp_path, capsys):
        doc = {
            "alternatives": ["a", "b", "c"],
            "voters": [
                {"mixed": [[1, "a>b>c"]]},
                {"mixed": [[1, "b>c>a"]]},
                {"mixed": [[1, "c>a>b"]]},
            ],
        }
        code = main(["evaluate", "--rule", "qcv", "--profile", self.write(tmp_path, doc)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        weights = [w for w, _ in payload["society"]["mixed"]]
        assert weights == [pytest.approx(0.166666666667)] * 6

    def test_stages_on_single_tuple_profile(self, tmp_path, capsys):
        doc = {
            "alternatives": ["a", "b", "c"],
            "voters": [{"mixed": [[1, "a>b>c"]]}, {"mixed": [[1, "a>c>b"]]}],
        }
        code = main(["evaluate", "--rule", "qcv", "--stages", "--profile", self.write(tmp_path, doc)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        stages = payload["stages"]
        assert stages["scores"] == {"a": 2, "b": 1, "c": 1}
        assert stages["weak_order"] == [["a"], ["b", "c"]]
        assert stages["extensions"] == ["a>b>c", "a>c>b"]
        assert stages["pairs_all"] == [["a", "b"], ["a", "c"]]

    def test_stages_rejects_mixed_support(self, tmp_path, capsys):
        doc = {
            "alternatives": ["a", "b", "c"],
            "voters": [{"mixed": [[0.5, "a>b>c"], [0.5, "b>a>c"]]}, {"mixed": [[1, "a>c>b"]]}],
        }
        code = main(["evaluate", "--rule", "qcv", "--stages", "--profile", self.write(tmp_path, doc)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "invalid-argument"

    def test_stages_rejects_non_condorcet_rules(self, tmp_path, capsys):
        path = self.write(tmp_path, SPLIT_TOP_DOC)
        code = main(["evaluate", "--rule", "dictator:1", "--stages", "--profile", path])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["locus"] == "rule"

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        path = self.write(tmp_path, SPLIT_TOP_DOC)
        code = main(["evaluate", "--rule", "approval", "--profile", path])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "parse-error"

    def test_missing_file_exits_2(self, capsys):
        code = main(["evaluate", "--rule", "qcv", "--profile", "/nonexistent.json"])
        assert code == 2
        assert capsys.readouterr().err.strip()

    def test_delta_bound_checked(self, tmp_path, capsys):
        path = self.write(tmp_path, SPLIT_TOP_DOC)
        code = main(["evaluate", "--rule", "qcv", "--delta", "0.2", "--profile", path])
        assert code == 2


class TestCliCheck:
    def test_dictator_dictatorship_expected(self, capsys):
        code = main(
            [
                "check", "--axiom", "dictatorship", "--rule", "dictator:1",
                "--trials", "40", "--seed", "3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "dictatorship-candidate"

    def test_veto_qic_falsified_is_expected(self, capsys):
        code = main(
            [
                "check", "--axiom", "qic", "--rule", "veto:a>b>c",
                "--trials", "60", "--seed", "1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "falsified"
        assert payload["witnesses"]

    def test_qcv_unanimity_exit_zero(self, capsys):
        code = main(
            ["check", "--axiom", "unanimity", "--rule", "qcv", "--trials", "60", "--seed", "0"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "holds-on-sample"

    def test_iia_rejects_choice_rule(self, capsys):
        code = main(["check", "--axiom", "iia", "--rule", "qcvne", "--trials", "10"])
        assert code == 2

    def test_onto_composes_welfare_rule(self, capsys):
        code = main(["check", "--axiom", "onto", "--rule", "qcv"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule"] == "natural-extension(qcv)"
        assert payload["verdict"] == "holds-on-sample"

    def test_byte_identical_reports(self, capsys):
        args = ["check", "--axiom", "qic", "--rule", "qcv", "--trials", "25", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_file_and_text_format(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "check", "--axiom", "onto", "--rule", "qcvne",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["axiom"] == "onto"
        code = main(["check", "--axiom", "onto", "--rule", "qcvne", "--format", "text"])
        assert code == 0
        assert "verdict: holds-on-sample" in capsys.readouterr().out

    def test_suite_command_small_arrow(self, capsys):
        code = main(["suite", "arrow", "--rule", "qcv", "--trials", "25", "--seed", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "arrow-suite"
        assert [c["name"] for c in payload["components"]] == [
            "unanimity-sharp",
            "unanimity-unsharp",
            "iia-sharp",
            "iia-unsharp",
            "non-dictatorship",
        ]

    def test_timing_flag_adds_elapsed(self, capsys):
        code = main(
            ["check", "--axiom", "onto", "--rule", "qcvne", "--timing"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "elapsed_ms" in payload

    def test_check_arrow_suite_bypass(self, capsys):
        code = main(
            [
                "check", "--axiom", "arrow-suite", "--rule", "qcv",
                "--trials", "40", "--seed", "2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "bypass-demonstrated"

    def test_suite_command_small_gs(self, capsys):
        code = main(
            [
                "suite", "gs", "--rule", "qcvne", "--trials", "30", "--seed", "5",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "gs-suite"
        assert payload["verdict"] == "bypass-demonstrated"

    def test_usage_error_exits_2(self, capsys):
        assert main(["check", "--axiom", "warp"]) == 2


class TestCliInputErrors:
    @pytest.mark.parametrize(
        "case",
        [
            "eps-nan", "eps-inf", "family-grid", "family-random", "family-grid-nan",
            "family-random-negative", "profile-dir", "profile-bytes",
            "eps-large", "family-empty", "family-seed-only", "family-over-cap", "family-grid-fine",
        ],
    )
    def test_exits_2_with_one_json_line(self, case, tmp_path, capsys):
        check = ["check", "--axiom", "qic", "--rule", "qcv", "--trials", "2"]
        undecodable = tmp_path / "profile.json"
        undecodable.write_bytes(b"\xff\xfe")
        argv = {
            "eps-nan": [*check, "--eps", "nan"],
            "eps-inf": [*check, "--eps", "inf"],
            "family-grid": [*check, "--family", "grid:abc"],
            "family-random": [*check, "--family", "random:x"],
            "family-grid-nan": [*check, "--family", "grid:nan"],
            "family-random-negative": [*check, "--family", "random:-5"],
            "profile-dir": ["evaluate", "--rule", "qcv", "--profile", str(tmp_path)],
            "profile-bytes": ["evaluate", "--rule", "qcv", "--profile", str(undecodable)],
            "eps-large": [*check, "--eps", "0.6"],
            "family-empty": [*check, "--family", ""],
            "family-seed-only": [*check, "--family", "seed:3"],
            "family-over-cap": [*check, "--alternatives", "5"],
            "family-grid-fine": [*check, "--family", "grid:1e-9"],
        }[case]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "Traceback" not in captured.err
        assert "error" in json.loads(lines[0])

    def test_large_eps_is_named(self, capsys):
        assert main(["check", "--axiom", "qic", "--trials", "2", "--eps", "0.6"]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "invalid-argument" and "eps" in error["message"]
