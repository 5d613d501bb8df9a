import json
import subprocess
import sys

import pytest

from subalg.cli import (
    Session,
    SessionError,
    condition_from_json,
    condition_to_json,
    functional_to_derivation_json,
    main,
)
from subalg import cli, qn, sagbi
from subalg.qn import CheckItem, Report
from subalg.sagbi import CodimReport
from subalg.spectrum import derivation_space
from support import SESSIONS

A1 = str(SESSIONS / "a1.json")
A2 = str(SESSIONS / "a2.json")
A3 = str(SESSIONS / "a3.json")
A4 = str(SESSIONS / "a4.json")
PLANE = str(SESSIONS / "qn-two-points.json")
BENCH_GOLDEN = SESSIONS.parent / "bench" / "golden"
# The benchmark's `verify` tasks with their exit codes and stdout.
VERIFY_GOLDEN = json.loads((BENCH_GOLDEN / "verify.json").read_text())

A1_BUILD_TEXT = """\
level 1: derivation at (0): Functional[1*d1@(0)]
  basis: x1^2, x1^3
level 2: derivation at (0): Functional[1*d1^2@(0)]
  basis: x1^3, x1^4, x1^5
codimension: 2
missing: x1, x1^2
conductor: 3
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- golden text output -----------------------------------------------


def test_build_text_golden(capsys):
    code, out, err = run(capsys, "build", A1)
    assert code == 0
    assert err == ""
    assert out == A1_BUILD_TEXT


def test_member_negative_exits_zero(capsys):
    code, out, _ = run(capsys, "member", A1, "x1")
    assert code == 0
    assert out == "member: false\nremainder: x1\n"


def test_member_positive(capsys):
    code, out, _ = run(capsys, "member", A2, "x1^3 - x1")
    assert code == 0
    assert out == "member: true\nremainder: 0\n"


def test_member_high_power_exits_zero(capsys):
    # The witness search walks x1^3000 down generator by generator.
    code, out, err = run(capsys, "member", A1, "x1^3000")
    assert code == 0
    assert err == ""
    assert out == "member: true\nremainder: 0\n"


def test_member_with_more_terms_than_any_fixed_step_guard(capsys):
    # x1^3 + ... + x1^10009 takes one subduction step per term.
    text = " + ".join(f"x1^{k}" for k in range(3, 10_010))
    code, out, err = run(capsys, "member", A1, text)
    assert (code, out, err) == (0, "member: true\nremainder: 0\n", "")


def test_codim_text(capsys):
    code, out, _ = run(capsys, "codim", A1)
    assert code == 0
    assert out == "codimension: 2\nmissing: x1, x1^2\nconductor: 3\n"


def test_spectrum_text(capsys):
    code, out, _ = run(capsys, "spectrum", A4)
    assert code == 0
    assert out == (
        "points: (1,-3,2), (1,0,-1), (3,2,5)\n"
        "cluster 1: (1,-3,2), (3,2,5)\n"
        "cluster 2: (1,0,-1)\n"
    )


def test_verify_main_text(capsys):
    code, out, _ = run(capsys, "verify-main", A2, "1")
    assert code == 0
    assert out == (
        "check ideal_containment: pass\n"
        "check derivation_vs_cotangent: pass\n"
        "check leibniz_random_pairs: pass\n"
        "all checks passed\n"
    )


def test_qn_subcommand(capsys):
    code, out, _ = run(capsys, "qn", PLANE, "--points", "0,0;0,1", "--N", "2")
    assert code == 0
    assert out.endswith("all checks passed\n")
    assert out.count(": pass") == 8


def golden_argv(task) -> list[str]:
    return [str(SESSIONS.parent / a) if a.startswith("sessions/") else a for a in task["argv"]]


@pytest.mark.parametrize("task", VERIFY_GOLDEN, ids=lambda g: " ".join(g["argv"]))
def test_benchmark_verify_goldens_replay(capsys, task):
    code, out, _ = run(capsys, *golden_argv(task))
    assert code == task["code"]
    assert out == task["stdout"]


def test_one_parser_serves_every_call(monkeypatch, capsys):
    # Parse errors leave nothing behind in the shared parser.
    progs = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli._build_parser.cache_clear()
    assert run(capsys, "frobnicate", A1)[0] == 1
    assert run(capsys, "codim", A1, "--order", "bogus")[0] == 1
    for _ in range(2):
        for task in VERIFY_GOLDEN:
            code, out, _ = run(capsys, *golden_argv(task))
            assert (code, out) == (task["code"], task["stdout"]), task["argv"]
    # One root parser and one per subcommand, each built once.
    assert progs.count("subalg") == 1
    assert len(progs) == 1 + len(cli._COMMANDS)


def test_qn_builds_its_filtration_once(monkeypatch, capsys):
    (task,) = [g for g in VERIFY_GOLDEN if g["argv"][0] == "qn"]
    builds = []
    build = qn.qn_build

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(qn, "qn_build", counted)
    monkeypatch.setattr(cli, "qn_build", counted)
    code, out, err = run(capsys, "qn", PLANE, *task["argv"][2:])
    assert (code, out, err) == (task["code"], task["stdout"], "")
    assert len(builds) == 1


def test_output_is_deterministic(capsys):
    first = run(capsys, "build", A4)
    second = run(capsys, "build", A4)
    assert first == second


# -- machine output ---------------------------------------------------


def test_build_json(capsys):
    code, out, _ = run(capsys, "build", A1, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["codimension"] == 2
    assert payload["missing"] == ["x1", "x1^2"]
    assert payload["conductor"] == 3
    assert [lvl["codimension"] for lvl in payload["levels"]] == [1, 2]
    assert payload["levels"][0]["basis"] == ["x1^2", "x1^3"]


def test_member_json(capsys):
    code, out, _ = run(capsys, "member", A2, "x1^3 - x1", "--json")
    assert code == 0
    assert json.loads(out) == {"member": True, "remainder": "0"}


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", A4, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == [
        ["1", "-3", "2"],
        ["1", "0", "-1"],
        ["3", "2", "5"],
    ]
    assert payload["clusters"] == [
        [["1", "-3", "2"], ["3", "2", "5"]],
        [["1", "0", "-1"]],
    ]


def test_verify_main_json(capsys):
    code, out, _ = run(capsys, "verify-main", A1, "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert [c["check"] for c in payload["checks"]] == [
        "ideal_containment",
        "derivation_vs_cotangent",
        "leibniz_random_pairs",
    ]
    assert all(c["pass"] for c in payload["checks"])


def test_derivations_json_round_trips(capsys):
    code, out, _ = run(capsys, "derivations", A4, "3,2,5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 6

    session = Session.load(A4)
    flt = session.build()
    point = tuple(map(int, (3, 2, 5)))
    space = derivation_space(flt, point)
    expected = [functional_to_derivation_json(b, space.point) for b in space.basis]
    assert payload["basis"] == expected
    for obj, functional in zip(payload["basis"], space.basis):
        rebuilt = condition_from_json(obj, 3)
        assert rebuilt.functional == functional


# -- error paths ------------------------------------------------------


def test_missing_file_exits_one(capsys):
    code, out, err = run(capsys, "build", str(SESSIONS / "nope.json"))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_bad_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "build", str(bad))
    assert code == 1
    assert "not valid JSON" in err


def test_bad_polynomial_exits_one(capsys):
    code, _, err = run(capsys, "member", A1, "x1 +")
    assert code == 1
    assert err.startswith("error:")


def test_zero_denominator_exits_one(capsys):
    code, out, err = run(capsys, "member", A1, "1/0")
    assert code == 1
    assert out == ""
    assert err == "error: zero denominator (at position 0)\n"


def test_bad_rational_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "n": 1,
                "conditions": [
                    {"type": "chardiff", "alpha": ["1/0"], "beta": ["0"]}
                ],
            }
        )
    )
    code, _, err = run(capsys, "build", str(bad))
    assert code == 1
    assert "bad rational" in err


def test_malformed_partials_exit_one(tmp_path, capsys):
    for partials in ([True], ["a"], [1.5], [[1]], [None]):
        bad = tmp_path / "partials.json"
        bad.write_text(
            json.dumps(
                {
                    "n": 1,
                    "conditions": [
                        {
                            "type": "derivation",
                            "point": ["0"],
                            "terms": [{"partials": partials}],
                        }
                    ],
                }
            )
        )
        code, out, err = run(capsys, "build", str(bad))
        assert code == 1, partials
        assert out == ""
        assert err.startswith("error: partials must be variable indices")
        assert err.count("\n") == 1
        term = {"partials": partials}
        with pytest.raises(SessionError):
            condition_from_json({"type": "derivation", "point": ["0"], "terms": [term]}, 1)


def test_unhashable_order_exits_one(tmp_path, capsys):
    bad = tmp_path / "order.json"
    bad.write_text(json.dumps({"n": 1, "order": [], "conditions": []}))
    code, out, err = run(capsys, "build", str(bad))
    assert code == 1
    assert out == ""
    assert err == f"error: {bad}: unknown order []\n"


def test_unknown_subcommand_exits_one(capsys):
    code, _, _ = run(capsys, "frobnicate", A1)
    assert code == 1


def test_missing_argument_exits_one(capsys):
    code, _, _ = run(capsys, "member", A1)
    assert code == 1


def test_invalid_filtration_exits_two(tmp_path, capsys):
    bad = tmp_path / "second-order-first.json"
    bad.write_text(
        json.dumps(
            {
                "n": 1,
                "conditions": [
                    {
                        "type": "derivation",
                        "point": ["0"],
                        "terms": [{"partials": [1, 1]}],
                    }
                ],
            }
        )
    )
    code, out, err = run(capsys, "build", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("invalid filtration at level 1:")


def test_boolean_variable_count_exits_one(tmp_path, capsys):
    for value in (True, False):
        bad = tmp_path / f"n-{value}.json"
        bad.write_text(json.dumps({"n": value, "conditions": []}))
        code, out, err = run(capsys, "build", str(bad))
        assert code == 1
        assert out == ""
        assert "'n' must be a positive integer" in err


def test_duplicate_qn_points_exit_one(capsys):
    code, out, err = run(capsys, "qn", PLANE, "--points", "0,0;0,0", "--N", "1")
    assert code == 1
    assert out == ""
    assert err == "error: points must be pairwise distinct\n"


def test_huge_jet_space_exits_one(tmp_path, monkeypatch, capsys):
    # Validating one order-60 condition in 3 variables needs a cap-60 jet space.
    # It is refused before level 1 is cut, and no span of the level is built.
    condition = {"type": "derivation", "point": [0, 0, 0], "terms": [{"partials": [1] * 60}]}
    session = tmp_path / "order-60.json"
    session.write_text(json.dumps({"n": 3, "conditions": [condition]}))
    spans = []
    span = sagbi.truncated_algebra_basis

    def counted(*args):
        spans.append(args)
        return span(*args)

    monkeypatch.setattr(sagbi, "truncated_algebra_basis", counted)
    code, out, err = run(capsys, "build", str(session))
    assert code == 1
    assert out == ""
    assert err.startswith("error: refusing a jet space of 39711 coordinates")
    assert err.count("\n") == 1
    assert spans == []


def test_oversized_jet_union_exits_one_before_any_level(tmp_path, monkeypatch, capsys):
    # Twelve gluings need 2 points at order 0 each, the order-20 condition
    # one point at 1,771 coordinates; all 13 points at order 20 need 23,023.
    origin = [0, 0, 0]
    conditions = [{"type": "chardiff", "alpha": [i, 0, 0], "beta": origin} for i in range(1, 13)]
    conditions.append({"type": "derivation", "point": origin, "terms": [{"partials": [1] * 20}]})
    session = tmp_path / "union.json"
    session.write_text(json.dumps({"n": 3, "conditions": conditions}))
    cuts = []
    monkeypatch.setattr(sagbi, "kernel_sagbi", lambda *args: cuts.append(args))
    code, out, err = run(capsys, "build", str(session))
    assert code == 1
    assert out == ""
    assert err.startswith("error: refusing a jet space of 23023 coordinates (order cap 20)")
    assert err.count("\n") == 1
    assert cuts == []


def test_oversized_later_condition_wins_over_an_invalid_first_one(tmp_path, capsys):
    # The shared jet space is refused before level 1, so the order-60
    # condition 2 exits 1 before the second derivative declared a
    # derivation as condition 1 is tested (that alone exits 2).
    origin = [0, 0, 0]
    invalid = {"type": "derivation", "point": origin, "terms": [{"partials": [1, 1]}]}
    huge = {"type": "derivation", "point": origin, "terms": [{"partials": [1] * 60}]}
    session = tmp_path / "invalid-then-huge.json"
    session.write_text(json.dumps({"n": 3, "conditions": [invalid]}))
    code, _, err = run(capsys, "build", str(session))
    assert code == 2
    assert err.startswith("invalid filtration at level 1:")
    session.write_text(json.dumps({"n": 3, "conditions": [invalid, huge]}))
    code, out, err = run(capsys, "build", str(session))
    assert code == 1
    assert out == ""
    assert err.startswith("error: refusing a jet space of 39711 coordinates")


def test_misdeclared_derivation_exits_two(tmp_path, capsys):
    # f'(1) + f'(-1) declared a derivation at 0 meets the rule on every
    # pair of degree <= 1 but fails it on (x1, x1^2).
    condition = {
        "type": "derivation",
        "point": [0],
        "terms": [{"partials": [1], "point": [1]}, {"partials": [1], "point": [-1]}],
    }
    session = tmp_path / "two-point-derivative.json"
    session.write_text(json.dumps({"n": 1, "conditions": [condition]}))
    code, out, err = run(capsys, "build", str(session))
    assert code == 2
    assert out == ""
    assert err == "invalid filtration at level 1: condition fails the Leibniz rule on its level\n"


def test_huge_qn_spec_exits_one(monkeypatch, capsys):
    # Two plane points at level 40: 1 + 2 * (C(41, 2) - 1) conditions.
    builds = []
    monkeypatch.setattr(cli, "qn_build", lambda *args: builds.append(args))
    code, out, err = run(capsys, "qn", PLANE, "--points", "0,0;0,1", "--N", "40")
    assert code == 1
    assert out == ""
    assert err == (
        "error: refusing a point-set spec of 1639 conditions (level 40); the limit is 110\n"
    )
    assert builds == []


def test_qn_level_three_runs(capsys):
    code, out, _ = run(capsys, "qn", PLANE, "--points", "0,0;0,1", "--N", "3")
    assert code == 0
    assert out.endswith("all checks passed\n")


def three_points_session(tmp_path):
    """The conditions of qn_spec([(0,0),(0,1),(1,0)], 2) as a session file."""

    def deriv(point, partials):
        return {"type": "derivation", "point": point, "terms": [{"partials": partials}]}

    points = [["0", "0"], ["0", "1"], ["1", "0"]]
    conditions = [
        {"type": "chardiff", "alpha": other, "beta": points[0]} for other in points[1:]
    ] + [deriv(point, [i]) for point in points for i in (1, 2)]
    session = tmp_path / "three-points.json"
    session.write_text(json.dumps({"n": 2, "conditions": conditions}))
    return str(session)


def test_huge_containment_sweep_exits_one(tmp_path, capsys):
    # Four space points at level 3: conductor 6, so the derived cap is 18,
    # and 10^4 products times C(3 + 18 - 12, 3) shifts pass the limit.
    spec = qn.qn_spec([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    session = tmp_path / "four-space-points.json"
    conditions = [condition_to_json(cond) for cond in spec.conditions]
    session.write_text(json.dumps({"n": 3, "conditions": conditions}))
    code, out, err = run(capsys, "verify-main", str(session), "0,0,0")
    assert code == 1
    assert out == ""
    assert err == (
        "error: refusing a containment sweep of 840000 elements (level 3, "
        "degree cap 18); the limit is 675000\n"
    )


def test_three_points_verify_main_passes(tmp_path, capsys):
    # At level 2^(derivation levels) = 64 the sweep would be 4,119,375
    # elements, over the limit; at max_order + 1 = 2 it is 405.
    code, out, _ = run(capsys, "verify-main", three_points_session(tmp_path), "0,0")
    assert code == 0
    assert out.endswith("all checks passed\n")


def test_invariant_failure_exits_four(monkeypatch, capsys):
    # A step report that misses the dropped monomial breaks the
    # kernel-step invariant inside build_from_conditions.
    def wrong_report(kernel, dropped, report):
        return CodimReport(report.codim + 1, (), 0)

    monkeypatch.setattr("subalg.sagbi._step_report", wrong_report)
    code, out, err = run(capsys, "build", A1)
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: kernel step did not drop")


def test_failed_verification_exits_three(monkeypatch, capsys):
    def broken(flt, alpha):
        return Report((CheckItem("demo", False, {"reason": "forced"}),))

    monkeypatch.setattr("subalg.cli.verify_main_theorem", broken)
    code, out, _ = run(capsys, "verify-main", A1, "0")
    assert code == 3
    assert "check demo: FAIL" in out
    assert "1 check(s) failed" in out


# -- options ----------------------------------------------------------


def test_order_override(capsys):
    for order in ("lex", "deglex", "degrevlex"):
        code, out, _ = run(capsys, "codim", A3, "--order", order)
        assert code == 0
        assert "codimension: 2" in out


# -- the installed entry point ----------------------------------------


def test_module_entry_point_matches_golden():
    # ``-m`` puts the working directory first on sys.path, so this runs
    # the source tree whether or not the package is installed.
    proc = subprocess.run(
        [sys.executable, "-m", "subalg.cli", "build", A1],
        capture_output=True,
        text=True,
        cwd=SESSIONS.parent / "src",
    )
    assert proc.returncode == 0
    assert proc.stdout == A1_BUILD_TEXT
