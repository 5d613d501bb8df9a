"""Tests of the benchmark itself (not of ``subalg``).

Run from the repository root:

    python3 -m pytest -q bench/tests

The traced runs make these take about two minutes.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALLEST_SEED = 0

# layer -> workloads its calls must be nonzero on (the ones it is
# predicted to move), and workloads it must stay at zero on.
PREDICTED = {
    "poly.mul": ({"member", "verify", "qn_ladder"}, set()),
    "linalg.echelon_add": ({"verify", "qn_ladder"}, {"member"}),
    "linalg.kernel_basis": ({"verify"}, {"member", "qn_ladder"}),
    "functionals.check_leibniz": ({"qn_ladder", "member"}, set()),
    "functionals.apply": ({"qn_ladder", "member"}, set()),
    "jets.product": ({"verify"}, {"member", "qn_ladder"}),
    "jets.jet": ({"verify"}, {"member", "qn_ladder"}),
    "sagbi.subduce": ({"member", "qn_ladder"}, set()),
    "sagbi.product_for": ({"member", "qn_ladder"}, set()),
    "sagbi.canonical_element": ({"qn_ladder", "member"}, set()),
    "sagbi.kernel_sagbi": ({"qn_ladder", "member"}, set()),
    "sagbi.minimalize": ({"qn_ladder", "member"}, set()),
    "sagbi.build_from_conditions": ({"qn_ladder", "member"}, set()),
    "spectrum.derivation_space": ({"verify"}, {"member", "qn_ladder"}),
    "spectrum.cotangent_dimension": ({"verify"}, {"member", "qn_ladder"}),
    "spectrum.spectrum": ({"verify"}, {"member", "qn_ladder"}),
    "qn.qn_build": ({"qn_ladder"}, set()),
    "qn.qprime_membership": ({"qn_ladder"}, {"member"}),
    "qn.verify_qprime_eq_q": ({"qn_ladder"}, {"member"}),
    "qn.verify_main_theorem": ({"verify"}, {"member", "qn_ladder"}),
}


@pytest.fixture(scope="module")
def traced():
    """Per-layer metrics of one traced pass of every workload."""
    out = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(SMALLEST_SEED), "--seconds", "0", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        out[name] = {k: v["value"] for k, v in result["metrics"].items()}
    return out


@pytest.mark.parametrize("layer", sorted(PREDICTED))
def test_layer_calls_follow_prediction(traced, layer):
    moved, idle = PREDICTED[layer]
    for name in moved:
        assert traced[name][f"{layer}.calls"] > 0, name
    for name in idle:
        assert traced[name][f"{layer}.calls"] == 0, name


def test_counters_and_cli_times(traced):
    verify = traced["verify"]
    for command in layers.CLI_COMMANDS:
        assert verify[f"cli.{command}.s"] > 0
        assert traced["member"][f"cli.{command}.s"] == 0
    # 33,750 products on a4 plus the small sessions' sweeps.
    assert verify["qn.ideal_containment.checked"] >= 33_750
    assert traced["qn_ladder"]["qn.ideal_containment.checked"] == 0
    assert 0 < traced["qn_ladder"]["linalg.echelon_add.useful_ratio"] <= 1
    assert traced["member"]["sagbi.subduce.steps"] > 0
    assert traced["qn_ladder"]["functionals.check_leibniz.pairs"] > 0
    assert verify["spectrum.derivation_space.candidates"] > 0
    assert traced["qn_ladder"]["sagbi.kernel_sagbi.raw_per_kept"] > 1


def test_tracer_wraps_every_binding_and_restores():
    subalg = workloads.import_subalg()
    originals = {
        "subduce": subalg.sagbi.subduce,
        "check_leibniz": subalg.functionals.check_leibniz,
        "mul": subalg.poly.Poly.__mul__,
    }
    tracer = layers.Tracer()
    tracer.install()
    try:
        for module in (subalg.sagbi, subalg.qn, subalg.cli, subalg):
            assert module.subduce is not originals["subduce"]
            assert module.subduce._bench_span == "sagbi.subduce"
        for module in (subalg.functionals, subalg.sagbi, subalg.qn, subalg):
            assert module.check_leibniz._bench_span == "functionals.check_leibniz"
        assert subalg.poly.Poly.__rmul__ is subalg.poly.Poly.__mul__
        assert subalg.poly.Poly.__mul__ is not originals["mul"]
        assert layers.find_wrappers()
    finally:
        tracer.uninstall()
    assert layers.find_wrappers() == []
    assert subalg.qn.subduce is originals["subduce"]
    assert subalg.cli.subduce is originals["subduce"]
    assert subalg.qn.check_leibniz is originals["check_leibniz"]
    assert subalg.poly.Poly.__rmul__ is originals["mul"]


def test_untraced_run_has_no_wrappers(monkeypatch, capsys):
    seen = []
    inner = run.run_tasks

    def checked(tasks, seconds, whole_passes):
        seen.append(layers.find_wrappers())
        return inner(tasks, seconds, whole_passes)

    monkeypatch.setattr(run, "run_tasks", checked)
    code = run.main(["--workload", "member", "--seed", "0", "--seconds", "0", "--trace", "0"])
    assert code == 0
    assert seen == [[]]
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and set(result["metrics"]) == {
        m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }


def test_member_labels_agree_with_oracle():
    """Labels checked without subduction, on the smallest seed."""
    subalg = workloads.import_subalg()
    member = workloads.Member(subalg, SMALLEST_SEED)
    qn_algebras = {f"qn{p}N{n}": (p, n) for p, n in workloads.MEMBER_QN}
    flts = dict(member.algebras)
    for label, basis, f, expected in member.queries:
        if label in qn_algebras:
            points, level = qn_algebras[label]
            cap = f.total_degree() + level * len(points)
            verdict = subalg.qn.qprime_membership(f, points, level, cap)
        else:
            flt = flts[label]
            span = subalg.sagbi.truncated_algebra_basis(
                flt.final_basis, flt.final_report, f.total_degree()
            )
            verdict = in_span(subalg, f, span)
        assert verdict == expected, (label, subalg.poly.format_poly(f))
    assert sum(q[3] for q in member.queries) * 2 == len(member.queries)


def in_span(subalg, f, span) -> bool:
    index: dict = {}
    ech = subalg.linalg.Echelon()

    def row(p):
        return {index.setdefault(m, len(index)): c for m, c in p.terms()}

    for p in span:
        ech.add(row(p))
    target = row(f)
    return ech.contains(target)


def test_golden_mismatch_fails_the_task():
    subalg = workloads.import_subalg()
    verify = workloads.Verify(subalg, SMALLEST_SEED)
    label, _ = verify.tasks()[0]
    verify.golden = [dict(g) for g in verify.golden]
    for g in verify.golden:
        if " ".join(g["argv"]) == label:
            g["stdout"] += " "
    tasks = verify.tasks()
    assert tasks[0][1]()() is False
    cheap = [p for lbl, p in tasks if lbl != label and lbl.split()[0] in ("build", "codim")]
    assert len(cheap) >= 7 and all(p()() for p in cheap)


def test_member_queries_start_cold(monkeypatch):
    """Each sample subduces on a basis whose caches are empty."""
    subalg = workloads.import_subalg()
    member = workloads.Member(subalg, SMALLEST_SEED)
    subduce = subalg.sagbi.subduce
    memo_sizes = []

    def recording(f, basis):
        memo_sizes.append(len(basis._witness_memo) + len(basis._canon))
        return subduce(f, basis)

    monkeypatch.setattr(subalg.sagbi, "subduce", recording)
    _, prepare = member.tasks()[0]
    assert prepare()() and prepare()()
    assert memo_sizes == [0, 0]


def test_probe_scaling():
    """A span loses the probe runs inside it and is scaled by those near it."""
    probe = reference.Probe()
    probe.starts = [1.0, 1.2, 5.0]
    probe.durations = [0.002, 0.004, 0.012]
    nominal = reference.NOMINAL_S
    assert probe.normalised(1.1, 1.3, 0.5) == pytest.approx((0.2 - 0.004) * nominal / 0.003)
    assert probe.normalised(3.0, 3.5, 0.5) == pytest.approx(0.5 * nominal / 0.006)


def test_probe_runs_during_the_span_and_stops():
    previous = signal.getsignal(signal.SIGALRM)
    with reference.Probe() as probe:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            pass
        t1 = perf_counter()
    assert len(probe.durations) >= 3 and probe.wrong == 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert 0 < probe.normalised(t0, t1, 0.5)


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and bench/, the run exits nonzero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "member", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
