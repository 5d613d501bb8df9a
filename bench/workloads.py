"""The benchmark's three workloads.

A workload's constructor is its set-up: given the imported ``subalg``
package, it makes every input from the seed.  Its *pass* is a fixed
list of tasks.  A task is a label and a ``prepare`` call, run outside
the timed span, that returns the timed call; the timed call returns
whether its output was correct.  ``run.py`` times the import plus the
constructor as set-up, and repeats passes for the run's length.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

SESSIONS = ("a1", "a2", "a3", "a4")

# Spectrum points of the sessions (checked against the golden `spectrum`
# output) and the point each session's verify-main task uses.
SPECTRUM_POINTS = {
    "a1": ("0",),
    "a2": ("-1", "1"),
    "a3": ("0,1",),
    "a4": ("1,-3,2", "1,0,-1", "3,2,5"),
}
VERIFY_MAIN_POINT = {"a1": "0", "a2": "1", "a3": "0,1", "a4": "3,2,5"}
QN_ARGV = ["qn", "sessions/qn-two-points.json", "--points", "0,0;0,1", "--N", "2"]
# The two tasks that take most of a pass (several seconds each).
HEAVY_VERIFY = (["verify-main", "sessions/a4.json", "3,2,5"], QN_ARGV)

# Point-set algebras built in `member` set-up: (points, N).
MEMBER_QN = (
    (((0, 0), (0, 1)), 2),
    (((0, 0, 0), (1, 0, 0)), 2),
    (((0,), (1,), (2,)), 3),
)

# `qn_ladder` rungs: qn_build, then verify_qprime_eq_q.
LADDER_RUNGS = (
    (((0, 0), (0, 1), (1, 0)), 2),
    (((0, 0), (1, 1)), 3),
    (((0, 0, 0), (1, 0, 0)), 2),
    (((0,), (1,), (2,)), 3),
)

QUERIES_PER_ALGEBRA = 32
_NONZERO = (-3, -2, -1, 1, 2, 3)


def verify_argvs() -> list[list[str]]:
    """The 24 command lines of the `verify` workload, in canonical order."""
    out = []
    for s in SESSIONS:
        for command in ("build", "codim", "spectrum"):
            out.append([command, f"sessions/{s}.json"])
    for s in SESSIONS:
        for point in SPECTRUM_POINTS[s]:
            out.append(["derivations", f"sessions/{s}.json", point])
    for s in SESSIONS:
        out.append(["verify-main", f"sessions/{s}.json", VERIFY_MAIN_POINT[s]])
    out.append(QN_ARGV)
    return out


def import_subalg():
    """Import ``subalg`` and every module the benchmark calls into."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for module in ("poly", "linalg", "functionals", "jets", "sagbi", "spectrum", "qn", "cli"):
        importlib.import_module(f"subalg.{module}")
    return importlib.import_module("subalg")


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run ``subalg.cli.main`` in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(ROOT / a) if a.startswith("sessions/") else a for a in argv])
    return code, out.getvalue()


def ladder_digest(subalg, points, level) -> dict:
    """One rung's build and two-sided check, as JSON-comparable data."""
    flt = subalg.qn.qn_build(subalg.qn.qn_spec(points, level))
    report = subalg.qn.verify_qprime_eq_q(points, level)
    final = flt.final_report
    return json.loads(
        json.dumps(
            {
                "codimension": flt.codim,
                "conductor": final.conductor,
                "basis": [subalg.poly.format_poly(g) for g in flt.final_basis.gens],
                "passed": report.passed,
                "report": report.to_json(),
            }
        )
    )


def load_golden(name: str):
    return json.loads((GOLDEN / f"{name}.json").read_text())


# -- workloads ----------------------------------------------------------


class Verify:
    """In-process CLI tasks compared byte for byte with golden stdout."""

    def __init__(self, subalg, seed: int):
        self.subalg = subalg
        golden = load_golden("verify")
        if [g["argv"] for g in golden] != verify_argvs():
            raise ValueError("golden verify tasks do not match the task list")
        self.golden = golden
        self.order = list(range(len(golden)))
        random.Random(seed).shuffle(self.order)

    def tasks(self):
        """The light tasks four times per pass, twice before each heavy one.

        A light task takes 2-400 ms and a heavy one several seconds, so
        repeating the light tasks gives them several samples in a run
        and spreads those over it; ``run.py`` pools the samples of each
        distinct task.
        """
        cli = self.subalg.cli
        light, heavy = [], []
        for i in self.order:
            g = self.golden[i]

            def task(g=g):
                code, stdout = run_cli(cli, g["argv"])
                return code == g["code"] and stdout == g["stdout"]

            label = " ".join(g["argv"])
            (heavy if g["argv"] in HEAVY_VERIFY else light).append((label, lambda t=task: t))
        return light + light + heavy[:1] + light + light + heavy[1:]


class QnLadder:
    """The construction path: build each rung, then check Q' = Q on it."""

    def __init__(self, subalg, seed: int):
        self.subalg = subalg
        golden = load_golden("qn_ladder")
        self.rungs = [
            (tuple(tuple(p) for p in g["points"]), g["N"], g["digest"]) for g in golden
        ]
        if [(pts, n) for pts, n, _ in self.rungs] != list(LADDER_RUNGS):
            raise ValueError("golden ladder rungs do not match the rung list")
        random.Random(seed).shuffle(self.rungs)

    def tasks(self):
        out = []
        for points, level, digest in self.rungs:

            def task(points=points, level=level, digest=digest):
                return ladder_digest(self.subalg, points, level) == digest

            out.append((f"qn {points} N={level}", lambda t=task: t))
        return out


class Member:
    """Subduction queries on bases built in set-up; half are members."""

    def __init__(self, subalg, seed: int):
        self.subalg = subalg
        self.algebras = []
        for s in SESSIONS:
            session = subalg.cli.Session.load(str(ROOT / "sessions" / f"{s}.json"))
            self.algebras.append((s, session.build()))
        for points, level in MEMBER_QN:
            flt = subalg.qn.qn_build(subalg.qn.qn_spec(points, level))
            self.algebras.append((f"qn{points}N{level}", flt))
        rng = random.Random(seed)
        self.queries = []
        for label, flt in self.algebras:
            for k in range(QUERIES_PER_ALGEBRA):
                f = make_query(subalg, flt, rng, k)
                self.queries.append((label, flt.final_basis, f, k % 2 == 0))
        rng.shuffle(self.queries)

    def tasks(self):
        sagbi = self.subalg.sagbi
        out = []
        for i, (label, basis, f, expected) in enumerate(self.queries):

            def prepare(basis=basis, f=f, expected=expected):
                # A copy with empty witness and canonical-element caches,
                # as `subalg member` builds its basis anew on every call.
                cold = sagbi.SagbiBasis(basis.n, basis.order, basis.gens)
                return lambda: sagbi.subduce(f, cold).remainder.is_zero() == expected

            out.append((f"member {label} #{i}", prepare))
        return out


def make_query(subalg, flt, rng: random.Random, k: int):
    """Query ``k`` on ``flt``: a product of two combinations, members on even k.

    Each combination is a random nonzero constant plus random nonzero
    multiples of two canonical elements, one with a head of degree D = conductor + 3
    and one of lower degree.  The heads run through a fixed cycle in k,
    so every seed poses queries of the same shapes and about the same
    work; the seed draws the coefficients and, for a non-member, the
    missing monomial m and c != 0 in the added c * m.  The product lies
    in the algebra and m does not, so the sum does not.
    """
    Poly = subalg.poly.Poly
    basis = flt.final_basis
    report = flt.final_report
    missing = set(report.missing)
    top = report.conductor + 3
    heads = {
        degree: [m for m in sorted(subalg.poly.monomials_of_degree(basis.n, degree)) if m not in missing]
        for degree in range(1, top + 1)
    }
    lows = [m for degree in range(1, top) for m in heads[degree]]

    def combination(j):
        out = Poly.constant(basis.n, rng.choice(_NONZERO))
        for mono in (heads[top][j % len(heads[top])], lows[j % len(lows)]):
            out = out + rng.choice(_NONZERO) * basis.canonical_element(mono)
        return out

    f = combination(2 * k) * combination(2 * k + 1)
    if k % 2:
        f = f + rng.choice(_NONZERO) * Poly.monomial(rng.choice(sorted(missing)))
    return f


WORKLOADS = {"member": Member, "verify": Verify, "qn_ladder": QnLadder}
