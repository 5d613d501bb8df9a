"""Per-layer tracing of ``subalg`` from outside the library.

Every public function listed in ``LAYERS`` is replaced, for the length
of a traced run, by a wrapper that records a span: its call count, its
inclusive time and its self time (inclusive time minus the time of
wrapped spans nested inside it).  A function is replaced in every
``subalg`` module that binds it, so ``subduce`` is wrapped in ``sagbi``,
``qn``, ``cli`` and the package namespace alike, and a method is
replaced under every class attribute that names it (``Poly.__mul__``
and its alias ``__rmul__``).  ``Tracer.uninstall`` puts the originals
back.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter


def _terms_out(counters, args, result):
    counters["poly.mul.terms_out"] += len(result._terms)


def _echelon_useful(counters, args, result):
    counters["linalg.echelon_add.useful"] += result is not None


def _leibniz_pairs(counters, args, result):
    # check_leibniz(functional, alpha, beta, span): |span|^2 ordered pairs;
    # a failing call stops early, so this is an upper bound for it.
    counters["functionals.check_leibniz.pairs"] += len(args[3]) ** 2


def _subduce_steps(counters, args, result):
    counters["sagbi.subduce.steps"] += len(result.steps)


def _raw_generators(counters, args, result):
    counters["sagbi.kernel_sagbi.raw"] += len(result)


def _kept_generators(counters, args, result):
    counters["sagbi.kernel_sagbi.kept"] += len(result)


def _candidates(counters, args, result):
    counters["spectrum.derivation_space.candidates"] += result.candidates


def _containment_checked(counters, args, result):
    for item in result.items:
        if item.check == "ideal_containment":
            counters["qn.ideal_containment.checked"] += item.details.get("checked", 0)


# layer name -> (module, class or None, attribute, counter hook or None)
LAYERS = {
    "poly.mul": ("subalg.poly", "Poly", "__mul__", _terms_out),
    "linalg.echelon_add": ("subalg.linalg", "Echelon", "add", _echelon_useful),
    "linalg.kernel_basis": ("subalg.linalg", None, "kernel_basis", None),
    "functionals.check_leibniz": ("subalg.functionals", None, "check_leibniz", _leibniz_pairs),
    "functionals.apply": ("subalg.functionals", "LinearFunctional", "apply", None),
    "jets.product": ("subalg.jets", "JetSpace", "product", None),
    "jets.jet": ("subalg.jets", "JetSpace", "jet", None),
    "sagbi.subduce": ("subalg.sagbi", None, "subduce", _subduce_steps),
    "sagbi.product_for": ("subalg.sagbi", "SagbiBasis", "product_for", None),
    "sagbi.canonical_element": ("subalg.sagbi", "SagbiBasis", "canonical_element", None),
    "sagbi.kernel_sagbi": ("subalg.sagbi", None, "kernel_sagbi", _kept_generators),
    "sagbi.kernel_sagbi_raw": ("subalg.sagbi", None, "kernel_sagbi_raw", _raw_generators),
    "sagbi.minimalize": ("subalg.sagbi", None, "minimalize", None),
    "sagbi.build_from_conditions": ("subalg.sagbi", None, "build_from_conditions", None),
    "spectrum.derivation_space": ("subalg.spectrum", None, "derivation_space", _candidates),
    "spectrum.cotangent_dimension": ("subalg.spectrum", None, "cotangent_dimension", None),
    "spectrum.spectrum": ("subalg.spectrum", None, "spectrum", None),
    "qn.qn_build": ("subalg.qn", None, "qn_build", None),
    "qn.qprime_membership": ("subalg.qn", None, "qprime_membership", None),
    "qn.verify_qprime_eq_q": ("subalg.qn", None, "verify_qprime_eq_q", None),
    "qn.verify_main_theorem": ("subalg.qn", None, "verify_main_theorem", _containment_checked),
    "cli.main": ("subalg.cli", None, "main", None),
}

CLI_COMMANDS = ("build", "codim", "spectrum", "derivations", "verify-main", "qn")

# Counters reported as they are; the others feed the two ratios.
COUNTS = (
    "poly.mul.terms_out",
    "functionals.check_leibniz.pairs",
    "sagbi.subduce.steps",
    "spectrum.derivation_space.candidates",
    "qn.ideal_containment.checked",
)


def _namespaces() -> list:
    """The loaded ``subalg`` modules and the classes defined in them."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "subalg" or name.startswith("subalg.")):
            continue
        out.append(module)
        out += [
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == name
        ]
    return out


def _owners(original) -> list[tuple[object, str]]:
    """Every (module or class, attribute) in ``subalg`` bound to ``original``."""
    return [
        (owner, attr)
        for owner in _namespaces()
        for attr, value in list(vars(owner).items())
        if value is original
    ]


def find_wrappers() -> list[str]:
    """Names of ``subalg`` attributes that currently hold a span wrapper."""
    return [
        f"{owner.__name__}.{attr}"
        for owner in _namespaces()
        for attr, value in vars(owner).items()
        if getattr(value, "_bench_span", None) is not None
    ]


class Tracer:
    """Span statistics for the wrapped layers of one traced run."""

    def __init__(self):
        # name -> [calls, self seconds, inclusive seconds]
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, original, hook, name_of=None):
        stats = self.stats
        stack = self._stack
        counters = self.counters

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                key = name_of(args) if name_of else name
                entry = stats.setdefault(key, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed - nested
                entry[2] += elapsed
            if hook is not None:
                hook(counters, args, result)
            return result

        wrapper._bench_span = name
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every layer function in every ``subalg`` namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, (module_name, class_name, attr, hook) in LAYERS.items():
            home = sys.modules[module_name]
            if class_name is not None:
                home = getattr(home, class_name)
            original = vars(home)[attr]
            name_of = _cli_name if name == "cli.main" else None
            wrapper = self._wrap(name, original, hook, name_of)
            for owner, bound in _owners(original):
                self._patched.append((owner, bound, original))
                setattr(owner, bound, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> tuple[dict, Counter]:
        return {k: list(v) for k, v in self.stats.items()}, Counter(self.counters)


def _cli_name(args) -> str:
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


def per_layer_metrics(setup: tuple[dict, Counter], timed: tuple[dict, Counter], passes: int) -> dict:
    """Per-layer values for set-up plus one pass of the timed task list.

    ``setup`` and ``timed`` are tracer snapshots taken at the end of
    set-up and at the end of the run; the timed part is divided by the
    number of whole passes it ran.
    """
    setup_stats, setup_counts = setup
    end_stats, end_counts = timed

    def stat(name: str, index: int) -> float:
        before = setup_stats.get(name, [0, 0.0, 0.0])[index]
        after = end_stats.get(name, [0, 0.0, 0.0])[index]
        return before + (after - before) / passes

    def count(name: str) -> float:
        return setup_counts[name] + (end_counts[name] - setup_counts[name]) / passes

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    out = {}
    for name in LAYERS:
        if name not in ("cli.main", "sagbi.kernel_sagbi_raw"):
            out[f"{name}.calls"] = (stat(name, 0), "count")
            out[f"{name}.self_s"] = (stat(name, 1), "s")
    for name in COUNTS:
        out[name] = (count(name), "count")
    out["linalg.echelon_add.useful_ratio"] = (
        ratio(count("linalg.echelon_add.useful"), stat("linalg.echelon_add", 0)),
        "ratio",
    )
    out["sagbi.kernel_sagbi.raw_per_kept"] = (
        ratio(count("sagbi.kernel_sagbi.raw"), count("sagbi.kernel_sagbi.kept")),
        "ratio",
    )
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = (stat(f"cli.{command}", 2), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
