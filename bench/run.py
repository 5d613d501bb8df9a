"""Run one workload of the benchmark: one fresh process, one closed-loop client.

    python3 bench/run.py --workload member --seed 1 --seconds 40 --trace 0

Set-up (import of ``subalg`` plus the workload's input generation and,
for `member`, its basis builds) is timed from the start of this process
and, for ``setup_s``, again in fresh processes (``cold_setup.py``), so
that every sample pays the cold import; ``setup_s`` is the median.  The
timed part then repeats the workload's pass, one task after the other,
until ``--seconds`` is spent; the first pass always completes.  Every
task's output is checked.  The time metrics use each task's median
sample, scaled to nominal host speed by a probe that runs on a timer
all through the timed part (``reference.py``); ``setup_s`` is scaled
the same way by probe runs right after each set-up.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a separate traced
run (see ``layers.py``), which repeats whole passes only.  A readable
report goes to stderr.  The exit code is 1 when any task fails its
check, after the result line is printed.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
from layers import Tracer, find_wrappers, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, import_subalg  # noqa: E402

# Set-ups behind an untraced run's setup_s: this process's own, plus
# SETUPS - 1 in fresh processes.
SETUPS = 7
COLD_SETUP = Path(__file__).resolve().parent / "cold_setup.py"
# How far before and after a task's span the probe runs that scale it
# may lie (see reference.Probe.normalised).
PROBE_WINDOW_S = 0.5


def set_up(name: str, seed: int, tracer: Tracer | None):
    subalg = import_subalg()
    if tracer is not None:
        tracer.install()
    elif find_wrappers():
        raise RuntimeError("span wrappers are installed in an untraced run")
    return WORKLOADS[name](subalg, seed)


def cold_setup_s(name: str, seed: int) -> tuple[float, float]:
    """One set-up of ``name`` in a fresh process, timed from its start.

    Returns the set-up time and the mean probe time measured right after
    it in the same process.
    """
    proc = subprocess.run(
        [sys.executable, str(COLD_SETUP), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    setup, probe = proc.stdout.split()
    return float(setup), float(probe)


def run_tasks(tasks, seconds: float, whole_passes: bool):
    """Repeat the pass until ``seconds`` is spent; ``(start, end)`` spans per task label.

    ``prepare()`` runs before each sample, outside the timed span, and
    returns the timed call.

    A label may occur more than once in a pass; its samples are pooled.
    After the first pass, an untraced run starts a task only when its
    median so far still fits in the remaining time, so run length stays
    close to ``seconds``; a traced run stops only between passes.
    """
    samples: dict[str, list[tuple[float, float]]] = {label: [] for label, _ in tasks}
    failures: list[str] = []
    passes = 0
    start = perf_counter()
    while True:
        for label, prepare in tasks:
            if passes and not whole_passes:
                left = seconds - (perf_counter() - start)
                if statistics.median(t1 - t0 for t0, t1 in samples[label]) > left:
                    return samples, failures, passes
            task = prepare()
            gc.collect()
            t0 = perf_counter()
            try:
                ok = task()
            except Exception:
                traceback.print_exc()
                ok = False
            samples[label].append((t0, perf_counter()))
            if not ok:
                failures.append(label)
        passes += 1
        if perf_counter() - start >= seconds:
            return samples, failures, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("SUBALG_MAX_DEGREE", None)  # golden outputs use the default caps

    tracer = Tracer() if args.trace else None
    probe = None
    try:
        workload = set_up(args.workload, args.seed, tracer)
        setups = [(perf_counter() - START, reference.speed())]
        if not tracer:
            setups += [cold_setup_s(args.workload, args.seed) for _ in range(SETUPS - 1)]
        tasks = workload.tasks()
        gc.collect()
        gc.freeze()
        setup_snapshot = tracer.snapshot() if tracer else None
        if tracer:
            samples, failures, passes = run_tasks(tasks, args.seconds, whole_passes=True)
        else:
            with reference.Probe() as probe:
                samples, failures, passes = run_tasks(tasks, args.seconds, whole_passes=False)
    finally:
        if tracer:
            tracer.uninstall()

    # Each task's median time.  An untraced run gives it at nominal host
    # speed: the host's speed changes within a run and between runs, and
    # the probe measured it all through the run (see reference.py).  A
    # traced run gives raw times; the probe would add to every span.
    def duration(t0, t1):
        return probe.normalised(t0, t1, PROBE_WINDOW_S) if probe else t1 - t0

    per_task = [statistics.median(duration(*span) for span in s) for s in samples.values()]
    attempted = sum(len(s) for s in samples.values())
    wall_s = sum(per_task)
    raw_wall_s = sum(statistics.median(t1 - t0 for t0, t1 in s) for s in samples.values())
    deciles_ms = statistics.quantiles([t * 1000 for t in per_task], n=10, method="inclusive")
    setup_s = statistics.median(t * reference.NOMINAL_S / speed for t, speed in setups)
    if tracer:
        metrics = per_layer_metrics(setup_snapshot, tracer.snapshot(), passes)
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "query_ms.p50": {"value": deciles_ms[4], "unit": "ms"},
            "query_ms.p90": {"value": deciles_ms[8], "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }

    report = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(samples)} tasks, {passes} whole passes, {len(setups)} set-ups, "
        f"{attempted} attempted, "
        f"{len(failures)} failed (fail_ratio {len(failures) / attempted:.4g})",
        f"  raw wall_s {raw_wall_s:.6g} s (sum of the tasks' median raw times)",
    ]
    if probe:
        probe_ms = [d * 1000 for d in probe.durations]
        report.append(
            f"  probe: {len(probe_ms)} runs, mean {statistics.fmean(probe_ms):.4g} ms, "
            f"quartiles {', '.join(f'{q:.4g}' for q in statistics.quantiles(probe_ms, n=4))} ms "
            f"(nominal {reference.NOMINAL_S * 1000:.4g} ms)"
        )
    report += [f"  {k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    report += [f"  FAILED: {label}" for label in sorted(set(failures))]
    print("\n".join(report), file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
