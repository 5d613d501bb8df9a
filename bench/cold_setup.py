"""Time one set-up of a workload in this fresh process.

Prints the set-up time in seconds and then the mean time of the probe
(``reference.py``) run right after it, which gauges the host's speed.

    python3 bench/cold_setup.py member 1

``run.py`` starts this several times for ``setup_s``, so that each
sample, like a user's first call, pays the cold import of ``subalg``
and of the standard-library modules it loads.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402

import reference  # noqa: E402
from workloads import WORKLOADS, import_subalg  # noqa: E402

WORKLOADS[sys.argv[1]](import_subalg(), int(sys.argv[2]))
setup_s = perf_counter() - START
print(setup_s, reference.speed())
