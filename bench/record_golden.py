"""Record the golden outputs the `verify` and `qn_ladder` workloads check.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 bench/record_golden.py

It writes ``bench/golden/verify.json`` (exit code and stdout of every
`verify` task) and ``bench/golden/qn_ladder.json`` (basis, codimension,
conductor and Q' = Q report of every ladder rung).  Re-record only when
a change is meant to alter these outputs, and say so with the change.
"""

from __future__ import annotations

import json

from workloads import GOLDEN, LADDER_RUNGS, import_subalg, ladder_digest, run_cli, verify_argvs


def main() -> None:
    subalg = import_subalg()
    verify = []
    for argv in verify_argvs():
        code, stdout = run_cli(subalg.cli, argv)
        verify.append({"argv": argv, "code": code, "stdout": stdout})
    ladder = [
        {"points": points, "N": level, "digest": ladder_digest(subalg, points, level)}
        for points, level in LADDER_RUNGS
    ]
    GOLDEN.mkdir(exist_ok=True)
    for name, data in (("verify", verify), ("qn_ladder", ladder)):
        (GOLDEN / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
