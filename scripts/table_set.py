#!/usr/bin/env python3
"""Write the reference set of CLI tables into one directory.

Runs ``tailwalk.cli.main`` in-process, in ``OUT``: ``resonances``,
``transmission`` and ``perturb`` on every graph of ``GRAPHS``, on the
graph file ``OUT/graph.json`` (``GRAPH_FILE``, read through ``--graph``,
once as CSV and once as ``--format json``) and on the graph file
``OUT/graph_vanishing.json`` (``VANISHING_FILE``, as CSV), then
``perturb`` on ``cycle:4`` at eps 4e-4, 2e-4, 1e-4 and at eps 4e-5, 2e-5,
1e-5 (both answered; on the second, two families' ``limit_slope`` marks a
limit that does not converge, as rounding limits their norms), then
``verify``.
Each run writes into ``OUT/<command>/<graph>/``
(``OUT/<command>/graph_file-json/`` for the JSON tables, ``OUT/verify/``
for ``verify``), and every exit code
goes to ``OUT/exit_codes.txt``, one ``<command> <graph> <code>`` line per run,
followed by the first line the run wrote to stderr (a refusal's message)
when it wrote one.

Example, comparing two checkouts (tables are byte-identical only at a fixed
BLAS thread count):
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/table_set.py /tmp/a
    ... same in the other checkout into /tmp/b ...
    diff -r /tmp/a /tmp/b
    python3 scripts/table_diff.py /tmp/a /tmp/b    # deviations per key

Only the diagnostics in the ``.meta.json`` sidecars that a build computes
in its own order (``reconstruction_residual``, ``block_condition``,
``nilpotent_norm``) are expected to differ, at rounding level, between two
builds that keep the numerics; two runs of one build write the same bytes
(no wall-clock time enters a table).
"""

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

from tailwalk.cli import main as cli_main

GRAPHS = [
    ("cycle:4", "0,1,2"),
    ("cycle:4", "0,1,3"),
    ("cycle:4", "0,1,2,3"),
    ("complete:4", "0,1,2"),
    ("complete:4", "0,1,2,3"),
    ("cycle:8", "0,2,4"),
    ("cycle:12", "0,1,2"),
    ("cycle:48", "0,1,2"),
    ("complete:16", "0,0,1,2"),
]
# a 4-cycle with two tails on vertex 0 and one on vertex 1
GRAPH_FILE = {
    "vertices": 4,
    "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
    "tails": [{"vertex": 0, "count": 2}, 1],
}
# two tails on vertex 6 of a 7-vertex graph whose whole T-eigenspace at
# t = -1/4 vanishes on the boundary (to 6.3e-17): E0's eigenvalues
# -1/4 +- i sqrt(15)/4 are persistent
VANISHING_FILE = {
    "vertices": 7,
    "edges": [[0, 4], [0, 5], [1, 2], [1, 3], [1, 4], [1, 6], [2, 3], [3, 4], [3, 6]],
    "tails": [6, 6],
}
COMMANDS = [
    ("resonances", "0,0.001,0.04,0.25,0.6"),
    ("transmission", "0.25,0.6"),
    ("perturb", "0.04,0.02,0.01"),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="output directory (created)")
    out = Path(ap.parse_args().out)
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)  # every path below, and so every sidecar, is relative to OUT
    Path("graph.json").write_text(json.dumps(GRAPH_FILE) + "\n")
    Path("graph_vanishing.json").write_text(json.dumps(VANISHING_FILE) + "\n")
    codes = []

    def record(command: str, label: str, argv: list[str]) -> None:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_main(argv)
        codes.append(" ".join([command, label, str(code), *err.getvalue().splitlines()[:1]]))

    for command, eps in COMMANDS:
        for preset, tails in GRAPHS:
            label = f"{preset.replace(':', '_')}-t{tails.replace(',', '_')}"
            record(command, label, [command, "--preset", preset, "--tails", tails,
                                    "--eps", eps, "--out", f"{command}/{label}"])
        for label, path, fmt in (("graph_file", "graph.json", "csv"),
                                 ("graph_file-json", "graph.json", "json"),
                                 ("graph_vanishing", "graph_vanishing.json", "csv")):
            record(command, label, [command, "--graph", path, "--eps", eps,
                                    "--format", fmt, "--out", f"{command}/{label}"])
    # cycle:4's resonances at eps 1e-4 lie 8.2e-9 inside the unit circle, and
    # at 1e-5 8.2e-11 inside, where the +-i families' limits stall
    for label, eps in (("cycle_4-t0_1_2-eps1e-4", "4e-4,2e-4,1e-4"),
                       ("cycle_4-t0_1_2-eps1e-5", "4e-5,2e-5,1e-5")):
        record("perturb", label, ["perturb", "--preset", "cycle:4", "--tails", "0,1,2",
                                  "--eps", eps, "--out", f"perturb/{label}"])
    record("verify", "all", ["verify", "--out", "verify"])
    Path("exit_codes.txt").write_text("\n".join(codes) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
