#!/usr/bin/env python3
"""Transmission/reflection curves, with the closed form spot-checked
against the raw time iteration.

For each requested coupling value this writes ``tailwalk transmission``'s
table and sidecar into the working directory, on the CLI's lambda grid,
and reports the largest deviation between the spectral closed form and
the dynamical iteration at a few random frequencies - the two routes share
no code, so agreement to ~1e-8 means both are right.

Example:
    python3 scripts/transmission_report.py --preset cycle:4 --tails 0,1,2 \
        --eps 0.1,0.25,0.5 --grid 256

``--preset``, ``--tails``, ``--eps``, ``--grid`` and ``--inflow`` go through
the ``tailwalk transmission`` parser and its checks, so the script refuses
what the CLI refuses, and ``--grid`` and ``--inflow`` default as there.
Exit codes follow the CLI: 2 for a configuration error (an eps outside
[0, 1], eps values whose CSV names collide, a ``--grid`` below 8, an
``--inflow`` that names no port, a negative ``--spot-checks`` or ``--seed``,
...), before any file is written, and 3 for a numerical failure (such as a
spot check's iteration not converging), each reported on stderr.
"""

import argparse
import sys

import numpy as np

from tailwalk import GraphError
from tailwalk.cli import (
    _NUMERICAL_ERRORS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    ConfigError,
    _build_parser,
    _run_config,
    _write_transmission,
)
from tailwalk.scattering import stationary_iterate_stack

RUN_FLAGS = ("preset", "tails", "eps", "grid", "inflow")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="cycle:4")
    ap.add_argument("--tails", default="0,1,2")
    ap.add_argument("--eps", default="0.1,0.25,0.5")
    ap.add_argument("--grid", type=int, help="lambda grid size, >= 8 (default: the CLI's)")
    ap.add_argument("--inflow", type=int, help="1-based port index (default: the CLI's)")
    ap.add_argument("--spot-checks", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    run_argv = [f"--{k}={getattr(args, k)}" for k in RUN_FLAGS if getattr(args, k) is not None]
    try:
        cfg = _run_config(_build_parser().parse_args(["transmission", *run_argv, "--out=."]))
        if args.spot_checks < 0:
            raise ConfigError(f"--spot-checks must be >= 0, got {args.spot_checks}")
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return report(cfg, args.spot_checks, args.seed)
    except (ConfigError, GraphError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def report(cfg: argparse.Namespace, spot_checks: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    for eps, (out, cpl, curve) in zip(cfg.eps, _write_transmission(cfg)):
        alpha = np.zeros(cpl.im.tg.num_ports, dtype=complex)
        alpha[cfg.inflow - 1] = 1.0
        worst = 0.0
        lams = rng.uniform(0, 2 * np.pi, spot_checks)
        recs = stationary_iterate_stack(cpl.im, lams, [alpha] * spot_checks)
        for lam, rec in zip(lams, recs):
            direct = cpl.sigma.sigma(lam) @ alpha
            worst = max(worst, float(np.max(np.abs(rec.outgoing - direct))))
        peak = int(np.argmax(curve["tau_sq"]))
        print(f"eps={eps:g}: wrote {out}; peak transmission {curve['tau_sq'][peak]:.4f} at "
              f"lambda={curve['lambda'][peak]:.4f}; closed form vs iteration: {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
