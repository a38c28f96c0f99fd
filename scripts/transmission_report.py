#!/usr/bin/env python3
"""Transmission/reflection curves, with the closed form spot-checked
against the raw time iteration.

For each requested coupling value this writes a lambda-grid CSV and
reports the largest deviation between the spectral closed form and the
dynamical iteration at a few random frequencies - the two routes share no
code, so agreement to ~1e-8 means both are right.

Example:
    python3 scripts/transmission_report.py --preset cycle:4 --tails 0,1,2 \
        --eps 0.1,0.25,0.5 --grid 256

Exit codes follow the ``tailwalk`` CLI: 2 for a configuration error (such
as eps values whose CSV names collide), 3 for a numerical failure (such as
a spot check's iteration not converging), each reported on stderr.
"""

import argparse
import csv
import sys

import numpy as np

from tailwalk import GraphError, attach_tails, build_E, preset_graph
from tailwalk.cli import (
    _NUMERICAL_ERRORS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    ConfigError,
    _parse_eps,
    _parse_tails,
)
from tailwalk.internal_spectral import spectral_decompose
from tailwalk.scattering import SigmaEvaluator, stationary_iterate, transmission_curve


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="cycle:4")
    ap.add_argument("--tails", default="0,1,2")
    ap.add_argument("--eps", default="0.1,0.25,0.5")
    ap.add_argument("--grid", type=int, default=256)
    ap.add_argument("--inflow", type=int, default=1, help="1-based port index")
    ap.add_argument("--spot-checks", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        return report(args)
    except (ConfigError, GraphError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def report(args: argparse.Namespace) -> int:
    eps_values = _parse_eps(args.eps)
    names = [f"transmission_eps{eps:g}.csv" for eps in eps_values]
    if len(set(names)) < len(names):
        raise ConfigError("eps values must differ at 6 significant digits (file names)")
    tg = attach_tails(preset_graph(args.preset), _parse_tails(args.tails))
    im0 = build_E(tg, 0.0)
    grid = np.linspace(0.0, 2 * np.pi, args.grid, endpoint=False)
    rng = np.random.default_rng(args.seed)

    for eps, name in zip(eps_values, names):
        im = im0.at(eps)
        sd = spectral_decompose(im.E)
        curve = transmission_curve(im, grid, inflow=args.inflow - 1, sd=sd)
        with open(name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["lambda", "tau_sq", "reflection_sq"])
            for lam, t, r in zip(curve["lambda"], curve["tau_sq"], curve["reflection_sq"]):
                w.writerow([f"{lam:.12f}", f"{t:.12f}", f"{r:.12f}"])

        ev = SigmaEvaluator(im, sd)
        worst = 0.0
        for lam in rng.uniform(0, 2 * np.pi, args.spot_checks):
            alpha = np.zeros(tg.num_ports, dtype=complex)
            alpha[args.inflow - 1] = 1.0
            rec = stationary_iterate(im, lam, alpha)
            direct = ev.sigma(lam) @ alpha
            worst = max(worst, float(np.max(np.abs(rec.outgoing - direct))))
        peak = float(np.max(curve["tau_sq"]))
        lam_peak = float(grid[int(np.argmax(curve["tau_sq"]))])
        print(f"eps={eps:g}: wrote {name}; peak transmission {peak:.4f} at "
              f"lambda={lam_peak:.4f}; closed form vs iteration: {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
