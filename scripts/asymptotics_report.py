#!/usr/bin/env python3
"""Human-readable perturbation report for one tailed graph.

For every unperturbed eigenvalue this prints the two-stage branch table
(mu1, mu2, multiplicity, persistence), the measured convergence orders of
the eigenvalue predictions, and - for each resonance-hosting family - the
resonant-limit ladder ||Sigma(lam_eps) - I - Sigma01|| together with the
hypothesis verdicts.

Example:
    python3 scripts/asymptotics_report.py --preset complete:4 --tails 0,1,2
"""

import argparse
import sys

import numpy as np

from tailwalk import attach_tails, build_E, preset_graph
from tailwalk.cli import _parse_eps, _parse_tails
from tailwalk.internal_spectral import spectral_decompose
from tailwalk.perturbation import (
    fit_loglog_slope,
    reduce_eigenvalue,
    resonance_asymptote,
    resonant_sigma_limit,
)
from tailwalk.scattering import SigmaEvaluator


def fmt_c(z: complex) -> str:
    return f"{z.real:+.10f}{z.imag:+.10f}i"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="cycle:4")
    ap.add_argument("--tails", default="0,1,2")
    ap.add_argument("--eps", default="0.02,0.01,0.005", help="descending ladder")
    args = ap.parse_args()

    tg = attach_tails(preset_graph(args.preset), _parse_tails(args.tails))
    ladder = sorted(_parse_eps(args.eps), reverse=True)
    im = build_E(tg, 0.0)
    sd0 = spectral_decompose(im.E0)
    evaluators = {eps: SigmaEvaluator(im.at(eps)) for eps in ladder}

    print(f"{args.preset} + tails {args.tails}; eps ladder {ladder}")
    for cl in sorted(sd0.clusters, key=lambda c: np.angle(c.value)):
        led = reduce_eigenvalue(im, cl.value, sd0)
        print(f"\nmu = {fmt_c(led.mu)}  (multiplicity {led.m}, gamma = {led.gamma:g})")
        asym = resonance_asymptote(im, led, ladder, sd0)
        for bi, b in enumerate(led.branches):
            tag = "persistent" if b.persistent else "moving"
            print(f"  branch {bi}: mult {b.multiplicity:d}  {tag}")
            print(f"    mu1 = {fmt_c(b.mu1)}   mu2 = {fmt_c(b.mu2)}")
            rec = asym["per_branch"][bi]
            if max(rec["first_resid"]) > 1e-13:
                s1 = fit_loglog_slope(rec["eps"], rec["first_resid"])
                s2 = fit_loglog_slope(rec["eps"], rec["second_resid"])
                print(f"    residual orders: first {s1:.3f}, second {s2:.3f}")
        seen = set()
        for b in led.branches:
            key = (round(b.mu1.real, 9), round(b.mu1.imag, 9))
            if abs(b.mu1) < 1e-10 or key in seen:
                continue
            seen.add(key)
            lim = resonant_sigma_limit(im, led, b.mu1, evaluators, sd0)
            v = lim.verdicts
            norms = "  ".join(f"{x:.5f}" for x in lim.norms)
            print(f"  family mu1 = {fmt_c(b.mu1)}: ||Sigma - I - Sigma01|| = {norms}")
            print(f"    hypotheses: a1={v.a1} a2={v.a2} a3={v.a3} "
                  f"x_nonzero={v.x_nonzero} (gate={'ok' if v.gate else 'FAILED'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
