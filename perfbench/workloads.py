"""The benchmark's three workloads: seeded job lists and their output checks.

A workload is a list of jobs.  ``Job.run`` is the timed part: a call into
tailwalk through a public entry point (``tailwalk.cli.main`` or the public
functions of ``internal_spectral`` and ``scattering``).  ``Job.check`` runs
after the pass, untimed: it counts operations and failures, records the
relative residuals that feed ``accuracy_digits``, hashes emitted tables and
notes every output that breaks a check.

The seed draws eps values and spot lambdas inside fixed ranges; the program
receives only the generated argv or arrays.  Known red cases stay in: the
``cycle:12`` eps 0.04 iteration (``NoConvergence``) and acceptance criteria
10 and 12 count as failed operations on every run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# (preset, tails) built during set-up: the graphs each workload's jobs use
GRAPHS = {
    "cycle-sweep": [
        ("cycle:16", "0,1,2,3"),
        ("cycle:24", "0,1,2,3"),
        ("cycle:32", "0,1,2,3"),
        ("cycle:24", "0,6,12,18"),
    ],
    "scatter-crosscheck": [
        ("complete:16", "0,0,1,2"),
        ("cycle:32", "0,1,2,3"),
        ("cycle:12", "0,1,2"),
    ],
    "perturb-verify": [
        ("complete:4", "0,1,2"),
        ("cycle:8", "0,2,4"),
        ("cycle:12", "0,1,2"),
    ],
}

ROW_TOL = 1e-9        # |tau_sq + reflection_sq - 1| and eigenvalue residuals
ABS_MU_TOL = 1e-12    # abs_mu <= 1 + ABS_MU_TOL
ROUTE_TOL = 1e-7      # |iteration - closed form|, the test suite's tolerance
FINE_GRID = 16_384    # transmission grid on cycle:32, spacing ~ resonance width


def build_graphs(workload: str) -> dict:
    """Set-up: ``E(0)`` of every graph the workload uses, keyed by (preset, tails)."""
    from tailwalk import internal_spectral, tailed_graph

    return {
        (preset, tails): internal_spectral.build_E(
            tailed_graph.attach_tails(
                tailed_graph.preset_graph(preset), [int(t) for t in tails.split(",")]
            ),
            0.0,
        )
        for preset, tails in GRAPHS[workload]
    }


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    worst: float = 0.0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    tables: dict[str, str] = field(default_factory=dict)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def residual(self, r: float) -> None:
        self.worst = max(self.worst, float(r))

    def table(self, key: str, path: Path) -> None:
        self.tables[key] = hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Job:
    name: str
    ops: int
    run: Callable[[Path], object]
    check: Callable[[object, Path, Tally], None]


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n seeded draws, one in each of n equal slices of [lo, hi].

    Cost varies with eps and lambda; stratified draws cover the range every
    time, so a pass's work changes less from seed to seed than with n
    independent draws.
    """
    w = (hi - lo) / n
    return [lo + w * (i + rng.random()) for i in range(n)]


def _eps(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """Stratified eps values, rounded to keep argv and output file names short."""
    return [round(e, 6) for e in _strata(rng, lo, hi, n)]


def _floats(values) -> str:
    return ",".join(repr(v) for v in values)


def _read_rows(path: Path) -> list[dict[str, float]]:
    with path.open(newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


# --------------------------------------------------------------------------
# CLI jobs
# --------------------------------------------------------------------------

def _cli_job(name: str, argv: list[str], ops: int, check) -> Job:
    def run(out: Path):
        from tailwalk import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv + ["--out", str(out)])

    return Job(name, ops, run, check)


def _check_resonances(job: str):
    def check(rc, out: Path, t: Tally) -> None:
        path = out / "resonances.csv"
        ok = rc == 0
        if ok and not path.is_file():
            t.problems.append(f"{job}: missing {path.name}")
            ok = False
        if ok:
            t.table(f"{job}/{path.name}", path)
            bad = [r for r in _read_rows(path) if r["abs_mu"] > 1.0 + ABS_MU_TOL]
            if bad:
                t.problems.append(f"{job}: {len(bad)} rows with abs_mu > 1 + {ABS_MU_TOL}")
                ok = False
        t.op(ok, f"{job} (exit {rc})")

    return check


def _check_transmission(job: str, eps: list[float]):
    def check(rc, out: Path, t: Tally) -> None:
        if rc != 0:
            t.op(False, f"{job} (exit {rc})")
            return
        ok = True
        for e in eps:
            path = out / f"transmission_eps{e:g}.csv"
            if not path.is_file():
                t.problems.append(f"{job}: missing {path.name}")
                ok = False
                continue
            t.table(f"{job}/{path.name}", path)
            resid = max(abs(r["tau_sq"] + r["reflection_sq"] - 1.0) for r in _read_rows(path))
            t.residual(resid)
            if resid > ROW_TOL:
                t.problems.append(f"{job}: |tau_sq + reflection_sq - 1| = {resid:.3e}")
                ok = False
        t.op(ok, f"{job} (exit {rc})")

    return check


def _check_perturb(job: str, im0):
    def check(rc, out: Path, t: Tally) -> None:
        if rc != 0:
            t.op(False, f"{job} (exit {rc})")
            return
        ok = True
        for name in ("ledger.json", "asymptote.csv", "sigma_limit.json"):
            path = out / name
            try:
                if name.endswith(".json"):
                    json.loads(path.read_text())
                else:
                    rows = _read_rows(path)
            except (OSError, ValueError) as exc:
                t.problems.append(f"{job}: {name} does not parse: {exc}")
                ok = False
                continue
            t.table(f"{job}/{name}", path)
        if ok:
            # every re_true/im_true row is an eigenvalue of E(eps)
            n = im0.E0.shape[0]
            for r in rows:
                E = im0.at(r["epsilon"]).E
                mu = complex(r["re_true"], r["im_true"])
                smin = np.linalg.svd(E - mu * np.eye(n), compute_uv=False)[-1]
                resid = smin / np.linalg.norm(E, 2)
                t.residual(resid)
                if resid > ROW_TOL:
                    t.problems.append(f"{job}: asymptote row {r} is not an eigenvalue ({resid:.3e})")
                    ok = False
        t.op(ok, f"{job} (exit {rc})")

    return check


def _check_verify(rc, out: Path, t: Tally) -> None:
    try:
        results = json.loads((out / "verify_summary.json").read_text())["results"]
    except (OSError, ValueError, KeyError) as exc:
        t.problems.append(f"verify: no readable summary: {exc}")
        results = []
    if len(results) != 12:
        t.problems.append(f"verify: {len(results)} criteria reported, expected 12")
    n_fail = 0
    for r in results:
        t.op(r["status"] != "fail", f"criterion {r['criterion']} {r['name']}")
        n_fail += r["status"] == "fail"
    for _ in range(12 - len(results)):
        t.op(False, "verify: criterion missing")
    if rc != (1 if n_fail else 0):
        t.problems.append(f"verify: exit {rc} with {n_fail} failed criteria")


def cycle_sweep(seed: int, graphs: dict) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n in (16, 24, 32):
        eps = _eps(rng, 0.05, 0.95, 8)
        name = f"resonances-cycle{n}"
        argv = ["resonances", "--preset", f"cycle:{n}", "--tails", "0,1,2,3", "--eps", _floats(eps)]
        jobs.append(_cli_job(name, argv, 1, _check_resonances(name)))
    eps = _eps(rng, 0.05, 0.95, 2)
    argv = ["transmission", "--preset", "cycle:24", "--tails", "0,6,12,18",
            "--eps", _floats(eps), "--grid", "256"]
    jobs.append(_cli_job("transmission-cycle24", argv, 1,
                         _check_transmission("transmission-cycle24", eps)))
    return jobs


def perturb_verify(seed: int, graphs: dict) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for preset, tails in GRAPHS["perturb-verify"]:
        [e0] = _eps(rng, 0.03, 0.05, 1)
        name = f"perturb-{preset.replace(':', '')}"
        argv = ["perturb", "--preset", preset, "--tails", tails, "--eps", _floats([e0, e0 / 2, e0 / 4])]
        jobs.append(_cli_job(name, argv, 1, _check_perturb(name, graphs[(preset, tails)])))
    jobs.append(_cli_job("verify", ["verify"], 12, _check_verify))
    return jobs


# --------------------------------------------------------------------------
# library jobs: both Sigma routes on the same inputs
# --------------------------------------------------------------------------

def _crosscheck_job(name: str, im0, cases: list[tuple[float, list[float], list[int]]],
                    grid: np.ndarray | None = None) -> Job:
    """Closed form vs stationary iteration at each (eps, lambdas, ports) case.

    With ``grid``, the first case also runs ``transmission_curve`` on it.
    Every ``stationary_iterate`` call is one operation.
    """

    def run(out: Path):
        from tailwalk import internal_spectral as isp
        from tailwalk import scattering as sc

        outcomes = []      # ((eps, lam, port), route gap or the exception raised)
        recon = []         # reconstruction_residual of every decomposition
        curves = []
        for eps, lams, ports in cases:
            try:
                im = im0.at(eps)
                sd = isp.spectral_decompose(im.E)
                ev = sc.SigmaEvaluator(im, sd)
                if grid is not None and not curves:
                    curves.append(sc.transmission_curve(im, grid, 0, sd))
            except (isp.ClusterAmbiguity, np.linalg.LinAlgError) as exc:
                outcomes += [((eps, lam, p), exc) for lam in lams for p in ports]
                continue
            recon.append(sd.reconstruction_residual)
            for lam in lams:
                closed = ev.sigma(lam)
                for p in ports:
                    alpha = np.zeros(im.tg.num_ports, dtype=complex)
                    alpha[p] = 1.0
                    try:
                        rec = sc.stationary_iterate(im, lam, alpha)
                    except sc.NoConvergence as exc:
                        outcomes.append(((eps, lam, p), exc))
                        continue
                    outcomes.append(((eps, lam, p), float(np.max(np.abs(rec.outgoing - closed @ alpha)))))
        return outcomes, recon, curves

    def check(result, out: Path, t: Tally) -> None:
        outcomes, recon, curves = result
        for r in recon:
            t.residual(r)
        for c in curves:
            resid = float(np.max(np.abs(c["tau_sq"] + c["reflection_sq"] - 1.0)))
            t.residual(resid)
            if resid > ROW_TOL:
                t.problems.append(f"{name}: |tau_sq + reflection_sq - 1| = {resid:.3e}")
        for where, gap in outcomes:
            label = f"{name} (eps, lambda, port) = {where}"
            if isinstance(gap, Exception):
                t.op(False, f"{label}: {type(gap).__name__}")
            else:
                t.residual(gap)
                t.op(gap <= ROUTE_TOL, f"{label}: route gap {gap:.3e}")

    return Job(name, sum(len(lams) * len(ports) for _, lams, ports in cases), run, check)


def scatter_crosscheck(seed: int, graphs: dict) -> list[Job]:
    rng = random.Random(seed)
    [e] = _eps(rng, 0.5, 0.7, 1)
    jobs = [_crosscheck_job("complete16", graphs[("complete:16", "0,0,1,2")],
                            [(e, _strata(rng, -np.pi, np.pi, 4), [0, 1, 2, 3])])]
    # The iteration's step count scales like 1/eps^2 here, so the second
    # spot lambda runs at the mirrored eps 0.5 - e (also in [0.2, 0.3]):
    # the pair's total work then barely depends on the seed.
    [e] = _eps(rng, 0.2, 0.3, 1)
    lam1, lam2 = _strata(rng, -np.pi, np.pi, 2)
    grid = np.linspace(-np.pi, np.pi, FINE_GRID, endpoint=False)
    jobs.append(_crosscheck_job("cycle32", graphs[("cycle:32", "0,1,2,3")],
                                [(e, [lam1], [0]), (round(0.5 - e, 6), [lam2], [0])], grid))
    # small coupling: route 1 runs out of its 200,000-step budget here
    jobs.append(_crosscheck_job("cycle12-eps0.04", graphs[("cycle:12", "0,1,2")],
                                [(0.04, _strata(rng, -np.pi, np.pi, 1), [0])]))
    return jobs


WORKLOADS = {
    "cycle-sweep": cycle_sweep,
    "scatter-crosscheck": scatter_crosscheck,
    "perturb-verify": perturb_verify,
}
