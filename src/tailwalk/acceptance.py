"""Built-in acceptance suite: twelve numbered checks over desk fixtures.

Each criterion returns ``(status, detail)`` with status "pass", "fail", or
"skip"; skips happen only when a fixture filter rules a check out or every
eligible branch fails its hypothesis gate (the detail then carries the
report).  Checks re-derive everything through the public API, so the suite
doubles as executable documentation of the library contract.

Fixture ids follow <internal graph>-<k>tails[-variant]; the two 3-tail
cycle layouts differ in which vertex is left bare (adjacent to one vs. two
tailed vertices), which changes the persistent subspace and so exercises
the classification differently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .coin_evolution import kappa
from .internal_spectral import build_E, spectral_decompose, verify_outgoing
from .perturbation import (
    assumption_report,
    build_M1,
    fit_loglog_slope,
    projection_expansion,
    reduce_eigenvalue,
    resonance_asymptote,
    resonant_sigma_limit,
    total_projection,
)
from .scattering import SigmaEvaluator, stationary_iterate, unitarity_defect
from .smt_laplacian import (
    birth_basis,
    birth_multiplicities,
    build_operators,
    classify,
    joukowsky_preimages,
)
from .tailed_graph import attach_tails, preset_graph

__all__ = ["FIXTURES", "make_fixture", "CriterionResult", "run_all", "run_criterion"]

FIXTURES = {
    "c4-3tails-a": ("cycle:4", (0, 1, 2)),
    "c4-3tails-b": ("cycle:4", (0, 1, 3)),
    "c4-4tails": ("cycle:4", (0, 1, 2, 3)),
    "k4-3tails": ("complete:4", (0, 1, 2)),
    "k4-4tails": ("complete:4", (0, 1, 2, 3)),
}

# birth multiplicities at +1 / -1 depend only on the internal graph:
# max(0, #A/2 - #V + 1) at +1, with the -1 count dropping the +1 unless
# the graph is bipartite
BIRTH_COUNTS = {"cycle:4": (1, 1), "complete:4": (3, 2)}

# fixtures the slow perturbative criteria run on (one of each graph family
# keeps the suite under its runtime budget without losing coverage)
PERTURB_FIXTURES = ("c4-3tails-a", "k4-3tails")


def make_fixture(name: str):
    preset, tails = FIXTURES[name]
    return attach_tails(preset_graph(preset), list(tails))


@dataclass
class CriterionResult:
    cid: int
    name: str
    status: str
    detail: str
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def line(self) -> str:
        return (
            f"[criterion {self.cid:2d}] {self.status.upper():4s} "
            f"{self.name} ({self.elapsed:.2f} s): {self.detail}"
        )


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


# --------------------------------------------------------------------------
# 1. unperturbed cycle spectrum
# --------------------------------------------------------------------------

def _c1(names, residual_tol=None):
    if set(names) != set(FIXTURES):
        return "skip", "bare-cycle check runs only without a fixture filter"
    t0 = time.perf_counter()
    tg = attach_tails(preset_graph("cycle:4"), [])
    sd = spectral_decompose(build_E(tg, 0.0).E0)
    if len(sd.clusters) != 4:
        return "fail", f"{len(sd.clusters)} clusters, expected 4"
    worst_err = 0.0
    worst_nil = 0.0
    for want in (1.0, 1.0j, -1.0, -1.0j):
        c = sd.cluster_near(want, tol=0.5)
        if c.mult != 2:
            return "fail", f"multiplicity {c.mult} != 2 at {want}"
        worst_err = max(worst_err, abs(c.value - want))
        worst_nil = max(worst_nil, c.nilpotent_norm)
    elapsed = time.perf_counter() - t0
    tol = 1e-10 if residual_tol is None else residual_tol
    ok = worst_err < tol and worst_nil < tol and elapsed < 1.0
    return _status(ok), (
        f"spectrum {{1, -1, i, -i}} x2: max eigenvalue error {worst_err:.1e}, "
        f"max nilpotent norm {worst_nil:.1e}, {elapsed:.3f} s"
    )


# --------------------------------------------------------------------------
# 2. scattering unitarity
# --------------------------------------------------------------------------

def _c2(names, residual_tol=None):
    t0 = time.perf_counter()
    lam_grid = np.linspace(-np.pi, np.pi, 256, endpoint=False)
    worst = 0.0
    for name in names:
        im0 = build_E(make_fixture(name), 0.0)
        for eps in (0.1, 0.25, 0.5):
            ev = SigmaEvaluator(im0.at(eps))
            for lam in lam_grid:
                worst = max(worst, unitarity_defect(ev.sigma(float(lam))))
    elapsed = time.perf_counter() - t0
    tol = 1e-9 if residual_tol is None else residual_tol
    ok = worst < tol and elapsed < 30.0
    return _status(ok), (
        f"max ||S*S - I|| = {worst:.2e} over {len(names)} fixtures x 3 eps "
        f"x 256 lambdas, {elapsed:.1f} s"
    )


# --------------------------------------------------------------------------
# 3. stationary iteration vs closed form
# --------------------------------------------------------------------------

def _c3(names, residual_tol=None):
    rng = np.random.default_rng(20250817)
    eps = 0.25
    worst = 0.0
    total = 0
    for name in names:
        tg = make_fixture(name)
        im = build_E(tg, eps)
        ev = SigmaEvaluator(im)
        lams = [np.pi] + list(rng.uniform(-np.pi, np.pi, size=15))
        for lam in lams:
            alpha = rng.normal(size=tg.num_ports) + 1j * rng.normal(size=tg.num_ports)
            alpha = alpha / np.linalg.norm(alpha)
            rec = stationary_iterate(im, float(lam), alpha)
            diff = np.max(np.abs(rec.outgoing - ev.sigma(float(lam)) @ alpha))
            worst = max(worst, float(diff))
            total += 1
    tol = 1e-7 if residual_tol is None else residual_tol
    ok = worst < tol
    return _status(ok), (
        f"max |iteration - closed form| = {worst:.2e} over {total} random "
        f"(lambda, inflow) pairs incl. exp(-i lam) = -1, eps = {eps}"
    )


# --------------------------------------------------------------------------
# 4. resonance confinement
# --------------------------------------------------------------------------

def _c4(names, residual_tol=None):
    worst = 0.0
    for name in names:
        im0 = build_E(make_fixture(name), 0.0)
        for eps in np.linspace(0.0, 1.0, 11):
            vals = np.linalg.eigvals(im0.at(float(eps)).E)
            worst = max(worst, float(np.max(np.abs(vals))))
    tol = 1e-10 if residual_tol is None else residual_tol
    ok = worst <= 1.0 + tol
    return _status(ok), (
        f"max |mu| = {worst:.12f} over {len(names)} fixtures x 11 eps values in [0, 1]"
    )


# --------------------------------------------------------------------------
# 5. outgoing-solution residual
# --------------------------------------------------------------------------

def _c5(names, residual_tol=None):
    worst = 0.0
    count = 0
    for name in names:
        tg = make_fixture(name)
        for eps in (0.1, 0.25, 0.5):
            E = build_E(tg, eps).E
            w, V = np.linalg.eig(E)
            for i in range(len(w)):
                if abs(w[i]) < 1.0 - 1e-6:
                    r = verify_outgoing(tg, eps, complex(w[i]), V[:, i], depth=20)
                    worst = max(worst, r)
                    count += 1
    tol = 1e-8 if residual_tol is None else residual_tol
    ok = worst < tol and count > 0
    return _status(ok), (
        f"max sup-norm walk residual {worst:.2e} over {count} outgoing states "
        f"(depth-20 truncation)"
    )


# --------------------------------------------------------------------------
# 6. spectral mapping and birth counts
# --------------------------------------------------------------------------

def _c6(names, residual_tol=None):
    worst_map = 0.0
    problems = []
    for name in names:
        tg = make_fixture(name)
        lt = build_operators(tg)
        tvals = lt.eigh()[0]
        sd = spectral_decompose(build_E(tg, 0.0).E0)
        cvals = sd.values()
        preimages = [z for t in tvals for z in joukowsky_preimages(float(t))]
        for z in preimages:
            worst_map = max(worst_map, float(np.min(np.abs(cvals - z))))
        pool = np.array(preimages + [1.0 + 0j, -1.0 + 0j])
        for cv in cvals:
            worst_map = max(worst_map, float(np.min(np.abs(pool - cv))))
        m1, mm1 = birth_multiplicities(tg)
        want = BIRTH_COUNTS[FIXTURES[name][0]]
        cls = classify(tg)
        got = (
            next((c.birth_mult for c in cls if abs(c.value - 1.0) < 1e-9), 0),
            next((c.birth_mult for c in cls if abs(c.value + 1.0) < 1e-9), 0),
        )
        if (m1, mm1) != want or got != want:
            problems.append(f"{name}: births formula {(m1, mm1)}, measured {got}, expected {want}")
        for c in cls:
            if sd.cluster_near(c.value).mult != c.total_mult:
                problems.append(f"{name}: multiplicity mismatch at {c.value:.3f}")
    tol = 1e-9 if residual_tol is None else residual_tol
    ok = worst_map < tol and not problems
    detail = f"max preimage/cluster distance {worst_map:.1e}; births exact on all fixtures"
    if problems:
        detail = "; ".join(problems)
    return _status(ok), detail


# --------------------------------------------------------------------------
# 7. birth-state persistence
# --------------------------------------------------------------------------

def _c7(names, residual_tol=None):
    worst = 0.0
    count = 0
    for name in names:
        tg = make_fixture(name)
        lt = build_operators(tg)
        im0 = build_E(tg, 0.0)
        for lam in (1.0, -1.0):
            U = birth_basis(lt, lam)
            if U.shape[1] == 0:
                continue
            for eps in (0.1, 0.5):
                E = im0.at(eps).E
                worst = max(worst, float(np.linalg.norm(E @ U - lam * U, 2)))
            count += U.shape[1]
    tol = 1e-9 if residual_tol is None else residual_tol
    ok = worst < tol and count > 0
    return _status(ok), (
        f"max ||(E_eps -+ 1) u|| = {worst:.2e} over {count} birth states, eps in {{0.1, 0.5}}"
    )


# --------------------------------------------------------------------------
# 8. eigenvalue motion asymptotics
# --------------------------------------------------------------------------

def _mu1_key(mu1: complex) -> tuple[float, float]:
    return (round(mu1.real, 9), round(mu1.imag, 9))


def _c8(names, residual_tol=None):
    eligible = [n for n in names if n in PERTURB_FIXTURES]
    if not eligible:
        return "skip", "no eligible fixture in the active filter"
    eps_ladder = [0.02, 0.01, 0.005]
    problems = []
    n_first = 0
    n_second = 0
    for name in eligible:
        im = build_E(make_fixture(name), 0.0)
        sd0 = spectral_decompose(im.E0)
        for cl in sd0.clusters:
            led = reduce_eigenvalue(im, cl.value, sd0)
            asym = resonance_asymptote(im, led, eps_ladder, sd0)
            gates = {}
            for b in led.branches:
                if abs(b.mu1) < 1e-10:
                    continue
                key = _mu1_key(b.mu1)
                if key not in gates:
                    rep = assumption_report(im, led, b.mu1, eps_ladder[-1], sd0)
                    gates[key] = rep.gate
            for bi, b in enumerate(led.branches):
                if abs(b.mu1) < 1e-10:
                    continue
                rec = asym["per_branch"][bi]
                if not rec["eps"]:
                    continue
                n_first += 1
                s1 = (
                    np.inf
                    if max(rec["first_resid"]) < 1e-11
                    else fit_loglog_slope(rec["eps"], rec["first_resid"])
                )
                if not s1 >= 1.8:
                    problems.append(
                        f"{name} mu={led.mu:.3f} mu1={b.mu1:.4f}: first-order slope {s1:.2f}"
                    )
                if gates[_mu1_key(b.mu1)]:
                    n_second += 1
                    s2 = (
                        np.inf
                        if max(rec["puiseux_resid"]) < 1e-11
                        else fit_loglog_slope(rec["eps"], rec["puiseux_resid"])
                    )
                    if not s2 >= 1.8:
                        problems.append(
                            f"{name} mu={led.mu:.3f} mu1={b.mu1:.4f}: second-order slope {s2:.2f}"
                        )
    ok = not problems and n_first > 0
    detail = (
        f"all log-log slopes >= 1.8 over eps {eps_ladder}: {n_first} moving branches "
        f"(first order), {n_second} gate-passing (second order)"
    )
    if problems:
        detail = "; ".join(problems)
    return _status(ok), detail


# --------------------------------------------------------------------------
# 9. projection expansion order
# --------------------------------------------------------------------------

def _c9(names, residual_tol=None):
    if "c4-3tails-a" not in names:
        return "skip", "runs on c4-3tails-a only"
    im = build_E(make_fixture("c4-3tails-a"), 0.0)
    sd0 = spectral_decompose(im.E0)
    worst_order = np.inf
    parts = []
    for cl in sd0.clusters:
        coeffs = projection_expansion(im, cl.value, order=3, sd0=sd0)
        errs = []
        for e in (0.02, 0.01):
            P_eps = total_projection(im, e, cl.value, sd0)
            k = kappa(e)
            approx = sum(k**j * coeffs[j] for j in range(4))
            errs.append(float(np.linalg.norm(P_eps - approx, 2)))
        ratio = abs(kappa(0.02)) / abs(kappa(0.01))
        order = np.inf if errs[0] < 1e-12 else float(np.log(errs[0] / errs[1]) / np.log(ratio))
        worst_order = min(worst_order, order)
        parts.append(f"mu={cl.value:.2f}: {order:.2f}")
    ok = worst_order >= 3.7
    return _status(ok), (
        f"observed truncation order per eigenvalue (target >= 3.7): " + ", ".join(parts)
    )


# --------------------------------------------------------------------------
# 10. non-resonant scattering order
# --------------------------------------------------------------------------

def _c10(names, residual_tol=None):
    """Off resonance, Sigma_eps(lam) = B_bb(eps) + O(eps^2).

    The direct port block B_bb(eps) = I + kappa B_bb1 moves every port's
    reflection at first order whatever lam is (the boundary coin's
    tail-to-tail entry is 1 + kappa(1/n - 1)), so the raw defect
    ||Sigma - I|| has slope 1 and is pinned to |kappa| ||B_bb1||; what passes
    through the interior, ||Sigma - I - kappa B_bb1||, has slope 2.
    """
    rng = np.random.default_rng(11)
    eps_ladder = (0.04, 0.02, 0.01)
    raw_slopes = []
    slopes = []
    ratios = []
    flux_slopes = []
    for name in names:
        tg = make_fixture(name)
        im0 = build_E(tg, 0.0)
        muvals = spectral_decompose(im0.E0).values()
        lams = []
        while len(lams) < 8:
            lam = float(rng.uniform(-np.pi, np.pi))
            if float(np.min(np.abs(np.exp(-1j * lam) - muvals))) > 0.35:
                lams.append(lam)
        evs = {e: SigmaEvaluator(im0.at(e)) for e in eps_ladder}
        eye = np.eye(tg.num_ports)
        bb1_norm = float(np.linalg.norm(im0.B_bb1, 2))
        for lam in lams:
            raw = []
            interior = []
            flux = []
            for e in eps_ladder:
                s = evs[e].sigma(lam)
                raw.append(float(np.linalg.norm(s - eye, 2)))
                interior.append(float(np.linalg.norm(s - eye - kappa(e) * im0.B_bb1, 2)))
                flux.append(float(np.max(np.abs(np.abs(s) ** 2 - eye))))
            raw_slopes.append(fit_loglog_slope(eps_ladder, raw))
            slopes.append(fit_loglog_slope(eps_ladder, interior))
            flux_slopes.append(fit_loglog_slope(eps_ladder, flux))
            ratios.append(raw[-1] / (abs(kappa(eps_ladder[-1])) * bb1_norm))
    ok = (
        all(1.8 <= s <= 2.2 for s in slopes)
        and all(0.8 <= s <= 1.2 for s in raw_slopes)
        and all(abs(r - 1.0) <= 0.1 for r in ratios)
    )
    return _status(ok), (
        f"slope of ||Sigma_eps(lambda) - I - kappa B_bb1|| in eps: mean {np.mean(slopes):.3f}, "
        f"range [{min(slopes):.3f}, {max(slopes):.3f}] over {len(slopes)} non-resonant "
        f"lambdas (target 2 +/- 0.2); first-order part: slope of ||Sigma - I|| range "
        f"[{min(raw_slopes):.3f}, {max(raw_slopes):.3f}] (target 1 +/- 0.2), "
        f"||Sigma - I|| / (|kappa| ||B_bb1||) at eps = {eps_ladder[-1]} range "
        f"[{min(ratios):.3f}, {max(ratios):.3f}] (target 1 +/- 0.1); "
        f"max ||Sigma_jk|^2 - delta_jk| slope range [{min(flux_slopes):.3f}, "
        f"{max(flux_slopes):.3f}] (reported, not gated)"
    )


# --------------------------------------------------------------------------
# 11. resonant scattering limit
# --------------------------------------------------------------------------

def _c11(names, residual_tol=None):
    eligible = [n for n in names if n in PERTURB_FIXTURES]
    if not eligible:
        return "skip", "no eligible fixture in the active filter"
    eps_ladder = (0.04, 0.02, 0.01)
    ran = 0
    problems = []
    skipped = []
    for name in eligible:
        im = build_E(make_fixture(name), 0.0)
        sd0 = spectral_decompose(im.E0)
        evaluators = {e: SigmaEvaluator(im.at(e)) for e in eps_ladder}
        for cl in sd0.clusters:
            led = reduce_eigenvalue(im, cl.value, sd0)
            seen = set()
            for b in led.branches:
                if abs(b.mu1) < 1e-10:
                    continue
                key = _mu1_key(b.mu1)
                if key in seen:
                    continue
                seen.add(key)
                rec = resonant_sigma_limit(im, led, b.mu1, evaluators, sd0)
                if not any(
                    bb.hosts_resonance
                    for bb in led.branches
                    if abs(bb.mu1 - b.mu1) < 1e-8
                ):
                    continue
                if rec.caveat:
                    skipped.append(
                        f"{name} mu={led.mu:.2f} mu1={b.mu1:.3f}: "
                        f"a1={rec.verdicts.a1} a2={rec.verdicts.a2} "
                        f"x_nonzero={rec.verdicts.x_nonzero}"
                    )
                    continue
                ran += 1
                decreasing = all(
                    rec.norms[i + 1] < rec.norms[i] for i in range(len(rec.norms) - 1)
                )
                if not (decreasing and rec.norms[-1] < 0.5 * rec.norms[0]):
                    problems.append(
                        f"{name} mu={led.mu:.2f} mu1={b.mu1:.3f}: norms "
                        + " -> ".join(f"{v:.3e}" for v in rec.norms)
                    )
    if ran == 0:
        return "skip", "all hosting branches failed the hypothesis gate: " + "; ".join(skipped)
    ok = not problems
    detail = (
        f"||Sigma_eps(lam_eps) - I - Sigma01|| strictly decreasing with final < "
        f"0.5 x initial on {ran} gate-passing resonant families"
    )
    if skipped:
        detail += f" ({len(skipped)} families skipped by the gate)"
    if problems:
        detail = "; ".join(problems)
    return _status(ok), detail


# --------------------------------------------------------------------------
# 12. stage-one boundary scalar at +-1
# --------------------------------------------------------------------------

def _c12(names, residual_tol=None):
    """The boundary scalar eta1 (eigenvalue of M1) is -1/4 at both +-1.

    Two routes give eta1: the arc-space reduction (Branch.eta1 =
    mu1 / (gamma mu)) and the graph-side Gram matrix (build_M1).  The
    stage-one eigenvalue itself is mu1 = gamma mu eta1, so it carries the
    sign of mu; that rule is checked against the graph-side eta1.
    """
    if "c4-3tails-a" not in names:
        return "skip", "runs on c4-3tails-a only"
    tg = make_fixture("c4-3tails-a")
    im = build_E(tg, 0.0)
    sd0 = spectral_decompose(im.E0)
    ok = True
    parts = []
    for sgn in (1.0, -1.0):
        mu = complex(sgn)
        led = reduce_eigenvalue(im, mu, sd0)
        moving = [b for b in led.branches if abs(b.mu1) > 1e-12]
        if len(moving) != 1:
            return "fail", f"mu={sgn:+.0f}: expected one moving branch, got {len(moving)}"
        b = moving[0]
        if b.eta1 is None:
            return "fail", f"mu={sgn:+.0f}: mu1 = {b.mu1:.6f} has no real boundary scalar"
        graph_eta = build_M1(tg, mu, im).eta1
        if graph_eta.size != 1:
            return "fail", f"mu={sgn:+.0f}: M1 has {graph_eta.size} eigenvalues, expected 1"
        eta_m1 = float(graph_eta[0])
        err_led = abs(b.eta1 - (-0.25))
        err_m1 = abs(eta_m1 - (-0.25))
        err_rule = abs(b.mu1 - led.gamma * mu * eta_m1)
        ok = ok and max(err_led, err_m1, err_rule) <= 1e-10
        parts.append(
            f"mu={sgn:+.0f}: eta1 {b.eta1:+.12f} (reduction, err {err_led:.1e}), "
            f"{eta_m1:+.12f} (M1, err {err_m1:.1e}); "
            f"mu1 {b.mu1.real:+.12f} vs gamma mu eta1 with gamma = {led.gamma:g} "
            f"(err {err_rule:.1e})"
        )
    return _status(ok), "target eta1 = -1/4 at both +-1; " + "; ".join(parts)


_CRITERIA = [
    (1, "unperturbed cycle spectrum", _c1),
    (2, "scattering unitarity", _c2),
    (3, "iteration vs closed form", _c3),
    (4, "resonance confinement", _c4),
    (5, "outgoing-solution residual", _c5),
    (6, "spectral mapping and births", _c6),
    (7, "birth-state persistence", _c7),
    (8, "eigenvalue motion asymptotics", _c8),
    (9, "projection expansion order", _c9),
    (10, "non-resonant scattering order", _c10),
    (11, "resonant scattering limit", _c11),
    (12, "stage-one boundary scalar", _c12),
]


def _active_names(fixture: str | None) -> list[str]:
    if fixture is None:
        return list(FIXTURES)
    if fixture not in FIXTURES:
        raise KeyError(f"unknown fixture {fixture!r}; choose from {sorted(FIXTURES)}")
    return [fixture]


def run_criterion(
    cid: int, fixture: str | None = None, residual_tol: float | None = None
) -> CriterionResult:
    names = _active_names(fixture)
    entry = next((e for e in _CRITERIA if e[0] == cid), None)
    if entry is None:
        raise KeyError(f"no criterion {cid}")
    _, name, fn = entry
    t0 = time.perf_counter()
    try:
        status, detail = fn(names, residual_tol)
    except Exception as exc:  # report, never crash the suite
        status, detail = "fail", f"exception {type(exc).__name__}: {exc}"
    return CriterionResult(cid, name, status, detail, time.perf_counter() - t0)


def run_all(
    fixture: str | None = None, residual_tol: float | None = None
) -> list[CriterionResult]:
    return [run_criterion(cid, fixture, residual_tol) for cid, _, _ in _CRITERIA]
