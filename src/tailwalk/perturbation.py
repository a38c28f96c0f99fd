"""Two-stage eigenvalue reduction for the coupling family E(eps) = E0 + kappa E1.

E0 is unitary, hence semi-simple, so the classical reduction machinery
applies at every eigenvalue mu: with P the spectral projector, S_mu the
reduced resolvent sum_{zeta != mu} (zeta - mu)^{-1} P_zeta, and X = E1,

  stage 1:  A1 = P X P  restricted to Ran(P)      -> eigenvalues mu1,
  stage 2:  A2 = -P1 X S_mu X P1  on Ran(P1)      -> eigenvalues mu2,

giving the branch expansion mu(kappa) = mu + kappa mu1 + kappa^2 mu2 + o(kappa^2).
Stage one is A1 = gamma mu M1 with M1 Hermitian (the graph's boundary Gram
matrix, :meth:`LaplacianT.boundary_gram`), one ``eigh`` with real
eigenvalues eta1 and mu1 = gamma mu eta1; stage two reads S_mu = R diag(w) L
through E0's factors and never forms it, and X through E1's factors in E0's
eigenbasis (:attr:`Coupling.coupling_factors`).  Stage two
splits only what can split: a moving stage-one eigenspace of dimension two
or more.  One of dimension one is its own branch, with mu2 the 1 x 1 A2,
and the persistent one (mu1 = 0) lies in Ker X, where A2 = 0: it is one
branch with mu2 = 0 exactly.
The total projection of the perturbed group expands as
P(kappa) = P + kappa P^(1) + kappa^2 P^(2) + kappa^3 P^(3) + o(kappa^3); the
coefficients are produced by full slot enumeration (the compact textbook
displays drop symmetric terms that matter beyond second order):

  P^(k) = (-1)^(k+1) * sum over (e_0..e_k), e_i >= -1, sum e_i = -1 of
          F(e_0) X F(e_1) X ... X F(e_k),   F(-1) = -P, F(n>=0) = S_mu^(n+1).

Everything here works on one unperturbed problem, ``base``: the
:class:`Coupling` at eps = 0, holding E0's eigenbasis R, L = R* (where P and
S_mu are diagonal) and E1's rank-r factors in it, each formed once per run;
the reduction reads nothing else.  The graph side, M1 of
:meth:`LaplacianT.boundary_gram` on the T-eigenspaces the Joukowsky map lifts
to E0's, is a second route that checks the reduction from the graph alone:
only ``verify`` and the tests build it.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coin_evolution import kappa
from .internal_spectral import InternalMatrix, SpectralCluster, SpectralData, spectral_decompose
from .scattering import SigmaEvaluator, _two_norms, _unitarity_defects
from .smt_laplacian import unit_sign

__all__ = [
    "GroupEscapedContour",
    "NonUnitaryLimit",
    "LIMIT_UNITARITY_TOL",
    "Coupling",
    "Branch",
    "Family",
    "ReductionLedger",
    "AssumptionReport",
    "ResonantLimitRecord",
    "assumption_report",
    "total_projection",
    "projection_expansion",
    "reduce_eigenvalue",
    "resonance_asymptote",
    "resonant_sigma_limit",
    "fit_loglog_slope",
]


class GroupEscapedContour(RuntimeError):
    """No group of E(eps) continues an E0 cluster (:meth:`ReductionLedger.group`)."""


class NonUnitaryLimit(RuntimeError):
    """A family's resonant limit I + Sigma01 is not unitary."""


# largest ||(I + Sigma01)* (I + Sigma01) - I||_2 of a resonant limit that is
# accepted as unitary: measured at most 1.2e-13 on six presets and 1.5e-14
# over random graphs, and at least 4.2e-2 with every pole weight halved
LIMIT_UNITARITY_TOL = 1e-10


@dataclass
class Coupling:
    """One E(eps), factored once at the run's cluster tolerance and shared by
    every consumer: ``sd`` is its spectral data, and the closed-form
    evaluator is built on first use.

    At eps = 0 it is the unperturbed problem, ``base``: E0's eigenbasis and
    E1's factors in it (:attr:`coupling_factors`), all the reduction reads.
    """

    im: InternalMatrix
    sd: SpectralData

    @cached_property
    def sigma(self) -> SigmaEvaluator:
        return SigmaEvaluator(self.im, self.sd)

    @cached_property
    def coupling_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(V1^T R, L U1): E1 = U1 V1^T read through the decomposition's R
        and L, r x n and n x r, formed once and the only reading of E1: a
        cluster's stage-one factors are their columns and rows ``span``, and
        E1 in the eigenbasis, L E1 R, is their product."""
        return self.im.V1.T @ self.sd.R, self.sd.L @ self.im.U1


_STAGE_TOL = 1e-8  # cluster tolerance of both stages of reduce_eigenvalue
# |mu1| at or below this is mu1 = 0: the eigenspace does not move, and its branches
# are the persistent ones (on 3 x 300 random graphs: <= 9.7e-17, moving >= 7.3e-6)
_MU1_ZERO = 1e-9
_SLOPE_CUT = 1e-13  # a residual ladder never above this is zero: no log-log slope
_STAGE1_HERMITIAN = 1e-10  # largest ||H - H*||_F of a stage-one block H = A1 / (gamma mu)
# hosting branches per stacked QR and SVD of hypothesis a1: a stack's arrays hold
# n x m x this, where all of cycle:128's 248 families at once held 4.1 n x n
_SINES_STACK = 64


def _resolvent_weights(sd: SpectralData, cl: SpectralCluster) -> np.ndarray:
    """w in the reduced resolvent at cl, sum over the clusters zeta other than
    cl of P_zeta / (zeta - cl.value) = R diag(w) L: 0 on cl's own columns."""
    d = sd.column_values - cl.value
    d[cl.span] = np.inf
    return 1.0 / d


def _gap(sd: SpectralData, cl: SpectralCluster) -> float:
    """Distance from cl to the nearest other cluster of sd, 1.0 for a lone one:
    cl's own distance is exactly 0, and every other is positive."""
    d = sd.distances(cl.value)
    return float(d[d > 0].min()) if len(d) > 1 else 1.0


def total_projection(cpl: Coupling, ledger: ReductionLedger) -> np.ndarray:
    """Total projection of the group of E(eps) continuing the ledger's cluster
    (:meth:`ReductionLedger.group`): the sum of ``cpl``'s factored R_J L_J
    over the clusters J that hold it."""
    cols = _group_columns(ledger, cpl)
    return cpl.sd.R[:, cols] @ cpl.sd.L[cols]


def _group_columns(ledger: ReductionLedger, cpl: Coupling) -> np.ndarray:
    """The columns of ``cpl``'s R (rows of its L), ascending, of the clusters
    that hold the ledger's group: each eigenvalue's is the nearest value."""
    cv = cpl.sd.column_values
    nearest = cv[np.abs(cv[:, None] - ledger.group(cpl)).argmin(axis=0)]
    return np.flatnonzero((cv[:, None] == nearest).any(axis=1))


def projection_expansion(ledger: ReductionLedger) -> list[np.ndarray]:
    """Taylor coefficients [P, P^(1), P^(2), P^(3)] of the total projection
    of the ledger's group.

    Full slot enumeration over resolvent exponents; exact for semi-simple
    unperturbed eigenvalues (our E0 is unitary).  The slots are summed in
    E0's eigenbasis, where X = L E1 R and every F(e) is diagonal:
    F(-1) = -1 on the cluster's columns, F(e >= 0) = w^(e+1) with w the
    reduced resolvent's weights; each coefficient is R acc L.
    """
    base, cl = ledger.base, ledger.cluster
    order = 3
    VR, LU = base.coupling_factors
    X = LU @ VR
    w = _resolvent_weights(base.sd, cl)
    minus_p = np.zeros(len(w))
    minus_p[cl.span] = -1.0

    def F(e: int) -> np.ndarray:
        return minus_p if e == -1 else w ** (e + 1)

    coeffs = [cl.projection]
    for k in range(1, order + 1):
        acc = np.zeros_like(X)
        for slots in itertools.product(range(-1, k), repeat=k + 1):
            if sum(slots) != -1:
                continue
            term = F(slots[0])[:, None] * X * F(slots[1])
            for e in slots[2:]:
                term = (term @ X) * F(e)
            acc = acc + term
        coeffs.append((-1.0) ** (k + 1) * (base.sd.R @ acc @ base.sd.L))
    return coeffs


@dataclass(eq=False)  # compared by identity, so families can be sets of branches
class Branch:
    """One second-stage branch: its projection is P2 = ``basis`` @ ``left``,
    ``basis`` (n x m) orthonormal, formed by :attr:`P2` on demand only;
    ``eta1`` = mu1 / (gamma mu), None where mu1 = 0.  A persistent branch
    (mu1 = 0) is the whole stage-one kernel: mu2 = 0 exactly, and P2 is
    orthogonal, ``left`` = ``basis``*."""

    mu1: complex
    mu2: complex
    multiplicity: int
    basis: np.ndarray
    left: np.ndarray
    eta1: float | None = None
    hosts_resonance: bool = False

    @property
    def persistent(self) -> bool:
        """mu1 = 0: the branch lies in Ker E1, and no coupling moves it."""
        return self.eta1 is None

    @property
    def P2(self) -> np.ndarray:
        return self.basis @ self.left


@dataclass
class Family:
    """One moving stage-one eigenspace of a ledger: the (mu, mu1) family.

    ``eta1`` is the boundary scalar mu1 / (gamma mu), an eigenvalue of the
    Hermitian stage-one block and so always real; ``branches`` are the
    second-stage branches the eigenspace splits into, in ledger order.
    """

    mu1: complex
    eta1: float
    branches: list[Branch]


@dataclass
class ReductionLedger:
    """The branches at one cluster of E0 and the one record of their group:
    ``base``, the unperturbed problem, ``cluster`` and ``stage1_defect``,
    ||H - H*||_F of its stage-one block H.  ``mu`` and ``gamma`` derive from
    these, as, formed on first use, do ``gap`` and the verdicts of
    :class:`AssumptionReport` that hold for every family, ``a2`` and ``a3``."""

    base: Coupling
    cluster: SpectralCluster
    branches: list[Branch]
    families: list[Family]
    stage1_defect: float

    @property
    def mu(self) -> complex:
        return self.cluster.value

    @property
    def gamma(self) -> float:
        return _gamma_scalar(self.mu)

    @cached_property
    def gap(self) -> float:
        """Distance to the nearest other cluster of E0, 1.0 for a lone one."""
        return _gap(self.base.sd, self.cluster)

    def group(self, cpl: Coupling) -> np.ndarray:
        """The eigenvalues of ``cpl``'s E(eps) that continue the cluster: those
        within ``gap`` / 2 of ``mu``, in Schur-diagonal order.  A disk that
        holds other than the cluster's multiplicity of them (groups
        exchanging eigenvalues, eps too large for the gap) raises
        :class:`GroupEscapedContour`."""
        radius, m = 0.5 * self.gap, self.cluster.mult
        vals = cpl.sd.eigenvalues
        group = vals[np.abs(vals - self.mu) < radius]
        if len(group) != m:
            raise GroupEscapedContour(
                f"{len(group)} eigenvalues of E at eps={cpl.im.eps:g} lie within {radius:.3g} "
                f"of {self.mu:.4f}, whose group has multiplicity {m}"
            )
        return group

    @cached_property
    def a2(self) -> bool:
        """The stage-2 projections resolve Ran(P): in its coordinates,
        P = R L, L (sum P2) R against L R = I_m."""
        cl = self.cluster
        K = sum((cl.L @ b.basis) @ (b.left @ cl.R) for b in self.branches)
        return float(np.linalg.norm(K - np.eye(cl.mult))) < 1e-8 * cl.mult**0.5

    @cached_property
    def a3(self) -> bool:
        """Twice the bound gap^-1 (#sigma_p - 1) nu_minus^-2 on |mu2| against the
        best constant stage one provides, from the families' smallest -eta1
        (M1's eigenvalues, all < 0: criterion 12 checks it); false with none."""
        tg = self.base.im.tg
        nu_minus = min(int(tg.total_deg[v]) for v in tg.boundary_vertices)
        lam_min = min((-f.eta1 for f in self.families), default=0.0)
        lhs = 2.0 * ((1.0 / self.gap) * (len(self.base.sd.clusters) - 1) * nu_minus ** (-2))
        rhs = lam_min * (1.0 - 1.0 / nu_minus) / 2.0  # c = 1 / (nu_plus lam_min) cancels nu_plus
        return bool(nu_minus >= 3 and lhs < rhs)


def _gamma_scalar(mu: complex) -> float:
    """gamma in A1 = gamma mu M1: 1 at mu = +-1, 1/2 at every other mu."""
    return 1.0 if unit_sign(mu) else 0.5


def _second_order(mu: complex, ge: float, mu2: complex) -> complex:
    """mu ge (ge + 1) - 2 mu2, ge = gamma eta1: twice the kappa^2 term of a
    branch's motion off the first-order path mu e^{-i pi ge eps}."""
    return mu * ge * (ge + 1.0) - 2.0 * mu2


def reduce_eigenvalue(base: Coupling, mu0: complex) -> ReductionLedger:
    """Two-stage reduction at the unperturbed eigenvalue mu0.

    Branches are labelled by (mu1, mu2) and carry their multiplicity and
    P2's factors.  The reduction works in E0's eigenbasis: E0 is unitary,
    so the cluster's ``R`` is an orthonormal basis Q of Ran(P) and its
    ``L`` is Q*.  The bases are nested: Q spans Ran(P), Q1 = Q G1 a
    stage-one eigenspace, Q1 Q'' a stage-two one.  X = E1 is read only
    through V1^T R and L U1, formed once per run
    (:attr:`Coupling.coupling_factors`), of which the cluster's are the
    columns and rows ``span``.  Stage one is ``eigh`` of the Hermitian part
    of H = Q* X Q / (gamma mu) = (L U1)(V1^T R) / (gamma mu); ||H - H*||_F
    above ``_STAGE1_HERMITIAN`` (absolute: a purely persistent group has
    H = 0 to rounding) raises ``np.linalg.LinAlgError``.  Its groups are
    the runs of the ascending eta1 whose steps in mu1 = gamma mu eta1 stay
    below ``_STAGE_TOL``.  Stage two is E2 = -(G1* L U1) M (V1^T R G1),
    with the r x r M = V1^T S_mu U1 = (V1^T R diag(w))(L U1).  The group with
    |mu1| <= ``_MU1_ZERO`` spans stage one's kernel, Ker E1 within Ran(P):
    the persistent subspace of mu0, which no coupling moves.  There E2 = 0,
    so it is one branch, (mu1, 0) with P2 = Q1 Q1*, and no E2 is formed.

    Each other stage-one group is one :class:`Family`.  Stage two splits
    it by ``spectral_decompose`` of E2, at ``_STAGE_TOL``, when it has two
    or more members; a group of one is one branch, mu2 = E2[0, 0] with
    P2 = Q1 Q1*, the values a 1 x 1 decomposition gives.  A branch of a
    family hosts resonances when its predicted second-order radial motion,
    Re(ge^2 + ge - 2 mu2 / mu) with ge = gamma eta1, points inward.  Groups
    come in ascending eta1: the families, then the mu1 = 0 group.
    """
    cl = base.sd.cluster_near(mu0)
    mu = cl.value
    gamma = _gamma_scalar(mu)
    Q = cl.R
    VR, LU = base.coupling_factors
    QU, VQ = LU[cl.span], VR[:, cl.span]  # Q* X = QU V1^T and X Q = U1 VQ
    H = (QU @ VQ) / (gamma * mu)
    defect = float(np.linalg.norm(H - H.conj().T))
    if defect > _STAGE1_HERMITIAN:
        raise np.linalg.LinAlgError(
            f"stage-one block A1 / (gamma mu) at mu={mu:.4f} is not Hermitian: "
            f"||H - H*||_F = {defect:.2e} > {_STAGE1_HERMITIAN:g}"
        )
    eta, G = np.linalg.eigh((H + H.conj().T) / 2.0)
    groups = np.split(np.arange(len(eta)), np.flatnonzero(gamma * np.diff(eta) >= _STAGE_TOL) + 1)

    # E2 = -(G1* QU) M (VQ G1), M = V1^T S_mu U1 = (V1^T R diag(w)) (L U1)
    M = (VR * _resolvent_weights(base.sd, cl)) @ LU

    branches: list[Branch] = []
    families: list[Family] = []
    for g in groups:
        eta1 = float(eta[g].mean())
        mu1 = gamma * mu * eta1
        G1 = G[:, g]
        Q1 = Q @ G1
        if abs(mu1) <= _MU1_ZERO:  # Ran Q1 lies in Ker E1, where E2 = 0
            branches.append(Branch(mu1, 0j, len(g), Q1, Q1.conj().T))
            continue
        E2 = -((G1.conj().T @ QU) @ M @ (VQ @ G1))
        if len(g) == 1:  # +0.0 as spectral_decompose's representative: no -0.0 part
            split = [(complex(E2[0, 0] + 0.0), 1, Q1, Q1.conj().T)]
        else:
            split = []
            for c2 in spectral_decompose(E2, cluster_tol=_STAGE_TOL).clusters:
                Qr, Rr = np.linalg.qr(c2.R)
                split.append((c2.value, c2.mult, Q1 @ Qr, (Rr @ c2.L) @ Q1.conj().T))
        fam = Family(mu1, eta1, [
            Branch(mu1, mu2, m, basis, left, eta1=eta1, hosts_resonance=bool(
                (_second_order(mu, gamma * eta1, mu2) / mu).real < -1e-12))
            for mu2, m, basis, left in split
        ])
        branches += fam.branches
        families.append(fam)
    return ReductionLedger(base, cl, branches, families, defect)


def fit_loglog_slope(eps_values, residuals) -> float | np.ndarray:
    """Least-squares slope of log residual against log eps; of a matrix of
    residuals, one slope per column (series), all from one ``lstsq``."""
    x = np.log(np.asarray(eps_values, dtype=float))
    y = np.log(np.maximum(np.asarray(residuals, dtype=float), 1e-300))
    A = np.vstack([x, np.ones_like(x)]).T
    slope = np.linalg.lstsq(A, y, rcond=None)[0][0]
    return float(slope) if y.ndim == 1 else slope


_SLOPE_KINDS = ("first_order", "second_order")  # resonance_asymptote's slopes


def resonance_asymptote(ledger: ReductionLedger, ladder: Mapping[float, Coupling]) -> dict:
    """Predicted vs. true eigenvalue motion for every branch of one group.

    ``ladder`` maps each eps, in ladder order, to its :class:`Coupling`;
    the true eigenvalues are the group's at each eps,
    :meth:`ReductionLedger.group` (which raises :class:`GroupEscapedContour`
    where there is none), in Schur-diagonal order.  They are matched to
    branches by nearest distance to the second-order prediction
    mu + kappa mu1 + kappa^2 mu2 (branch capacity = multiplicity), which
    tells apart branches that share mu1 and only separate at second order.

    Returns ``{"rows", "slopes"}``: CSV-ready rows, and per branch, in
    ledger order, the log-log slopes in eps of its residual against each
    prediction, keyed ``first_order`` (mu + kappa mu1) and ``second_order``
    (plus kappa^2 mu2).  At each eps a branch's residual is the largest over
    its eigenvalues.  A kind whose residual never exceeds ``_SLOPE_CUT`` is
    zero, and gets no slope.
    """
    mu = ledger.mu
    rows = []
    # resid[eps, branch, kind], kinds in _SLOPE_KINDS order
    resid = np.zeros((len(ladder), len(ledger.branches), len(_SLOPE_KINDS)))
    for j, (eps, cpl) in enumerate(ladder.items()):
        k = kappa(eps)
        group = ledger.group(cpl)
        # nearest-neighbour matching on the second-order prediction
        preds = [mu + k * b.mu1 + k**2 * b.mu2 for b in ledger.branches]
        pairs = []
        for zi, z in enumerate(group):
            for bi, pred in enumerate(preds):
                pairs.append((abs(z - pred), zi, bi))
        pairs.sort(key=lambda p: p[0])
        cap = {bi: b.multiplicity for bi, b in enumerate(ledger.branches)}
        assigned: dict[int, int] = {}
        for _, zi, bi in pairs:
            if zi in assigned or cap[bi] == 0:
                continue
            assigned[zi] = bi
            cap[bi] -= 1
        for zi, z in enumerate(group):
            bi = assigned[zi]
            b, pred = ledger.branches[bi], preds[bi]
            rows.append({"epsilon": float(eps), "re_true": z.real, "im_true": z.imag,
                         "re_pred": pred.real, "im_pred": pred.imag, "abs_err": abs(z - pred)})
            resid[j, bi] = np.maximum(resid[j, bi], [abs(z - (mu + k * b.mu1)), abs(z - pred)])
    # every (branch, kind) series in one fit
    fits = fit_loglog_slope(list(ladder), resid.reshape(len(ladder), -1)).reshape(resid.shape[1:])
    slopes = [
        {kind: s for kind, s, moves in zip(_SLOPE_KINDS, sb, mb) if moves}
        for sb, mb in zip(fits.tolist(), (resid.max(axis=0) > _SLOPE_CUT).tolist())
    ]
    return {"rows": rows, "slopes": slopes}


@dataclass
class AssumptionReport:
    """Numerical verdicts for the hypotheses behind the resonant limit.

    a1: the eigenvectors of the perturbed group (:meth:`ReductionLedger.group`)
        line up with the stage-2 projections (subspace angle at the smallest
        eps below 0.2 rad); false where no group continues the cluster.
    a2: stage-2 projections resolve the unperturbed eigenspace.
    a3: the global smallness inequality (reported, not gated on: it fails
        on all small desk fixtures while the limit formula still holds).
    x_nonzero: non-degeneracy of the branch data.
    """

    a1: bool
    a2: bool
    a3: bool
    x_nonzero: bool

    @property
    def gate(self) -> bool:
        return self.a1 and self.a2 and self.x_nonzero


@dataclass
class ResonantLimitRecord:
    mu: complex
    gamma: float
    family: Family
    lam_eps: list[float]
    norms: list[float]
    sigma01: np.ndarray
    verdicts: AssumptionReport
    unitarity_defect: float  # ||(I + Sigma01)* (I + Sigma01) - I||_2


def _pole_weights(
    ledger: ReductionLedger, fam: Family
) -> tuple[complex, dict[Branch, complex | None]]:
    """Xs = mu ge (ge + 1), ge = gamma eta1, of one family, and the weight
    2 / (Xs - 2 mu2) of each of its hosting branches in Sigma01: None where
    the pole is degenerate, |Xs - 2 mu2| < 1e-10 max(|Xs|, |mu2|)."""
    ge = ledger.gamma * fam.eta1
    Xs = _second_order(ledger.mu, ge, 0.0)
    weights: dict[Branch, complex | None] = {}
    for b in fam.branches:
        if b.hosts_resonance:
            denom = _second_order(ledger.mu, ge, b.mu2)
            degenerate = abs(denom) < 1e-10 * max(abs(Xs), abs(b.mu2), 1e-30)
            weights[b] = None if degenerate else 2.0 / denom
    return Xs, weights


def assumption_report(ledger: ReductionLedger, fam: Family, probe: Coupling) -> AssumptionReport:
    """Numerically evaluate the resonant-limit hypotheses for one (mu, mu1) family.

    a1 compares, at the probe coupling, the perturbed eigenvectors of each
    hosting branch (the ``R`` columns of the probe's group,
    :meth:`ReductionLedger.group`, nearest its prediction, orthonormalised)
    against the range of its stage-2 projection (:func:`_hosting_sines`);
    where no group continues the cluster at the probe there are no
    eigenvectors to judge, and a1 is false.  a2 and a3 hold for the whole
    ledger and are read from it (:class:`ReductionLedger`).  Nothing here
    raises.
    """
    cols = _probe_columns(ledger, probe)
    sines = None if cols is None else _hosting_sines(probe, [(ledger, fam, cols)])[0]
    return _assumption_report(ledger, fam, sines)


def _probe_columns(ledger: ReductionLedger, probe: Coupling) -> np.ndarray | None:
    """The probe's group columns (:func:`_group_columns`), None where no group
    continues the cluster there."""
    try:
        return _group_columns(ledger, probe)
    except GroupEscapedContour:
        return None


def _hosting_sines(
    probe: Coupling, families: Sequence[tuple[ReductionLedger, Family, np.ndarray]]
) -> list[np.ndarray]:
    """For each (ledger, family, probe group columns) of ``families``, the
    largest sine of the principal angles between each hosting branch's
    stage-2 range and the probe's eigenvectors nearest its prediction
    mu + kappa mu1 + kappa^2 mu2, in branch order.

    A branch of multiplicity m takes the m columns of the probe's ``R``
    nearest its prediction, orthonormalised by QR; the sines are the
    singular values of their part outside the branch's orthonormal
    ``basis``.  The branches of one multiplicity, across all ``families``,
    share one stacked ``np.linalg.qr`` and one stacked ``np.linalg.svd``
    per ``_SINES_STACK`` of them.
    """
    k = kappa(probe.im.eps)
    by_mult: dict[int, list] = {}  # multiplicity -> (slot, basis, the probe's columns)
    ends = []  # each family's slots end here
    slot = 0
    for ledger, fam, cols in families:
        w = probe.sd.column_values[cols]
        for b in fam.branches:
            if b.hosts_resonance:
                pred = ledger.mu + k * b.mu1 + k**2 * b.mu2
                near = cols[np.argsort(np.abs(w - pred), kind="stable")[: b.multiplicity]]
                by_mult.setdefault(b.multiplicity, []).append((slot, b.basis, near))
                slot += 1
        ends.append(slot)
    largest = np.empty(slot)
    for picks in by_mult.values():
        for c in range(0, len(picks), _SINES_STACK):
            slots, bases, near = zip(*picks[c : c + _SINES_STACK])
            Vb = np.linalg.qr(probe.sd.R[:, np.array(near)].transpose(1, 0, 2))[0]
            B = np.stack(bases)
            sines = np.linalg.svd(Vb - B @ (B.conj().transpose(0, 2, 1) @ Vb), compute_uv=False)
            largest[list(slots)] = sines.max(axis=1)
    return [largest[a:b] for a, b in zip([0, *ends], ends)]


def _assumption_report(
    ledger: ReductionLedger, fam: Family, sines: np.ndarray | None
) -> AssumptionReport:
    """:func:`assumption_report` from the family's hosting-branch ``sines``
    (:func:`_hosting_sines`), None where no group continues the cluster at
    the probe."""
    Xs, weights = _pole_weights(ledger, fam)
    x_ok = abs(Xs) > 1e-12 and None not in weights.values()
    a1 = sines is not None and not (sines > 0.2).any()
    return AssumptionReport(a1=a1, a2=ledger.a2, a3=ledger.a3, x_nonzero=x_ok)


def resonant_sigma_limit(
    ledgers: Sequence[ReductionLedger], ladder: Mapping[float, Coupling]
) -> list[ResonantLimitRecord]:
    """Limit form of the scattering matrix along each family's resonant path.

    At lam(eps) with e^{-i lam} = mu e^{-i pi gamma eta1 eps}, the
    scattering matrix converges to I + Sigma01 where Sigma01 sums, over the
    resonance-hosting second-stage branches of the (mu, mu1) family,

        [2 / (Xs - 2 mu2)] * B_out1 P2 B_in1,   Xs = mu ge (ge + 1),

    with ge = gamma eta1.  The coefficient is the scalar limit of
    kappa^2 / (z_eps - nu(kappa)): along the path, z_eps - nu(kappa) =
    kappa^2 (Xs/2 - mu2) + o(kappa^2), one simple pole per semi-simple
    branch — a degenerate branch enters through the rank of P2 only, not
    through any power of rho = -2 mu2/(Xs - 2 mu2) (writing the coefficient
    as 2(1 - rho)/Xs is the same thing; geometric rho-series factors are
    not, and fail numerically for rank-2 branches).

    The limit is unitary, as each Sigma(lam_eps) is: every record carries
    its ``unitarity_defect``.  Computation always completes; hypothesis
    failures only show in the record's ``verdicts``, and a non-unitary limit
    in its defect, so callers can decide what to gate.

    Returns one record per family of each ledger, in order.  Each eps
    evaluates Sigma once, at every family's lambda together, and takes the
    families' norms from one stacked SVD; the limits' defects come from one
    stacked eigvalsh, and every family's hypothesis a1 from one stacked QR
    and SVD per branch multiplicity and ``_SINES_STACK`` branches
    (:func:`_hosting_sines`).  ``ladder``
    maps each eps, in ladder order, to its :class:`Coupling`; the
    hypotheses are probed at the smallest eps.
    Callers running several ledgers on one ladder share it, so each E(eps)
    is factored once.
    """
    probe = ladder[min(ladder)]
    families = [(ledger, fam) for ledger in ledgers for fam in ledger.families]
    if not families:  # no moving family: nothing to evaluate
        return []
    eye = np.eye(probe.im.tg.num_ports)
    sigma01 = np.zeros((len(families),) + eye.shape, dtype=complex)
    for s01, (ledger, fam) in zip(sigma01, families):
        im = ledger.base.im
        for b, w in _pole_weights(ledger, fam)[1].items():
            if w is not None:
                s01 += w * ((im.B_out1 @ b.basis) @ (b.left @ im.B_in1))
    cols = []  # the probe's group is looked up once per ledger
    for ledger in ledgers:
        found = _probe_columns(ledger, probe) if ledger.families else None
        cols += [found] * len(ledger.families)
    judged = iter(_hosting_sines(probe, [(ledger, fam, c) for (ledger, fam), c in
                                         zip(families, cols) if c is not None]))
    verdicts = [_assumption_report(ledger, fam, None if c is None else next(judged))
                for (ledger, fam), c in zip(families, cols)]
    records = [
        ResonantLimitRecord(
            mu=ledger.mu, gamma=ledger.gamma, family=fam, lam_eps=[], norms=[],
            sigma01=s01, verdicts=verdict, unitarity_defect=float(defect),
        )
        for (ledger, fam), s01, verdict, defect in zip(
            families, sigma01, verdicts, _unitarity_defects(eye + sigma01)
        )
    ]
    for eps, cpl in ladder.items():
        lams = [
            float(-np.angle(r.mu) + np.pi * (r.gamma * r.family.eta1) * eps) for r in records
        ]
        norms = _two_norms(cpl.sigma.sigma(np.array(lams)) - eye - sigma01)
        for r, lam, norm in zip(records, lams, norms):
            r.lam_eps.append(lam)
            r.norms.append(float(norm))
    return records
