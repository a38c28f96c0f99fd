"""Scattering matrix on the tail ports, by two independent routes.

Route 1 (time domain, :func:`stationary_iterate`): drive the interior
with a monochromatic inflow, u_{t+1} = E u_t + e^{-i lam t} f0, u_0 = 0,
f0 = B_in alpha.  The rescaled sequence w_t = e^{i lam t} u_t converges
(rate = largest off-circle |mu|) to w = (z I - E)^{-1} f0 with
z = e^{-i lam}, and the outgoing amplitudes are B_bb alpha + B_out w.  The
iteration runs on the port Krylov subspace
(``InternalMatrix.iteration_basis``), decides for itself when to stop, and
calls no eigensolver.

Route 2 (closed form): the same object as a finite spectral sum over the
eigenvalue clusters of E *strictly inside* the unit disk,

    Sigma(lam) = B_bb + sum_mu sum_{s < m(mu)} (z - mu)^{-s-1}
                          B_out P_mu (E - mu)^s P_mu B_in ,

held as one table of Laurent terms that every evaluation reads.

On-circle clusters drop out because embedded eigenstates do not couple to
the ports (P_mu B_in = 0, B_out P_mu = 0); that is what keeps the formula
finite when z itself hits an embedded eigenvalue.  A cluster is on the
circle when the Schur form decouples it (``spectral_decompose``).  One
that still couples to the ports is a resonance so close to the circle
that rounding hid its coupling, and is refused (:class:`ClusterAmbiguity`)
rather than dropped.

The two routes share no linear algebra and are cross-checked to 1e-7 in the
test suite, including at z = -1 on fixtures where -1 is embedded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .internal_spectral import (
    _BLOCK,
    ClusterAmbiguity,
    InternalMatrix,
    IterationBasis,
    SpectralData,
)

# stationary_iterate stops once _WINDOW increments in a row are at most _RTOL
# times the norm of the state
_WINDOW = 5
_RTOL = 1e-12
_SLICE_BYTES = 1 << 20  # transmission_curve's weights per slice of lambdas
_MAX_LEVEL = 11  # jumps of at most 2^11 blocks: (1 + 7.6e-15)^(_BLOCK 2^11) < 1 + 1e-9
# ||R L B_in|| / ||B_in|| above this refuses an on-circle cluster: embedded states
# measure <= 5.2e-12 (3.9e-11 on cycle:4 to eps 1e-5), misfiled resonances >= 0.015
# (0.50 on cycle:4 tails 0,1,2 at eps 1e-7, 3.3e-14 inside the circle)
_MAX_EMBEDDED_COUPLING = 1e-8

__all__ = [
    "NoConvergence",
    "ScatteringRecord",
    "SigmaEvaluator",
    "stationary_iterate",
    "transmission_curve",
    "unitarity_defect",
]


class NoConvergence(RuntimeError):
    """Stationary iteration failed to settle within the step budget."""


@dataclass
class ScatteringRecord:
    outgoing: np.ndarray
    steps: int


def _norm(x: np.ndarray) -> float:
    """||x||_2 of a vector, without np.linalg.norm's per-call overhead,
    which exceeds a small matrix's whole skipped block."""
    return math.sqrt(np.vdot(x, x).real)


def _skip(
    ib: IterationBasis, q: complex, w: np.ndarray, X: np.ndarray, p: float, budget: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """The skip phase of :func:`stationary_iterate`: jump over blocks that
    cannot stop, ``2^i`` blocks per product with ``ib.power(i)``.

    ``X`` holds the last block's sum and its last increments, ``p`` the
    norm of its last increment and ``q = e^{_BLOCK i lam}``.  ``U`` is the
    sum of the last ``m = 2^i`` blocks, so ``q^m H^(_BLOCK m) [U | X]``
    gives the next jump's sum and its end state; after a certified jump,
    ``U`` plus that sum is the sum of the last 2m blocks, which lets the
    next jump double.  At one block ``U`` is ``X``'s first column, so level
    0 multiplies ``X`` alone.  Returns the new ``w`` and ``X`` and the steps
    skipped: at least ``budget`` when every step before it is certified not
    to stop, else the first block that may stop starts after them.
    """
    n = X.shape[0]
    Y = X  # [U | X] above level 0
    level, qs, cols, steps = 0, [q], 0, 0
    while steps < budget:
        m = 1 << level
        Z = qs[level] * (ib.power(level) @ Y)
        cols += Z.shape[1]
        last = _norm(Z[:, -1])
        if not last > _RTOL * max((_norm(w) + _BLOCK * m * p) * (1.0 + 1e-9), 1e-300):
            if not level:
                break
            Y, level = Y[:, 1:], 0  # retry from one block
            continue
        w, p, steps = w + Z[:, 0], last, steps + _BLOCK * m
        if level < _MAX_LEVEL and cols >= (level + 1) * n:
            # the last 2m blocks' sum, then the state at the end of the jump
            Z = np.concatenate([(Y[:, 0] + Z[:, 0])[:, None], Z[:, 1:] if level else Z], axis=1)
            level += 1
            if len(qs) == level:
                qs.append(qs[-1] * qs[-1])
        Y = Z
    return w, (Y[:, 1:] if level else Y), steps


def stationary_iterate(
    im: InternalMatrix, lam: float, alpha: np.ndarray, max_steps: int = 200_000
) -> ScatteringRecord:
    """Outgoing port amplitudes for inflow ``alpha`` by time iteration.

    Convergence is declared when all of the last ``_WINDOW`` (5) increments
    of the rescaled interior state are below ``_RTOL`` (1e-12) times its
    norm — a fixed horizon would be wrong because the contraction rate
    varies with eps.

    The iteration runs in the coordinates of ``ib = im.iteration_basis``:
    on an orthonormal basis ``V`` (n x d) of the port Krylov subspace, where
    it steps ``H = V* E V`` and returns ``B_bb alpha + (B_out V) w``, or on
    the arcs (``V = I``, ``H = E``) when that subspace has more than n/2
    dimensions or ``E`` is not finite; the code is the same either way.
    The increments ``d_t = A^{t-1} g`` (``A = e^{i lam} H``, ``g = e^{i
    lam} V* f0``) come ``_BLOCK`` at a time.  The first block is
    ``ib.walk(B_in alpha)`` times the phases ``e^{i lam j}``; each later
    one is ``e^{_BLOCK i lam} ib.power(0)`` times the block before.  The
    ladder of squares both read is formed once per basis, and lambda enters
    only as scalars.  The rule is applied at every step, with
    windows reaching back across block edges, and the first passing step
    within ``max_steps`` ends the run.  A block is screened first: every
    step's window holds its own increment and ``||w_t|| <= ||w|| + sum
    ||d_j||``, so when the block's smallest increment exceeds ``_RTOL``
    times that bound no step in it can pass, and only the running sum and
    the window's norms are carried on.  NaN or inf fails the screen, so
    such blocks get the per-step check.

    The first block to pass the screen starts the skip phase, which
    carries only the last block's sum and its last ``_WINDOW - 1``
    increments, ``X``, plus ``U``, the sum of the last ``m`` blocks.  It
    jumps ``m = 2^i`` blocks per product with ``e^{_BLOCK m i lam}`` times
    ``ib.power(i) = H^(_BLOCK m)``, from the ladder of squares kept on
    ``ib`` whose lower rungs ``walk`` reads; the product maps ``[U | X]``
    to the jump's sum and its end state.
    ``H`` is a compression of a unitary, so ``||A||_2 <= 1`` and the
    increments never grow: none inside the jump is smaller than its last,
    and none is larger than ``p``, the last one before it.  A jump is
    therefore certified while its last increment exceeds ``_RTOL (||w|| +
    _BLOCK m p)``, with a 1e-9 margin that also covers ``||H||_2``
    exceeding 1 by rounding (by at most 6.2e-15 measured on ``complete:8``
    to ``complete:32``, eps in [0.01, 1], and by 3.1e-15 for ``E`` itself
    up to 992 arcs); jumps are capped at ``2^_MAX_LEVEL`` blocks so that
    ``(1 + 7.6e-15)^(_BLOCK m)`` stays inside it.  After a certified jump
    the next one doubles, with the jump's sum and the carried state in one
    product as in R. A. Smith's squaring method for geometric matrix sums
    (SIAM J. Appl. Math. 16, 1968), if the call's own skip products so far
    have at least ``(i + 1) d`` columns, so level ``i`` is formed (one d x d
    squaring) only after work that costs about as much; whether it was
    built already by an earlier call changes nothing in the result.  A jump
    that fails the test is retried from one block, and the phase ends, for
    good, when one block fails it (for ``m = 1`` it is the screen with
    ``_BLOCK p`` for the block's increments).  The budget never truncates a
    jump: one the budget ends inside is certified like any other, and
    ``NoConvergence`` follows, so every budget at or past the stop gives the
    same result.  On leaving the phase, the next block is rebuilt from the
    last carried increment by doubling (``ib.walk``, as the first one is),
    the window's norms are taken from the carried increments, and the
    screened per-step check resumes on full blocks.
    """
    if not max_steps >= 1:
        raise ValueError(f"need max_steps >= 1, got {max_steps}")
    alpha = np.asarray(alpha, dtype=complex)
    phases = np.cumprod(np.full(_BLOCK, np.exp(1j * lam)))  # e^{i lam j}, j = 1.._BLOCK
    q = phases[-1]
    ib = im.iteration_basis
    D = ib.walk(ib.B_in @ alpha) * phases
    w = np.zeros(len(D), dtype=complex)
    recent = np.full(_WINDOW - 1, np.inf)  # increment norms before the block
    X = None  # skip phase: the last block's sum, then its last _WINDOW - 1 increments
    may_skip = True
    done = 0
    while done < max_steps:
        if X is not None:
            w, X, steps = _skip(ib, q, w, X, p, max_steps - done)
            done += steps
            if done >= max_steps:
                break
            recent = np.linalg.norm(X[:, 1:], axis=0)
            D, X = ib.walk(ib.H @ X[:, -1]) * phases, None
        elif done:
            D = q * (ib.power(0) @ D)
        m = min(_BLOCK, max_steps - done)
        inc = np.linalg.norm(D[:, :m], axis=0)
        norms = np.concatenate([recent, inc])
        # the 1e-9 margin covers rounding in the norms the exact rule compares
        bound = (np.linalg.norm(w) + inc.sum()) * (1.0 + 1e-9)
        if inc.min() > _RTOL * np.maximum(bound, 1e-300):
            s = D[:, :m].sum(axis=1)
            w, recent, done = w + s, norms[m:], done + _BLOCK
            if may_skip:
                X = np.concatenate([s[:, None], D[:, 1 - _WINDOW:]], axis=1)
                p, may_skip = inc[-1], False
            continue
        W = w[:, None] + np.cumsum(D[:, :m], axis=1)
        worst = sliding_window_view(norms, _WINDOW).max(axis=1)
        ok = worst <= _RTOL * np.maximum(np.linalg.norm(W, axis=0), 1e-300)
        if ok.any():
            j = int(np.argmax(ok))
            out = im.B_bb @ alpha + ib.B_out @ W[:, j]
            return ScatteringRecord(outgoing=out, steps=done + j + 1)
        w, recent, done = W[:, -1], norms[m:], done + _BLOCK
    raise NoConvergence(
        f"no Cauchy window of {_WINDOW} steps below rtol={_RTOL} "
        f"within {max_steps} iterations at lam={lam}"
    )


class SigmaEvaluator:
    """Precomputed closed-form scattering matrix, cheap per lambda.

    Reduces every off-circle cluster to the small port-space kernels
    K_{mu,s} = B_out P (E-mu)^s P B_in = (B_out R) N^s (L B_in) once, from
    the cluster's factors, into one Laurent-term table: ``mus``, ``orders``
    (s + 1) and ``terms``, the kernels stacked T x N x N.  Each evaluation
    sums the terms with the scalar weights of :meth:`weights`.  ``sd`` is
    the spectral data of ``im.E``; its ``on_circle`` flags decide which
    clusters drop out, and one that couples to the ports is refused
    (:class:`ClusterAmbiguity`).
    """

    def __init__(self, im: InternalMatrix, sd: SpectralData):
        self.im = im
        mus, orders, terms = [], [], []
        scale = max(float(np.linalg.norm(im.B_in)), 1e-300)
        # a kernel of norm below this, past s = 0, is dropped
        tiny = 1e-14 * max(np.linalg.norm(im.B_out), 1e-300) * scale
        for c in sd.clusters:
            LB = c.L @ im.B_in
            if c.on_circle:
                cpl = float(np.linalg.norm(c.R @ LB)) / scale
                if not cpl <= _MAX_EMBEDDED_COUPLING:
                    raise ClusterAmbiguity(
                        f"on-circle cluster at {c.value:.6f} (1 - |mu| = "
                        f"{1 - abs(c.value):.1e}) couples to the ports at {cpl:.1e}: "
                        f"a resonance cannot be dropped"
                    )
                continue
            BR = im.B_out @ c.R
            acc = LB  # (E - mu)^s P B_in = R acc
            for s in range(c.mult):
                if s:
                    acc = c.N @ acc
                K = BR @ acc
                if s == 0 or np.linalg.norm(K) > tiny:
                    mus.append(c.value)
                    orders.append(s + 1)
                    terms.append(K)
        self.mus = np.array(mus, dtype=complex)
        self.orders = np.array(orders, dtype=int)
        self.terms = np.array(terms, dtype=complex).reshape(len(mus), *im.B_bb.shape)

    def weights(self, z, out: np.ndarray | None = None) -> np.ndarray:
        """(z - mu)^-(s+1) along a new last axis of ``z``: a reciprocal, then
        a power for s >= 1.  ``out`` is a buffer of that shape to fill."""
        W = np.subtract(np.asarray(z)[..., None], self.mus, out=out)
        np.reciprocal(W, out=W)
        high = self.orders > 1
        W[..., high] **= self.orders[high]
        return W

    def sigma(self, lam) -> np.ndarray:
        """Sigma(lam) as an N x N matrix, or an (L, N, N) stack when ``lam``
        is an array of L lambdas (same operations per lambda either way)."""
        W = self.weights(np.exp(-1j * np.asarray(lam, dtype=float)))
        return self.im.B_bb + np.einsum("...t,tij->...ij", W, self.terms)


def _two_norms(stack: np.ndarray) -> np.ndarray:
    """||A||_2 of each matrix of a stack, in one SVD call."""
    return np.linalg.svd(stack, compute_uv=False).max(axis=-1)


def _unitarity_defects(sigma: np.ndarray) -> np.ndarray:
    """||Sigma* Sigma - I||_2 of each matrix of a stack, in one eigvalsh: the
    largest |eigenvalue| of the Hermitian Sigma* Sigma - I."""
    n = sigma.shape[-1]
    gram = np.swapaxes(sigma.conj(), -1, -2) @ sigma - np.eye(n)
    return np.abs(np.linalg.eigvalsh(gram)).max(axis=-1)


def unitarity_defect(sigma: np.ndarray) -> float:
    """||Sigma* Sigma - I||_2, the largest over a stack of matrices."""
    return float(np.max(_unitarity_defects(sigma)))


def transmission_curve(
    im: InternalMatrix,
    lam_grid: np.ndarray,
    inflow: int,
    sd: SpectralData,
    ev: SigmaEvaluator | None = None,
) -> dict[str, np.ndarray]:
    """Total transmission and reflection along a lambda grid.

    For unit inflow on the 0-based port ``inflow``, ``tau_sq`` is the
    summed outgoing power on the other ports and ``reflection_sq`` the
    power returned into the inflow port; they add to 1 by unitarity.
    ``sd`` is the spectral data of ``im.E`` and ``ev`` its closed-form
    evaluator, built here when not given.  A row per lambda is ``Sigma
    alpha = B_bb alpha + W (K alpha)``, from the evaluator's term table,
    with its weights W taken in slices of about ``_SLICE_BYTES`` in one
    reused buffer; each slice's rows of Sigma alpha are reduced to its
    ``tau_sq`` and ``reflection_sq`` at once, so no grid-long Sigma alpha is
    kept.
    """
    if not 0 <= inflow < im.tg.num_ports:
        raise ValueError(f"inflow port {inflow} out of range for {im.tg.num_ports} ports")
    lam_grid = np.asarray(lam_grid, dtype=float)
    alpha = np.zeros(im.tg.num_ports, dtype=complex)
    alpha[inflow] = 1.0
    ev = SigmaEvaluator(im, sd) if ev is None else ev
    z = np.exp(-1j * lam_grid)
    Ka = ev.terms @ alpha
    refl = np.empty(len(z))
    tau = np.empty(len(z))
    rows = max(_SLICE_BYTES // (16 * max(len(Ka), 1)), 1)
    buf = np.empty((min(rows, len(z)), len(Ka)), dtype=complex)
    for lo in range(0, len(z), rows):
        W = ev.weights(z[lo:lo + rows], out=buf[: min(rows, len(z) - lo)])
        out = im.B_bb @ alpha + W @ Ka  # the slice's rows of Sigma alpha
        hi = lo + len(W)
        refl[lo:hi] = np.abs(out @ alpha.conj()) ** 2
        tau[lo:hi] = np.linalg.norm(out, axis=1) ** 2 - refl[lo:hi]
    return {
        "lambda": lam_grid,
        "re_exp_minus_i_lambda": z.real,
        "im_exp_minus_i_lambda": z.imag,
        "tau_sq": tau,
        "reflection_sq": refl,
    }
