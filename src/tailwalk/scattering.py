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
from collections.abc import Sequence
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
    "stationary_iterate_stack",
    "transmission_curve",
    "unitarity_defect",
]


class NoConvergence(RuntimeError):
    """Stationary iteration failed to settle within the step budget."""


@dataclass
class ScatteringRecord:
    outgoing: np.ndarray
    steps: int


def _skip(
    ib: IterationBasis, q: np.ndarray, w: np.ndarray, X: np.ndarray, p: np.ndarray,
    budget: list[int],
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The skip phase of :func:`stationary_iterate_stack`: jump each column
    over blocks that cannot stop, ``2^i`` blocks per product with
    ``ib.power(i)``.

    Column c of ``X`` (d x _WINDOW x C) holds the last block's sum and its
    last increments, ``p[c]`` the norm of its last increment and ``q[c] =
    e^{_BLOCK i lam_c}``.  ``U`` is the sum of the last ``m = 2^i`` blocks,
    so ``q^m H^(_BLOCK m) [U | X]`` gives the next jump's sum and its end
    state; after a certified jump, ``U`` plus that sum is the sum of the
    last 2m blocks, which lets the next jump double.  At one block ``U`` is
    ``X``'s first column, so level 0 multiplies ``X`` alone.  All columns
    share the level: a column whose jump is not certified keeps its state,
    and the next product is back at one block.  Column c's phase ends when
    one block fails it or once it has skipped ``budget[c]`` steps (0 leaves
    it out).  Returns the new ``w`` and ``X`` and the steps each column
    skipped: at least its budget when every step before it is certified not
    to stop, else the first block that may stop starts after them.
    """
    n, C = X.shape[0], X.shape[2]
    # a row per carried vector, C x _WINDOW x d: each pair's state is
    # contiguous, and products and norms run on rows
    Y = np.ascontiguousarray(X.transpose(2, 1, 0))  # [U | X] above level 0
    w, q = np.ascontiguousarray(w.T), q[:, None, None]
    p, steps = p.tolist(), [0] * C
    run = [c for c in range(C) if budget[c] > 0]
    level, qs, cols = 0, [q], 0
    while run:
        span = _BLOCK << level  # steps per jump
        Z = (Y.reshape(-1, n) @ ib.power(level).T).reshape(Y.shape)
        Z *= qs[level]
        cols += Z.shape[1] * C
        # squared norms by one vecdot each, as cheap as np.vdot on one vector:
        # np.linalg.norm's per-call overhead exceeds a small matrix's jump
        last2, w2 = np.vecdot(Z[:, -1], Z[:, -1]).real.tolist(), np.vecdot(w, w).real.tolist()
        ok, spent = [], False  # the columns whose jump is certified
        for c in run:
            last = math.sqrt(last2[c])
            if last > _RTOL * max((math.sqrt(w2[c]) + span * p[c]) * (1.0 + 1e-9), 1e-300):
                ok.append(c)
                p[c], steps[c] = last, steps[c] + span
                spent |= steps[c] >= budget[c]
        if len(ok) == C:
            w = w + Z[:, 0]
        elif ok:  # the others keep their state
            held = np.ones((C, 1), dtype=bool)
            held[ok] = False
            w, Z = np.where(held, w, w + Z[:, 0]), np.where(held[:, None], Y, Z)
        else:
            Z = Y
        if level and len(ok) < len(run):
            Y, level = Z[:, 1:], 0  # retry from one block
        else:
            run = ok  # one block failed: that column's phase ends
            if ok and level < _MAX_LEVEL and cols >= (level + 1) * n:
                # the last 2m blocks' sum, then the state at the end of the jump
                Z = np.concatenate([Y[:, :1] + Z[:, :1], Z[:, 1:] if level else Z], axis=1)
                level += 1
                if len(qs) == level:
                    qs.append(qs[-1] * qs[-1])
            Y = Z
        if spent:
            run = [c for c in run if steps[c] < budget[c]]
    return w.T, (Y[:, 1:] if level else Y).transpose(2, 1, 0), steps


def stationary_iterate(
    im: InternalMatrix, lam: float, alpha: np.ndarray, max_steps: int = 200_000
) -> ScatteringRecord:
    """Outgoing port amplitudes for inflow ``alpha`` by time iteration: the
    one-pair case of :func:`stationary_iterate_stack`, which documents the
    iteration.

    Convergence is declared when all of the last ``_WINDOW`` (5) increments
    of the rescaled interior state are below ``_RTOL`` (1e-12) times its
    norm — a fixed horizon would be wrong because the contraction rate
    varies with eps.  ``NoConvergence`` names ``lam`` when no step within
    ``max_steps`` passes.
    """
    return stationary_iterate_stack(im, [lam], [alpha], max_steps)[0]


def stationary_iterate_stack(
    im: InternalMatrix,
    lams: Sequence[float],
    alphas: Sequence[np.ndarray],
    max_steps: int = 200_000,
) -> list[ScatteringRecord]:
    """Outgoing port amplitudes by time iteration, one record per pair
    ``(lams[c], alphas[c])``, each column of the stack stepped under
    :func:`stationary_iterate`'s rule as if alone.

    The iteration runs in the coordinates of ``ib = im.iteration_basis``:
    on an orthonormal basis ``V`` (n x d) of the port Krylov subspace, where
    it steps ``H = V* E V`` and returns ``B_bb alpha + (B_out V) w``, or on
    the arcs (``V = I``, ``H = E``) when that subspace has more than n/2
    dimensions or ``E`` is not finite; the code is the same either way.
    Column c's increments ``d_t = A_c^{t-1} g_c`` (``A_c = e^{i lam_c} H``,
    ``g_c = e^{i lam_c} V* f0_c``) come ``_BLOCK`` at a time.  The first
    block is ``ib.walk(B_in alpha_c)`` times the phases ``e^{i lam_c j}``;
    each later one is ``e^{_BLOCK i lam_c} ib.power(0)`` times the block
    before.  The ladder of squares both read is formed once per basis, and
    lambda enters only as scalars, so every product serves all columns at
    once.  The rule is applied at every step, with windows reaching back
    across block edges, and the first passing step within ``max_steps``
    ends the column's run; a column that has stopped is carried on, unread.
    A block is screened first: every step's window holds its own increment
    and ``||w_t|| <= ||w|| + sum ||d_j||``, so when the block's smallest
    increment exceeds ``_RTOL`` times that bound no step in it can pass,
    and only the running sum and the window's norms are carried on.  NaN or
    inf fails the screen, so such blocks get the per-step check.

    A column's first block to pass the screen starts its skip phase, which
    carries only the last block's sum and its last ``_WINDOW - 1``
    increments, ``X``, plus ``U``, the sum of the last ``m`` blocks; the
    column waits there, unread, until no column is left before its own,
    and then all waiting columns skip together (:func:`_skip`).  A jump of
    ``m = 2^i`` blocks is one product with ``e^{_BLOCK m i lam}`` times
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
    ``(1 + 7.6e-15)^(_BLOCK m)`` stays inside it.  Certification is
    monotone in the jump: when a jump is certified, so is every block
    inside it.  The block where a column's skip phase ends, and so its
    stopping step, therefore does not depend on how its jumps are
    scheduled, up to rounding, and all columns share one level.  After a
    jump every column certifies, the next one doubles, with the jump's sum
    and the carried state in one product as in R. A. Smith's squaring
    method for geometric matrix sums (SIAM J. Appl. Math. 16, 1968), if the
    call's own skip products so far have at least ``(i + 1) d`` columns, so
    level ``i`` is formed (one d x d squaring) only after work that costs
    about as much; whether it was built already by an earlier call changes
    nothing in the result.  A column whose jump fails the test stays where
    it was, and the next product is back at one block; a column's phase
    ends, for good, when one block fails it (for ``m = 1`` it is the screen
    with ``_BLOCK p`` for the block's increments).  The budget never
    truncates a jump: one the budget ends inside is certified like any
    other, and ``NoConvergence`` follows, so every budget at or past the
    stop gives the same result.  On leaving the phase, each column's next
    block is rebuilt from its last carried increment by doubling
    (``ib.walk``, as the first one is), the window's norms are taken from
    the carried increments, and the screened per-step check resumes on full
    blocks.

    ``NoConvergence`` is raised when any column fails, and names each
    failing lambda.
    """
    if not max_steps >= 1:
        raise ValueError(f"need max_steps >= 1, got {max_steps}")
    C = len(lams)
    if len(alphas) != C:
        raise ValueError(f"need one inflow per lambda, got {len(alphas)} for {C}")
    if not C:
        return []
    alphas = np.asarray(alphas, dtype=complex).T  # N x C
    z = np.exp(1j * np.asarray(lams, dtype=float))
    phases = np.cumprod(z[None].repeat(_BLOCK, axis=0), axis=0)  # e^{i lam j}, j = 1.._BLOCK
    q = phases[-1]
    ib = im.iteration_basis
    D = ib.walk(ib.B_in @ alphas) * phases  # d x _BLOCK x C
    n = len(D)
    w = np.zeros((n, C), dtype=complex)
    recent = np.full((_WINDOW - 1, C), np.inf)  # increment norms before the block
    done, stop = [0] * C, [0] * C  # steps taken; the stopping step, 0 before it
    W_stop = np.empty((n, C), dtype=complex)
    # where each column's skip phase starts: the carried state, the running
    # sum and the norm of the last increment
    X = np.empty((n, _WINDOW, C), dtype=complex)
    w_skip, p = np.empty((n, C), dtype=complex), np.empty(C)
    live, waiting = list(range(C)), []  # stepping blocks; waiting to skip, None after it
    fresh = True  # D is a block just built by walk
    while True:
        live = [c for c in live if done[c] < max_steps]
        if not live:
            if not waiting:
                break
            budget = [max_steps - done[c] if c in waiting else 0 for c in range(C)]
            w, X, steps = _skip(ib, q, w_skip, X, p, budget)
            done = [a + b for a, b in zip(done, steps)]
            live = [c for c in waiting if done[c] < max_steps]
            waiting = None  # the phase runs once
            if not live:
                break
            recent = np.linalg.norm(X[:, 1:], axis=0)
            D, fresh = ib.walk(ib.H @ X[:, -1]) * phases, True
        if not fresh:
            D = (ib.power(0) @ D.reshape(n, -1)).reshape(D.shape)
            D *= q
        fresh = False
        inc = np.linalg.norm(D, axis=0)  # _BLOCK x C
        w2 = np.vecdot(w, w, axis=0).real.tolist()
        low, total = inc.min(axis=0).tolist(), inc.sum(axis=0).tolist()
        # the 1e-9 margin covers rounding in the norms the exact rule compares;
        # a block the budget ends inside fails its column either way, so the
        # screen may read its steps past the budget
        screened = [low[c] > _RTOL * max((math.sqrt(w2[c]) + total[c]) * (1.0 + 1e-9), 1e-300)
                    for c in range(C)]
        if all(screened[c] for c in live):
            s = D.sum(axis=1)
            w = w + s
        else:
            W = w[:, None] + np.cumsum(D, axis=1)
            norms = np.concatenate([recent, inc])
            worst = sliding_window_view(norms, _WINDOW, axis=0).max(axis=-1)
            ok = worst <= _RTOL * np.maximum(np.linalg.norm(W, axis=0), 1e-300)
            hit, first = ok.any(axis=0).tolist(), ok.argmax(axis=0).tolist()
            for c in live:
                if not screened[c] and hit[c] and done[c] + first[c] < max_steps:
                    W_stop[:, c], stop[c] = W[:, first[c], c], done[c] + first[c] + 1
            live = [c for c in live if not stop[c]]
            if any(screened[c] for c in live):
                s = D.sum(axis=1)
                w = np.where(screened, w + s, W[:, -1])
            else:
                w = W[:, -1]
        recent = inc[1 - _WINDOW:]
        for c in live:
            done[c] += _BLOCK
        if waiting is not None:  # a column's first screened block starts its skip phase
            enter = [c for c in live if screened[c]]
            if enter:
                new, last = np.concatenate([s[:, None], D[:, 1 - _WINDOW:]], axis=1), inc[-1]
                if len(enter) == C:
                    X, w_skip, p = new, w, last
                else:  # the entering columns' own
                    X[..., enter], w_skip[:, enter] = new[..., enter], w[:, enter]
                    p[enter] = last[enter]
                waiting += enter
                live = [c for c in live if not screened[c]]
    failed = [lam for lam, k in zip(lams, stop) if not k]
    if failed:
        raise NoConvergence(
            f"no Cauchy window of {_WINDOW} steps below rtol={_RTOL} "
            f"within {max_steps} iterations at " + ", ".join(f"lam={lam}" for lam in failed)
        )
    out = alphas.T @ im.B_bb.T + W_stop.T @ ib.B_out.T  # a row per pair
    return [ScatteringRecord(outgoing=o, steps=k) for o, k in zip(out, stop)]


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


def _hermitian_norms(G: np.ndarray) -> np.ndarray:
    """||G||_2 of each Hermitian matrix of a stack, in one eigvalsh: its
    largest |eigenvalue|."""
    return np.abs(np.linalg.eigvalsh(G)).max(axis=-1)


def _defect_grams(sigma: np.ndarray) -> np.ndarray:
    """Sigma* Sigma - I of each matrix of a stack."""
    return np.swapaxes(sigma.conj(), -1, -2) @ sigma - np.eye(sigma.shape[-1])


def _unitarity_defects(sigma: np.ndarray) -> np.ndarray:
    """||Sigma* Sigma - I||_2 of each matrix of a stack, in one eigvalsh."""
    return _hermitian_norms(_defect_grams(sigma))


def unitarity_defect(sigma: np.ndarray) -> float:
    """||Sigma* Sigma - I||_2, the largest over a stack of matrices.

    ``||G||_2 <= ||G||_F`` for each ``G = Sigma* Sigma - I``, so with ``s``
    the 2-norm of the ``G`` of largest Frobenius norm, only those with
    ``||G||_F >= s (1 - 1e-6)`` can hold a larger one (the margin covers
    rounding in the norms), and eigvalsh runs on those alone: bit for bit the
    maximum over the whole stack.  A non-finite norm sends the whole stack to
    eigvalsh, which raises as it would.
    """
    G = _defect_grams(np.asarray(sigma))
    G = G.reshape(-1, *G.shape[-2:])
    F = np.linalg.norm(G, axis=(-2, -1))
    if not np.isfinite(F).all():
        return float(np.max(_hermitian_norms(G)))
    k = int(F.argmax())
    s = float(_hermitian_norms(G[k]))
    near = F >= s * (1 - 1e-6)
    near[k] = False
    return max([s, *_hermitian_norms(G[near]).tolist()])


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
