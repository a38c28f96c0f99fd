"""Scattering matrix on the tail ports, by two independent routes.

Route 1 (time domain): drive the interior with a monochromatic inflow,
u_{t+1} = E u_t + e^{-i lam t} f0, u_0 = 0, f0 = B_in alpha.  The rescaled
sequence w_t = e^{i lam t} u_t converges (rate = largest off-circle |mu|)
to w = (z I - E)^{-1} f0 with z = e^{-i lam}, and the outgoing amplitudes
are alpha_out = B_bb alpha + B_out w.  Its increments d_t = w_t - w_{t-1}
= A^{t-1} g, with A = e^{i lam} E and g = e^{i lam} f0, are advanced a block
of 64 steps per matrix product with A^64 = e^{64 i lam} E^64, where E^64 is
formed once per InternalMatrix and only rescaled per lambda; w_t is their
running sum.  A block whose smallest increment is already too large for any
of its steps to pass the stopping rule skips the per-step check.  From the
first such block on, the iteration runs in two phases.  While it is certain
that no step can stop, only an n x (1 + max(window-1, 1)) state goes from
block to block -- the block's sum and its last increments, n x window rather
than n x 64 -- advanced by the same A^64.  The certificate is ||E||_2 <= 1
(E is a compression of the unitary walk operator), so increments never
grow: none in a block is smaller than its last, and their sum is at most 64
times the last increment of the block before.  When that no longer rules
out a stop, the block is rebuilt step by step and the per-step phase takes
over with full n x 64 blocks.

Route 2 (closed form): the same object as a finite spectral sum over the
eigenvalue clusters of E *strictly inside* the unit disk,

    Sigma(lam) = B_bb + sum_mu sum_{s < m(mu)} (z - mu)^{-s-1}
                          B_out P_mu (E - mu)^s P_mu B_in .

On-circle clusters drop out because embedded eigenstates do not couple to
the ports (P_mu B_in = 0, B_out P_mu = 0); that is what keeps the formula
finite when z itself hits an embedded eigenvalue.

The two routes share no linear algebra and are cross-checked to 1e-7 in the
test suite, including at z = -1 on fixtures where -1 is embedded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .internal_spectral import _BLOCK, InternalMatrix, SpectralData

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
    lam: float
    z: complex
    outgoing: np.ndarray
    method: str
    steps: int
    window_delta: float


def _norm(x: np.ndarray) -> float:
    """||x||_2 of a vector, without np.linalg.norm's per-call overhead,
    which exceeds a small matrix's whole skipped block."""
    return math.sqrt(np.vdot(x, x).real)


def _walk(A: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The _BLOCK increments d, A d, ..., A^(_BLOCK-1) d as columns."""
    D = np.empty((A.shape[0], _BLOCK), dtype=complex)
    D[:, 0] = d
    for j in range(1, _BLOCK):
        D[:, j] = A @ D[:, j - 1]
    return D


def stationary_iterate(
    im: InternalMatrix,
    lam: float,
    alpha: np.ndarray,
    max_steps: int = 200_000,
    window: int = 5,
    rtol: float = 1e-12,
) -> ScatteringRecord:
    """Outgoing port amplitudes for inflow ``alpha`` by time iteration.

    Convergence is declared when all of the last ``window`` increments of
    the rescaled interior state are below ``rtol`` times its norm — a fixed
    horizon would be wrong because the contraction rate varies with eps.

    The increments ``d_t = A^{t-1} g`` (``A = e^{i lam} E``, ``g = e^{i lam}
    f0``) come ``_BLOCK`` at a time: the first block by matvecs, each later
    one as ``A^_BLOCK = e^{_BLOCK i lam} im.E_block`` times the block before,
    so ``E^_BLOCK`` is formed once per ``im`` whatever the number of calls.
    The rule is still applied at every step, with windows reaching back
    across block edges, and the first passing step within ``max_steps`` ends
    the run.  A block is screened first: every step's window holds its own
    increment and ``||w_t|| <= ||w|| + sum ||d_j||``, so when the block's
    smallest increment exceeds ``rtol`` times that bound no step in it can
    pass, and only the running sum and the window's norms are carried on.
    NaN or inf fails the screen, so such blocks get the per-step check.

    The first block to pass the screen starts the skip phase, which
    carries only the block's sum and its last ``max(window - 1, 1)``
    increments (n x window columns, not n x ``_BLOCK``) and advances them
    with ``A^_BLOCK``, adding each sum to ``w``.  ``E`` is a compression of
    a unitary, so ``||A||_2 <= 1`` and the increments never grow: no
    increment of a block is smaller than its last, and none is larger than
    the previous block's last, ``p``.  A block is therefore skipped while
    its last increment exceeds ``rtol (||w|| + _BLOCK p)``, with the same
    1e-9 margin, which also covers ``||E||_2`` exceeding 1 by rounding (by
    at most 1.8e-15 measured on 8- to 240-arc graphs, eps in [0, 1]).  A
    block the budget ends inside is skipped like a full one, since no step
    of the full block can stop.  The phase ends, for good, at the first
    block that fails this test, and is never entered when ``window - 1 >
    _BLOCK``.  That block is rebuilt step by step from ``p``'s increment,
    the window's norms are taken from the carried tail, and the screened
    per-step check resumes on full blocks.
    """
    if not window >= 1 or not max_steps >= 1 or not rtol > 0:
        raise ValueError(f"need window >= 1, max_steps >= 1 and rtol > 0, "
                         f"got {window}, {max_steps}, {rtol}")
    alpha = np.asarray(alpha, dtype=complex)
    phase = np.exp(1j * lam)
    A = phase * im.E
    D = _walk(A, phase * (im.B_in @ alpha))
    A_block = phase**_BLOCK * im.E_block
    w = np.zeros(A.shape[0], dtype=complex)
    recent = np.full(window - 1, np.inf)  # increment norms before the block
    tail = max(window - 1, 1)
    S = None  # skip phase: the last block's sum, then its last ``tail`` increments
    may_skip = window - 1 <= _BLOCK
    for done in range(0, max_steps, _BLOCK):
        if S is not None:
            S_next = A_block @ S
            # ||d|| falls along the run: each increment of this block is at
            # least ``last`` and at most ``prev``, the last one before
            last = _norm(S_next[:, -1])
            bound = (_norm(w) + _BLOCK * prev) * (1.0 + 1e-9)
            if last > rtol * max(bound, 1e-300):
                w, S, prev = w + S_next[:, 0], S_next, last
                continue
            # the test is looser than the screen only by _BLOCK p against
            # ||w||, so the run is near its stop: the phase is not entered again
            recent = np.linalg.norm(S[:, 1:], axis=0)[tail - (window - 1):]
            D, S = _walk(A, A @ S[:, -1]), None
        elif done:
            D = A_block @ D
        m = min(_BLOCK, max_steps - done)
        inc = np.linalg.norm(D[:, :m], axis=0)
        norms = np.concatenate([recent, inc])
        # the 1e-9 margin covers rounding in the norms the exact rule compares
        bound = (np.linalg.norm(w) + inc.sum()) * (1.0 + 1e-9)
        if inc.min() > rtol * np.maximum(bound, 1e-300):
            s = D[:, :m].sum(axis=1)
            w, recent = w + s, norms[m:]
            if may_skip:
                S, prev, may_skip = np.column_stack([s, D[:, _BLOCK - tail:]]), inc[-1], False
            continue
        W = w[:, None] + np.cumsum(D[:, :m], axis=1)
        worst = sliding_window_view(norms, window).max(axis=1)
        ok = worst <= rtol * np.maximum(np.linalg.norm(W, axis=0), 1e-300)
        if ok.any():
            j = int(np.argmax(ok))
            out = im.B_bb @ alpha + im.B_out @ W[:, j]
            return ScatteringRecord(
                lam=float(lam),
                z=complex(np.exp(-1j * lam)),
                outgoing=out,
                method="iteration",
                steps=done + j + 1,
                window_delta=float(worst[j]),
            )
        w, recent = W[:, -1], norms[m:]
    raise NoConvergence(
        f"no Cauchy window of {window} steps below rtol={rtol} "
        f"within {max_steps} iterations at lam={lam}"
    )


class SigmaEvaluator:
    """Precomputed closed-form scattering matrix, cheap per lambda.

    Reduces every off-circle cluster to the small port-space kernels
    K_{mu,s} = B_out P (E-mu)^s P B_in = (B_out R) N^s (L B_in) once, from
    the cluster's factors; each evaluation is then a sum of N x N terms
    with scalar resolvent weights.  ``sd`` is the spectral data of
    ``im.E``; its ``on_circle`` flags decide which clusters drop out.
    """

    def __init__(self, im: InternalMatrix, sd: SpectralData):
        self.im = im
        self.terms: list[tuple[complex, int, np.ndarray]] = []
        self.skipped_coupling = 0.0
        scale = max(float(np.linalg.norm(im.B_in)), 1e-300)
        for c in sd.clusters:
            LB = c.L @ im.B_in
            if c.on_circle:
                # embedded states must not couple to the ports; record the
                # measured coupling so tests can assert it vanishes
                cpl = float(np.linalg.norm(c.R @ LB)) / scale
                self.skipped_coupling = max(self.skipped_coupling, cpl)
                continue
            BR = im.B_out @ c.R
            acc = LB  # (E - mu)^s P B_in = R acc
            for s in range(c.mult):
                K = BR @ acc
                if np.linalg.norm(K) > 1e-14 * max(np.linalg.norm(im.B_out), 1e-300) * scale or s == 0:
                    self.terms.append((c.value, s, K))
                acc = c.N @ acc
                if np.linalg.norm(c.R @ acc) < 1e-16 * scale:
                    break

    def sigma(self, lam) -> np.ndarray:
        """Sigma(lam) as an N x N matrix, or an (L, N, N) stack when ``lam``
        is an array of L lambdas (same operations per lambda either way)."""
        z = np.exp(-1j * np.asarray(lam, dtype=float))[..., None, None]
        out = np.broadcast_to(self.im.B_bb, z.shape[:-2] + self.im.B_bb.shape).copy()
        for mu, s, K in self.terms:
            out = out + K / (z - mu) ** (s + 1)
        return out


def unitarity_defect(sigma: np.ndarray) -> float:
    """||Sigma* Sigma - I||_2, the largest over a stack of matrices."""
    n = sigma.shape[-1]
    gram = np.swapaxes(sigma.conj(), -1, -2) @ sigma - np.eye(n)
    return float(np.max(np.linalg.norm(gram, 2, axis=(-2, -1))))


def _inflow_vector(num_ports: int, inflow) -> np.ndarray:
    """Inflow as a normalised port-amplitude vector.

    ``inflow`` is a 0-based port index or an explicit amplitude sequence.
    """
    if np.isscalar(inflow):
        p = int(inflow)
        if not (0 <= p < num_ports):
            raise ValueError(f"inflow port {p} out of range for {num_ports} ports")
        a = np.zeros(num_ports, dtype=complex)
        a[p] = 1.0
        return a
    a = np.asarray(inflow, dtype=complex)
    if a.shape != (num_ports,):
        raise ValueError(f"inflow vector must have length {num_ports}")
    nrm = np.linalg.norm(a)
    if nrm == 0:
        raise ValueError("inflow vector must be nonzero")
    return a / nrm


def transmission_curve(
    im: InternalMatrix,
    lam_grid: np.ndarray,
    inflow,
    sd: SpectralData,
) -> dict[str, np.ndarray]:
    """Total transmission and reflection along a lambda grid.

    For unit inflow concentrated on one port, ``tau_sq`` is the summed
    outgoing power on the other ports and ``reflection_sq`` the power
    returned into the inflow mode; they add to 1 by unitarity.  A general
    inflow vector is normalised and "reflection" means the power returned
    into that incoming mode.  ``sd`` is the spectral data of ``im.E``.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    alpha = _inflow_vector(im.tg.num_ports, inflow)
    ev = SigmaEvaluator(im, sd)
    z = np.exp(-1j * lam_grid)
    # a row per lambda; contracting K with alpha first keeps temporaries L x N
    out = np.tile(im.B_bb @ alpha, (len(lam_grid), 1))
    for mu, s, K in ev.terms:
        out += (K @ alpha) / ((z - mu) ** (s + 1))[:, None]
    refl = np.abs(out @ alpha.conj()) ** 2
    tau = np.linalg.norm(out, axis=1) ** 2 - refl
    return {
        "lambda": lam_grid,
        "re_exp_minus_i_lambda": z.real,
        "im_exp_minus_i_lambda": z.imag,
        "tau_sq": tau,
        "reflection_sq": refl,
    }
