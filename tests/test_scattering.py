"""Scattering matrix: closed form, time iteration, unitarity, transmission."""

import dataclasses
import itertools
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from test_tailed_graph import connected_graphs

from tailwalk import attach_tails, build_E, preset_graph, scattering
from tailwalk.internal_spectral import _LOG_BLOCK, ClusterAmbiguity, spectral_decompose
from tailwalk.scattering import (
    _MAX_LEVEL,
    NoConvergence,
    SigmaEvaluator,
    _unitarity_defects,
    stationary_iterate,
    stationary_iterate_stack,
    transmission_curve,
    unitarity_defect,
)


def evaluator(im):
    return SigmaEvaluator(im, spectral_decompose(im.E))


def test_sigma_is_identity_at_zero_coupling(im_c4a):
    ev = evaluator(im_c4a.at(0.0))
    for lam in (0.3, 1.0, 2.5):
        assert_allclose(ev.sigma(lam), np.eye(3), atol=1e-14)


def test_unitarity_on_a_grid(suite_graphs):
    for name, tg in suite_graphs.items():
        ev = evaluator(build_E(tg, 0.25))
        for lam in np.linspace(0.0, 2 * np.pi, 37):
            d = unitarity_defect(ev.sigma(lam))
            assert d < 1e-9, f"{name}: defect {d:.2e} at lam={lam:.3f}"


def _full_defect(stack) -> float:
    """The largest ||S* S - I||_2 over a stack, eigvalsh on every matrix."""
    return float(np.max(_unitarity_defects(np.asarray(stack))))


def _rank_one(s, u):
    """I + (s - 1) u u*: S* S - I = (|s|^2 - 1) u u*, whose 2-norm is its
    Frobenius norm."""
    u = u / np.linalg.norm(u)
    return np.eye(len(u)) + (s - 1) * np.outer(u, u.conj())


def test_unitarity_defect_prunes_to_the_full_maximum():
    # bit for bit the maximum over every matrix: random near-unitary and
    # random stacks, rank-one defects (F-norm = 2-norm, the pruning bound is
    # tight), repeated maxima, identities and a single matrix
    rng = np.random.default_rng(3)
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    Q = np.linalg.qr(cplx(64, 4, 4))[0]
    us = cplx(32, 4)
    rank_one = np.array([_rank_one(s, u) for s, u in zip(rng.uniform(0.5, 1.5, 32), us)])
    tied = np.array([_rank_one(s, u) for s, u in zip([1.3, 0.7, 1.3, 1.1, 1.3], us)])
    stacks = [
        Q + 1e-6 * cplx(64, 4, 4),
        cplx(256, 3, 3),
        rank_one,
        tied,
        np.repeat(Q[:1] + 1e-3 * cplx(1, 4, 4), 5, axis=0),
        np.broadcast_to(np.eye(3, dtype=complex), (7, 3, 3)),
        cplx(4, 4),
        np.eye(2),
    ]
    for stack in stacks:
        assert unitarity_defect(stack) == _full_defect(stack)
    assert unitarity_defect(np.eye(3)) == 0.0
    # the largest Frobenius norm is not the largest 2-norm: G = diag(a, a, 0)
    # against the rank-one diag(b, 0, 0), a < b < a (1 + 1e-3) < a sqrt(2)
    a, b = 0.01, 0.01 * (1 + 5e-4)
    spread = np.diag(np.sqrt([1 + a, 1 + a, 1.0]))
    single = np.diag(np.sqrt([1 + b, 1.0, 1.0]))
    assert unitarity_defect(np.array([spread, single])) == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_unitarity_defect_refuses_a_non_finite_entry(bad):
    # the pruning reads Frobenius norms; a non-finite one sends the whole
    # stack to eigvalsh, which raises as it does on the full call
    stack = np.array([np.eye(3, dtype=complex)] * 4)
    stack[2, 1, 1] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError):
            _full_defect(stack)
        with pytest.raises(np.linalg.LinAlgError):
            unitarity_defect(stack)


def test_sigma_stacks_over_a_lambda_array(suite_graphs):
    grid = np.linspace(-np.pi, np.pi, 33)
    for tg in suite_graphs.values():
        ev = evaluator(build_E(tg, 0.25))
        assert len(ev.terms) == len(ev.mus) == len(ev.orders)
        stack = ev.sigma(grid)
        singles = [ev.sigma(lam) for lam in grid]
        assert stack.shape == (33, tg.num_ports, tg.num_ports)
        assert np.array_equal(stack, singles)
        assert unitarity_defect(stack) == max(map(unitarity_defect, singles))
        # the Laurent series term by term, as the reference
        z = np.exp(-1j * grid)[:, None, None]
        terms = zip(ev.mus, ev.orders, ev.terms)
        loop = ev.im.B_bb + sum(K / (z - mu) ** k for mu, k, K in terms)
        assert_allclose(stack, loop, rtol=0, atol=1e-12)


def test_embedded_states_do_not_couple_to_ports(im_k4a):
    # the persistent eigenvalues at +-1 stay on the circle at eps = 0.25;
    # the closed form is only valid because their port coupling vanishes,
    # and the evaluator refuses to drop an on-circle cluster that couples
    im = im_k4a.at(0.25)
    sd = spectral_decompose(im.E)
    on = [c for c in sd.clusters if c.on_circle]
    assert len(on) == 2
    SigmaEvaluator(im, sd)


def test_closed_form_against_time_iteration(im_c4a):
    """Two independent routes to Sigma(lambda): spectral sum vs dynamics."""
    im = im_c4a.at(0.25)
    sd = spectral_decompose(im.E)
    rng = np.random.default_rng(42)
    lams = [0.7, 2.1, np.pi]  # exp(-i pi) = -1 sits on top of a persistent state
    for lam in lams:
        alpha = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        alpha /= np.linalg.norm(alpha)
        rec = stationary_iterate(im, lam, alpha)
        direct = SigmaEvaluator(im, sd).sigma(lam) @ alpha
        assert_allclose(rec.outgoing, direct, atol=1e-7)
        assert rec.steps > 0


def test_iteration_on_the_embedded_value_k4(im_k4a):
    # z = exp(-i lam) = -1 is an embedded eigenvalue of E at eps=0.25 on K4;
    # the iteration must still converge because the inflow never excites it
    im = im_k4a.at(0.25)
    lam = np.pi
    alpha = np.zeros(3, dtype=complex)
    alpha[0] = 1.0
    rec = stationary_iterate(im, lam, alpha)
    direct = evaluator(im).sigma(lam) @ alpha
    assert_allclose(rec.outgoing, direct, atol=1e-7)


def test_iteration_raises_when_budget_too_small(im_c4a):
    im = im_c4a.at(0.25)
    with pytest.raises(NoConvergence):
        stationary_iterate(im, 0.9, np.array([1.0, 0, 0]), max_steps=25)


def _scalar_iterate(im, lam, alpha, max_steps=200_000, rtol=1e-12):
    """Reference: w_{t+1} = e^{i lam} (E w_t + f0) one step at a time.

    Same stopping rule as ``stationary_iterate`` (a window of 5 increments,
    at ``rtol``); returns the outgoing amplitudes and the step count, or
    ``None`` and the budget.
    """
    f0 = im.B_in @ alpha
    phase = np.exp(1j * lam)
    w = np.zeros(im.E.shape[0], dtype=complex)
    deltas = []
    for steps in range(1, max_steps + 1):
        w_next = phase * (im.E @ w + f0)
        deltas.append(float(np.linalg.norm(w_next - w)))
        w = w_next
        scale = max(float(np.linalg.norm(w)), 1e-300)
        if len(deltas) >= 5 and max(deltas[-5:]) <= rtol * scale:
            return im.B_bb @ alpha + im.B_out @ w, steps
    return None, max_steps


def _inflows(rng):
    port = np.array([0.0, 1.0, 0.0], dtype=complex)
    vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return port, vec / np.linalg.norm(vec)


def test_blocked_iteration_matches_scalar_recurrence(im_c4a, im_k4a):
    rng = np.random.default_rng(7)
    for im0 in (im_c4a, im_k4a):
        im = im0.at(0.25)
        for lam in (np.pi, 0.7, -2.3):
            for alpha in _inflows(rng):
                want, want_steps = _scalar_iterate(im, lam, alpha)
                rec = stationary_iterate(im, lam, alpha)
                assert want is not None
                assert abs(rec.steps - want_steps) <= 3
                assert_allclose(rec.outgoing, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("budget", [1, 4, 5, 63, 64, 65, 129])
def test_iteration_stops_at_the_budget(im_c4a, im_k4a, budget):
    for im0 in (im_c4a, im_k4a):
        im = im0.at(0.25)
        alpha = np.array([1.0, 0.0, 0.0], dtype=complex)
        assert _scalar_iterate(im, 0.9, alpha, max_steps=budget)[0] is None
        with pytest.raises(NoConvergence, match=f"within {budget} iterations"):
            stationary_iterate(im, 0.9, alpha, max_steps=budget)


@pytest.mark.parametrize("rtol", np.logspace(-1, -12, 12))
def test_iteration_honours_a_budget_at_its_stopping_step(im_c4a, im_k4a, rtol, monkeypatch):
    # the stopping steps of these tolerances fall inside and across blocks;
    # a budget of exactly that step converges identically, one less does not
    monkeypatch.setattr(scattering, "_RTOL", rtol)
    for im0 in (im_c4a, im_k4a):
        im = im0.at(0.25)
        alpha = np.array([0.0, 0.0, 1.0], dtype=complex)
        rec = stationary_iterate(im, 1.3, alpha)
        want, want_steps = _scalar_iterate(im, 1.3, alpha, rtol=rtol)
        assert abs(rec.steps - want_steps) <= 3
        assert_allclose(rec.outgoing, want, rtol=0, atol=1e-12)
        again = stationary_iterate(im, 1.3, alpha, max_steps=rec.steps)
        assert again.steps == rec.steps
        assert np.array_equal(again.outgoing, rec.outgoing)
        if rec.steps > 1:
            with pytest.raises(NoConvergence):
                stationary_iterate(im, 1.3, alpha, max_steps=rec.steps - 1)


@pytest.mark.parametrize("bad", [{"max_steps": 0}, {"max_steps": -1}],
                         ids=["max_steps0", "max_steps-1"])
def test_iteration_refuses_bad_arguments(im_c4a, bad):
    with pytest.raises(ValueError):
        stationary_iterate(im_c4a.at(0.25), 0.9, np.array([1.0, 0, 0]), **bad)


def _record_rungs(ib) -> list:
    """The shapes of the rungs that ``ib``'s ladder of squares gains from
    now on: H, then one squaring per rung."""
    rungs = []

    class Recorded(list):
        def append(self, M):
            rungs.append(M.shape)
            super().append(M)

    ib._squares = Recorded(ib._squares)
    return rungs


def _no_matrix_power(*args):
    pytest.fail("a power of H formed outside the ladder of squares")


def test_block_power_formed_once_per_matrix(c4_full, monkeypatch):
    # H^64, the ladder's rung _LOG_BLOCK, is squared once per basis however
    # many calls read it, and a new coupling squares its own
    monkeypatch.setattr(np.linalg, "matrix_power", _no_matrix_power)
    im0 = build_E(c4_full)
    im = im0.at(0.25)
    ib = im.iteration_basis
    rungs = _record_rungs(ib)
    for lam in (0.3, 1.1, -2.0, np.pi):
        for port in range(4):
            alpha = np.zeros(4, dtype=complex)
            alpha[port] = 1.0
            rec = stationary_iterate(im, lam, alpha)
            assert rec.steps > 64  # every call advances past its first block
            assert len(rungs) == len(ib._squares) > _LOG_BLOCK
    squarings = len(rungs) - 1
    assert ib.power(0) is ib._squares[_LOG_BLOCK]
    again = im0.at(0.25)
    again_rungs = _record_rungs(again.iteration_basis)
    stationary_iterate(again, 0.3, np.array([1.0, 0, 0, 0], dtype=complex))
    assert len(rungs) - 1 == squarings and len(again_rungs) > _LOG_BLOCK
    assert again.iteration_basis.power(0) is not ib.power(0)


@pytest.fixture(scope="module")
def im_c16():
    return build_E(attach_tails(preset_graph("cycle:16"), (0, 1, 2, 3)), 0.25)


def test_screened_blocks_keep_the_stopping_step(im_c16, monkeypatch):
    # most blocks of these runs are screened out before the per-step check,
    # whose running sums are the only cumsum calls
    real, exact = np.cumsum, []

    def cumsum(*args, **kwargs):
        exact.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "cumsum", cumsum)
    rng = np.random.default_rng(11)
    for lam in (0.4, np.pi):
        alpha = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        alpha /= np.linalg.norm(alpha)
        want, want_steps = _scalar_iterate(im_c16, lam, alpha)
        exact.clear()
        rec = stationary_iterate(im_c16, lam, alpha)
        assert want is not None
        assert abs(rec.steps - want_steps) <= 3
        assert_allclose(rec.outgoing, want, rtol=0, atol=1e-12)
        assert 0 < len(exact) < rec.steps / 64 / 2


def test_long_run_carries_only_the_window_between_blocks(im_c16):
    # thousands of steps, yet the skip phase takes O(log2 blocks) ladder
    # products, each carrying only [U | block sum | window tail] (U is the
    # block sum itself at one block, so level 0 leaves it out): the jumps
    # double once the call's own products have n more columns, about six
    # products per level here, and restart from one block near the stop
    products = []  # (level, width) of every product with a power of H

    class Counted(np.ndarray):
        def __array_finalize__(self, obj):  # a transpose keeps its level
            self.level = getattr(obj, "level", None)

        def __matmul__(self, other):
            products.append((self.level, other.shape[-1]))
            return np.asarray(self) @ other

        def __rmatmul__(self, other):  # the skip phase's rows times the power's transpose
            products.append((self.level, other.shape[0]))
            return other @ np.asarray(self)

    grown = dataclasses.replace(im_c16).iteration_basis
    ladder = []
    for level in range(_MAX_LEVEL + 1):
        ladder.append(grown.power(level).view(Counted))
        ladder[-1].level = level
    im = dataclasses.replace(im_c16)
    im.iteration_basis.power = ladder.__getitem__
    alpha = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    want, want_steps = _scalar_iterate(im_c16, 0.4, alpha)
    rec = stationary_iterate(im, 0.4, alpha)
    assert want_steps > 5000
    assert abs(rec.steps - want_steps) <= 3
    assert_allclose(rec.outgoing, want, rtol=0, atol=1e-12)
    # only the blocks near the stop are advanced as n x 64 products
    assert [width for _, width in products].count(64) <= 3
    jumps = [(level, width) for level, width in products if width != 64]
    assert all(width == (6 if level else 5) for level, width in jumps)
    assert len(jumps) <= 6 * np.log2(rec.steps / 64)
    # level i only after the call's own skip products reach i n columns
    n, cols = im.E.shape[0], 0
    for level, width in jumps:
        assert cols >= level * n
        cols += width
    assert max(level for level, _ in jumps) >= 3


def test_result_does_not_depend_on_the_ladder_built_before(im_c16, monkeypatch):
    alpha = np.array([0.0, 1.0, 1.0j, 0.0], dtype=complex) / np.sqrt(2)
    fresh = dataclasses.replace(im_c16)
    rec = stationary_iterate(fresh, 0.4, alpha)
    grown = dataclasses.replace(im_c16)
    # no window ever passes rtol = 1e-300, so this call jumps to its budget
    with monkeypatch.context() as m:
        m.setattr(scattering, "_RTOL", 1e-300)
        with pytest.raises(NoConvergence):
            stationary_iterate(grown, 0.4, alpha, max_steps=10**7)
    rungs = len(grown.iteration_basis._squares)
    assert rungs == _LOG_BLOCK + _MAX_LEVEL + 1 > len(fresh.iteration_basis._squares)
    again = stationary_iterate(grown, 0.4, alpha)
    assert again.steps == rec.steps
    assert np.array_equal(again.outgoing, rec.outgoing)


@pytest.mark.parametrize("r, rtol", [(1 - 1e-5, 1e-4), (1 - 1e-6, 1e-5), (1 - 1e-7, 1e-6)])
def test_jumps_stop_short_of_an_aligned_slow_stop(im_c4a, r, rtol, monkeypatch):
    # E = diag(r, 1/2) at lam = 0: the increments r^(t-1) all point one way,
    # so ||w_t|| grows through a jump; only the _BLOCK m p term of the
    # certificate keeps long jumps from passing the stop, which the scalar
    # recurrence gives in closed form
    im = dataclasses.replace(
        im_c4a,
        E=np.diag([r, 0.5]).astype(complex),
        B_in=np.ones((2, 1), dtype=complex),
        B_out=np.array([[1.0, 0.0]], dtype=complex),
        B_bb=np.zeros((1, 1), dtype=complex),
    )
    t = np.arange(1.0, 4e6)
    w = (1 - r**t) / (1 - r)
    want = int(np.argmax((t >= 5) & (r ** (t - 5) <= rtol * w))) + 1
    monkeypatch.setattr(scattering, "_RTOL", rtol)
    rec = stationary_iterate(im, 0.0, np.array([1.0], dtype=complex), max_steps=10**7)
    assert abs(rec.steps - want) <= 3
    assert_allclose(rec.outgoing, [w[rec.steps - 1]], rtol=1e-10)


def test_small_coupling_still_exhausts_the_budget():
    # the slowest resonance of cycle:12 at eps 0.04 needs more than the
    # default 200,000 steps; jumping over them changes neither the outcome
    # nor the message
    im = build_E(attach_tails(preset_graph("cycle:12"), (0, 1, 2)), 0.04)
    msg = r"^no Cauchy window of 5 steps below rtol=1e-12 within 200000 iterations at lam=0\.7$"
    with pytest.raises(NoConvergence, match=msg):
        stationary_iterate(im, 0.7, np.array([1.0, 0.0, 0.0], dtype=complex))


def test_iteration_at_zero_coupling_returns_the_inflow(im_c4a):
    # at eps 0 no port reaches the interior: the walk runs on a basis of no
    # columns, and every inflow is reflected as it came
    im = im_c4a.at(0.0)
    assert im.iteration_basis.V.shape == (8, 0)
    alpha = np.array([1.0, 2.0j, -0.5], dtype=complex)
    assert im.iteration_basis.walk(im.iteration_basis.B_in @ alpha).shape == (0, 64)
    assert np.array_equal(stationary_iterate(im, 0.3, alpha).outgoing, alpha)


def test_short_runs_form_no_arc_sized_power(monkeypatch):
    # the inflow's orbit on these 240 arcs spans 7 dimensions, so 16 runs of
    # about 20 blocks square H up to H^64 once, as 7 x 7 matrices, and every
    # rung they keep is 7 x 7: no 240 x 240 power is ever formed
    monkeypatch.setattr(np.linalg, "matrix_power", _no_matrix_power)
    im = build_E(attach_tails(preset_graph("complete:16"), (0, 0, 1, 2)), 0.6)
    ib = im.iteration_basis
    rungs = _record_rungs(ib)
    for lam in (-2.5, -0.9, 0.8, 2.4):
        for port in range(4):
            rec = stationary_iterate(im, lam, np.eye(4, dtype=complex)[port])
            assert rec.steps > 10 * 64
    assert len(rungs) == len(ib._squares) > _LOG_BLOCK + 1  # the skip phase doubled its jumps
    assert set(rungs) == {(7, 7)}
    assert ib.walk(ib.B_in[:, 0]).shape == (7, 64)


def test_budget_inside_the_skip_phase(im_c16):
    # budgets ending on, just past and inside a block, early in the skip
    # phase, inside a long jump and in the blocks before and after the stop
    alpha = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    want_steps = _scalar_iterate(im_c16, 0.4, alpha)[1]
    full = stationary_iterate(im_c16, 0.4, alpha)
    assert abs(full.steps - want_steps) <= 3
    last = want_steps // 64
    for j, r in itertools.product((1, 2, last // 2, last - 1, last + 1), (0, 1, 17)):
        budget = 64 * j + r
        if budget < want_steps:
            with pytest.raises(NoConvergence, match=f"within {budget} iterations"):
                stationary_iterate(im_c16, 0.4, alpha, max_steps=budget)
        else:
            rec = stationary_iterate(im_c16, 0.4, alpha, max_steps=budget)
            assert rec.steps == full.steps
            assert np.array_equal(rec.outgoing, full.outgoing)


def test_loose_tolerance_stops_in_the_first_block(im_c16, monkeypatch):
    monkeypatch.setattr(scattering, "_RTOL", 1e-1)
    alpha = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    want, want_steps = _scalar_iterate(im_c16, 0.4, alpha, rtol=1e-1)
    rec = stationary_iterate(im_c16, 0.4, alpha)
    assert rec.steps < 64
    assert abs(rec.steps - want_steps) <= 3
    assert_allclose(rec.outgoing, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("graph, eps", [("complete:16", 0.6), ("k4_multi", 0.25)])
def test_reduced_iteration_matches_scalar_recurrence(k4_multi, graph, eps):
    # the iteration runs on the port Krylov basis of these graphs, yet stops
    # where the arc-by-arc recurrence does, with the same amplitudes
    if graph == "k4_multi":
        im = build_E(k4_multi, eps)
    else:
        im = build_E(attach_tails(preset_graph(graph), (0, 0, 1, 2)), eps)
    assert 2 * im.iteration_basis.V.shape[1] <= im.E.shape[0]
    rng, N = np.random.default_rng(5), im.tg.num_ports
    for lam in (0.4, np.pi, -2.2):
        alpha = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        alpha /= np.linalg.norm(alpha)
        want, want_steps = _scalar_iterate(im, lam, alpha)
        rec = stationary_iterate(im, lam, alpha)
        assert want is not None
        assert abs(rec.steps - want_steps) <= 3
        assert_allclose(rec.outgoing, want, rtol=0, atol=1e-12)


def test_nan_in_E_never_converges(im_c4a):
    # NaN fails the screen's comparison, so its blocks get the exact check
    im = im_c4a.at(0.25)
    E = im.E.copy()
    E[3, 5] = np.nan
    bad = dataclasses.replace(im, E=E)
    for budget in (5, 64, 200):
        with pytest.raises(NoConvergence):
            stationary_iterate(bad, 0.9, np.array([1.0, 0, 0]), max_steps=budget)


def test_iteration_uses_no_spectral_routine(im_c4a, im_k4a, monkeypatch):
    # route 1 must stay independent of the closed form's eigen-machinery
    import scipy.linalg

    import tailwalk.internal_spectral
    import tailwalk.scattering

    # complete:8 runs on its port Krylov basis, the fixtures on their arcs
    reduced = build_E(attach_tails(preset_graph("complete:8"), (0, 1, 2)), 0.25)
    ims = [im_c4a.at(0.25), im_k4a.at(0.25), reduced]
    direct = [evaluator(im).sigma(np.pi)[:, 0] for im in ims]

    def refuse(*args, **kwargs):
        raise AssertionError("spectral routine called by the time iteration")

    assert not hasattr(tailwalk.scattering, "spectral_decompose")
    for mod, name in [
        (tailwalk.internal_spectral, "spectral_decompose"),
        (tailwalk.internal_spectral, "zgees"),
        (scipy.linalg, "schur"),
        (scipy.linalg, "eig"),
        (scipy.linalg, "eigvals"),
        (np.linalg, "eig"),
        (np.linalg, "eigvals"),
    ]:
        monkeypatch.setattr(mod, name, refuse)
    for im, want in zip(ims, direct):
        rec = stationary_iterate(im, np.pi, np.array([1.0, 0, 0], dtype=complex))
        assert_allclose(rec.outgoing, want, atol=1e-7)
    assert reduced.iteration_basis.V.shape == (56, 7)


def test_outflow_norm_equals_inflow_norm(im_k4a):
    ev = evaluator(im_k4a.at(0.5))
    rng = np.random.default_rng(3)
    for lam in (0.2, 1.4, 4.0):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert_allclose(
            np.linalg.norm(ev.sigma(lam) @ a), np.linalg.norm(a), rtol=1e-10
        )


class TestTransmissionCurve:
    def test_flux_conservation(self, im_c4a):
        im = im_c4a.at(0.25)
        grid = np.linspace(0, 2 * np.pi, 65)
        out = transmission_curve(im, grid, 0, spectral_decompose(im.E))
        assert set(out) == {
            "lambda",
            "re_exp_minus_i_lambda",
            "im_exp_minus_i_lambda",
            "tau_sq",
            "reflection_sq",
        }
        assert_allclose(out["tau_sq"] + out["reflection_sq"], 1.0, atol=1e-12)
        assert np.all(out["tau_sq"] >= -1e-13)
        z = out["re_exp_minus_i_lambda"] + 1j * out["im_exp_minus_i_lambda"]
        assert_allclose(z, np.exp(-1j * grid), atol=1e-14)

    def test_zero_coupling_transmits_nothing(self, im_c4a):
        im = im_c4a.at(0.0)
        out = transmission_curve(im, np.linspace(0, 3, 7), 1, spectral_decompose(im.E))
        assert_allclose(out["tau_sq"], 0.0, atol=1e-13)
        assert_allclose(out["reflection_sq"], 1.0, atol=1e-13)

    def test_inflow_port_out_of_range_is_refused(self, im_k4a):
        im = im_k4a.at(0.25)
        sd = spectral_decompose(im.E)
        for port in (3, 7, -1):
            with pytest.raises(ValueError, match="out of range for 3 ports"):
                transmission_curve(im, np.array([1.0]), port, sd)

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
    def test_grid_matches_per_lambda_sigma(self, suite_graphs, eps):
        for name, tg in suite_graphs.items():
            im = build_E(tg, eps)
            sd = spectral_decompose(im.E)
            ev = SigmaEvaluator(im, sd)
            alpha = np.zeros(tg.num_ports, dtype=complex)
            alpha[1] = 1.0
            for size in (0, 1, 257):
                grid = np.linspace(-np.pi, np.pi, size, endpoint=False)
                got = transmission_curve(im, grid, 1, sd)
                want_tau, want_refl = [], []
                for lam in grid:
                    out = ev.sigma(lam) @ alpha
                    r = abs(np.vdot(alpha, out)) ** 2
                    want_refl.append(r)
                    want_tau.append(np.linalg.norm(out) ** 2 - r)
                assert got["tau_sq"].shape == got["reflection_sq"].shape == (size,)
                assert_allclose(got["tau_sq"], want_tau, rtol=0, atol=1e-14, err_msg=name)
                assert_allclose(got["reflection_sq"], want_refl, rtol=0, atol=1e-14, err_msg=name)


def test_second_order_pole_against_a_direct_solve(im_c4a):
    # no graph tried gives a defective resonance, so E is replaced by one
    # with a 2 x 2 Jordan block inside the disk: a term with s = 1
    im = im_c4a.at(0.25)
    n = im.E.shape[0]
    rng = np.random.default_rng(8)
    Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    vals = 0.8 * np.linspace(0.2, 1.0, n) * np.exp(2j * np.pi * np.arange(n) / n)
    vals[1] = vals[0]
    T = np.diag(vals)
    T[0, 1] = 0.7
    jordan = dataclasses.replace(im, E=Q @ T @ Q.conj().T)
    sd = spectral_decompose(jordan.E, cluster_tol=1e-6)
    ev = SigmaEvaluator(jordan, sd)
    assert list(ev.orders).count(2) == 1
    grid = np.linspace(-np.pi, np.pi, 41)
    curve = transmission_curve(jordan, grid, 1, sd)
    alpha = np.array([0.0, 1.0, 0.0], dtype=complex)
    for lam, tau, refl in zip(grid, curve["tau_sq"], curve["reflection_sq"]):
        z = np.exp(-1j * lam)
        want = jordan.B_bb @ alpha + jordan.B_out @ np.linalg.solve(
            z * np.eye(n) - jordan.E, jordan.B_in @ alpha
        )
        assert_allclose(ev.sigma(lam) @ alpha, want, rtol=0, atol=1e-12)
        assert_allclose(refl, abs(want[1]) ** 2, rtol=0, atol=1e-12)
        assert_allclose(tau, np.linalg.norm(want) ** 2 - abs(want[1]) ** 2, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(connected_graphs(), st.data())
def test_unitarity_property(g, data):
    """Sigma is unitary on random graphs, several tails on a vertex allowed;
    a refused decomposition is not a unitarity failure."""
    tails = data.draw(
        st.lists(st.integers(0, g.num_vertices - 1), min_size=1, max_size=2 * g.num_vertices)
    )
    eps = data.draw(st.floats(min_value=0.05, max_value=1.0))
    lams = data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=4, max_size=4))
    try:
        ev = evaluator(build_E(attach_tails(g, tails), eps))
    except ClusterAmbiguity:
        assume(False)
    assert unitarity_defect(ev.sigma(np.array(lams))) < 1e-9


graphs_with_tails = connected_graphs().flatmap(lambda g: st.tuples(
    st.just(g),
    st.lists(st.integers(0, g.num_vertices - 1), min_size=1, max_size=2 * g.num_vertices),
))


def _per_pair(im, lams, alphas, max_steps=200_000):
    """Each pair's own stationary_iterate record, or None where it raises
    NoConvergence."""
    recs = []
    for lam, alpha in zip(lams, alphas):
        try:
            recs.append(stationary_iterate(im, lam, alpha, max_steps=max_steps))
        except NoConvergence:
            recs.append(None)
    return recs


def _named_lambdas(exc) -> Counter:
    return Counter(re.findall(r"lam=([^,\s]+)", str(exc.value)))


@settings(max_examples=30, deadline=None)
@given(graphs_with_tails, st.floats(min_value=0.1, max_value=0.9), st.data())
def test_stack_steps_each_pair_as_its_own_call(graph_tails, eps, data):
    """One stacked call, 1-8 pairs with lam = pi among them, stops every
    pair at its own call's step, with its outgoing amplitudes to 1e-13;
    a pair that does not settle makes the stack raise, naming it."""
    g, tails = graph_tails
    im = build_E(attach_tails(g, tails), eps)
    n = data.draw(st.integers(1, 8))
    lams = [np.pi] + data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=n - 1, max_size=n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    N = im.tg.num_ports
    alphas = list(rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N)))
    alone = _per_pair(im, lams, alphas)
    if None in alone:
        with pytest.raises(NoConvergence) as exc:
            stationary_iterate_stack(im, lams, alphas)
        assert _named_lambdas(exc) == Counter(str(lam) for lam, r in zip(lams, alone) if r is None)
        return
    stacked = stationary_iterate_stack(im, lams, alphas)
    assert [r.steps for r in stacked] == [r.steps for r in alone]
    for r, want in zip(stacked, alone):
        assert_allclose(r.outgoing, want.outgoing, rtol=0, atol=1e-13)


@pytest.mark.parametrize("graph", ["c4a", "k4a"])
def test_stack_budget_at_each_stop(graph, request):
    # a budget at a column's stopping step gives that column's record; one
    # step less, the stack names exactly the lambdas whose own calls fail
    im = build_E(request.getfixturevalue(graph), 0.25)
    rng = np.random.default_rng(7)
    lams = [np.pi, 0.3, -1.2, 2.0, -2.9, 1.1]
    alphas = list(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    full = stationary_iterate_stack(im, lams, alphas)
    assert [r.steps for r in full] == [r.steps for r in _per_pair(im, lams, alphas)]
    for rec in full:
        keep = [k for k, r in enumerate(full) if r.steps <= rec.steps]
        again = stationary_iterate_stack(
            im, [lams[k] for k in keep], [alphas[k] for k in keep], max_steps=rec.steps
        )
        for k, r in zip(keep, again):
            assert r.steps == full[k].steps
            assert_allclose(r.outgoing, full[k].outgoing, rtol=0, atol=1e-13)
        with pytest.raises(NoConvergence) as exc:
            stationary_iterate_stack(im, lams, alphas, max_steps=rec.steps - 1)
        alone = _per_pair(im, lams, alphas, max_steps=rec.steps - 1)
        assert _named_lambdas(exc) == Counter(str(lam) for lam, r in zip(lams, alone) if r is None)
        assert str(rec.steps - 1) in str(exc.value)


def test_stack_arguments(im_c4a):
    im = im_c4a.at(0.25)
    assert stationary_iterate_stack(im, [], []) == []
    with pytest.raises(ValueError, match="one inflow per lambda"):
        stationary_iterate_stack(im, [0.3, 0.4], [np.ones(3)])
    with pytest.raises(ValueError, match="max_steps"):
        stationary_iterate_stack(im, [0.3], [np.ones(3)], max_steps=0)


@settings(max_examples=40, deadline=None)
@given(graphs_with_tails, st.floats(min_value=0.05, max_value=0.95))
@example((preset_graph("cycle:12"), [0, 1, 2]), 0.04)
def test_det_sigma_is_the_blaschke_product_of_the_resonances(graph_tails, eps):
    """det Sigma(lam) = c prod_j (1 - conj(mu_j) z) / (z - mu_j), z = e^{-i lam},
    over the off-circle cluster values mu_j repeated by multiplicity, with
    c = (-1)^d det U / prod(on-circle values), U = [[E, B_in], [B_out, B_bb]]
    and d the number of mu_j: the phase of Sigma is the resonances' alone."""
    g, tails = graph_tails
    im = build_E(attach_tails(g, tails), eps)
    try:
        sd = spectral_decompose(im.E)
    except ClusterAmbiguity:
        assume(False)
    off = [c for c in sd.clusters if not c.on_circle]
    mus = np.repeat([c.value for c in off], [c.mult for c in off])
    on = np.prod([c.value ** c.mult for c in sd.clusters if c.on_circle])
    U = np.block([[im.E, im.B_in], [im.B_out, im.B_bb]])
    c = (-1) ** len(mus) * np.linalg.det(U) / on
    lam = np.linspace(-np.pi, np.pi, 24, endpoint=False)
    z = np.exp(-1j * lam)[:, None]
    blaschke = np.prod((1 - mus.conj() * z) / (z - mus), axis=1)
    det = np.linalg.det(SigmaEvaluator(im, sd).sigma(lam))
    assert np.abs(det / (c * blaschke) - 1).max() <= 1e-9


@settings(max_examples=25, deadline=None)
@given(connected_graphs(), st.data())
def test_routes_agree_on_random_graphs(g, data):
    tails = data.draw(
        st.lists(st.integers(0, g.num_vertices - 1), min_size=1, max_size=g.num_vertices)
    )
    eps = data.draw(st.floats(min_value=0.3, max_value=0.9))
    lams = data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=2))
    im = build_E(attach_tails(g, tails), eps)
    sd = spectral_decompose(im.E)
    # the slowest decay rate must let the iteration settle within its budget
    assume(max((abs(c.value) for c in sd.clusters if not c.on_circle), default=0.0) <= 0.995)
    ev = SigmaEvaluator(im, sd)
    for lam in lams:
        closed = ev.sigma(lam)
        for p in range(im.tg.num_ports):
            rec = stationary_iterate(im, lam, np.eye(im.tg.num_ports)[p])
            assert_allclose(rec.outgoing, closed[:, p], rtol=0, atol=1e-7)
