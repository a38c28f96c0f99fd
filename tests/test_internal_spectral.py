"""Boundary matrix assembly and its spectral bookkeeping."""

import ast
import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg.lapack import ztrsen, ztrsyl
from test_tailed_graph import connected_graphs

import tailwalk
from tailwalk import attach_tails, build_E, build_internal, internal_spectral, preset_graph
from tailwalk.coin_evolution import WalkOperator, kappa, linearize
from tailwalk.internal_spectral import (
    _BLOCK,
    _LOG_BLOCK,
    CLUSTER_TOL,
    ClusterAmbiguity,
    NotAResonance,
    _greedy_clusters,
    projection_contour_oracle,
    spectral_decompose,
    verify_outgoing,
)
from tailwalk.perturbation import Coupling, reduce_eigenvalue, total_projection
from tailwalk.scattering import _MAX_LEVEL, SigmaEvaluator
from tailwalk.smt_laplacian import build_E_split, build_operators, classify


def _schur_projection(E, members, others, schur):
    """Spectral projector of one cluster from the complex Schur form
    ``schur = (T0, Z0)`` of E, the oracle that splitting every cluster off
    at once is checked against.

    A diagonal entry of T0 is selected when its nearest eigenvalue is a
    member; ``ztrsen`` moves the selected entries to the leading block (Bai
    & Demmel), ``ztrsyl`` solves T11 X - X T22 = T12 (Bartels-Stewart), and
    P = Z1 (Z1* + X Z2*).  A selection of the wrong size, a rejected swap or
    near-common eigenvalues of T11 and T22 raise :class:`ClusterAmbiguity`.
    """
    m = len(members)
    if m == E.shape[0]:
        return np.eye(m, dtype=complex)
    T0, Z0 = schur
    d = np.diag(T0)[:, None]
    select = np.min(np.abs(d - members), axis=1) < np.min(np.abs(d - others), axis=1)
    T, Z, _, sdim, _, _, info = ztrsen(select, T0, Z0, job="N")
    if info or sdim != m:
        raise ClusterAmbiguity(
            f"ztrsen moved {sdim} eigenvalues for a cluster of {m} (info={info})"
        )
    X, scale, info = ztrsyl(T[:m, :m], T[m:, m:], T[:m, m:], isgn=-1)
    if info:
        raise ClusterAmbiguity(
            f"ztrsyl: the cluster and the rest of the spectrum nearly share eigenvalues "
            f"(info={info})"
        )
    Z1 = Z[:, :m]
    return Z1 @ (Z1.conj().T + (X / scale) @ Z[:, m:].conj().T)


def test_zero_coupling_decouples(im_c4a):
    im0 = im_c4a.at(0.0)
    assert_allclose(im0.E, im0.E0, atol=1e-15)
    assert_allclose(im0.B_in, 0, atol=1e-15)
    assert_allclose(im0.B_out, 0, atol=1e-15)
    assert_allclose(im0.B_bb, np.eye(3), atol=1e-15)


def test_zero_coupling_shares_the_read_only_E0(c4a):
    im = build_E(c4a, 0.0)
    assert im.E is im.E0 and im.at(0.0).E is im.E0
    assert not im.E0.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        im.E[0, 0] = 1.0


def test_coupling_is_added_from_the_factors(suite_graphs, k4_multi):
    # at(eps) adds kappa times each tailed vertex's block to a copy of E0: the
    # same numbers, bit for bit, as E0 + kappa U1 V1^T
    for name, tg in {**suite_graphs, "k4-multi": k4_multi}.items():
        im = build_E(tg)
        assert im.U1.shape == im.V1.shape == (tg.num_arcs, len(tg.boundary_vertices))
        for eps in (0.03, 0.25, 1.0):
            E = im.at(eps).E
            assert E.flags.writeable and not np.shares_memory(E, im.E0)
            dense = im.E0 + kappa(eps) * (im.U1 @ im.V1.T)
            assert E.tobytes() == dense.tobytes(), (name, eps)


def _traced(fn):
    """fn()'s result, and the bytes tracemalloc saw at its peak and after it."""
    tracemalloc.start()
    try:
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, current


@pytest.fixture(scope="module")
def k16():
    return attach_tails(preset_graph("complete:16"), (0, 0, 1, 2))


def test_build_E_keeps_one_arc_sized_array(k16):
    # E(0) is E0 and E1 is kept as its n x r factors: one n x n complex array
    # where a dense E1 and a copy of E0 made three
    n = k16.num_arcs
    im, _, kept = _traced(lambda: build_E(k16, 0.0))
    assert im.E is im.E0
    assert kept <= 1.2 * 16 * n * n


def test_another_coupling_allocates_one_arc_sized_array(k16):
    im0 = build_E(k16, 0.0)
    n = k16.num_arcs
    im, peak, _ = _traced(lambda: im0.at(0.6))
    assert im.E.shape == (n, n)
    assert peak <= 1.2 * 16 * n * n


def test_blocks_are_exactly_kappa_linear(k4a, im_k4a):
    """Direct assembly at eps and the linear form at eps must agree to
    rounding; the splitting is an identity, not a truncation."""
    for eps in (0.03, 0.25, 0.8, 1.0):
        direct = build_E(k4a, eps)
        linear = im_k4a.at(eps)
        for name in ("E", "B_in", "B_out", "B_bb"):
            assert_allclose(
                getattr(direct, name), getattr(linear, name), atol=2e-15, err_msg=name
            )


def test_direct_port_block_is_the_coin_tail_block(suite_graphs, k4_multi):
    """B_bb1 couples only ports on one vertex, through C1's tail block."""
    for name, tg in {**suite_graphs, "k4-multi": k4_multi}.items():
        B_bb1 = build_E(tg).B_bb1
        expect = np.zeros_like(B_bb1)
        for v in range(tg.graph.num_vertices):
            pids = tg.ports_at(v)
            if not pids:
                continue
            n_i = int(tg.deg_int[v])
            _, C1 = linearize(int(tg.total_deg[v]), n_i)
            expect[np.ix_(pids, pids)] = C1[n_i:, n_i:]
        assert_allclose(B_bb1, expect, atol=1e-15, err_msg=name)


def test_split_assembly_agrees_with_coin_assembly(suite_graphs, k4_multi):
    # two routes to the kappa-linear parts of the walk step that share no code,
    # and the port blocks at eps against X0 + kappa X1 from the split parts
    # (B_in0 = B_out0 = 0, B_bb0 = I), with no truncated walk
    for name, tg in {**suite_graphs, "k4-multi": k4_multi}.items():
        im = build_E(tg)
        split = build_E_split(tg)
        coin = (im.E0, im.U1 @ im.V1.T, im.B_in1, im.B_out1, im.B_bb1)  # E1 from its factors
        names = ("E0", "E1", "B_in1", "B_out1", "B_bb1")
        for block, ours, X in zip(names, coin, split):
            assert_allclose(ours, X, atol=1e-13, err_msg=f"{name} {block}")
        _, _, B_in1, B_out1, B_bb1 = split
        for eps in (0.25, 1.0):
            at, k = build_E(tg, eps), kappa(eps)
            port = {"B_in": (at.B_in, k * B_in1), "B_out": (at.B_out, k * B_out1),
                    "B_bb": (at.B_bb, np.eye(tg.num_ports) + k * B_bb1)}
            for block, (ours, X) in port.items():
                assert_allclose(ours, X, atol=1e-13, err_msg=f"{name} {block} at eps {eps}")


def test_boundary_matrix_is_a_contraction(suite_graphs):
    for tg in suite_graphs.values():
        for eps in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
            E = build_E(tg, eps).E
            assert np.linalg.norm(E, 2) <= 1.0 + 1e-12


@pytest.fixture(scope="module")
def sd(im_k4a):
    return spectral_decompose(im_k4a.at(0.25).E)


class TestSpectralDecompose:
    def test_projections_resolve_identity(self, sd):
        n = len(sd.eigenvalues)
        total = sum(c.projection for c in sd.clusters)
        assert_allclose(total, np.eye(n), atol=1e-11)
        for c in sd.clusters:
            assert_allclose(c.projection @ c.projection, c.projection, atol=1e-11)
        for i, a in enumerate(sd.clusters):
            for b in sd.clusters[i + 1 :]:
                assert np.linalg.norm(a.projection @ b.projection) < 1e-11

    def test_multiplicities_and_reconstruction(self, sd):
        assert sum(c.mult for c in sd.clusters) == len(sd.eigenvalues)
        assert sd.reconstruction_residual < 1e-11
        for c in sd.clusters:
            assert c.nilpotent_norm < 1e-10

    def test_cluster_near(self, sd):
        c = sd.cluster_near(1.0 + 0j)
        assert abs(c.value - 1.0) < 1e-9
        with pytest.raises(KeyError):
            sd.cluster_near(0.123 + 0.456j, tol=1e-6)


def test_on_circle_split_at_working_coupling(im_c4a):
    # the two persistent states stay on the circle, everything else moves in
    sd = spectral_decompose(im_c4a.at(0.25).E)
    on = [c for c in sd.clusters if c.on_circle]
    assert sorted(np.round(c.value, 9) for c in on) == [-1.0, 1.0]
    assert sum(not c.on_circle for c in sd.clusters) == len(sd.clusters) - 2


def test_schur_projector_matches_contour_oracle(im_c4a, im_k4a):
    # E0 of both graphs has clusters of multiplicity >= 2
    for E, top_mult in ((im_c4a.at(0.25).E, 1), (im_c4a.E0, 2), (im_k4a.E0, 2)):
        sd = spectral_decompose(E)
        assert max(c.mult for c in sd.clusters) >= top_mult
        vals = sd.values()
        for c in sd.clusters:
            gaps = [abs(c.value - v) for v in vals if abs(v - c.value) > 1e-9]
            r = 0.4 * min(gaps)
            P_ref = projection_contour_oracle(E, c.value, r, nodes=96)
            assert np.linalg.norm(c.projection - P_ref) < 1e-7


def test_defective_cluster_recovers_the_jordan_block():
    # E = V J V^-1 with J = [[a, 1], [0, a]] (+) diag(b, c): the projector and
    # the nilpotent of the Jordan block are known in closed form
    rng = np.random.default_rng(5)
    V = np.eye(4) + 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    Vinv = np.linalg.inv(V)
    a = 0.5 + 0.2j
    J = np.diag([a, a, -0.4 + 0.1j, 0.1 - 0.6j])
    J[0, 1] = 1.0
    P_true = V @ np.diag([1.0, 1.0, 0.0, 0.0]) @ Vinv
    N_true = V[:, :1] @ Vinv[1:2, :]
    # the double eigenvalue splits by ~sqrt(rounding) in eigvals
    sd = spectral_decompose(V @ J @ Vinv, cluster_tol=1e-6)
    assert [c.mult for c in sd.clusters].count(2) == 1 and len(sd.clusters) == 3
    jb = sd.cluster_near(a, tol=1e-6)
    assert_allclose(jb.projection, P_true, atol=1e-12)
    assert_allclose(jb.R @ jb.N @ jb.L, N_true, atol=1e-12)
    for c in sd.clusters:
        assert_allclose(c.projection @ c.projection, c.projection, atol=1e-12)
        for d in sd.clusters:
            if d is not c:
                assert np.linalg.norm(c.projection @ d.projection) < 1e-12
    assert sd.reconstruction_residual < 1e-14


@pytest.mark.parametrize("routine", ["ztrsen", "ztrsyl"])
def test_lapack_failure_is_a_cluster_ambiguity(monkeypatch, c4_full, routine):
    # two double eigenvalues inside the disk, scattered on the Schur diagonal:
    # they need a reorder as well as the Sylvester solves, while the
    # on-circle clusters (all of E0's) split off without either
    E = build_E(c4_full, 0.25).E
    real = getattr(internal_spectral, routine)
    calls = []

    def failing(*args, **kwargs):
        calls.append(routine)
        *out, _ = real(*args, **kwargs)
        return (*out, 1)

    monkeypatch.setattr(internal_spectral, routine, failing)
    with pytest.raises(ClusterAmbiguity, match=routine):
        spectral_decompose(E)
    assert calls


def test_simple_spectrum_needs_no_reorder(monkeypatch, im_c4a):
    calls = []
    for routine in ("ztrsen", "ztrsyl"):
        real = getattr(internal_spectral, routine)
        monkeypatch.setattr(
            internal_spectral,
            routine,
            lambda *a, _real=real, _name=routine, **k: calls.append(_name) or _real(*a, **k),
        )
    sd = spectral_decompose(im_c4a.at(0.25).E)
    assert all(c.mult == 1 for c in sd.clusters) and "ztrsen" not in calls
    assert all(c.N.shape == (1, 1) and not c.N.any() for c in sd.clusters)
    assert all(c.nilpotent_norm == 0.0 for c in sd.clusters)
    # E0 is unitary: every cluster splits off by a permutation, double or not
    calls.clear()
    sd = spectral_decompose(im_c4a.E0)
    assert [c.mult for c in sd.clusters] == [2, 2, 2, 2] and calls == []


@settings(max_examples=25, deadline=None)
@given(connected_graphs(), st.data())
def test_factored_projectors_on_random_graphs(g, data):
    # every cluster split off at once agrees with splitting it off alone
    tails = data.draw(
        st.lists(st.integers(0, g.num_vertices - 1), min_size=1, max_size=g.num_vertices)
    )
    eps = data.draw(st.floats(min_value=0.01, max_value=1.0))
    E = build_E(attach_tails(g, tails), eps).E
    n = E.shape[0]
    try:
        sd = spectral_decompose(E)
    except ClusterAmbiguity:
        # near eps = 1 a tree's E can be (nearly) nilpotent: a refusal must
        # come with nearly equal eigenvalues or nearly dependent eigenvectors
        w, V = np.linalg.eig(E)
        gaps = np.abs(w[:, None] - w[None, :])[np.triu_indices(n, 1)]
        assert gaps.min() < 1e-5 or np.linalg.cond(V) > 1e6
        return
    assert np.isfinite(sd.block_condition)
    # near eps = 1 the basis' condition reaches ~1e6 and clusters come within
    # ~1e-5 of each other; rounding errors grow with both
    vals = sd.values()
    gap = min((abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1 :]), default=1.0)
    slack = n * np.finfo(float).eps * (sd.block_condition + 1.0 / gap)
    assert sd.reconstruction_residual <= 1e-13 + slack
    # the sliced residual and the Gram-free norms agree with the dense formulas.
    # The residual is R (blockdiag L) in both; the dense product rounds
    # blockdiag L differently, by about eps per entry, which R amplifies (to
    # 1.8e-15 at eps = 0.99999, where the basis' condition is 1e6)
    by_span = sorted(sd.clusters, key=lambda c: c.span.start)
    BL = scipy.linalg.block_diag(*(c.value * np.eye(c.mult) + c.N for c in by_span)) @ sd.L
    dense = np.linalg.norm(sd.R @ BL - E) / np.linalg.norm(E)
    rounding = np.finfo(float).eps * np.linalg.norm(sd.R, 2) * np.linalg.norm(BL)
    assert abs(sd.reconstruction_residual - dense) <= 1e-15 + rounding / np.linalg.norm(E)
    for c in sd.clusters:
        nn = np.linalg.norm(c.R @ c.N @ c.L)
        assert abs(c.nilpotent_norm - nn) <= max(1e-12 * nn, 1e-28)
    schur = scipy.linalg.schur(E, output="complex")
    Ps = [c.projection for c in sd.clusters]
    groups, _ = _greedy_clusters(sd.eigenvalues, CLUSTER_TOL)
    for c, P, g in zip(sd.clusters, Ps, groups):
        ix = np.isin(np.arange(n), g)
        P_ref = _schur_projection(E, sd.eigenvalues[ix], sd.eigenvalues[~ix], schur)
        assert np.linalg.norm(P - P_ref) <= (1e-12 + slack) * np.linalg.norm(P_ref)
    assert np.linalg.norm(sum(Ps) - np.eye(n)) <= 1e-12 + slack
    for i, P in enumerate(Ps):
        for Q in Ps[i + 1 :]:
            scale = np.linalg.norm(P) * np.linalg.norm(Q)
            assert max(np.linalg.norm(P @ Q), np.linalg.norm(Q @ P)) <= 1e-12 * scale


def _check_split_off(E):
    """The clusters split off by a permutation are on the circle, and their
    projectors Z_J Z_J* are the spectral projectors of E."""
    split = []
    real = internal_spectral._unitary_part
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(internal_spectral, "_unitary_part", lambda *a: split.extend(real(*a)) or split)
        try:
            sd = spectral_decompose(E)
        except ClusterAmbiguity:  # the refusals have their own property above
            return []
    vals = sd.values()
    for c in (sd.clusters[i] for i in split):
        assert c.on_circle
        r = 0.4 * min((abs(v - c.value) for v in vals if v != c.value), default=1.0)
        P_ref = projection_contour_oracle(E, c.value, r, nodes=96)
        assert np.linalg.norm(c.projection - P_ref) <= 1e-10
    return split


@settings(max_examples=25, deadline=None)
@given(connected_graphs(), st.data())
def test_split_off_clusters_are_unitary_on_random_graphs(g, data):
    tails = data.draw(
        st.lists(st.integers(0, g.num_vertices - 1), min_size=1, max_size=g.num_vertices)
    )
    eps = data.draw(st.floats(min_value=0.01, max_value=1.0))
    _check_split_off(build_E(attach_tails(g, tails), eps).E)


@settings(max_examples=100, deadline=None)
@given(connected_graphs(), st.data())
def test_on_circle_count_is_the_persistent_count_on_random_graphs(g, data):
    # the graph side counts the embedded eigenvalues with no eigensolver of
    # E(eps): p, the persistent multiplicity over E0's eigenvalues.  The
    # clusters the Schur form decouples hold exactly p, and the closed form
    # drops them without refusing any
    tails = data.draw(st.lists(st.integers(0, g.num_vertices - 1), min_size=1, max_size=3))
    eps = data.draw(st.floats(min_value=1e-4, max_value=0.9))
    tg = attach_tails(g, tails)
    im = build_E(tg, eps)
    sd = spectral_decompose(im.E)
    p = sum(c.persistent_mult for c in classify(build_operators(tg)))
    assert sum(c.mult for c in sd.clusters if c.on_circle) == p
    SigmaEvaluator(im, sd)


def test_a_decoupled_resonance_stays_with_the_rest():
    # the triangle with a tail at every vertex has a resonance that the Schur
    # form decouples as well as the persistent eigenvalue 1: only 1 splits off
    E = build_E(attach_tails(preset_graph("complete:3"), (0, 1, 2)), 0.5).E
    assert len(_check_split_off(E)) == 1


def test_nearly_parallel_eigenvectors_are_a_cluster_ambiguity():
    # eigenvalues 0.5 and -0.5 are well apart, but their eigenvectors meet at
    # an angle of about 1e-5: the projectors have norm ~1e5, and the
    # block-diagonalising basis a condition of ~1e10
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    T = np.diag([0.5, -0.5, 0.1j, -0.2 + 0j])
    T[0, 1] = 1e5
    with pytest.raises(ClusterAmbiguity, match="condition"):
        spectral_decompose(Q @ T @ Q.conj().T)


@pytest.mark.parametrize(
    "preset, tails, eps, clusters, peak_n2",
    [
        # 128 arcs, 128 clusters: two dense n x n matrices per cluster trace 65 MiB
        ("cycle:64", (0, 1, 2, 3), 0.25, 128, 5.0),
        # 240 arcs, 11 clusters: four on the circle, of 233 members, split off
        ("complete:16", (0, 0, 1, 2), 0.6, 11, 4.0),
    ],
    ids=["cycle:64", "complete:16"],
)
def test_decomposition_memory_is_linear_in_clusters(preset, tails, eps, clusters, peak_n2):
    # the traced peak, in n x n complex arrays: R and L, the two outputs, and
    # about two working arrays besides (measured 4.5 and 3.7)
    E = build_E(attach_tails(preset_graph(preset), tails), eps).E
    n = E.shape[0]
    sd, peak, _ = _traced(lambda: spectral_decompose(E))
    assert len(sd.clusters) == clusters
    assert peak <= 8 * 2**20
    assert peak <= peak_n2 * 16 * n * n


@pytest.fixture
def schur_calls(monkeypatch):
    # the package's Schur forms, as the zgees calls that make one: the
    # workspace query (lwork=-1) makes none
    calls = []
    real = internal_spectral.zgees

    def counting(select, a, *args, **kwargs):
        if kwargs.get("lwork") != -1:
            calls.append(a.shape)
        return real(select, a, *args, **kwargs)

    monkeypatch.setattr(internal_spectral, "zgees", counting)
    return calls


def test_one_schur_form_per_decomposition(schur_calls, monkeypatch, c4a):
    # the Schur form is the only dense eigensolver: its diagonal holds the
    # reported eigenvalues
    def refuse(*args, **kwargs):
        raise AssertionError("second eigensolver called by spectral_decompose")

    for mod in (np.linalg, scipy.linalg):
        for name in ("eig", "eigvals"):
            monkeypatch.setattr(mod, name, refuse)
    tg16 = attach_tails(preset_graph("cycle:16"), (0, 1, 2, 3))
    for tg in (c4a, tg16):
        schur_calls.clear()
        sd = spectral_decompose(build_E(tg, 0.25).E)
        assert len(sd.clusters) > 2
        assert schur_calls == [(tg.num_arcs, tg.num_arcs)]


def test_one_schur_form_per_total_projection(schur_calls, im_c4a):
    # the total projection sums the factors of E(eps)'s own decomposition
    base = Coupling(im_c4a, spectral_decompose(im_c4a.E0))
    im = im_c4a.at(0.1)
    cpl = Coupling(im, spectral_decompose(im.E))
    led = reduce_eigenvalue(base, 1 + 0j)
    schur_calls.clear()
    total_projection(cpl, led)
    assert schur_calls == []


def test_schur_query_is_freed_before_the_schur_form(k16):
    # the workspace query's copies of E and Z are gone before scipy's Schur
    # call allocates its own T and Z: two n x n arrays at the peak, not four
    E = build_E(k16, 0.6).E
    n = E.shape[0]
    _, peak, _ = _traced(lambda: internal_spectral._schur_form(E))
    assert peak < 3 * 16 * n * n


def test_schur_form_is_scipys(schur_calls, c4a):
    # scipy.linalg.schur, which makes the same zgees call, as the reference
    E = build_E(c4a, 0.25).E
    T, Z = internal_spectral._schur_form(E)
    assert schur_calls == [E.shape]
    T0, Z0 = scipy.linalg.schur(E, output="complex")
    assert T.tobytes() == T0.tobytes() and Z.tobytes() == Z0.tobytes()


def test_schur_form_refuses_non_finite_input(c4a):
    E = build_E(c4a, 0.25).E.copy()
    E[3, 5] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        spectral_decompose(E)


def test_import_leaves_scipy_linalg_unloaded():
    # the LAPACK routines come from scipy's compiled module alone: importing
    # the package and its CLI loads neither scipy.linalg nor the numpy
    # modules its array-API layer pulls in, and a later import of
    # scipy.linalg shares that module
    code = (
        "import sys, tailwalk, tailwalk.cli\n"
        "print(sorted(m for m in ('scipy.linalg', 'numpy.f2py', 'numpy.testing',"
        " 'numpy.random') if m in sys.modules))\n"
        "import scipy.linalg\n"
        "print(scipy.linalg.lapack.zgees is tailwalk.internal_spectral.zgees)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tailwalk.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "True"]


def test_no_dense_E1_outside_the_split_assembly():
    # E1 = U1 V1^T is carried as its factors: no name, attribute or field E1
    # in the package's code but build_E_split's own, which criterion 5 unpacks
    assert "E1" not in {f.name for f in dataclasses.fields(tailwalk.InternalMatrix)}
    src = Path(tailwalk.__file__).parent
    found = set()
    for p in src.rglob("*.py"):
        for top in ast.parse(p.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == "E1"
                        or isinstance(node, ast.Attribute) and node.attr == "E1"
                        or isinstance(node, ast.Constant) and node.value == "E1"):
                    found.add((p.name, getattr(top, "name", None)))
    assert found == {("acceptance.py", "_c5")}


def test_no_sylvester_solver_left_in_the_package():
    src = Path(tailwalk.__file__).parent
    assert not [p.name for p in src.rglob("*.py") if "solve_sylvester" in p.read_text()]


def test_only_internal_spectral_takes_schur_forms():
    src = Path(tailwalk.__file__).parent
    assert not [
        p.name
        for p in src.rglob("*.py")
        if p.name != "internal_spectral.py"
        and any(s in p.read_text() for s in ("zgees", "scipy.linalg.schur", "_schur_projection"))
    ]


def _union_find_clusters(vals, tol):
    """Reference: the pairwise union-find loop _greedy_clusters replaced."""
    parent = list(range(len(vals)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if abs(vals[i] - vals[j]) < tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(len(vals)):
        groups.setdefault(find(i), []).append(i)
    out = list(groups.values())
    out.sort(key=lambda ix: (np.mean(vals[ix]).real, np.mean(vals[ix]).imag))
    return out


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=30),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.1, 0.03]),
)
def test_greedy_clusters_match_union_find(points, seed, tol):
    # points on a coarse grid plus jitter below and near the tolerance, so
    # chains, duplicates and near-misses all occur
    rng = np.random.default_rng(seed)
    vals = np.array([complex(x, y) * 0.08 for x, y in points])
    vals = vals + rng.uniform(-0.02, 0.02, len(vals)) + 1j * rng.uniform(-0.02, 0.02, len(vals))
    groups, _ = _greedy_clusters(vals, tol)
    assert [ix.tolist() for ix in groups] == _union_find_clusters(vals, tol)
    # each representative is its group's np.mean bit for bit, also where that
    # mean turns a -0.0 part into +0.0
    vals.real[::3], vals.imag[1::3] = -0.0, -0.0
    groups, reps = _greedy_clusters(vals, tol)
    assert reps.tobytes() == np.array([np.mean(vals[ix]) for ix in groups]).tobytes()


def test_contour_oracle_rejects_coarse_quadrature(im_c4a):
    with pytest.raises(ValueError):
        projection_contour_oracle(im_c4a.E0, 1.0, 0.5, nodes=32)


def test_coarse_tolerance_merges_only_what_is_within_it(im_c4a):
    # gaps in sigma(E0) are sqrt(2): a tolerance of 0.2 leaves the four
    # double eigenvalues as they are at the default, although they sit
    # within 10x the tolerance of each other
    ref = spectral_decompose(im_c4a.E0)
    sd = spectral_decompose(im_c4a.E0, cluster_tol=0.2)
    assert [c.mult for c in sd.clusters] == [c.mult for c in ref.clusters] == [2, 2, 2, 2]
    for c, r in zip(sd.clusters, ref.clusters):
        assert c.value == r.value
        assert np.linalg.norm(c.projection - r.projection) <= 1e-12


def _close_pair(coupling):
    # eigenvalues 0.5 and 0.5 + 3e-7, coupled in the Schur form: their
    # projectors have norm about coupling / 3e-7
    rng = np.random.default_rng(5)
    Q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    T = np.diag([0.5, 0.5 + 3e-7, 0.1j, -0.2 + 0j])
    T[0, 1] = coupling
    return Q @ T @ Q.conj().T


def test_close_pair_is_split_when_its_projectors_are_trusted():
    E = _close_pair(1e-4)
    sd = spectral_decompose(E)
    assert [c.mult for c in sd.clusters] == [1, 1, 1, 1]
    assert 1e4 < sd.block_condition < 1e6
    assert sd.reconstruction_residual <= 1e-12
    pair = [c for c in sd.clusters if abs(c.value - 0.5) < 1e-6]
    assert len(pair) == 2
    schur = scipy.linalg.schur(E, output="complex")
    vals = sd.eigenvalues
    for c in pair:
        ix = np.abs(vals - c.value) < 1e-12
        P_ref = _schur_projection(E, vals[ix], vals[~ix], schur)
        assert np.linalg.norm(c.projection - P_ref) <= 1e-12 * np.linalg.norm(P_ref)


def test_close_pair_is_refused_by_condition_alone():
    with pytest.raises(ClusterAmbiguity, match="condition"):
        spectral_decompose(_close_pair(1.0))


@pytest.mark.parametrize("tol", [1e-13, 0.0, float("nan")])
def test_cluster_tolerance_below_the_floor_is_refused(im_c4a, tol):
    with pytest.raises(ValueError, match="cluster_tol"):
        spectral_decompose(im_c4a.E0, cluster_tol=tol)
    assert [c.mult for c in spectral_decompose(im_c4a.E0, CLUSTER_TOL).clusters] == [2] * 4


def test_default_tolerance_keeps_close_resonances_apart():
    # at eps 1e-3 cycle:48's resonances come in pairs as close as 3.7e-8: a
    # merged pair has ||N^2||_F = 0.35 d^2, which no nilpotency test sees
    im = build_E(attach_tails(preset_graph("cycle:48"), [0, 1, 2]), 1e-3)
    sd = spectral_decompose(im.E)
    assert len(sd.clusters) == 96
    assert all(c.mult == 1 for c in sd.clusters)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.data())
def test_small_coupling_is_decomposed_or_refused_by_conditioning(g, data):
    # small eps splits branches of one E0 eigenvalue at O(kappa^2): a
    # decomposition either holds to rounding or is refused for its
    # conditioning, never for the clusters' distance; where the closed
    # form is built, it matches a direct solve
    tails = data.draw(
        st.lists(st.integers(0, g.num_vertices - 1), min_size=1, max_size=2 * g.num_vertices)
    )
    eps = 10.0 ** data.draw(st.floats(min_value=-4.0, max_value=-1.0))
    lams = data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=4, max_size=4))
    im = build_E(attach_tails(g, tails), eps)
    try:
        sd = spectral_decompose(im.E)
    except ClusterAmbiguity as exc:
        assert "closer than" not in str(exc)
        return
    assert sd.reconstruction_residual <= 1e-12
    try:
        ev = SigmaEvaluator(im, sd)
    except ClusterAmbiguity:
        return
    n = im.E.shape[0]
    for lam in lams:
        z = np.exp(-1j * lam)
        if np.min(np.abs(sd.eigenvalues - z)) < 1e-6:  # no direct solve at an eigenvalue
            continue
        direct = im.B_bb + im.B_out @ np.linalg.solve(z * np.eye(n) - im.E, im.B_in)
        assert np.linalg.norm(ev.sigma(lam) - direct) <= 1e-10


def test_cluster_that_is_not_one_eigenvalue_is_refused():
    # a tolerance of 0.5 merges cycle:12's 24 resonances at eps 0.3 into one
    # cluster whose N is far from nilpotent; the closed form would be wrong
    E = build_E(attach_tails(preset_graph("cycle:12"), (0, 1, 2)), 0.3).E
    with pytest.raises(ClusterAmbiguity, match=r"multiplicity 24 is not one eigenvalue"):
        spectral_decompose(E, cluster_tol=0.5)
    assert all(c.mult == 1 for c in spectral_decompose(E).clusters)


def test_exact_multiplicities_take_no_matrix_power(monkeypatch):
    # complete:16's persistent eigenvalues form clusters of 105 and more
    # whose ||N||_F^m underflows the bound, so ||N^m||_F is never formed
    powers, real = [], np.linalg.matrix_power

    def counting(M, n):
        powers.append(n)
        return real(M, n)

    monkeypatch.setattr(np.linalg, "matrix_power", counting)
    E = build_E(attach_tails(preset_graph("complete:16"), (0, 0, 1, 2)), 0.6).E
    assert max(c.mult for c in spectral_decompose(E).clusters) >= 105
    assert powers == []


def test_outgoing_extension_of_a_resonance(c4a):
    eps = 0.25
    im = build_E(c4a, eps)
    vals, vecs = np.linalg.eig(im.E)
    inside = np.where(np.abs(vals) < 1 - 1e-6)[0]
    assert inside.size > 0
    k = inside[np.argmin(np.abs(vals[inside]))]
    res = verify_outgoing(im, vals[k], vecs[:, k])
    assert res < 1e-8


def test_outgoing_extension_of_several_states(c4a):
    # one call for all the resonances of E gives each one-state call's bits
    im = build_E(c4a, 0.25)
    vals, vecs = np.linalg.eig(im.E)
    inside = np.flatnonzero(np.abs(vals) < 1 - 1e-6)
    assert inside.size > 1
    got = verify_outgoing(im, vals[inside], vecs[:, inside])
    one = [verify_outgoing(im, complex(vals[k]), vecs[:, k]) for k in inside]
    assert got.tobytes() == np.array(one).tobytes()
    with pytest.raises(NotAResonance):  # one state on the circle refuses them all
        verify_outgoing(im, np.append(vals[inside], 1.0), vecs[:, [*inside, inside[0]]])


def _walk_residual(im, mu, v):
    """Criterion 5's residual on the dense truncated walk, the reference
    ``verify_outgoing`` is checked against: psi is v on the internal arcs,
    zero on the incoming tail arcs and (B_out v)_j mu^-l / mu on tail j's
    outgoing arc l, and the residual is max |(U - mu) psi| / max |psi| over
    the rows whose stencil stays inside the truncation."""
    depth = internal_spectral._OUTGOING_DEPTH + 2
    walk = WalkOperator(im, depth)
    psi = np.zeros(walk.dim, dtype=complex)
    psi[: im.tg.num_arcs] = v
    first_out = im.B_out @ v / mu
    profile = [mu ** (-(l - 1)) for l in range(1, depth + 1)]
    for t, f in zip(walk.tails, first_out):
        psi[[t.out_arc(l) for l in range(1, depth + 1)]] = [p * f for p in profile]
    psi /= np.max(np.abs(psi))
    r = walk.matrix @ psi - mu * psi
    return float(np.max(np.abs(r[~walk.invalid_rows])))


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.floats(min_value=0.05, max_value=1.0), st.data())
def test_outgoing_residual_is_the_truncated_walks(g, eps, data):
    # verify_outgoing reads the residual off the walk's structure; on the
    # dense truncated walk it is the same to rounding, for every resonance,
    # and with E and B_out bent off the eigenvectors, where the internal and
    # the first outgoing rows carry residuals well above rounding
    vertex = st.integers(min_value=0, max_value=g.num_vertices - 1)
    tails = data.draw(st.lists(vertex, min_size=1, max_size=g.num_vertices))
    tails += [tails[0]] * data.draw(st.integers(min_value=0, max_value=2))
    im = build_E(attach_tails(g, tails), eps)
    vals, vecs = np.linalg.eig(im.E)
    inside = np.flatnonzero(np.abs(vals) < 1 - 1e-6)
    # at eps = 1 some graphs put a nilpotent block of E at 0, whose eigenvalues
    # round to below the floor: each of those states is refused
    low = inside[np.abs(vals[inside]) < internal_spectral._OUTGOING_FLOOR]
    inside = np.setdiff1d(inside, low)
    rng = np.random.default_rng(len(tails))
    dE, dB = data.draw(st.tuples(st.floats(0.0, 1e-2), st.floats(0.0, 1e-2)))
    bent = dataclasses.replace(im, E=im.E + dE * rng.standard_normal(im.E.shape),
                               B_out=im.B_out + dB * rng.standard_normal(im.B_out.shape))
    for walk in (im, bent):
        for k in low:
            with pytest.raises(NotAResonance):
                verify_outgoing(walk, complex(vals[k]), vecs[:, k])
        got = verify_outgoing(walk, vals[inside], vecs[:, inside])
        want = [_walk_residual(walk, complex(vals[k]), vecs[:, k]) for k in inside]
        assert_allclose(got, want, rtol=0, atol=1e-14)


def test_outgoing_extension_rejects_circle_points(c4a):
    v = np.ones(c4a.num_arcs, dtype=complex)
    with pytest.raises(NotAResonance):
        verify_outgoing(build_E(c4a, 0.25), 1.0 + 0j, v)


@pytest.mark.parametrize("edges, tails, zeros", [
    ([(0, 1), (1, 2), (1, 3), (2, 3)], (2, 2), 2),  # rounded to 1.8e-16 and 1.1e-15
    ([(0, 1), (0, 2), (1, 3), (2, 3)], (1, 1), 4),  # exact zeros
])
def test_outgoing_extension_refuses_the_profile_that_overflows(edges, tails, zeros):
    # at eps = 1 these graphs' E has a nilpotent block at 0: there the profile
    # mu^-(l-1) has no value, or overflows at rounding's |mu|, and every state
    # below the floor is refused, alone or in a batch; the rest are verified
    im = build_E(attach_tails(build_internal(4, edges), tails), 1.0)
    vals, vecs = np.linalg.eig(im.E)
    low = np.abs(vals) < internal_spectral._OUTGOING_FLOOR
    assert np.count_nonzero(low) == zeros
    for k in np.flatnonzero(low):
        with pytest.raises(NotAResonance):
            verify_outgoing(im, complex(vals[k]), vecs[:, k])
    disk = np.abs(vals) < 1 - 1e-6
    assert np.all(verify_outgoing(im, vals[disk & ~low], vecs[:, disk & ~low]) < 1e-14)
    with pytest.raises(NotAResonance):
        verify_outgoing(im, vals[disk], vecs[:, disk])


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_confinement_property(eps):
    # eigenvalues never leave the closed unit disk, for any coupling
    from tailwalk import attach_tails, preset_graph

    tg = attach_tails(preset_graph("complete:4"), (0, 1, 2))
    vals = np.linalg.eigvals(build_E(tg, eps).E)
    assert np.max(np.abs(vals)) <= 1.0 + 1e-10


@settings(max_examples=30, deadline=None)
@given(connected_graphs(), st.floats(min_value=0.0, max_value=1.0), st.data())
def test_contraction_property(g, eps, data):
    # E compresses a unitary, so ||E||_2 <= 1 (hence confinement |mu| <= 1);
    # the time iteration's skip certificate rests on this
    vertex = st.integers(min_value=0, max_value=g.num_vertices - 1)
    tails = data.draw(st.lists(vertex, min_size=1, max_size=5))
    tails += [tails[0]] * data.draw(st.integers(min_value=0, max_value=2))
    E = build_E(attach_tails(g, tails), eps).E
    assert np.linalg.norm(E, 2) <= 1.0 + 1e-12


@settings(max_examples=30, deadline=None)
@given(connected_graphs(), st.floats(min_value=0.0, max_value=1.0), st.data())
def test_full_step_is_unitary(g, eps, data):
    # the walk step on internal arcs plus ports, [[E, B_in], [B_out, B_bb]],
    # is unitary at every coupling, with several tails on one vertex too
    vertex = st.integers(min_value=0, max_value=g.num_vertices - 1)
    tails = data.draw(st.lists(vertex, min_size=1, max_size=5))
    tails += [tails[0]] * data.draw(st.integers(min_value=0, max_value=2))
    im = build_E(attach_tails(g, tails), eps)
    U = np.block([[im.E, im.B_in], [im.B_out, im.B_bb]])
    assert np.linalg.norm(U.conj().T @ U - np.eye(len(U)), 2) <= 1e-13


# the skip phase's jumps of up to _BLOCK 2^_MAX_LEVEL steps stay inside its 1e-9
# margin while the matrix H the iteration steps has ||H||_2 <= 1 + this
_CERTIFIED_EXCESS = 7.6e-15


@settings(max_examples=100, deadline=None)
@given(connected_graphs(), st.floats(min_value=0.05, max_value=1.0), st.data())
def test_iteration_basis_spans_the_port_krylov_subspace(g, eps, data):
    # the inflow's orbit lives where E has its eigenvalues inside the disk:
    # the iteration reduces exactly when there are at most n/2 of them, onto
    # an orthonormal E-invariant basis that keeps the skip certificate
    vertex = st.integers(min_value=0, max_value=g.num_vertices - 1)
    tails = data.draw(st.lists(vertex, min_size=1, max_size=g.num_vertices))
    im = build_E(attach_tails(g, tails), eps)
    n = im.E.shape[0]
    inside = int((np.abs(np.linalg.eigvals(im.E)) < 1 - 1e-8).sum())
    ib = im.iteration_basis
    if 2 * inside > n:
        assert ib.V is None and ib.H is im.E and ib.B_in is im.B_in and ib.B_out is im.B_out
        return
    V = ib.V
    assert V.shape == (n, inside)
    assert np.abs(V.conj().T @ V - np.eye(inside)).max() <= 1e-13
    assert np.linalg.norm(im.E @ V - V @ ib.H, 2) <= 1e-13
    assert_allclose(V @ ib.B_in, im.B_in, rtol=0, atol=1e-13)
    assert_allclose(ib.B_out, im.B_out @ V, rtol=0, atol=0)
    assert np.linalg.norm(ib.H, 2) <= 1 + _CERTIFIED_EXCESS


@settings(max_examples=100, deadline=None)
@given(connected_graphs(), st.floats(min_value=0.05, max_value=1.0), st.data())
def test_doubled_walk_is_the_step_by_step_walk(g, eps, data):
    # walk builds a block in _LOG_BLOCK products with the ladder's squares
    # H^(2^k); each step is H times the one before to rounding, and power(0),
    # the next rung, is numpy's own H^_BLOCK bit for bit
    vertex = st.integers(min_value=0, max_value=g.num_vertices - 1)
    tails = data.draw(st.lists(vertex, min_size=1, max_size=g.num_vertices))
    ib = build_E(attach_tails(g, tails), eps).iteration_basis
    alpha = np.exp(1j * np.arange(ib.B_in.shape[1]))
    for x in (ib.B_in, ib.B_in @ alpha):  # d x N, and d
        W = ib.walk(x)
        step = np.empty_like(W)
        step[:, 0] = x
        for j in range(1, _BLOCK):
            step[:, j] = ib.H @ step[:, j - 1]
        err = np.linalg.norm(W - step, axis=0)  # per step (and port)
        assert np.all(err <= 1e-13 * np.linalg.norm(x, axis=0))
    assert len(ib._squares) == _LOG_BLOCK
    assert np.array_equal(ib.power(0), np.linalg.matrix_power(ib.H, _BLOCK))


def test_iteration_basis_keeps_the_skip_certificate():
    assert (1 + _CERTIFIED_EXCESS) ** (_BLOCK * 2**_MAX_LEVEL) < 1 + 1e-9
    for name in ("complete:8", "complete:16", "complete:24"):
        im0 = build_E(attach_tails(preset_graph(name), (0, 0, 1, 2)))
        for eps in np.linspace(0.01, 1.0, 34):
            ib = im0.at(eps).iteration_basis
            assert ib.V.shape[1] == 7
            assert np.linalg.norm(ib.H, 2) <= 1 + _CERTIFIED_EXCESS, (name, eps)


def test_iteration_basis_stops_at_half_the_arcs(c4_full):
    # a cycle's inflow reaches all but two arcs, so the iteration keeps the
    # arc coordinates, as it does for a matrix that is not finite
    im = build_E(attach_tails(preset_graph("cycle:16"), (0, 1, 2, 3)), 0.25)
    assert im.iteration_basis.V is None
    assert im.iteration_basis.walk(im.B_in[:, 0]).shape == (32, _BLOCK)
    im = build_E(c4_full, 0.25)
    E = im.E.copy()
    E[0, 0] = np.nan
    bad = dataclasses.replace(im, E=E)
    assert bad.iteration_basis.V is None and bad.iteration_basis.H is E
