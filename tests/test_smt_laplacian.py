"""Discriminant operator route to sigma_p(E0): lifts, births, persistence."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from test_tailed_graph import connected_graphs

from tailwalk import attach_tails, build_E, build_internal
from tailwalk.smt_laplacian import (
    birth_basis,
    birth_multiplicities,
    build_operators,
    classify,
    joukowsky,
    joukowsky_preimages,
    lift,
    persistent_basis,
    unit_sign,
)


def test_averaging_against_copying_is_a_left_inverse(c4a, k4a):
    for tg in (c4a, k4a):
        lt = build_operators(tg)
        assert_allclose(lt.d @ lt.dstar, np.eye(4), atol=1e-14)


def test_T_is_selfadjoint_in_the_weighted_inner_product(k4a):
    lt = build_operators(k4a)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(4)
    g = rng.standard_normal(4)

    def w_inner(f, g):  # <f, g>_W = sum n_i(v) f(v) conj(g(v))
        return complex(np.sum(lt.weights * f * np.conj(g)))

    assert_allclose(w_inner(lt.T @ f, g), w_inner(f, lt.T @ g), atol=1e-13)
    vals, vecs = lt.spectrum
    assert np.all(vals >= -1 - 1e-12) and np.all(vals <= 1 + 1e-12)
    # W-orthonormality of the returned basis
    G = np.array([[w_inner(vecs[:, i], vecs[:, j]) for j in range(4)] for i in range(4)])
    assert_allclose(G, np.eye(4), atol=1e-12)


def test_c4_and_k4_discriminant_spectra(c4a, k4a):
    vals_c4, _ = build_operators(c4a).spectrum
    assert_allclose(np.sort(vals_c4), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)
    vals_k4, _ = build_operators(k4a).spectrum
    assert_allclose(np.sort(vals_k4), [-1 / 3, -1 / 3, -1 / 3, 1.0], atol=1e-12)


def test_joukowsky_preimages_roundtrip():
    for t in (-0.99, -1 / 3, 0.0, 0.4, 0.99):
        pre = joukowsky_preimages(t)
        assert len(pre) == 2
        for lam in pre:
            assert abs(abs(lam) - 1) < 1e-12
            assert abs(joukowsky(lam) - t) < 1e-12
        assert abs(pre[0] - np.conj(pre[1])) < 1e-12
    assert joukowsky_preimages(1.0) == (1.0 + 0j,)
    assert joukowsky_preimages(-1.0) == (-1.0 + 0j,)


def test_unit_sign_names_the_point_of_plus_or_minus_one():
    assert unit_sign(1.0) == 1 and unit_sign(-1.0 + 0j) == -1
    assert unit_sign(1 - 5e-10j) == 1 and unit_sign(-1 + 5e-10) == -1
    for z in (1 + 2e-9, -1 - 2e-9j, 1j, -1j, 0.0, np.exp(0.3j)):
        assert unit_sign(z) == 0


def test_lift_produces_unit_eigenvectors(c4a, k4a):
    for tg in (c4a, k4a):
        lt = build_operators(tg)
        im = build_E(tg)
        vals, vecs = lt.spectrum
        for t, f in zip(vals, vecs.T):
            for lam in joukowsky_preimages(float(np.clip(t, -1, 1))):
                u = lift(lt, lam, f)
                assert_allclose(im.E0 @ u, lam * u, atol=1e-11)
                assert_allclose(np.linalg.norm(u), 1.0, atol=1e-11)


def test_bipartiteness():
    from tailwalk import preset_graph

    assert preset_graph("cycle:4").bipartite
    assert not preset_graph("cycle:5").bipartite
    assert not preset_graph("complete:4").bipartite


def test_birth_multiplicities(c4a, k4a):
    assert birth_multiplicities(c4a) == (1, 1)  # one independent cycle, bipartite
    assert birth_multiplicities(k4a) == (3, 2)


def test_birth_basis_solves_both_constraints(k4a):
    lt = build_operators(k4a)
    for lam, expect in ((1, 3), (-1, 2)):
        B = birth_basis(lt, lam)
        assert B.shape == (12, expect)
        assert_allclose(lt.d @ B, 0, atol=1e-12)
        assert_allclose(lt.S @ B, -lam * B, atol=1e-12)
    with pytest.raises(ValueError):
        birth_basis(lt, 0.5)


class TestClassify:
    def test_c4_table(self, c4a):
        rows = {
            complex(round(e.value.real, 6), round(e.value.imag, 6)): e
            for e in classify(build_operators(c4a))
        }
        assert set(rows) == {1 + 0j, -1 + 0j, 1j, -1j}
        for lam in (1 + 0j, -1 + 0j):
            e = rows[lam]
            assert (e.inherited_mult, e.birth_mult, e.persistent_mult) == (1, 1, 1)
            assert e.total_mult == 2
        for lam in (1j, -1j):
            e = rows[lam]
            assert (e.inherited_mult, e.birth_mult, e.persistent_mult) == (2, 0, 0)

    def test_k4_table(self, k4a):
        rows = sorted(classify(build_operators(k4a)), key=lambda e: np.angle(e.value))
        mults = {
            complex(round(e.value.real, 6), round(e.value.imag, 6)): (
                e.inherited_mult,
                e.birth_mult,
                e.persistent_mult,
            )
            for e in rows
        }
        theta = np.arccos(-1 / 3)
        key_plus = complex(round(np.cos(theta), 6), round(np.sin(theta), 6))
        assert mults[1 + 0j] == (1, 3, 3)
        assert mults[-1 + 0j] == (0, 2, 2)
        assert mults[key_plus] == (3, 0, 0)
        assert mults[np.conj(key_plus)] == (3, 0, 0)

    def test_total_multiplicity_accounts_for_every_arc(self, suite_graphs):
        for name, tg in suite_graphs.items():
            total = sum(e.total_mult for e in classify(build_operators(tg)))
            assert total == tg.num_arcs, name

    def test_agreement_with_direct_spectrum(self, c4b):
        # the mapped spectrum must equal the numerically computed one
        vals = np.linalg.eigvals(build_E(c4b).E0)
        for e in classify(build_operators(c4b)):
            n_close = int(np.sum(np.abs(vals - e.value) < 1e-9))
            assert n_close == e.total_mult


def test_t_eigenbasis_split_vanishing_condition(k4_full):
    lt = build_operators(k4_full)
    per, rest = lt.eigenspace(-1 / 3)
    # every internal vertex of k4-4tails carries a tail: nothing can vanish
    # on the whole boundary, so the persistent part is empty
    assert per.shape[1] == 0 and rest.shape[1] == 3
    # a value T does not have is an empty eigenspace
    per, rest = lt.eigenspace(0.123)
    assert per.shape == (4, 0) and rest.shape == (4, 0)


def test_eigenspace_parts_span_exactly_the_eigenspace():
    # on this tree Ker(T) is 4-dimensional and the projector onto the
    # complement of its persistent part has a ~1e-15 singular value, which
    # must not count as a fifth direction
    g = build_internal(8, [(0, 1), (0, 3), (0, 5), (0, 7), (1, 2), (2, 4), (2, 6)])
    lt = build_operators(attach_tails(g, [0, 2, 4, 7]))
    per, rest = lt.eigenspace(0.0)
    assert (per.shape[1], rest.shape[1]) == (2, 2)
    for _, F, per, rest in lt.eigenspaces:
        assert per.shape[1] + rest.shape[1] == F.shape[1]


def test_persistent_basis_survives_the_coupling(c4a, k4a):
    for tg, lam, dim in ((c4a, 1.0, 1), (c4a, -1.0, 1), (k4a, 1.0, 3), (k4a, -1.0, 2)):
        U = persistent_basis(build_operators(tg), lam)
        assert U.shape[1] == dim
        for eps in (0.1, 0.5):
            im = build_E(tg, eps)
            assert np.linalg.norm(im.E @ U - lam * U) < 1e-9
            assert np.linalg.norm(im.B_out @ U) < 1e-9


@settings(max_examples=25, deadline=None)
@given(connected_graphs(), st.data())
def test_t_eigenspaces_split_on_random_graphs(g, data):
    """Each T-eigenspace splits into a boundary-vanishing part and its
    complement, both W-orthonormal as computed (no second orthonormalisation),
    the complement with full rank on the boundary, and the persistent
    eigenvectors lifted from them ignore the coupling."""
    tails = data.draw(
        st.lists(st.integers(0, g.num_vertices - 1), min_size=1, max_size=2 * g.num_vertices)
    )
    eps_values = data.draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2))
    tg = attach_tails(g, tails)
    lt = build_operators(tg)
    bd = list(tg.boundary_vertices)
    for _, F, per, rest in lt.eigenspaces:
        assert per.shape[1] + rest.shape[1] == F.shape[1]
        both = np.hstack([per, rest])
        gram = both.conj().T @ (lt.weights[:, None] * both)
        assert_allclose(gram, np.eye(F.shape[1]), atol=1e-12)
        assert_allclose(per[bd], 0, atol=1e-9)
        if rest.shape[1]:
            assert np.linalg.svd(rest[bd], compute_uv=False)[-1] >= 1e-9
    im0 = build_E(tg)
    for entry in classify(lt):
        U = persistent_basis(lt, entry.value)
        assert U.shape[1] == entry.persistent_mult
        for eps in eps_values:
            assert np.linalg.norm(im0.at(eps).E @ U - entry.value * U) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.data())
def test_classify_matches_the_direct_spectrum_on_random_graphs(g, data):
    """Every arc is classified once, each entry's multiplicity is E0's at its
    value, T lifts to -1 (once) exactly on a bipartite graph, and the birth
    counts are the dimensions of the birth eigenspaces."""
    tails = data.draw(
        st.lists(st.integers(0, g.num_vertices - 1), min_size=1, max_size=2 * g.num_vertices)
    )
    tg = attach_tails(g, tails)
    lt = build_operators(tg)
    entries = classify(lt)
    assert sum(e.total_mult for e in entries) == tg.num_arcs
    vals = np.linalg.eigvals(build_E(tg).E0)
    for e in entries:
        assert int(np.sum(np.abs(vals - e.value) < 1e-9)) == e.total_mult
    inherited = [e.inherited_mult for e in entries if unit_sign(e.value) == -1]
    assert len(inherited) <= 1
    assert (inherited == [1]) == g.bipartite
    measured = (birth_basis(lt, 1).shape[1], birth_basis(lt, -1).shape[1])
    assert birth_multiplicities(tg) == measured


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.data())
def test_bases_keep_scipys_rank_rules_on_random_graphs(g, data):
    """birth_basis and persistent_basis, on numpy's SVD, span what
    scipy.linalg's null_space (rcond 1e-9) and orth give from the same
    inputs: as many columns, and the same orthogonal projector."""
    tails = data.draw(
        st.lists(st.integers(0, g.num_vertices - 1), min_size=1, max_size=2 * g.num_vertices)
    )
    lt = build_operators(attach_tails(g, tails))

    def assert_same_span(U, W):
        assert U.shape == W.shape
        assert_allclose(U @ U.conj().T, W @ W.conj().T, rtol=0, atol=1e-13)

    births = {}
    for lam in (1, -1):
        stack = np.vstack([lt.d, lt.S + lam * np.eye(lt.S.shape[0])])
        births[lam] = scipy.linalg.null_space(stack, rcond=1e-9)
        assert_same_span(birth_basis(lt, lam), births[lam])
    for entry in classify(lt):
        per, _ = lt.eigenspace(joukowsky(complex(entry.value)).real)
        cols = [lift(lt, entry.value, per)]
        if unit_sign(entry.value):
            cols.append(births[unit_sign(entry.value)])
        want = scipy.linalg.orth(np.hstack(cols).astype(complex))
        assert_same_span(persistent_basis(lt, entry.value), want)
