"""Index tables: canonical arc order, reversal, ports, presets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from tailwalk import attach_tails, build_E, build_E_split, preset_graph
from tailwalk.tailed_graph import (
    GraphError,
    TailSpec,
    build_internal,
)

# C4 arcs sorted by (terminal, origin).  This exact layout is what every
# matrix in the package is written against, so it is pinned literally.
C4_ARCS = ((1, 0), (3, 0), (0, 1), (2, 1), (1, 2), (3, 2), (0, 3), (2, 3))
C4_REVERSAL = [2, 6, 0, 4, 3, 7, 1, 5]


def test_c4_canonical_arc_table(c4a):
    assert c4a.arcs == C4_ARCS
    assert_array_equal(c4a.reversal, C4_REVERSAL)


def test_reversal_is_a_fixed_point_free_involution(k4a):
    rev = k4a.reversal
    assert_array_equal(rev[rev], np.arange(k4a.num_arcs))
    assert not np.any(rev == np.arange(k4a.num_arcs))


def test_arc_count_is_twice_edge_count(suite_graphs):
    for tg in suite_graphs.values():
        assert tg.num_arcs == 2 * tg.graph.num_edges


def test_degrees_and_ports(c4a, k4_multi):
    assert_array_equal(c4a.deg_int, [2, 2, 2, 2])
    assert_array_equal(c4a.tails_at, [1, 1, 1, 0])
    assert_array_equal(c4a.total_deg, [3, 3, 3, 2])
    assert c4a.boundary_vertices == (0, 1, 2)
    assert c4a.num_ports == 3

    # multiplicity: two tails at vertex 0 give two distinct ports there
    assert k4_multi.num_ports == 3
    assert k4_multi.ports == ((0, 0), (0, 1), (1, 0))
    assert k4_multi.ports_at(0) == [0, 1]
    assert k4_multi.tails_at[0] == 2


def test_arcs_into_respects_canonical_order(c4a):
    # arcs into a vertex occupy a contiguous canonical block
    flat = [i for v in range(4) for i in c4a.arcs_into(v)]
    assert flat == list(range(c4a.num_arcs))
    for v in range(4):
        for i in c4a.arcs_into(v):
            assert c4a.arcs[i][1] == v


def test_interior_arc_budget(suite_graphs):
    # sum over vertices of internal in-degree equals the arc count
    for tg in suite_graphs.values():
        assert int(tg.deg_int.sum()) == tg.num_arcs


def test_attach_tails_validation():
    g = preset_graph("cycle:4")
    with pytest.raises(GraphError):
        attach_tails(g, (5,))
    with pytest.raises(GraphError):
        attach_tails(g, (TailSpec(0, 0),))


def test_build_internal_normalises_and_validates():
    g = build_internal(3, [(1, 0), (1, 2), (2, 0)])
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    with pytest.raises(GraphError):
        build_internal(3, [(0, 0)])
    with pytest.raises(GraphError):
        build_internal(3, [(0, 1), (0, 1)])
    with pytest.raises(GraphError):
        build_internal(4, [(0, 1), (2, 3)])  # disconnected
    with pytest.raises(GraphError, match="no edges"):
        build_internal(1, [])  # no arc, so no boundary matrix
    # too few edges to connect the vertices: refused before any per-vertex table
    with pytest.raises(GraphError, match="has 1 edges; connected needs at least 999999"):
        build_internal(10**6, [(0, 1)])
    # enough edges, a triangle and a 38-cycle: the message names a few vertices and the count
    edges = [(0, 1), (1, 2), (0, 2)] + [(u, u + 1) for u in range(3, 40)] + [(3, 40)]
    with pytest.raises(GraphError) as exc:
        build_internal(41, edges)
    assert str(exc.value) == (
        "graph is not connected; 38 unreachable vertices, first [3, 4, 5, 6, 7]"
    )


def test_presets():
    assert preset_graph("cycle:5").num_edges == 5
    assert preset_graph("complete:5").num_edges == 10
    for bad in ("cycle:2", "complete:1", "star:3", "cycle", "cycle:x"):
        with pytest.raises(GraphError):
            preset_graph(bad)


@st.composite
def connected_graphs(draw):
    """Random tree plus a few extra edges; always connected, no multi-edges."""
    n = draw(st.integers(min_value=3, max_value=8))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    extra = draw(st.integers(min_value=0, max_value=3))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 2))
        v = draw(st.integers(min_value=u + 1, max_value=n - 1))
        edges.add((u, v))
    return build_internal(n, sorted(edges))


@settings(max_examples=25, deadline=None)
@given(connected_graphs(), st.data())
def test_random_graph_index_invariants(g, data):
    k = data.draw(st.integers(min_value=1, max_value=g.num_vertices))
    tails = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=g.num_vertices - 1),
            min_size=k,
            max_size=k,
        )
    )
    tg = attach_tails(g, tails)
    assert tg.num_arcs == 2 * g.num_edges
    rev = tg.reversal
    assert_array_equal(rev[rev], np.arange(tg.num_arcs))
    # arcs are sorted by (terminal, origin)
    keys = [(t, o) for (o, t) in tg.arcs]
    assert keys == sorted(keys)
    assert tg.num_ports == len(tails)
    assert int(tg.total_deg.sum()) == tg.num_arcs + tg.num_ports
    # per-vertex coin assembly vs the vertex-operator form of the walk step
    im = build_E(tg)
    coin = (im.E0, im.U1 @ im.V1.T, im.B_in1, im.B_out1, im.B_bb1)  # E1 from its factors
    names = ("E0", "E1", "B_in1", "B_out1", "B_bb1")
    for block, ours, X in zip(names, coin, build_E_split(tg)):
        assert_allclose(ours, X, atol=1e-13, err_msg=block)
