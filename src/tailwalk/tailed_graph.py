"""Finite graphs with semi-infinite tails: arc bookkeeping and degree tables.

The internal graph is a finite, simple, connected, undirected graph with at
least one edge.  Every edge {u, v} contributes two arcs (u, v) and (v, u);
an arc a = (o, t) has origin o(a) and terminal t(a), and its reversal is
written rev(a) = (t, o).
Tails are semi-infinite paths glued to *boundary vertices*; a vertex may
carry several tails.  Only the internal arcs are materialised here — tail
arcs are handled analytically (scattering, outgoing extensions) or through
the truncated evolution operator in :mod:`tailwalk.coin_evolution`.

Canonical arc order: arcs sorted by (terminal, origin).  This groups the
arcs flowing into each vertex contiguously, which is the order coin blocks
act in, and makes every derived table byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GraphError",
    "InternalGraph",
    "TailSpec",
    "TailedGraph",
    "build_internal",
    "attach_tails",
    "preset_graph",
]


class GraphError(ValueError):
    """Raised for malformed graph or tail specifications."""


@dataclass(frozen=True)
class InternalGraph:
    """Simple connected undirected graph on vertices 0..num_vertices-1.

    ``edges`` is stored normalised: each edge as (min, max), sorted.
    ``bipartite`` says whether the vertices 2-colour.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    bipartite: bool

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class TailSpec:
    """``count`` tails attached at ``vertex``."""

    vertex: int
    count: int = 1


def build_internal(num_vertices: int, edges) -> InternalGraph:
    """Validate and normalise an edge list into an :class:`InternalGraph`."""
    norm = []
    seen = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise GraphError(f"self-loop at vertex {u} is not allowed")
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise GraphError(f"edge ({u}, {v}) out of range for {num_vertices} vertices")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"parallel edge ({key[0]}, {key[1]})")
        seen.add(key)
        norm.append(key)
    if not norm:  # no arc, so no coin and no boundary matrix
        raise GraphError(f"graph on {num_vertices} vertices has no edges")
    # refused before any per-vertex table: the vertex count alone must not
    # size an allocation
    if len(norm) < num_vertices - 1:
        raise GraphError(
            f"graph on {num_vertices} vertices has {len(norm)} edges; "
            f"connected needs at least {num_vertices - 1}"
        )
    norm.sort()

    # one walk checks connectivity (isolated vertices would get degree-0
    # coins) and 2-colours the graph: an edge within one colour class means
    # it is not bipartite
    adj: list[list[int]] = [[] for _ in range(num_vertices)]
    for u, v in norm:
        adj[u].append(v)
        adj[v].append(u)
    colour = [-1] * num_vertices
    colour[0] = 0
    stack = [0]
    bipartite = True
    while stack:
        w = stack.pop()
        for x in adj[w]:
            if colour[x] < 0:
                colour[x] = 1 - colour[w]
                stack.append(x)
            elif colour[x] == colour[w]:
                bipartite = False
    missing = [v for v in range(num_vertices) if colour[v] < 0]
    if missing:
        raise GraphError(
            f"graph is not connected; {len(missing)} unreachable vertices, "
            f"first {missing[:5]}"
        )

    return InternalGraph(num_vertices, tuple(norm), bipartite)


class TailedGraph:
    """Internal graph plus tails, with all canonical index tables built.

    Attributes
    ----------
    arcs:
        Internal arcs in canonical order, ``arcs[i] = (origin, terminal)``.
    arc_index:
        Inverse map arc -> canonical index.
    reversal:
        ``reversal[i]`` is the index of the reversed arc; an involution
        without fixed points.
    deg_int:
        Internal degree n_i(v) per vertex.
    tails_at:
        Number of tails N_j(v) attached at v (0 off the boundary).
    total_deg:
        n(v) = n_i(v) + N_j(v), the size of the coin at v.
    ports:
        One entry per tail in specification order: (vertex, copy).  The
        position in this tuple is the global port index used by the
        scattering matrix.
    """

    def __init__(self, graph: InternalGraph, tails: tuple[TailSpec, ...]):
        self.graph = graph
        self.tails = tails

        arcs: list[tuple[int, int]] = []
        for u, v in graph.edges:
            arcs.append((u, v))
            arcs.append((v, u))
        arcs.sort(key=lambda a: (a[1], a[0]))
        self.arcs = tuple(arcs)
        self.arc_index = {a: i for i, a in enumerate(arcs)}
        self.reversal = np.array(
            [self.arc_index[(t, o)] for (o, t) in arcs], dtype=np.intp
        )

        nv = graph.num_vertices
        deg = np.zeros(nv, dtype=np.intp)
        for u, v in graph.edges:
            deg[u] += 1
            deg[v] += 1
        self.deg_int = deg

        tails_at = np.zeros(nv, dtype=np.intp)
        ports: list[tuple[int, int]] = []
        for spec in tails:
            ports.extend((spec.vertex, c) for c in range(spec.count))
            tails_at[spec.vertex] += spec.count
        self.tails_at = tails_at
        self.total_deg = deg + tails_at
        self.ports = tuple(ports)
        self.boundary_vertices = tuple(
            v for v in range(nv) if tails_at[v] > 0
        )

        # arcs into each vertex, in canonical (contiguous) order
        self._arcs_into: list[list[int]] = [[] for _ in range(nv)]
        for i, (_, t) in enumerate(arcs):
            self._arcs_into[t].append(i)
        # ports at each vertex, in global-port order
        self._ports_at: list[list[int]] = [[] for _ in range(nv)]
        for j, (v, _) in enumerate(ports):
            self._ports_at[v].append(j)

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    @property
    def num_ports(self) -> int:
        return len(self.ports)

    def arcs_into(self, v: int) -> list[int]:
        return list(self._arcs_into[v])

    def ports_at(self, v: int) -> list[int]:
        return list(self._ports_at[v])

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"TailedGraph(V={self.graph.num_vertices}, E={self.graph.num_edges}, "
            f"ports={self.num_ports})"
        )


def attach_tails(graph: InternalGraph, tails) -> TailedGraph:
    """Attach tails to ``graph`` and build all index tables.

    ``tails`` is a sequence of :class:`TailSpec` or plain vertex ids
    (meaning one tail each).  Tail port order follows the sequence order.
    """
    norm: list[TailSpec] = []
    for item in tails:
        if isinstance(item, TailSpec):
            spec = item
        else:
            spec = TailSpec(int(item), 1)
        if not (0 <= spec.vertex < graph.num_vertices):
            raise GraphError(f"tail vertex {spec.vertex} out of range")
        if spec.count < 1:
            raise GraphError(f"tail count must be >= 1, got {spec.count}")
        norm.append(spec)
    return TailedGraph(graph, tuple(norm))


def preset_graph(name: str) -> InternalGraph:
    """Built-in families ``cycle:n`` and ``complete:n``."""
    try:
        kind, _, arg = name.partition(":")
        n = int(arg)
    except ValueError:
        raise GraphError(f"malformed preset {name!r}; expected kind:n") from None
    if kind == "cycle":
        if n < 3:
            raise GraphError("cycle preset needs n >= 3")
        return build_internal(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        if n < 2:
            raise GraphError("complete preset needs n >= 2")
        return build_internal(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    raise GraphError(f"unknown preset kind {kind!r}")
