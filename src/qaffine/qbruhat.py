"""The quantum Bruhat graph D(W), tilted orders, and the superregular dictionary.

Edges w -> w r_alpha for alpha in R^+ come in two kinds: "bruhat" when the
length goes up by 1, "quantum" when it drops by <alpha^vee, 2 rho> - 1.
Shortest paths define the tilted orders; walking the near covers of the
superregular affine Bruhat order realizes each path as an affine element.
"""

from collections import deque
from dataclasses import dataclass, field

from .cartan import RootSystem, RootVec, cached
from .weyl import (
    AffineElt,
    BudgetError,
    WeylElt,
    bruhat_leq,
    cover_table,
    enumerate_weyl,
    is_superregular,
    length,
    superregular_antidominant,
    superregular_cocovers,
    translation,
)


@dataclass(frozen=True)
class QBEdge:
    source: WeylElt
    target: WeylElt
    alpha: RootVec
    kind: str  # "bruhat" | "quantum"


@dataclass
class QBGraph:
    rs: RootSystem
    vertices: list[WeylElt]
    edges: dict[WeylElt, list[QBEdge]]  # outgoing
    _dist: dict[WeylElt, dict[WeylElt, int]] = field(default_factory=dict)

    def out_edges(self, w: WeylElt) -> list[QBEdge]:
        return self.edges[w]

    def distances_from(self, u: WeylElt) -> dict[WeylElt, int]:
        d = self._dist.get(u)
        if d is None:
            d = {u: 0}
            queue = deque([u])
            while queue:
                w = queue.popleft()
                for e in self.edges[w]:
                    if e.target not in d:
                        d[e.target] = d[w] + 1
                        queue.append(e.target)
            self._dist[u] = d
        return d

    def edge_count(self) -> tuple[int, int]:
        nb = sum(1 for es in self.edges.values() for e in es if e.kind == "bruhat")
        nq = sum(1 for es in self.edges.values() for e in es if e.kind == "quantum")
        return nb, nq


@cached("qbg")
def build_qbg(rs: RootSystem) -> QBGraph:
    W = enumerate_weyl(rs)
    edges: dict[WeylElt, list[QBEdge]] = {}
    for w in W:
        ups, quantums, _, _ = cover_table(rs, w)
        out = [QBEdge(w, wr, a, "bruhat") for a, _, wr in ups] + [QBEdge(w, wr, a, "quantum") for a, _, wr in quantums]
        edges[w] = sorted(out, key=lambda e: rs.root_index[e.alpha])  # positive-root order
    return QBGraph(rs, W, edges)


def tilted_distance(g: QBGraph, u: WeylElt, w: WeylElt) -> int:
    return g.distances_from(u)[w]


def tilted_leq(g: QBGraph, u: WeylElt, w: WeylElt, v: WeylElt) -> bool:
    """w <=_u v: some shortest path from u to v passes through w."""
    du = g.distances_from(u)
    dw = g.distances_from(w)
    return du[w] + dw[v] == du[v]


def all_shortest_paths(g: QBGraph, u: WeylElt, w: WeylElt) -> list[list[QBEdge]]:
    """Every geodesic from u to w, as edge lists."""
    du = g.distances_from(u)

    def extend(prefix, at):
        if at == w:
            yield list(prefix)
            return
        for e in g.edges[at]:
            if du[at] + 1 == du.get(e.target, -2) and tilted_leq(g, u, e.target, w):
                prefix.append(e)
                yield from extend(prefix, e.target)
                prefix.pop()

    return list(extend([], u))


def path_endpoint(path: list[QBEdge], lam, start: WeylElt | None = None) -> AffineElt:
    """Walk a quantum-Bruhat path as near covers below t_{v lam}.

    ``lam`` must be antidominant and superregular enough for len(path) steps
    (BudgetError otherwise); the walk starts at t_{v lam} where v is the
    path's start vertex.
    """
    if start is None:
        if not path:
            raise ValueError("empty path needs an explicit start vertex")
        start = path[0].source
    x = translation(start.rs, start.act_coroot(tuple(lam)))
    if not is_superregular(x, slack=4 * len(path)):
        raise BudgetError("lam is not superregular enough for this path length")
    at = start
    for e in path:
        if e.source != at:
            raise ValueError("path edges do not compose")
        lx = length(x)
        # x = w t_{start lam'} with w start = at: its near covers are the out-edges at `at`
        near = superregular_cocovers(x.rs, x.w, x.t)[2]
        y = next(AffineElt(yw, yt) for yw, yt, _d, row in near if row[0] == e.alpha)
        if length(y) != lx - 1:
            raise AssertionError("path step is not a cover")
        x = y
        at = e.target
    return x


def endpoint_for_pair(g: QBGraph, u: WeylElt, w: WeylElt, lam) -> AffineElt:
    """x(u, w): common endpoint of all shortest paths u -> w (must agree)."""
    endpoints = {path_endpoint(p, lam, start=u) for p in all_shortest_paths(g, u, w)}
    if len(endpoints) != 1:
        raise AssertionError(f"shortest paths from {u!r} to {w!r} have distinct endpoints")
    return endpoints.pop()


def verify_tilted_embedding(rs: RootSystem, u: WeylElt) -> dict:
    """Check that D_u(W) maps to a dual induced suborder of affine Bruhat order.

    Returns a report dict with counts; failures are collected, not raised.
    """
    g = build_qbg(rs)
    W = g.vertices
    diam = max(g.distances_from(u).values())
    lam = superregular_antidominant(rs, units=diam + 1)
    xs = {w: endpoint_for_pair(g, u, w, lam) for w in W}
    comparisons = 0
    failures = []
    for w in W:
        for v in W:
            comparisons += 1
            lhs = tilted_leq(g, u, w, v)
            rhs = bruhat_leq(xs[v], xs[w])
            if lhs != rhs:
                failures.append({"u": repr(u), "w": repr(w), "v": repr(v), "tilted": lhs, "affine_dual": rhs})
    return {"u": repr(u), "comparisons": comparisons, "failures": failures, "ok": not failures}


def to_dot(g: QBGraph) -> str:
    lines = ["digraph qbg {"]
    names = {w: repr(w).replace(" ", "_") for w in g.vertices}
    for w in g.vertices:
        lines.append(f'  "{names[w]}";')
    for w in g.vertices:
        for e in g.edges[w]:
            style = "solid" if e.kind == "bruhat" else "dashed"
            label = ",".join(str(c) for c in g.rs.coroot_of(e.alpha))
            lines.append(f'  "{names[w]}" -> "{names[e.target]}" [style={style}, label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def to_json_dict(g: QBGraph) -> dict:
    return {
        "type": g.rs.label,
        "vertices": [repr(w) for w in g.vertices],
        "edges": [
            {
                "source": repr(w),
                "target": repr(e.target),
                "kind": e.kind,
                "alpha_vee": list(g.rs.coroot_of(e.alpha)),
            }
            for w in g.vertices
            for e in g.edges[w]
        ],
    }
