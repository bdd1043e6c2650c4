from qaffine import cartan
from qaffine.qbruhat import (
    all_shortest_paths,
    build_qbg,
    path_endpoint,
    tilted_distance,
    tilted_leq,
    to_dot,
    verify_tilted_embedding,
)
from qaffine.weyl import (
    AffineElt,
    chamber_decompose,
    cocovers_superregular,
    enumerate_weyl,
    is_superregular,
    longest_element,
    simple_reflection,
    superregular_antidominant,
    translation,
    weyl_identity,
)


def test_qbg_a1():
    rs = cartan.build("A1")
    g = build_qbg(rs)
    assert len(g.vertices) == 2
    nb, nq = g.edge_count()
    assert (nb, nq) == (1, 1)
    e = weyl_identity(rs)
    s = simple_reflection(rs, 0)
    assert [x.kind for x in g.out_edges(e)] == ["bruhat"]
    assert [x.kind for x in g.out_edges(s)] == ["quantum"]


def test_qbg_a2_counts():
    rs = cartan.build("A2")
    g = build_qbg(rs)
    assert len(g.vertices) == 6
    nb, nq = g.edge_count()
    assert (nb, nq) == (8, 7)
    w0 = longest_element(rs)
    assert any(e.kind == "quantum" and e.target.is_identity() and e.alpha == rs.theta for e in g.out_edges(w0))


def test_every_nonidentity_has_incoming_bruhat():
    for lbl in ["A2", "B2"]:
        rs = cartan.build(lbl)
        g = build_qbg(rs)
        incoming = {w: 0 for w in g.vertices}
        for w in g.vertices:
            for e in g.out_edges(w):
                if e.kind == "bruhat":
                    incoming[e.target] += 1
        for w in g.vertices:
            if not w.is_identity():
                assert incoming[w] > 0


def test_quantum_edges_graded():
    rs = cartan.build("B2")
    g = build_qbg(rs)
    for w in g.vertices:
        for e in g.out_edges(w):
            drop = w.length() - e.target.length()
            a2rho = rs.pair(rs.coroot_of(e.alpha), rs.two_rho)
            if e.kind == "quantum":
                assert drop == a2rho - 1
            else:
                assert drop == -1


def test_tilted_id_is_bruhat_order():
    rs = cartan.build("A2")
    g = build_qbg(rs)
    e = weyl_identity(rs)
    z = rs.zero_coroot()
    from qaffine.weyl import bruhat_leq

    for w in g.vertices:
        for v in g.vertices:
            finite_bruhat = bruhat_leq(AffineElt(w, z), AffineElt(v, z))
            assert tilted_leq(g, e, w, v) == finite_bruhat


def test_tilted_source_and_w0():
    rs = cartan.build("A2")
    g = build_qbg(rs)
    w0 = longest_element(rs)
    for u in g.vertices:
        for v in g.vertices:
            assert tilted_leq(g, u, u, v)
    assert tilted_distance(g, w0, weyl_identity(rs)) == 1


def test_path_endpoint_empty_and_quantum_step():
    rs = cartan.build("A1")
    g = build_qbg(rs)
    s = simple_reflection(rs, 0)
    lam = superregular_antidominant(rs, units=3)
    x0 = path_endpoint([], lam, start=s)
    assert x0 == translation(rs, s.act_coroot(lam))
    # the quantum edge s -> id walks a case-2 cover: translation shifts by alpha^vee
    edge = next(e for e in g.out_edges(s) if e.kind == "quantum")
    x1 = path_endpoint([edge], lam)
    v = s
    expect_t = v.act_coroot(tuple(l + c for l, c in zip(lam, rs.simple_coroot(0))))
    assert x1.t == expect_t
    # endpoint is w v^{-1} t_{v mu} for a path from v to w; here w = id, v = s
    assert x1.w == v.inverse()


def test_endpoint_formula_and_independence():
    # all shortest paths share their endpoint, which is w v^{-1} t_{v mu}
    for lbl in ["A2", "B2", "A3"]:
        rs = cartan.build(lbl)
        g = build_qbg(rs)
        diam = max(max(g.distances_from(u).values()) for u in g.vertices)
        lam = superregular_antidominant(rs, units=diam + 1)
        for u in g.vertices:
            for w in g.vertices:
                paths = all_shortest_paths(g, u, w)
                assert paths or u == w
                endpoints = set()
                for p in paths:
                    x = path_endpoint(p, lam, start=u)
                    endpoints.add(x)
                    # finite part must be w u^{-1}
                    assert x.w == w * u.inverse()
                if paths:
                    assert len(endpoints) == 1


def test_near_covers_match_qbg_edges():
    # Near covers of w t_{v lam} correspond to D(W) out-edges at w v;
    # exhaustive over W x W in A2 and B2
    for lbl in ["A2", "B2"]:
        rs = cartan.build(lbl)
        g = build_qbg(rs)
        lam = superregular_antidominant(rs, units=2)
        W = enumerate_weyl(rs)
        for w in W:
            for v in W:
                x = AffineElt(w, v.act_coroot(lam))
                assert is_superregular(x)
                vv, _ = chamber_decompose(rs, x.t)
                near = [(c.alpha, "bruhat" if c.case == 1 else "quantum")
                        for c in cocovers_superregular(x) if c.kind == "near"]
                edges = [(e.alpha, e.kind) for e in g.out_edges(w * vv)]
                assert sorted(near) == sorted(edges)


def test_tilted_embedding_a2_all_u():
    rs = cartan.build("A2")
    for u in enumerate_weyl(rs):
        report = verify_tilted_embedding(rs, u)
        assert report["ok"], report["failures"][:3]
        assert report["comparisons"] == 36


def test_tilted_embedding_a1():
    rs = cartan.build("A1")
    for u in enumerate_weyl(rs):
        assert verify_tilted_embedding(rs, u)["ok"]


def test_dot_export():
    rs = cartan.build("A1")
    g = build_qbg(rs)
    dot = to_dot(g)
    assert "digraph" in dot and "dashed" in dot and "solid" in dot
