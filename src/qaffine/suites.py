"""Named verification suites.

Each suite replays one block of exact identities at desk scale and returns
a report dict {"suite", "ok", "checks", "failures"}.  The CLI `verify`
command and the acceptance tests both run these.
"""

import random

from . import cartan
from .coeffring import Scalar, scalar_one
from .nilhecke import mod_J
from .parabolic import (
    bott_generator,
    build_parabolic,
    factor_parabolic,
    highest_root_product,
    in_JP,
    lm_map,
    parabolic_basis_element,
    partition_to_affine,
    pi_P_translation,
    quotient_generator,
    quotient_product,
    theta_cominuscule,
)
from .peterson import (
    b_element,
    b_op,
    c_op,
    gw_from_j,
    hom_product_basis,
    j_class,
    j_from_gw,
    j_units_needed,
    pieri_r0,
    sum_translations,
    theta_map,
)
from .quantum import (
    chevalley,
    chevalley_weight,
    evaluate_poly,
    gw_coefficient,
    parabolic_chevalley,
    product,
    product_basis,
    pw_lift,
    qh_basis,
    schubert_poly,
)
from .qbruhat import verify_tilted_embedding
from .weyl import (
    AffineElt,
    affine_from_word,
    affine_identity,
    affine_simple_reflection,
    enumerate_weyl,
    from_word,
    is_grassmannian,
    is_superregular,
    length,
    reduced_word,
    simple_reflection,
    superregular_antidominant,
    translation,
)


def _report(suite, failures, checks):
    return {"suite": suite, "ok": not failures, "checks": checks, "failures": failures}


def _lam_mu_pairs(rs):
    lam1 = superregular_antidominant(rs, units=2)
    mu1 = superregular_antidominant(rs, units=3)
    lam2 = tuple(c - int(i == 0) for i, c in enumerate(superregular_antidominant(rs, units=2, shift=9)))
    mu2 = superregular_antidominant(rs, units=4, shift=5)
    return [(lam1, mu1), (lam2, mu2)]


def suite_paper_examples() -> dict:
    """Worked examples: the four pi_P computations, SL(7) section, the filling."""
    failures = []
    checks = 0

    def chk(cond, label):
        nonlocal checks
        checks += 1
        if not cond:
            failures.append(label)

    rs = cartan.build("A3")
    pd = build_parabolic(rs, [1, 2])
    chk(pi_P_translation(pd, (-1, 0, 0)) == AffineElt(from_word(rs, [1, 2]), (-1, -1, -1)), "pi_P A3 {2,3}")
    pd2 = build_parabolic(rs, [0, 2])
    chk(pi_P_translation(pd2, (0, -1, 0)) == AffineElt(from_word(rs, [0, 2]), (-1, -1, -1)), "pi_P A3 {1,3}")
    rsc = cartan.build("C3")
    pdc = build_parabolic(rsc, [1, 2])
    chk(pi_P_translation(pdc, (-1, 0, 0)) == translation(rsc, (-1, -1, -1)), "pi_P C3 {2,3}")
    rsb = cartan.build("B3")
    pdb = build_parabolic(rsb, [1, 2])
    chk(pi_P_translation(pdb, (-1, 0, 0)) == AffineElt(from_word(rsb, [1, 2, 1]), (-1, -2, -1)), "pi_P B3 {2,3}")

    rs7 = cartan.build("A6")
    pd7 = build_parabolic(rs7, [k for k in range(6) if k != 3])
    y = from_word(rs7, [3, 4, 1, 2, 3])
    th = theta_cominuscule(pd7, y)
    chk(reduced_word(th) == (0, 6, 2, 1, 0), "SL7 theta(y) word")
    pit = pi_P_translation(pd7, th.t)
    chk(pit.w == from_word(rs7, [1, 2, 0, 1, 5, 4]) and pit.t == th.t, "SL7 pi_P(t_lam)")
    chk(_one_line(pd7.pi_finite(th.w)) == (2, 4, 6, 7, 1, 3, 5), "SL7 pi_P(w) one-line")
    chk(partition_to_affine(rs7, (3, 2), 7) == affine_from_word(rs7, (0, 6, 2, 1, 0)), "filling n=7 (3,2)")
    return _report("paper-examples", failures, checks)


def _one_line(w):
    n = w.rs.rank + 1
    p = list(range(1, n + 1))
    for i in w.word():
        p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def suite_peterson_borel(types=("A1", "A2", "B2", "A3")) -> dict:
    """Main theorem, Borel case: psi intertwines the divisor products exactly.

    Affine side through j_class and the nilHecke action only; quantum side
    through the Chevalley operator only.
    """
    failures = []
    checks = 0
    for lbl in types:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        for lam, mu in _lam_mu_pairs(rs):
            for i in range(rs.rank):
                x = AffineElt(simple_reflection(rs, i), lam)
                for w in W:
                    z = AffineElt(w, mu)
                    # both key maps are injective, so each key is set once
                    lhs = {(y.w, y.t): c for y, c in hom_product_basis(rs, x, z).items()}
                    shift = tuple(a + b for a, b in zip(lam, mu))
                    rhs = {(v, tuple(a + b for a, b in zip(q, shift))): c
                           for (v, q), c in chevalley(rs, i, qh_basis(rs, w)).items()}
                    checks += 1
                    if lhs != rhs:
                        failures.append({"type": lbl, "i": i + 1, "w": repr(w)})
    return _report("peterson-borel", failures, checks)


def suite_compare(types=("A1", "A2", "B2"), max_q_height: int = 4) -> dict:
    """GW coefficients equal j-coefficients, both directions of the dictionary."""
    failures, checks, _collected = _compare_sweep(types, max_q_height)
    return _report("compare", failures, checks)


def _compare_sweep(types, max_q_height):
    """The sweep of ``suite_compare``: its failures, its check count and
    every j-coefficient it compared."""
    failures = []
    checks = 0
    collected = []
    for lbl in types:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        qexps = _q_exponents_bounded(rs, max_q_height)
        # converse direction: c_{f,g}^{h,eta} = j_{f t_lam}^{...}
        for f in W:
            for g in W:
                prod = product_basis(rs, f, g)
                for h in W:
                    for eta in qexps:
                        c_quantum = prod.get((h, eta), Scalar())
                        c_affine = gw_from_j(rs, f, g, h, eta)
                        checks += 1
                        if c_quantum != c_affine:
                            failures.append(
                                {"dir": "gw_from_j", "type": lbl, "f": repr(f), "g": repr(g),
                                 "h": repr(h), "eta": list(eta)}
                            )
                        collected.append(c_affine)
        # forward direction: every superregular j-coefficient is a GW invariant
        lam = superregular_antidominant(rs, units=max(j_units_needed(rs, f) for f in W) + 2)
        for f in W:
            x = AffineElt(f, lam)
            j = j_class(rs, x)
            for y, coeff in j.items():
                if not is_superregular(y):
                    continue
                checks += 1
                if j_from_gw(rs, x, y) != coeff:
                    failures.append({"dir": "j_from_gw", "type": lbl, "x": repr(x), "y": repr(y)})
                collected.append(coeff)
    return failures, checks, collected


def _q_exponents_bounded(rs, height):
    out = [rs.zero_coroot()]
    frontier = [rs.zero_coroot()]
    while frontier:
        nxt = []
        for q in frontier:
            for i in range(rs.rank):
                q2 = tuple(c + int(k == i) for k, c in enumerate(q))
                if rs.pair(q2, rs.two_rho) <= height and q2 not in out:
                    out.append(q2)
                    nxt.append(q2)
        frontier = nxt
    return out


def suite_operators(seed: int = 0) -> dict:
    """Operator identities: Theta intertwining, B-commutation, C/B exchange,
    plus the centrality theorem for random b elements."""
    failures = []
    checks = 0
    rng = random.Random(seed)

    # Theta intertwining, exhaustive on A1/A2, sampled on B2/A3
    for lbl, sample in [("A1", None), ("A2", None), ("B2", 40), ("A3", 40)]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        lam = superregular_antidominant(rs, units=4)
        trips = (
            [(w, v, i) for w in W for v in W for i in range(rs.rank)]
            if sample is None
            else [(rng.choice(W), rng.choice(W), rng.randrange(rs.rank)) for _ in range(sample)]
        )
        for w, v, i in trips:
            mu = rs.fundamental_weight(i)
            sigma = qh_basis(rs, v)
            lhs = theta_map(rs, w, lam, chevalley_weight(rs, mu, sigma))
            rhs = b_op(rs, mu, theta_map(rs, w, lam, sigma))
            checks += 1
            if lhs != rhs:
                failures.append({"id": "theta-intertwine", "type": lbl, "w": repr(w), "v": repr(v), "i": i + 1})

    # B-commutation on random superregular singletons
    for lbl in ["A1", "A2", "B2", "A3"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        lam = superregular_antidominant(rs, units=4)
        for _ in range(25):
            x = {AffineElt(rng.choice(W), rng.choice(W).act_coroot(lam)): scalar_one(rs)}
            mu = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
            nu = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
            checks += 1
            if b_op(rs, nu, b_op(rs, mu, x)) != b_op(rs, mu, b_op(rs, nu, x)):
                failures.append({"id": "b-commute", "type": lbl, "mu": list(mu), "nu": list(nu)})

    # C/B exchange on the Weyl-orbit sum
    for lbl in ["A1", "A2", "B2", "A3"]:
        rs = cartan.build(lbl)
        for k in range(0, 4 if lbl != "A3" else 3):
            lam = superregular_antidominant(rs, units=k + 2)
            seq = [tuple(rng.randint(-1, 2) for _ in range(rs.rank)) for _ in range(k)]
            mu = tuple(rng.randint(-1, 2) for _ in range(rs.rank))
            f = sum_translations(rs, lam)
            lhs = f
            for m in seq:
                lhs = b_op(rs, m, lhs)
            lhs = c_op(rs, mu, lhs)
            rhs = b_op(rs, mu, f)
            for m in seq:
                rhs = b_op(rs, m, rhs)
            checks += 1
            if lhs != rhs:
                failures.append({"id": "cb-exchange", "type": lbl, "k": k})

    # centrality of random b elements (50 per type), with the j identification
    for lbl in ["A2", "B2"]:
        rs = cartan.build(lbl)
        for _ in range(50):
            k = rng.randint(0, 3)
            lam = superregular_antidominant(rs, units=k + 1)
            seq = [tuple(rng.randint(-1, 2) for _ in range(rs.rank)) for _ in range(k)]
            checks += 1
            try:
                b_element(rs, lam, seq)  # centrality asserted inside
            except AssertionError:
                failures.append({"id": "centrality", "type": lbl, "seq": [list(s) for s in seq]})
        lam = superregular_antidominant(rs, units=2)
        for i in range(rs.rank):
            b = b_element(rs, lam, [rs.fundamental_weight(i)])
            checks += 1
            if mod_J(b) != {AffineElt(simple_reflection(rs, i), lam): scalar_one(rs)}:
                failures.append({"id": "mod-j-simple", "type": lbl, "i": i + 1})
    return _report("operators", failures, checks)


def suite_chevalley() -> dict:
    """Quantum ring axioms: commutativity, associativity, degree homogeneity.

    product_basis evaluates one polynomial whichever the order of its
    factors, so commutativity compares the two evaluation orders directly.
    """
    failures = []
    checks = 0
    for lbl in ["A1", "A2", "B2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        for u in W:
            for v in W:
                p = product_basis(rs, u, v)
                pu, pv = schubert_poly(rs, u), schubert_poly(rs, v)
                checks += 1
                if evaluate_poly(rs, pu, qh_basis(rs, v)) != evaluate_poly(rs, pv, qh_basis(rs, u)):
                    failures.append({"id": "commutativity", "type": lbl, "u": repr(u), "v": repr(v)})
                for (w, q), c in p.items():
                    d = u.length() + v.length() - w.length() - rs.pair(q, rs.two_rho)
                    checks += 1
                    if d < 0 or not c.is_homogeneous(d):
                        failures.append({"id": "homogeneity", "type": lbl, "u": repr(u), "v": repr(v)})
    # associativity on all triples in A2 (exact, all q-degrees)
    rs = cartan.build("A2")
    W = enumerate_weyl(rs)
    for u in W:
        su = qh_basis(rs, u)
        for v in W:
            uv = product_basis(rs, u, v)
            for w in W:
                vw = product_basis(rs, v, w)
                checks += 1
                if product(rs, uv, qh_basis(rs, w)) != product(rs, su, vw):
                    failures.append({"id": "associativity", "u": repr(u), "v": repr(v), "w": repr(w)})
    return _report("chevalley", failures, checks)


def suite_positivity() -> dict:
    """j-coefficients and homology structure constants are nonnegative in the alphas."""
    failures = []
    checks = 0
    _failures, _checks, collected = _compare_sweep(("A1", "A2", "B2"), 4)
    for c in collected:
        checks += 1
        if not c.is_nonneg_integral():
            failures.append({"id": "j-positivity", "value": str(c)})
    for lbl in ["A1", "A2", "B2", "A3"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        lam, mu = _lam_mu_pairs(rs)[0]
        for i in range(rs.rank):
            x = AffineElt(simple_reflection(rs, i), lam)
            for w in W:
                z = AffineElt(w, mu)
                for c in hom_product_basis(rs, x, z).values():
                    checks += 1
                    if not c.is_nonneg_integral():
                        failures.append({"id": "structure-positivity", "type": lbl, "value": str(c)})
    return _report("positivity", failures, checks)


def suite_tilted(types=("A2", "B2")) -> dict:
    """Tilted orders embed dually in the affine order; endpoints well-defined."""
    failures = []
    checks = 0
    for lbl in types:
        rs = cartan.build(lbl)
        for u in enumerate_weyl(rs):
            rep = verify_tilted_embedding(rs, u)
            checks += rep["comparisons"]
            if not rep["ok"]:
                failures.append({"type": lbl, "u": repr(u), "failures": rep["failures"][:3]})
    return _report("tilted", failures, checks)


def _parabolic_table(lbl, nodes):
    rs = cartan.build(lbl)
    return rs, build_parabolic(rs, nodes)


def suite_parabolic() -> dict:
    """Quotient ring vs parabolic Chevalley; Peterson-Woodward transport;
    the highest-root multiplication table against the closed formula."""
    failures = []
    checks = 0

    for nodes in [[1], [0, 2], [1, 2]]:  # SL4 parabolics I_P = {2}, {1,3}, {2,3}
        rs, pd = _parabolic_table("A3", nodes)
        for i in pd.free_nodes:
            for w in pd.minimal_reps():
                got = quotient_product(pd, simple_reflection(rs, i), w)
                want = parabolic_chevalley(pd, i, {(w, (0,) * len(pd.free_nodes)): scalar_one(rs)})
                checks += 1
                if got != want:
                    failures.append({"id": "chevalley-vs-quotient", "nodes": nodes, "i": i + 1, "w": repr(w)})

    # Peterson-Woodward transport, non-equivariant, Gr(2,4)
    rs, pd = _parabolic_table("A3", [0, 2])
    reps = pd.minimal_reps()
    for x in reps:
        for y in reps:
            for (z, q), c in quotient_product(pd, x, y).items():
                lam_b, ipp, v = pw_lift(pd, q)
                checks += 1
                if c.eval_zero() != gw_coefficient(rs, x, y, z * v, lam_b).eval_zero():
                    failures.append({"id": "pw-transport", "x": repr(x), "y": repr(y), "z": repr(z)})

    # highest-root table via the affine Pieri route vs the closed formula
    for lbl, free_1based in [("A3", 2), ("A4", 2)]:  # Gr(2,4) and Gr(2,5)
        rs = cartan.build(lbl)
        pd = build_parabolic(rs, [k for k in range(rs.rank) if k != free_1based - 1])
        r0 = affine_simple_reflection(rs, 0)
        u0, q0 = factor_parabolic(pd, r0)
        for w in pd.minimal_reps():
            x = parabolic_basis_element(pd, w)
            img = pieri_r0(rs, {x: 1})
            got = {}
            for y, c in img.items():
                if in_JP(pd, y):
                    continue
                uy, qy = factor_parabolic(pd, y)
                q = tuple(a - b - d for a, b, d in zip(qy, pd.eta(x.t), q0))
                got[(uy, q)] = got.get((uy, q), 0) + c
            got = {k: v for k, v in got.items() if v}
            closed = highest_root_product(pd, w)
            checks += 1
            if got != closed:
                failures.append({"id": "highest-root", "type": lbl, "w": repr(w), "got": repr(got), "want": repr(closed)})
    return _report("parabolic", failures, checks)


def suite_lapointe_morse() -> dict:
    """The quotient-with-duality map agrees with the partition dictionary."""
    failures = []
    checks = 0
    for n in [4, 5, 6, 7]:
        rs = cartan.build(f"A{n - 1}")
        for j in range(1, n):
            pd = build_parabolic(rs, [k for k in range(n - 1) if k != j - 1])
            for m in range(1, n):
                img = lm_map(pd, {bott_generator(rs, m): 1})
                want = {quotient_generator(pd, m): 1} if m <= j else {}
                checks += 1
                if img != want:
                    failures.append({"id": "generators", "n": n, "j": j, "m": m})
                if m <= j:
                    checks += 1
                    if theta_cominuscule(pd, quotient_generator(pd, m)) != bott_generator(rs, m):
                        failures.append({"id": "theta-generator", "n": n, "j": j, "m": m})

    # ring homomorphism on all products of degree <= 4 in Gr(2,4), q = 1
    rs = cartan.build("A3")
    pd = build_parabolic(rs, [0, 2])
    classes = _grassmannian_up_to(rs, 4)
    for a in classes:
        for b in classes:
            if length(a) + length(b) > 4:
                continue
            prod = hom_product_basis(rs, a, b)
            prod0 = {k: v.eval_zero() for k, v in prod.items() if v.eval_zero()}
            lhs = lm_map(pd, prod0)
            rhs = {}
            ia, ib = lm_map(pd, {a: 1}), lm_map(pd, {b: 1})
            for ya, ca in ia.items():
                for yb, cb in ib.items():
                    for (z, q), c in quotient_product(pd, ya, yb).items():
                        z0 = c.eval_zero() * ca * cb
                        if z0:
                            rhs[z] = rhs.get(z, 0) + z0
            rhs = {k: v for k, v in rhs.items() if v}
            checks += 1
            if lhs != rhs:
                failures.append({"id": "ring-hom", "a": repr(a), "b": repr(b)})
    return _report("lapointe-morse", failures, checks)


def _grassmannian_up_to(rs, maxlen):
    out = [affine_identity(rs)]
    seen = {out[0]}
    frontier = [out[0]]
    for _ in range(maxlen):
        nxt = []
        for x in frontier:
            for i in range(rs.rank + 1):
                y = affine_simple_reflection(rs, i) * x
                if y not in seen and length(y) == length(x) + 1 and is_grassmannian(y):
                    seen.add(y)
                    nxt.append(y)
                    out.append(y)
        frontier = nxt
    return out


SUITES = {
    "paper-examples": suite_paper_examples,
    "peterson-borel": suite_peterson_borel,
    "compare": suite_compare,
    "operators": suite_operators,
    "chevalley": suite_chevalley,
    "positivity": suite_positivity,
    "tilted": suite_tilted,
    "parabolic": suite_parabolic,
    "lapointe-morse": suite_lapointe_morse,
}


def run_suite(name: str, **kwargs) -> dict:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    import inspect

    allowed = set(inspect.signature(fn).parameters)
    extra = sorted(set(kwargs) - allowed)
    if extra:
        takes = f"it accepts {', '.join(sorted(allowed))}" if allowed else "it takes no arguments"
        raise ValueError(f"suite {name!r} does not accept {', '.join(extra)} ({takes})")
    return fn(**kwargs)
