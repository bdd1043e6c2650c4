import itertools
import operator
import random
from fractions import Fraction

import pytest

from conftest import mutant, solve_rational, weight_to_root_basis
from qaffine import cartan
from qaffine.weyl import (
    enumerate_weyl,
    longest_element,
    reflection_of,
    simple_reflection,
    weyl_identity,
)

ALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"]
SIMPLY_LACED = {"A", "D", "E"}


def test_build_a2():
    rs = cartan.build("A2")
    assert rs.theta == (1, 1)
    assert rs.weyl_order == 6
    assert longest_element(rs).length() == 3
    # closure oracle: |R+| equals the number of reflections equals l(w0)
    assert len(rs.positive_roots) == 3 == longest_element(rs).length()


def test_build_a1():
    rs = cartan.build("A1")
    assert rs.theta == (1,)
    assert rs.comarks == (1, 1)


def test_build_c3_theta_by_highest_weight_search():
    rs = cartan.build("C3")
    assert rs.theta == (2, 2, 1)
    # oracle: theta + alpha_i is never a root, and theta is dominant
    for i in range(3):
        bumped = tuple(c + int(j == i) for j, c in enumerate(rs.theta))
        assert not rs.is_root(bumped)
    assert all(rs.pair(rs.coroot_of(rs.theta), rs.simple_root(i)) >= 0 for i in range(3))


def test_build_rejects_unknown():
    with pytest.raises(ValueError):
        cartan.build("H3")
    with pytest.raises(ValueError):
        cartan.build("A9")
    with pytest.raises(ValueError):
        cartan.build("Q")


def test_pair_duality():
    for lbl in ALL_TYPES:
        rs = cartan.build(lbl)
        assert rs.pair_weight(rs.simple_coroot(0), rs.fundamental_weight(0)) == 1
        for i in range(rs.rank):
            for j in range(rs.rank):
                assert rs.pair_weight(rs.simple_coroot(i), rs.fundamental_weight(j)) == int(i == j)


def test_pair_a2_values():
    rs = cartan.build("A2")
    # theta^vee = alpha1^vee + alpha2^vee, so <theta^vee, 2 rho> = 2 + 2
    assert rs.theta_vee == (1, 1)
    two_rho_w = tuple(2 for _ in range(rs.rank))
    assert rs.pair_weight(rs.theta_vee, two_rho_w) == 4
    assert rs.pair(rs.simple_coroot(0), rs.simple_root(1)) == -1 == rs.cartan[0][1]


def test_pair_dimension_mismatch():
    rs = cartan.build("A2")
    with pytest.raises(ValueError):
        rs.pair_weight((1,), (1, 0))


def test_coroot_of_simple_and_theta():
    rs = cartan.build("A2")
    assert rs.coroot_of(rs.simple_root(0)) == rs.simple_coroot(0)
    # derived via u = r1, i = 2: theta = r1 . alpha2
    r1 = simple_reflection(rs, 0)
    assert r1.act_root(rs.simple_root(1)) == rs.theta
    assert r1.act_coroot(rs.simple_coroot(1)) == rs.theta_vee
    with pytest.raises(ValueError):
        rs.coroot_of((2, 0))


def test_coroot_independent_of_decomposition():
    # brute force over W . alpha_i: every (u, i) with u alpha_i = alpha gives
    # the same coroot u alpha_i^vee and the same reflection u r_i u^{-1}
    for lbl in ["A2", "B2", "G2"]:
        rs = cartan.build(lbl)
        for alpha in rs.positive_roots:
            seen_coroots = set()
            seen_refl = set()
            for u in enumerate_weyl(rs):
                for i in range(rs.rank):
                    if u.act_root(rs.simple_root(i)) == alpha:
                        seen_coroots.add(u.act_coroot(rs.simple_coroot(i)))
                        seen_refl.add(u * simple_reflection(rs, i) * u.inverse())
            assert seen_coroots == {rs.coroot_of(alpha)}
            assert seen_refl == {reflection_of(rs, alpha)}


def test_coroot_of_short_root_b2():
    rs = cartan.build("B2")
    a2 = rs.simple_root(1)  # the short simple root
    assert rs.pair(rs.coroot_of(a2), a2) == 2
    # short root has a long coroot: theta^vee pairs to 1 against theta but
    # alpha2^vee pairs to 2 against alpha1 + alpha2... check via marks instead
    assert rs.theta == (1, 2) and rs.theta_vee == (1, 1)


def test_weight_to_root_basis():
    rs = cartan.build("A2")
    assert weight_to_root_basis(rs, (1, 0)) == (Fraction(2, 3), Fraction(1, 3))
    with pytest.raises(ValueError):
        rs.root_lattice_check((1, 0))


def test_weight_diff_examples():
    rs1 = cartan.build("A1")
    r1 = simple_reflection(rs1, 0)
    mu = (1,)
    wmu = r1.act_weight(mu)
    assert rs1.root_lattice_check(tuple(a - b for a, b in zip(mu, wmu))) == (1,)

    rs = cartan.build("A2")
    rth = reflection_of(rs, rs.theta)
    mu = (1, 0)
    wmu = rth.act_weight(mu)
    assert rs.root_lattice_check(tuple(a - b for a, b in zip(mu, wmu))) == (1, 1)


def test_reflection_length_bound():
    # l(r_alpha) <= <alpha^vee, 2 rho> - 1, equality in simply-laced types
    for lbl in ALL_TYPES:
        rs = cartan.build(lbl)
        for alpha in rs.positive_roots:
            l = reflection_of(rs, alpha).length()
            bound = rs.pair(rs.coroot_of(alpha), rs.two_rho) - 1
            assert l <= bound
            if rs.family in SIMPLY_LACED:
                assert l == bound


def test_pairing_w_invariance():
    rng = random.Random(7)
    for lbl in ALL_TYPES:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs) if rs.weyl_order <= 400 else None
        for _ in range(100):
            if W is not None:
                w = rng.choice(W)
            else:
                w = weyl_identity(rs)
                for _ in range(6):
                    w = w * simple_reflection(rs, rng.randrange(rs.rank))
            lam = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
            mu = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
            assert rs.pair_weight(w.act_coroot(lam), w.act_weight(mu)) == rs.pair_weight(lam, mu)


def test_positive_root_count_is_longest_length():
    for lbl in ALL_TYPES:
        rs = cartan.build(lbl)
        assert len(rs.positive_roots) == longest_element(rs).length()


def test_marks_reconstruct_delta():
    for lbl in ALL_TYPES:
        rs = cartan.build(lbl)
        assert rs.marks[0] == 1
        assert tuple(rs.marks[1:]) == rs.theta
        assert rs.comarks[0] == 1
        assert tuple(rs.comarks[1:]) == rs.theta_vee
        # two_rho is the sum of positive roots and pairs as 2 rho in omega-basis
        for alpha in rs.positive_roots:
            av = rs.coroot_of(alpha)
            assert rs.pair(av, rs.two_rho) == rs.pair_weight(av, (2,) * rs.rank)


def _rational_adjugate(m):
    """(adj, det) of m over Q: det the product of the pivots of Gaussian
    elimination, adj = det . m^{-1} from solve_rational, row i of m^{-1}
    solving m^T x = e_i."""
    idx = range(len(m))
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in idx:
        det *= a[k][k]
        for i in range(k + 1, len(m)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    rows = solve_rational(idx, idx, {(i, j): m[j][i] for i in idx for j in idx}, [{i: 1} for i in idx])
    return tuple(tuple(int(x * det) for x in row) for row in rows), int(det)


def test_adjugate_matches_the_rational_inverse_on_every_principal_submatrix():
    # the fraction-free elimination against elimination over Q, on every
    # principal submatrix of each family up to rank 8: the components that
    # parabolic.component_cartan_adj inverts
    families = [("A", range(1, 8)), ("B", range(2, 9)), ("C", range(3, 9)), ("D", range(4, 9)),
                ("E", range(6, 9)), ("F", [4]), ("G", [2])]
    count = 0
    for family, ranks in families:
        for rank in ranks:
            c = cartan._cartan_matrix(family, rank)
            for k in range(1, rank + 1):
                for nodes in itertools.combinations(range(rank), k):
                    m = [[c[i][j] for j in nodes] for i in nodes]
                    assert cartan._adjugate(m) == _rational_adjugate(m), (family, rank, nodes)
                    count += 1
    assert count == 2200


def test_solve_integral_matches_the_rational_reference():
    # the fraction-free solve against Gauss-Jordan over Q on seeded random
    # integer systems: square and not, rank-deficient (a row or column
    # repeated as a combination of others), zero and negative pivots, and
    # inconsistent targets, which both sides must refuse
    rng = random.Random(34)
    seen = {"deficient": 0, "inconsistent": 0, "zero pivot": 0, "negative pivot": 0}
    for _ in range(1500):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(nc)] for _ in range(nr)]
        deficient = False
        if nr > 1 and rng.random() < 0.4:
            i, j = rng.sample(range(nr), 2)
            k = rng.choice((-2, -1, 1, 3))
            a[i] = [x + k * y for x, y in zip(a[i], a[j])]
            deficient = True
        if nc > 1 and rng.random() < 0.3:
            i, j = rng.sample(range(nc), 2)
            for row in a:
                row[i] = -row[j]
            deficient = True
        seen["deficient"] += deficient
        seen["zero pivot"] += a[0][0] == 0
        seen["negative pivot"] += a[0][0] < 0
        rows, cols = [f"r{i}" for i in range(nr)], [f"c{j}" for j in range(nc)]
        mat = {(r, c): a[i][j] for i, r in enumerate(rows) for j, c in enumerate(cols) if a[i][j]}
        targets = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.7:  # in the column space
                x = [rng.randint(-3, 3) for _ in range(nc)]
                targets.append({r: sum(map(operator.mul, a[i], x)) for i, r in enumerate(rows)})
            else:
                targets.append({r: rng.randint(-4, 4) for r in rows})
        try:
            want = solve_rational(rows, cols, mat, targets)
        except ValueError as e:
            assert str(e) == "inconsistent linear system"
            with pytest.raises(ValueError, match="inconsistent linear system"):
                cartan.solve_integral(rows, cols, mat, targets)
            seen["inconsistent"] += 1
            continue
        d, nums = cartan.solve_integral(rows, cols, mat, targets)
        assert type(d) is int and d > 0
        assert all(type(x) is int for sol in nums for x in sol)
        assert [[Fraction(x, d) for x in sol] for sol in nums] == want
    assert all(n >= 100 for n in seen.values()), seen


def test_adjugate_certifies_its_result(monkeypatch):
    # planted fault: an elimination that skips its exact division ends with
    # pivot entries at different multiples of det, and the right block at a
    # different multiple of adj, which the certificate rejects
    monkeypatch.setattr(cartan, "_eliminate", mutant(cartan._eliminate, "// d", "// 1"))
    for family, rank in [("A", 2), ("A", 3), ("B", 3), ("G", 2)]:
        with pytest.raises(AssertionError, match="adjugate does not invert the matrix"):
            cartan._adjugate(cartan._cartan_matrix(family, rank))


def test_table_certificates_survive_python_O(run_python):
    # explicit raises, so python -O cannot strip them: patch in a fault and
    # the certificate of the adjugate (a wrong sign in its elimination), of W
    # and of a reduced word fires
    code = "\n".join([
        "import sys",
        "from qaffine import cartan, weyl",
        "def attempt(f):",
        "    try:",
        "        f()",
        "    except AssertionError as e:",
        "        print(sys.flags.optimize, e)",
        "import inspect",
        "real_eliminate = cartan._eliminate",
        "src = inspect.getsource(real_eliminate).replace('(p * x - f * y) // d', '(p * x + f * y) // d')",
        "exec(src, cartan.__dict__)",
        "attempt(lambda: cartan.build('A2'))",
        "cartan._eliminate = real_eliminate",
        "cartan._weyl_order = lambda family, rank: 7",
        "attempt(lambda: weyl.enumerate_weyl(cartan.build('A2')))",
        "w = weyl.from_word(cartan.build('B2'), [0, 1])",
        "w._len = 3",
        "attempt(w.word)",
    ])
    out = run_python("-O", "-c", code).stdout
    assert out.splitlines() == [
        "1 adjugate does not invert the matrix",
        "1 enumerated 6 elements, expected |W| = 7",
        "1 descent word is not reduced",
    ]
