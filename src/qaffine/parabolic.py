"""Parabolic and extended-affine machinery.

Everything here hangs off a ParabolicData: the Levi node set I_P and its
Dynkin components, the minimal-coset projection pi_P (two independent
implementations: inversion stripping and the closed form on translations),
the quotient ideal J_P, the quotient ring product, affine diagram
automorphisms for the cominuscule section, strange duality in type A, and
the bounded-partition dictionary for Grassmannians.
"""

from dataclasses import dataclass, field
from math import gcd

from .cartan import CorootVec, RootSystem, RootVec, _adjugate, cached
from .coeffring import from_raw, packed_axpy, settle
from .weyl import (
    AffineElt,
    WeylElt,
    _inversions,
    affine_from_word,
    affine_identity,
    affine_simple_reflection,
    enumerate_weyl,
    from_word,
    is_grassmannian,
    length,
    longest_element,
    longest_of,
    reflection_of,
    reflection_of_affine,
    root_pairings,
    simple_reflection,
    weyl_identity,
)


@dataclass
class ParabolicData:
    rs: RootSystem
    nodes: frozenset  # I_P, 0-based node indices
    free_nodes: tuple  # sorted I \ I_P
    components: tuple  # tuple of tuples, Dynkin components of I_P
    rp_positive: tuple  # positive roots supported on I_P
    rp_index: tuple  # their indices in rs.roots, ascending
    two_rho_p: RootVec
    _cache: dict = field(default_factory=dict, repr=False)

    # -- basic membership ---------------------------------------------------
    def in_wp(self, w: WeylElt) -> bool:
        """w in W_P: every positive root that w sends negative lies in R_P^+."""
        rp = self.rp_index
        npos = len(self.rs.positive_roots)
        return all(j < npos or k in rp for k, j in enumerate(w.perm[:npos]))

    def is_minimal_rep(self, w: WeylElt) -> bool:
        """w in W^P: no inversions among the simple roots of I_P... w alpha_j > 0."""
        return not any(w.descends(j) for j in self.nodes)

    @cached("wp_reps")
    def minimal_reps(self) -> list[WeylElt]:
        return [w for w in enumerate_weyl(self.rs) if self.is_minimal_rep(w)]

    def pi_finite(self, w: WeylElt) -> WeylElt:
        """The W^P factor of w = w_1 w_2 with w_2 in W_P."""
        rs = self.rs
        while True:
            for j in self.nodes:
                if w.descends(j):
                    w = w * simple_reflection(rs, j)
                    break
            else:
                return w

    def eta(self, lam: CorootVec) -> tuple:
        """The class of lam in Q^vee / Q_P^vee, as coordinates on I \\ I_P."""
        return tuple(lam[i] for i in self.free_nodes)

    def coset_coroot(self, coset) -> CorootVec:
        """The coroot with the coset's coordinates on I \\ I_P and 0 on I_P,
        so eta of it is the coset; one coordinate per free node."""
        if len(coset) != len(self.free_nodes):
            raise ValueError(f"coset has {len(coset)} coordinates, expected one per node off I_P "
                             f"({len(self.free_nodes)})")
        lam = [0] * self.rs.rank
        for i, c in zip(self.free_nodes, coset):
            lam[i] = c
        return tuple(lam)

    def pair_two_rho_p(self, avee: CorootVec) -> int:
        return self.rs.pair(avee, self.two_rho_p)

    def longest_wp(self) -> WeylElt:
        return longest_of(self.rs, self.nodes)

    # -- component data -----------------------------------------------------
    @cached("ctheta")
    def component_theta(self, comp: tuple) -> RootVec:
        sub = [a for a in self.rp_positive if all(c == 0 or i in comp for i, c in enumerate(a))]
        th = max(sub, key=lambda a: (sum(a), a))
        if not all(all(x >= y for x, y in zip(th, a)) for a in sub):
            raise AssertionError("component highest root does not dominate its roots")
        return th

    def component_special_nodes(self, comp: tuple) -> tuple:
        """Cominuscule nodes of the component: mark 1 in its highest root."""
        th = self.component_theta(comp)
        return tuple(j for j in comp if th[j] == 1)

    @cached("cadj")
    def component_cartan_adj(self, comp: tuple):
        """(adj, det) of the component's Cartan matrix: its inverse is adj / det."""
        return _adjugate([[self.rs.cartan[i][j] for j in comp] for i in comp])

    @cached("vspecial")
    def v_special(self, comp: tuple, j: int) -> WeylElt:
        """Shortest v in W_{comp} with v omega_j = w_{0,comp} omega_j."""
        v = longest_of(self.rs, comp) * longest_of(self.rs, [k for k in comp if k != j])
        if not self.in_wp(v):
            raise AssertionError("v_special left W_P")
        return v

    # -- the closed form of pi_P on translations -----------------------------
    def pi_translation_data(self, lam: CorootVec):
        """(v, lam_B, j_m per component) with pi_P(t_lam) = v t_{lam_B}.

        Each component's coordinates are kept as integers over the component
        determinant det = det C_m, with C_m^{-1} = adj / det: a coordinate is
        integral iff its numerator is divisible by det.
        """
        rs = self.rs
        phi = [0] * rs.rank
        v = weyl_identity(rs)
        jms = []
        for comp in self.components:
            adj, det = self.component_cartan_adj(comp)
            idx = range(len(comp))
            # psi restricted to the component, in its coweight coordinates
            cws = [sum(l * row[j] for l, row in zip(lam, rs.cartan)) for j in comp]
            # det times the coroot-basis coordinates of psi_m: sum_j cw_j * row_j(adj)
            psi = [sum(cws[j] * adj[j][k] for j in idx) for k in idx]
            if all(c % det == 0 for c in psi):
                jm = None  # the 0_m node: psi_m already in Q_m^vee
                omega = (0,) * len(comp)
            else:
                specials = self.component_special_nodes(comp)
                for cand_pos, cand in enumerate(comp):
                    omega = adj[cand_pos]  # det times omega_cand^vee
                    if cand in specials and all((c + o) % det == 0 for c, o in zip(psi, omega)):
                        jm = cand
                        break
                else:
                    raise AssertionError("no special node matches the coweight class")
            # phi_m = -psi_m - omega_{j_m}
            for k, pos in enumerate(comp):
                phi[pos], rem = divmod(-psi[k] - omega[k], det)
                if rem:
                    raise AssertionError("phi_P coordinate is not integral")
            if jm is not None:
                v = v * self.v_special(comp, jm)
            jms.append(jm)
        lam_b = tuple(l + p for l, p in zip(lam, phi))
        return v, lam_b, tuple(jms)


def build_parabolic(rs: RootSystem, nodes) -> ParabolicData:
    nodes = frozenset(nodes)
    if not nodes <= set(range(rs.rank)):
        raise ValueError("parabolic nodes out of range")
    free = tuple(i for i in range(rs.rank) if i not in nodes)
    # Dynkin components of I_P
    remaining = set(nodes)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in remaining - comp:
                if rs.cartan[i][j] != 0:
                    comp.add(j)
                    frontier.append(j)
        comps.append(tuple(sorted(comp)))
        remaining -= comp
    rp_index = tuple(k for k, a in enumerate(rs.positive_roots)
                     if all(c == 0 or i in nodes for i, c in enumerate(a)))
    rp = tuple(map(rs.roots.__getitem__, rp_index))
    two_rho_p = tuple(sum(col) for col in zip(*rp)) if rp else (0,) * rs.rank
    return ParabolicData(rs, nodes, free, tuple(sorted(comps)), rp, rp_index, two_rho_p)


def in_WPaff(pd: ParabolicData, x: AffineElt) -> bool:
    """w t_lam in (W^P)_af iff <lam, alpha> = -[w alpha < 0] on R_P^+."""
    pr = root_pairings(pd.rs, x.t)
    perm = x.w.perm
    npos = len(pd.rs.positive_roots)
    return all(pr[k] == -(perm[k] >= npos) for k in pd.rp_index)


def pi_P(pd: ParabolicData, x: AffineElt) -> AffineElt:
    """The (W^P)_af factor of x, by stripping inversions lying over R_P."""
    rs = pd.rs
    while True:
        beta = next(_inversions(x, pd.rp_index), None)
        if beta is None:
            if not in_WPaff(pd, x):
                raise AssertionError("pi_P left (W^P)_af")
            return x
        x = x * reflection_of_affine(rs, beta)


def pi_P_translation(pd: ParabolicData, lam: CorootVec) -> AffineElt:
    """Closed form pi_P(t_lam) = v t_{lam + phi_P(lam)}."""
    rs = pd.rs
    v, lam_b, _jms = pd.pi_translation_data(lam)
    out = AffineElt(v, lam_b)
    if not in_WPaff(pd, out):
        raise AssertionError("closed form of pi_P(t_lam) left (W^P)_af")
    if rs.is_antidominant(lam):
        # phi_P of an antidominant lam is a nonnegative sum of coroots of I_P
        phi = tuple(b - l for b, l in zip(lam_b, lam))
        if any(c < 0 for c in phi) or any(c for i, c in enumerate(phi) if i not in pd.nodes):
            raise AssertionError("phi_P of an antidominant lam is not a nonnegative sum over I_P")
    return out


def in_JP(pd: ParabolicData, x: AffineElt) -> bool:
    if not is_grassmannian(x):
        raise ValueError("J_P membership is asked of Grassmannian elements")
    return not in_WPaff(pd, x)


@cached("perp")
def _perp_base(pd: ParabolicData) -> CorootVec:
    rs = pd.rs
    # rows of the adjugate over the free nodes, divided by their gcd
    coords = [sum(rs.cartan_adj[i][k] for i in pd.free_nodes) for k in range(rs.rank)]
    g = gcd(*coords, rs.cartan_det)
    base = tuple(-c // g for c in coords)
    pr = root_pairings(rs, base)
    for j, s in enumerate(rs.simple_index):
        p = pr[s]
        if (p == 0) != (j in pd.nodes) or p > 0:
            raise AssertionError("perpendicular base has the wrong pairing pattern")
    return base


def perp_antidominant(pd: ParabolicData, scale: int = 1) -> CorootVec:
    """lam in Q^vee with <lam, alpha_j> = 0 on I_P and < 0 off I_P.

    Such translations satisfy pi_P(t_lam) = t_lam and are the localization
    denominators of the quotient ring.
    """
    return tuple(scale * c for c in _perp_base(pd))


def parabolic_basis_element(pd: ParabolicData, v: WeylElt) -> AffineElt:
    """v pi_P(t_lam) in W_af^- for lam = perp_antidominant(pd, 2), in the zero coset."""
    if not pd.is_minimal_rep(v):
        raise ValueError("basis index must be a minimal coset representative")
    lam = perp_antidominant(pd, 2)
    x = AffineElt(v, pd.rs.zero_coroot()) * pi_P_translation(pd, lam)
    if not (is_grassmannian(x) and in_WPaff(pd, x)):
        raise AssertionError("lift left the expected stratum")
    return x


def factor_parabolic(pd: ParabolicData, z: AffineElt) -> tuple[WeylElt, tuple]:
    """Write Grassmannian z in (W^P)_af as u pi_P(t_lam): returns (u, eta(lam))."""
    v, lam_b, _ = pd.pi_translation_data(z.t)
    if lam_b != z.t:
        raise AssertionError("translation of a (W^P)_af element is its own canonical lift")
    u = z.w * v.inverse()
    if not pd.is_minimal_rep(u):
        raise AssertionError("finite factor is not a minimal representative")
    return u, pd.eta(z.t)


def quotient_product(pd: ParabolicData, v: WeylElt, u: WeylElt) -> dict:
    """sigma_P^v * sigma_P^u via the affine quotient: product, mod J_P, rewrite.

    Both factors are lifted to basis elements in the zero q-coset.  Returns a
    parabolic class ``(w in W^P, q-exponents over I \\ I_P) -> Scalar``, whose
    q-exponents are certified nonnegative.
    """
    # imported here, so the commands that need only pi_P or the Lapointe-Morse
    # map do not load the affine route
    from .peterson import hom_product_basis

    rs = pd.rs
    x = parabolic_basis_element(pd, v)
    y = parabolic_basis_element(pd, u)
    base_x = pd.eta(x.t)
    base_y = pd.eta(y.t)
    prod = hom_product_basis(rs, x, y)
    out: dict = {}
    for z, c in prod.items():
        if in_JP(pd, z):
            continue
        uz, qz = factor_parabolic(pd, z)
        q = tuple(a - b - d for a, b, d in zip(qz, base_x, base_y))
        packed_axpy(out, (uz, q), c.packed, 1)
    out = from_raw(rs, settle(out))
    for (w, q) in out:
        if any(a < 0 for a in q):
            raise AssertionError("quotient product has a negative q exponent")
    return out


# -- affine diagram automorphisms and the cominuscule section ----------------

def is_special_node(rs: RootSystem, i: int) -> bool:
    """Nodes of mark 1 in I_af (0 is always special)."""
    return rs.marks[i] == 1


@cached("tau")
def tau(rs: RootSystem, i: int) -> tuple:
    """The affine diagram automorphism with tau_i(i) = 0, as a node permutation.

    Node ids: 0 is the affine node, k = 1..r the finite ones.  Realized by
    v_i t_{-omega_i^vee}: tau(k) is the node of v_i alpha_k, with
    v_i alpha_i = -theta, and tau(0) the node of v_i (-theta).
    """
    if i == 0:
        return tuple(range(rs.rank + 1))
    if not is_special_node(rs, i):
        raise ValueError(f"node {i} is not special (mark != 1)")
    vi = longest_element(rs) * longest_of(rs, [k for k in range(rs.rank) if k != i - 1])
    out = _node_images(rs, vi.perm)
    if sorted(out) != list(range(rs.rank + 1)) or out[i] != 0:
        raise AssertionError("tau is not a node permutation sending i to 0")
    _assert_affine_automorphism(rs, out)
    return out


def _node_images(rs: RootSystem, perm) -> tuple:
    """For each node k of I_af, the node whose root is the image under the root
    permutation perm of node k's root: -theta for node 0, alpha_k for k >= 1."""
    ks = (rs.root_index[tuple(-c for c in rs.theta)],) + rs.simple_index
    node = {k: n for n, k in enumerate(ks)}
    out = tuple(node.get(perm[k]) for k in ks)
    if None in out:
        raise AssertionError("the image of a node's root is neither simple nor -theta")
    return out


@cached("affcartan")
def _affine_cartan(rs: RootSystem):
    r = rs.rank
    m = [[0] * (r + 1) for _ in range(r + 1)]
    for i in range(r):
        for j in range(r):
            m[i + 1][j + 1] = rs.cartan[i][j]
    m[0][0] = 2
    for j in range(r):
        m[0][j + 1] = -rs.pair(rs.theta_vee, rs.simple_root(j))
        m[j + 1][0] = -rs.pair(rs.simple_coroot(j), rs.theta)
    return tuple(tuple(row) for row in m)


def _assert_affine_automorphism(rs: RootSystem, perm) -> None:
    c = _affine_cartan(rs)
    n = rs.rank + 1
    if any(c[perm[a]][perm[b]] != c[a][b] for a in range(n) for b in range(n)):
        raise AssertionError("node permutation is not a diagram automorphism")


@cached("star")
def star(rs: RootSystem) -> tuple:
    """The automorphism w -> w_0 w w_0 on node ids, fixing the affine node."""
    w0 = longest_element(rs).perm
    npos = len(rs.positive_roots)
    # -w0 as a root permutation: negation shifts an index by npos
    perm = _node_images(rs, w0[npos:] + w0[:npos])
    if perm[0] != 0:
        raise AssertionError("star moves the affine node")
    _assert_affine_automorphism(rs, perm)
    return perm


@cached("theta")
def theta_cominuscule(pd: ParabolicData, y: WeylElt) -> AffineElt:
    """The section W^P -> (W^P)_af ∩ W_af^- through the affine automorphisms."""
    rs = pd.rs
    if len(pd.free_nodes) != 1:
        raise ValueError("needs a maximal parabolic")
    j = pd.free_nodes[0] + 1
    if not is_special_node(rs, j):
        raise ValueError("the free node must be cominuscule")
    if not pd.is_minimal_rep(y):
        raise ValueError("input must lie in W^P")
    t = tau(rs, j)
    st = star(rs)
    x = affine_identity(rs)
    for i in y.word():
        x = x * affine_simple_reflection(rs, st[t[i + 1]])
    if not (is_grassmannian(x) and in_WPaff(pd, x)):
        raise AssertionError("theta(y) left the Grassmannian (W^P)_af elements")
    # the finite part w of x = w t_lam satisfies pi_P(w) = pi_P(w_P y)
    if pd.pi_finite(x.w) != pd.pi_finite(pd.longest_wp() * y):
        raise AssertionError("finite part of theta(y) is not in the coset of w_P y")
    return x


# -- strange duality (type A) and the Lapointe-Morse dictionary --------------

def delta_count(pd: ParabolicData, w: WeylElt) -> int:
    j = pd.free_nodes[0]
    return sum(1 for i in w.word() if i == j)


def strange_duality(pd: ParabolicData, cls: dict) -> dict:
    """q -> q^{-1}, sigma_P^w -> q^{-delta(w)} sigma_P^{pi_P(w_P w)}; type A only."""
    rs = pd.rs
    if rs.family != "A":
        raise ValueError("strange duality normalization is only implemented for type A")
    if len(pd.free_nodes) != 1:
        raise ValueError("needs a maximal parabolic")
    wp = pd.longest_wp()
    out: dict = {}
    for (w, q), c in cls.items():
        if not pd.is_minimal_rep(w):
            raise ValueError(f"{w!r} does not lie in W^P")
        img = pd.pi_finite(wp * w)
        q2 = tuple(-x - delta_count(pd, w) for x in q)
        packed_axpy(out, (img, q2), c.packed, 1)
    return from_raw(rs, settle(out))


def highest_root_product(pd: ParabolicData, w: WeylElt) -> dict:
    """Closed formula for sigma_P^{pi_P(r_theta)} * sigma_P^w (non-equivariant).

    Returns a parabolic class with integer coefficients.
    """
    rs = pd.rs
    if pd.nodes == set(range(rs.rank)):
        raise ValueError("P must be proper")
    if not pd.is_minimal_rep(w):
        raise ValueError("w must lie in W^P")
    out: dict = {}
    winv = w.inverse()
    # first term present iff w alpha = theta for some alpha in R^+ \ R_P^+
    k = winv.perm[rs.root_index[rs.theta]]
    if k < len(rs.positive_roots) and k not in pd.rp_index:
        shift = pd.eta(tuple(a - b for a, b in zip(rs.theta_vee, winv.act_coroot(rs.theta_vee))))
        target = pd.pi_finite(reflection_of(rs, rs.theta) * w)
        out[(target, shift)] = 1
    qtheta = pd.eta(rs.theta_vee)
    for i in range(rs.rank):
        riw = simple_reflection(rs, i) * w
        if riw.length() == w.length() - 1:
            key = (riw, qtheta)
            out[key] = out.get(key, 0) + rs.comarks[i + 1]
    return {k: v for k, v in out.items() if v}


def _nonzero_parts(parts) -> list:
    """The nonzero parts of a partition, which may not be negative."""
    if any(p < 0 for p in parts):
        raise ValueError(f"partition parts must be nonnegative, got {min(parts)}")
    return [p for p in parts if p]


def partition_to_affine(rs: RootSystem, parts, n: int) -> AffineElt:
    """The Grassmannian affine element of an (n-1)-bounded partition.

    Cell (x1, x2) carries residue (x1 - x2) mod n; rows are read top to
    bottom, right to left.
    """
    if rs.family != "A" or rs.rank != n - 1:
        raise ValueError("partition indexing needs type A_{n-1}")
    parts = _nonzero_parts(parts)
    if any(p > n - 1 for p in parts):
        raise ValueError(f"parts must be at most {n - 1}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("parts must be weakly decreasing")
    word = []
    for x2 in range(len(parts), 0, -1):
        for x1 in range(parts[x2 - 1], 0, -1):
            word.append((x1 - x2) % n)
    x = affine_from_word(rs, word)
    if length(x) != len(word) or not is_grassmannian(x):
        raise AssertionError("row reading is not a reduced word of a Grassmannian element")
    return x


def partition_to_wp(pd: ParabolicData, parts) -> WeylElt:
    """The W^P element of a partition in the j x (n-j) rectangle (columnwise)."""
    rs = pd.rs
    if rs.family != "A" or len(pd.free_nodes) != 1:
        raise ValueError("needs a type A maximal parabolic")
    n = rs.rank + 1
    j = pd.free_nodes[0] + 1
    parts = _nonzero_parts(parts)
    if len(parts) > j or any(p > n - j for p in parts):
        raise ValueError(f"partition must fit in a {j} x {n - j} rectangle")
    word = []
    ncols = parts[0] if parts else 0
    for x1 in range(ncols, 0, -1):
        height = sum(1 for p in parts if p >= x1)
        for x2 in range(height, 0, -1):
            val = j + x1 - x2
            if not 1 <= val <= n - 1:
                raise AssertionError("column reading left the finite nodes")
            word.append(val - 1)
    w = from_word(rs, word)
    if w.length() != len(word) or not pd.is_minimal_rep(w):
        raise AssertionError("column reading is not a reduced word of a minimal representative")
    return w


def bott_generator(rs: RootSystem, m: int) -> AffineElt:
    """h_[m] = r_{m-1} ... r_1 r_0, the single-row class."""
    return affine_from_word(rs, tuple(range(m - 1, -1, -1)))


def quotient_generator(pd: ParabolicData, m: int) -> WeylElt:
    """c_[m] = r_{j-m+1} ... r_{j-1} r_j in W^P (1-based nodes)."""
    j = pd.free_nodes[0] + 1
    word = [k - 1 for k in range(j - m + 1, j + 1)]
    return from_word(pd.rs, word)


def lm_map(pd: ParabolicData, xi: dict) -> dict:
    """The quotient-with-duality ring map H_*(Gr_{SL_n}) -> QH^*(Gr(j,n))|_{q=1}.

    xi_x maps to sigma_P^y when x = theta(y) pi_P(t_lam) for some y, else 0.
    Input: integer combination of Grassmannian elements; output keyed by W^P.
    """
    rs = pd.rs
    if rs.family != "A":
        raise ValueError("the quotient-with-duality map is type A only")
    out: dict = {}
    for x, c in xi.items():
        y = _lm_preimage(pd, x)
        if y is not None:
            out[y] = out.get(y, 0) + c
    return {k: v for k, v in out.items() if v}


@cached("lmpre")
def _lm_preimage(pd: ParabolicData, x: AffineElt):
    """The y in W^P with x = theta(y) pi_P(t_lam), or None.

    pi_P(t_lam) = v t_{lam_B} with v in W_P, so x.w W_P = theta(y).w W_P, which
    theta_cominuscule certifies is w_P y W_P: the only candidate is
    y = pi_P(w_P x.w), and one membership test decides it.
    """
    y = pd.pi_finite(pd.longest_wp() * x.w)
    z = theta_cominuscule(pd, y).inverse() * x
    v, lam_b, _ = pd.pi_translation_data(z.t)
    return y if lam_b == z.t and AffineElt(v, lam_b) == z else None
