"""Reference mathematics for the benchmark, written without importing qaffine.

Everything here works on plain tuples: Weyl group elements are kept as
reduced words keyed by their image of rho, type-A elements as one-line
permutations, affine elements as (finite key, coroot tuple) pairs.  The
benchmark maps the program's outputs onto these keys only through the
program's input path (``from_word`` on a reduced word built here).

Conventions are the standard ones the program documents: Cartan entry
``C[i][j] = <alpha_i^vee, alpha_j>`` in Bourbaki numbering (B_n: last node
short, C_n: last node long, G2: first node short); ``from_word((i1, .., ik))``
is ``s_{i1} ... s_{ik}``; affine elements are ``w t_lam``.
"""

from math import comb


def cartan_matrix(label: str) -> tuple:
    family, rank = label[0], int(label[1:])
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        c[i][i + 1] = c[i + 1][i] = -1
    if family == "B":
        c[rank - 1][rank - 2] = -2  # alpha_n short
    elif family == "C":
        c[rank - 2][rank - 1] = -2  # alpha_n long
    elif family == "G":
        c[0][1] = -3  # alpha_1 short
    elif family != "A":
        raise ValueError(f"no reference tables for {label}")
    return tuple(tuple(row) for row in c)


def _reflect(c, i: int, beta: tuple) -> tuple:
    p = sum(c[i][j] * beta[j] for j in range(len(beta)))
    return tuple(b - p * int(k == i) for k, b in enumerate(beta))


def _positive_roots(c) -> list:
    r = len(c)
    roots = {tuple(int(i == j) for j in range(r)) for i in range(r)}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for i in range(r):
            gamma = _reflect(c, i, beta)
            if gamma not in roots:
                roots.add(gamma)
                frontier.append(gamma)
    return sorted(a for a in roots if any(x > 0 for x in a))


class MiniWeyl:
    """A finite Weyl group as the orbit of rho, with reduced words and lengths."""

    def __init__(self, label: str):
        self.label = label
        self.cartan = c = cartan_matrix(label)
        self.rank = r = len(c)
        self.positive_roots = _positive_roots(c)
        # the coroots form the root system of the transposed Cartan matrix
        coroots = _positive_roots(tuple(zip(*c)))
        self.two_rho_vee = tuple(sum(col) for col in zip(*coroots))
        # breadth-first over w.rho (fundamental-weight coordinates); s_i w is
        # longer than w exactly when <alpha_i^vee, w rho> > 0
        rho = (1,) * r
        self.words = {rho: ()}
        layer = [rho]
        while layer:
            nxt = []
            for key in layer:
                for i in range(r):
                    if key[i] > 0:
                        new = tuple(key[k] - key[i] * c[k][i] for k in range(r))
                        if new not in self.words:
                            self.words[new] = (i,) + self.words[key]
                            nxt.append(new)
            layer = nxt
        self._neg = {}

    def reflect_root(self, i: int, beta: tuple) -> tuple:
        return _reflect(self.cartan, i, beta)

    def length(self, key) -> int:
        return len(self.words[key])

    def act_root(self, key, beta: tuple) -> tuple:
        for i in reversed(self.words[key]):
            beta = self.reflect_root(i, beta)
        return beta

    def sends_negative(self, key) -> frozenset:
        """Positive roots alpha with w alpha < 0."""
        neg = self._neg.get(key)
        if neg is None:
            neg = frozenset(a for a in self.positive_roots if not any(x > 0 for x in self.act_root(key, a)))
            self._neg[key] = neg
        return neg

    def pair(self, lam: tuple, alpha: tuple) -> int:
        """<lam, alpha> for lam in coroot and alpha in root coordinates."""
        c = self.cartan
        return sum(lam[i] * c[i][j] * alpha[j] for i in range(self.rank) for j in range(self.rank))

    def affine_length(self, key, lam: tuple) -> int:
        neg = self.sends_negative(key)
        return sum(abs(self.pair(lam, a) + (a in neg)) for a in self.positive_roots)

    def is_grassmannian(self, key, lam: tuple) -> bool:
        for i in range(self.rank):
            ai = tuple(int(j == i) for j in range(self.rank))
            p = self.pair(lam, ai)
            if p > 0 or (p == 0 and ai in self.sends_negative(key)):
                return False
        return True

    def in_parabolic_affine_quotient(self, key, lam: tuple, nodes) -> bool:
        """w t_lam in (W^P)_af: <lam, a> is 0 or -1 on R_P^+ as w a > 0 or < 0."""
        neg = self.sends_negative(key)
        for a in self.positive_roots:
            if all(c == 0 or i in nodes for i, c in enumerate(a)):
                if self.pair(lam, a) != (-1 if a in neg else 0):
                    return False
        return True


def scalar_terms_ok(terms: dict, degree: int) -> bool:
    """Mihalcea positivity and homogeneity: nonnegative integers, one degree."""
    return all(
        c == int(c) and c > 0 and sum(e) == degree for e, c in terms.items()
    )


# -- type A: permutations ------------------------------------------------------

def perm_from_word(word, n: int) -> tuple:
    p = list(range(1, n + 1))
    for i in word:
        p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def perm_from_root_images(images) -> tuple:
    """The permutation w of S_n from w(alpha_i) = e_{w(i)} - e_{w(i+1)}.

    ``images[i]`` is w(alpha_i) in simple-root coordinates.
    """
    p = []
    for v in images:
        nz = [k for k, c in enumerate(v) if c]
        lo, hi = nz[0] + 1, nz[-1] + 2
        first, second = (lo, hi) if v[nz[0]] > 0 else (hi, lo)
        if not p:
            p.append(first)
        p.append(second)
    return tuple(p)


def longest_perm(nodes, n: int) -> tuple:
    """The longest element of the parabolic subgroup on the 1-based nodes."""
    p = list(range(1, n + 1))
    nodes = sorted(nodes)
    k = 0
    while k < len(nodes):
        end = k
        while end + 1 < len(nodes) and nodes[end + 1] == nodes[end] + 1:
            end += 1
        lo, hi = nodes[k] - 1, nodes[end]  # s_i..s_m act on 0-based positions i-1..m
        p[lo:hi + 1] = reversed(p[lo:hi + 1])
        k = end + 1
    return tuple(p)


def inversions(p) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def all_perms(n: int) -> list:
    out = [()]
    for k in range(n):
        out = [q[:i] + (k + 1,) + q[i:] for q in out for i in range(k + 1)]
    return sorted(out)


def quantum_monk(p: tuple, k: int) -> dict:
    """sigma_{s_k} * sigma_p in QH^*(Fl_n) (Fomin-Gelfand-Postnikov).

    Keys (permutation, q-exponent over the n-1 nodes); k is 1-based.
    """
    n = len(p)
    lp = inversions(p)
    out = {}
    for a in range(1, k + 1):
        for b in range(k + 1, n + 1):
            q = list(p)
            q[a - 1], q[b - 1] = q[b - 1], q[a - 1]
            lq = inversions(q)
            if lq == lp + 1:
                key = (tuple(q), (0,) * (n - 1))
            elif lq == lp + 1 - 2 * (b - a):
                key = (tuple(q), tuple(int(a - 1 <= i <= b - 2) for i in range(n - 1)))
            else:
                continue
            out[key] = out.get(key, 0) + 1
    return out


def mahonian(n: int) -> list:
    """Number of permutations of n letters with each inversion count."""
    counts = [1]
    for m in range(1, n + 1):
        nxt = [0] * (len(counts) + m - 1)
        for i, c in enumerate(counts):
            for k in range(m):
                nxt[i + k] += c
        counts = nxt
    return counts


def grassmannian_count(n: int, j: int) -> int:
    return comb(n, j)


def affine_perm_length(word, n: int) -> int:
    """Length of s_{i1}...s_{ik} in the affine symmetric group (window notation)."""
    f = list(range(1, n + 1))
    for i in word:
        if i == 0:
            f[0], f[n - 1] = f[n - 1] - n, f[0] + n
        else:
            f[i - 1], f[i] = f[i], f[i - 1]
    return sum(abs((f[j] - f[i]) // n) for i in range(n) for j in range(i + 1, n))


# -- Lapointe-Morse ------------------------------------------------------------

def conjugate(parts) -> tuple:
    parts = [p for p in parts if p]
    return tuple(sum(1 for p in parts if p >= i) for i in range(1, (parts[0] if parts else 0) + 1))


def grassmannian_perm(mu, n: int, j: int) -> tuple:
    """The permutation with descent at j of a partition in the j x (n-j) box."""
    mu = list(mu) + [0] * (j - len(mu))
    head = [i + mu[j - i] for i in range(1, j + 1)]
    tail = [v for v in range(1, n + 1) if v not in head]
    return tuple(head + tail)


def lm_generator(m: int, n: int, j: int):
    """lm(h_[m]) = c_[m] = s_{j-m+1} ... s_j for m <= j, and 0 otherwise."""
    return perm_from_word(range(j - m, j), n) if m <= j else None


def lm_expected(parts, n: int, j: int):
    """Image of xi_lambda under the Lapointe-Morse map to QH^*(Gr(j, n)) at q = 1.

    Defined only for partitions whose largest hook is at most n - 1, where the
    k-Schur function is the Schur function s_lambda: it maps to sigma of the
    conjugate partition when that fits the j x (n-j) box, and to 0 otherwise
    (no n-rim hook can be removed).  Returns a permutation, None for 0, or
    raises for partitions outside that range.
    """
    parts = tuple(p for p in parts if p)
    if parts and parts[0] + len(parts) - 1 > n - 1:
        raise ValueError("hook too large for the Schur case")
    if parts and (parts[0] > j or len(parts) > n - j):
        return None
    return grassmannian_perm(conjugate(parts), n, j)


def lm_expected_hook(parts, n: int, j: int):
    """Image of xi_lambda for a hook lambda = (a, 1^b) of size n, a <= n - 1.

    These are the (n-1)-bounded partitions of size n beyond the Schur range.
    Their k-Schur function (k = n - 1) is s_(a,1^b) + s_(a+1,1^(b-1)).  After
    conjugation both terms are n-rim hooks of a and a + 1 rows; removing one
    (Bertram-Ciocan-Fontanine-Fulton) leaves q * sigma_empty with signs
    (-1)^(j-a) and (-1)^(j-a-1), and a shape with more than j rows maps to 0.
    So the two terms cancel for a < j, and only a = j leaves the identity
    class with coefficient 1.  Returns a permutation or None for 0.
    """
    parts = tuple(p for p in parts if p)
    if sum(parts) != n or any(p != 1 for p in parts[1:]) or not 1 <= parts[0] <= n - 1:
        raise ValueError("not a hook of size n below the n-th row")
    return grassmannian_perm((), n, j) if parts[0] == j else None


def bounded_partitions(n: int, max_size: int) -> list:
    """All (n-1)-bounded partitions of size 1..max_size."""
    out = []

    def rec(prefix, remaining, cap):
        if prefix:
            out.append(tuple(prefix))
        for p in range(min(cap, remaining), 0, -1):
            rec(prefix + [p], remaining - p, p)

    rec([], max_size, n - 1)
    return sorted(out, key=lambda t: (sum(t), t))


def quantum_bruhat_graph(n: int) -> dict:
    """Outgoing edges of the quantum Bruhat graph of S_n: perm -> [(perm, kind)]."""
    out = {}
    for p in all_perms(n):
        lp = inversions(p)
        out[p] = []
        for a in range(n):
            for b in range(a + 1, n):
                q = list(p)
                q[a], q[b] = q[b], q[a]
                lq = inversions(q)
                if lq == lp + 1:
                    out[p].append((tuple(q), "bruhat"))
                elif lq == lp + 1 - 2 * (b - a):
                    out[p].append((tuple(q), "quantum"))
    return out


def quantum_bruhat_edges(n: int) -> tuple:
    """(Bruhat, quantum) edge counts of the quantum Bruhat graph of S_n."""
    edges = [kind for es in quantum_bruhat_graph(n).values() for _, kind in es]
    return edges.count("bruhat"), edges.count("quantum")


def qbg_distances(n: int) -> dict:
    """Directed distances in the quantum Bruhat graph: u -> {w: d(u, w)}."""
    graph = quantum_bruhat_graph(n)
    out = {}
    for u in graph:
        dist = {u: 0}
        layer = [u]
        while layer:
            nxt = []
            for v in layer:
                for w, _ in graph[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            layer = nxt
        out[u] = dist
    return out
