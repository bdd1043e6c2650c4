"""The four benchmark workloads.

A workload builds its inputs from the seed alone, then offers

* ``setup()``: the program's own preparation, timed as ``setup_s``;
* ``prepare(state)``: untimed bookkeeping plus the checks on set-up output;
  returns a list of problems;
* ``caches(state)``: the program's cache dicts, truncated back to their
  post-set-up size before every round so that every round does the same work;
* ``round_ops(state, rng)``: one round of operations.  An op's ``call`` runs
  the program and is the only part timed; its ``check`` (untimed) returns
  ``None``, ``("failed", why)`` or ``("wrong", why)``.

The program is reached only through module attributes (``q.quantum.
product_basis``), so the traced run's wrappers see every call.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import resource
import traceback
from random import Random
from time import process_time

import oracles as O


def cpu_clock() -> float:
    """CPU seconds of this process plus its finished children.

    Operations and set-ups are timed on this clock, so time the host gives
    to other tenants is not counted; on an idle host it matches wall time for
    this single-threaded program.  Child processes run one at a time.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


class Op:
    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


def _wrong(msg):
    return ("wrong", msg)


def _deep(mw, k: int) -> tuple:
    """The antidominant coroot -k * 2 rho^vee: every positive root pairs to <= -2k."""
    return tuple(-k * c for c in mw.two_rho_vee)


def _const(terms: dict, rank: int):
    return terms.get((0,) * rank, 0)


def _lut(q, rs, mw) -> dict:
    """Program element -> reference key, built through the input path from_word."""
    return {q.weyl.from_word(rs, word): key for key, word in mw.words.items()}


class QuantumProducts:
    """Equivariant products sigma^u sigma^v in QH_T(G/B)."""

    name = "quantum-products"
    # (type, longest factor used; None = all of W).  B3, C3 and G2 carry
    # rational Schubert-polynomial coefficients from length 3 (C3: 2) on.
    TYPES = (("A3", None), ("B3", 4), ("C3", 4), ("G2", None))

    def __init__(self, q, rng):
        self.q = q
        self.mini = {lbl: O.MiniWeyl(lbl) for lbl, _ in self.TYPES}
        self.pairs = []
        self.factors = {}
        for lbl, maxlen in self.TYPES:
            mw = self.mini[lbl]
            keys = sorted((k for k in mw.words if maxlen is None or mw.length(k) <= maxlen),
                          key=lambda k: (mw.length(k), mw.words[k]))
            self.factors[lbl] = keys
            if maxlen is None and lbl == "A3":
                pairs = [(a, b) for a in keys for b in keys]
            else:
                partner = keys[:]
                rng.shuffle(partner)
                pairs = sorted({p for a, b in zip(keys, partner) for p in ((a, b), (b, a))})
            self.pairs += [(lbl, a, b) for a, b in pairs]

    def setup(self):
        q = self.q
        state = {}
        for lbl, _ in self.TYPES:
            rs = q.cartan.build(lbl)
            q.weyl.enumerate_weyl(rs)
            elts = {k: q.weyl.from_word(rs, self.mini[lbl].words[k]) for k in self.factors[lbl]}
            for w in elts.values():
                q.quantum.schubert_poly(rs, w)
            state[lbl] = (rs, elts)
        return state

    def prepare(self, state):
        self.lut = {lbl: _lut(self.q, rs, self.mini[lbl]) for lbl, (rs, _) in state.items()}
        n = self.mini["A3"].rank + 1
        self.perm = {k: O.perm_from_word(w, n) for k, w in self.mini["A3"].words.items()}
        return []

    def caches(self, state):
        return [rs._cache for rs, _ in state.values()]

    def round_ops(self, state, rng):
        results = {}
        order = self.pairs[:]
        rng.shuffle(order)
        ops = []
        for lbl, a, b in order:
            rs, elts = state[lbl]
            call = (lambda rs=rs, u=elts[a], v=elts[b]: self.q.quantum.product_basis(rs, u, v))
            ops.append(Op(f"{lbl} {a}*{b}", call, self._checker(lbl, a, b, results)))
        return ops

    def _checker(self, lbl, a, b, results):
        mw, lut = self.mini[lbl], self.lut[lbl]

        def check(res):
            results[(lbl, a, b)] = res
            base = mw.length(a) + mw.length(b)
            for (w, qexp), c in res.items():
                key = lut.get(w)
                if key is None or any(e < 0 for e in qexp):
                    return _wrong(f"{lbl} {a}*{b}: bad term {w!r} q{qexp}")
                if not O.scalar_terms_ok(c.terms, base - mw.length(key) - 2 * sum(qexp)):
                    return _wrong(f"{lbl} {a}*{b}: coefficient {c} not positive of the right degree")
            other = results.get((lbl, b, a))
            if other is not None and other != res:
                return _wrong(f"{lbl} {a}*{b}: product not commutative")
            if lbl == "A3" and 1 in (mw.length(a), mw.length(b)):
                div, rest = (a, b) if mw.length(a) == 1 else (b, a)
                got = {(self.perm[lut[w]], qe): _const(c.terms, mw.rank) for (w, qe), c in res.items()}
                got = {k: v for k, v in got.items() if v}
                if got != O.quantum_monk(self.perm[rest], mw.words[div][0] + 1):
                    return _wrong(f"A3 {a}*{b}: disagrees with the quantum Monk rule")
            return None

        return check


class AffineJclasses:
    """Homology products xi_x xi_z in H^T_*(Gr_G), both orders, via j-classes."""

    name = "affine-jclasses"
    # (type, longest finite part of a deep element, longest short element,
    #  longest finite part of a short element): the j-class of an element
    # costs steeply more with the length of its finite part
    TYPES = (("B2", 4, 5, 4), ("G2", 3, 6, 3), ("A3", 2, 6, 1))

    def __init__(self, q, rng):
        self.q = q
        self.mini = {}
        self.pool = {}  # type -> list of ("deep", key, coroot) | ("short", affine word)
        self.pairs = []
        for lbl, fdeep, lshort, fshort in self.TYPES:
            mw = self.mini[lbl] = O.MiniWeyl(lbl)
            order = len(mw.words)
            # margins well past 2|W| + 2 plus four pairing units per operator step
            lam = _deep(mw, order + 26 + rng.randrange(8))
            mu = _deep(mw, order + 40 + rng.randrange(8))
            deep = [k for k in mw.words if mw.length(k) <= fdeep]
            deep.sort(key=lambda k: (mw.length(k), mw.words[k]))
            if lbl == "A3":
                # s_i t_lam against w t_mu: the quantum Monk oracle applies
                simple = [k for k in deep if mw.length(k) == 1]
                pool = [("deep", k, lam) for k in simple] + [("deep", k, mu) for k in deep]
                monk = [(simple.index(s), len(simple) + deep.index(w)) for s in simple for w in deep]
            else:
                pool = [("deep", k, lam) for k in deep]
                monk = []
            pool += [("short", word) for word in self._short_words(q.cartan.build(lbl), mw, lshort, fshort)]
            self.pool[lbl] = pool
            # every element is the left factor of exactly two seeded products,
            # so each round computes every j-class once and reuses it the same
            # number of times whatever the seed
            partner = list(range(len(pool)))
            rng.shuffle(partner)
            pairs = [p for i, j in enumerate(partner) for p in ((i, j), (j, i))]
            pairs += [p for i, j in monk for p in ((i, j), (j, i))]
            monk = set(monk)
            self.pairs += [(lbl, i, j, (i, j) in monk or (j, i) in monk) for i, j in pairs]

    def _short_words(self, rs, mw, maxlen, maxfinite):
        """Reduced words of the Grassmannian elements of length <= maxlen whose
        finite part is short; these lack superregular margin (kappa-shift path)."""
        lut = _lut(self.q, rs, mw)
        out, seen, layer = [], set(), [()]
        for _ in range(maxlen):
            nxt = []
            for word in layer:
                for i in range(mw.rank + 1):
                    w2 = (i,) + word
                    x = self.q.weyl.affine_from_word(rs, w2)
                    key = lut[x.w]
                    if x in seen or mw.affine_length(key, x.t) != len(w2) or not mw.is_grassmannian(key, x.t):
                        continue
                    seen.add(x)
                    nxt.append(w2)
                    if mw.length(key) <= maxfinite:
                        out.append(w2)
            layer = nxt
        return out

    def setup(self):
        q = self.q
        state = {}
        for lbl, *_ in self.TYPES:
            mw = self.mini[lbl]
            rs = q.cartan.build(lbl)
            for w in q.weyl.enumerate_weyl(rs):
                q.quantum.schubert_poly(rs, w)
            elts = []
            for item in self.pool[lbl]:
                if item[0] == "deep":
                    elts.append(q.weyl.AffineElt(q.weyl.from_word(rs, mw.words[item[1]]), item[2]))
                else:
                    elts.append(q.weyl.affine_from_word(rs, item[1]))
            state[lbl] = (rs, elts)
        return state

    def prepare(self, state):
        problems = []
        self.lut, self.keys = {}, {}
        for lbl, (rs, elts) in state.items():
            mw = self.mini[lbl]
            lut = self.lut[lbl] = _lut(self.q, rs, mw)
            keys = self.keys[lbl] = [(lut[x.w], x.t) for x in elts]
            for (key, t), item in zip(keys, self.pool[lbl]):
                if not mw.is_grassmannian(key, t):
                    problems.append(f"{lbl}: input {item} is not Grassmannian")
        self.perm = {k: O.perm_from_word(w, 4) for k, w in self.mini["A3"].words.items()}
        return problems

    def caches(self, state):
        return [rs._cache for rs, _ in state.values()]

    def round_ops(self, state, rng):
        results = {}
        order = self.pairs[:]
        rng.shuffle(order)
        ops = []
        for lbl, i, j, monk in order:
            rs, elts = state[lbl]
            call = (lambda rs=rs, x=elts[i], z=elts[j]: self.q.peterson.hom_product_basis(rs, x, z))
            ops.append(Op(f"{lbl} x{i}*x{j}", call, self._checker(lbl, i, j, monk, results)))
        return ops

    def _checker(self, lbl, i, j, monk, results):
        mw, lut = self.mini[lbl], self.lut[lbl]
        (kx, tx), (kz, tz) = self.keys[lbl][i], self.keys[lbl][j]
        base = mw.affine_length(kx, tx) + mw.affine_length(kz, tz)

        def check(res):
            results[(lbl, i, j)] = res
            for y, c in res.items():
                key = lut.get(y.w)
                if key is None or not mw.is_grassmannian(key, y.t):
                    return _wrong(f"{lbl} x{i}*x{j}: term {y!r} is not Grassmannian")
                if not O.scalar_terms_ok(c.terms, mw.affine_length(key, y.t) - base):
                    return _wrong(f"{lbl} x{i}*x{j}: coefficient {c} not positive of the right degree")
            other = results.get((lbl, j, i))
            if other is not None and other != res:
                return _wrong(f"{lbl} x{i}*x{j}: product not commutative")
            if monk:
                (ks, ts), (kw, tw) = sorted([(kx, tx), (kz, tz)], key=lambda kt: mw.length(kt[0]) != 1)
                want = {(p, tuple(a + b + e for a, b, e in zip(ts, tw, qe))): c
                        for (p, qe), c in O.quantum_monk(self.perm[kw], mw.words[ks][0] + 1).items()}
                got = {(self.perm[lut[y.w]], y.t): _const(c.terms, mw.rank) for y, c in res.items()}
                if {k: v for k, v in got.items() if v} != want:
                    return _wrong(f"A3 x{i}*x{j}: disagrees with the quantum Monk rule")
            return None

        return check


class BruhatParabolic:
    """Combinatorics without coefficient arithmetic: Lapointe-Morse, tilted
    orders, pi_P by two routes."""

    name = "bruhat-parabolic"
    LM_N = (5, 6, 7)
    PI_P = (("A3", (1, 2)), ("B3", (1, 2)), ("C3", (1, 2)), ("A4", (0, 2, 3)), ("G2", (0,)))
    PI_P_PER_TYPE = 12
    TILTED_A3 = 40
    TILTED_A3_REACH = 2  # QBG distance bound from u; far pairs have many geodesics
    # the pi_P translations of one type form one operation: single ones cost
    # 1-3 ms and their seeded mix moved the median by 25 % between seeds

    def __init__(self, q, rng):
        self.q = q
        # Inputs are drawn per class so every seed gets the same mix of cheap
        # early-exit images and full scans of W^P (images that are 0).
        self.lm = []  # (n, j, partition, kind)
        for n in self.LM_N:
            parts = O.bounded_partitions(n, 6)
            for j in range(1, n):
                rows = [(j,)] + ([(rng.randint(j + 1, n - 1),)] if j < n - 1 else [])
                self.lm += [(n, j, row, "row") for row in rows]  # image c_[j], then 0
                # a fixed size keeps the scan for a nonzero image equally long
                # (a zero image scans all of W^P); the row inputs are left out,
                # since the program caches images
                for sizes, zero in (((3,), False), ((4, 5), True)):
                    pool = [p for p in parts if sum(p) in sizes and p not in rows and p[0] + len(p) <= n
                            and (O.lm_expected(p, n, j) is None) == zero]
                    self.lm.append((n, j, rng.choice(pool), "schur"))
                if n == self.LM_N[0]:  # beyond the Schur range: the hooks of size n
                    self.lm.append((n, j, rng.choice([p for p in parts if sum(p) == n and p[0] + len(p) > n]),
                                    "hook"))
        self.mini = {lbl: O.MiniWeyl(lbl) for lbl in ("A3", "B3", "C3", "A4", "G2")}
        self.pip = [(lbl, nodes, [tuple(rng.randint(-3, 3) for _ in range(self.mini[lbl].rank))
                                  for _ in range(self.PI_P_PER_TYPE)])
                    for lbl, nodes in self.PI_P]
        # The A3 triples are the same for every seed: the cost of bruhat_leq
        # on their endpoints ranges over 10x (it may walk the whole length of
        # t_lam), and seeded triples moved the 90th percentile by 30 %.
        # Half of them compare true.
        a3 = self.mini["A3"]
        key_of = {O.perm_from_word(w, 4): k for k, w in a3.words.items()}
        dist = O.qbg_distances(4)
        self.tilted_a3 = []
        fixed = Random(0)
        for want in (True, False) * (self.TILTED_A3 // 2):
            while True:
                u = fixed.choice(sorted(dist))
                near = sorted(p for p, d in dist[u].items() if d <= self.TILTED_A3_REACH)
                w, v = fixed.choice(near), fixed.choice(near)
                if (dist[u][w] + dist[w][v] == dist[u][v]) == want:
                    break
            self.tilted_a3.append((key_of[u], key_of[w], key_of[v], want))
        self.a3_lam = _deep(a3, len(a3.words) + 24)

    def setup(self):
        q = self.q
        state = {"lm": {}, "pip": {}}
        for n in self.LM_N:
            rs = q.cartan.build(f"A{n - 1}")
            q.weyl.enumerate_weyl(rs)
            for j in range(1, n):
                pd = q.parabolic.build_parabolic(rs, [k for k in range(n - 1) if k != j - 1])
                pd.minimal_reps()
                state["lm"][(n, j)] = (rs, pd)
        for lbl, nodes in self.PI_P:
            rs = state.get(lbl) or q.cartan.build(lbl)
            state[lbl] = rs
            state["pip"][lbl] = q.parabolic.build_parabolic(rs, nodes)
        for lbl in ("G2", "A3"):
            q.qbruhat.build_qbg(state[lbl])
        return state

    def prepare(self, state):
        problems = []
        for (n, j), (rs, pd) in state["lm"].items():
            if len(pd.minimal_reps()) != O.grassmannian_count(n, j):
                problems.append(f"|W^P| for n={n} j={j} is {len(pd.minimal_reps())}")
        for n in self.LM_N:
            rs = state["lm"][(n, 1)][0]
            hist = [0] * (n * (n - 1) // 2 + 1)
            for w in self.q.weyl.enumerate_weyl(rs):
                hist[w.length()] += 1
            if hist != O.mahonian(n):
                problems.append(f"length counts of W(A{n - 1}) are not Mahonian")
        self.lut = {lbl: _lut(self.q, state[lbl], mw) for lbl, mw in self.mini.items()}
        elt = {key: w for w, key in self.lut["A3"].items()}
        triples = [(elt[u], elt[w], elt[v], want) for u, w, v, want in self.tilted_a3]
        self.a3_triples = triples
        self.g2_w0 = max(self.lut["G2"], key=lambda w: self.mini["G2"].length(self.lut["G2"][w]))
        return problems

    def caches(self, state):
        out = [pd._cache for _, pd in state["lm"].values()] + [pd._cache for pd in state["pip"].values()]
        rss = {id(rs): rs for rs, _ in state["lm"].values()}
        rss.update((id(state[lbl]), state[lbl]) for lbl in self.mini)
        out += [rs._cache for rs in rss.values()]
        for lbl in ("G2", "A3"):
            out.append(self.q.qbruhat.build_qbg(state[lbl])._dist)
        return out

    def round_ops(self, state, rng):
        q = self.q
        ops = []
        for n, j, parts, kind in self.lm:
            rs, pd = state["lm"][(n, j)]
            call = (lambda rs=rs, pd=pd, parts=parts, n=n:
                    q.parabolic.lm_map(pd, {q.parabolic.partition_to_affine(rs, parts, n): 1}))
            ops.append(Op(f"lm n={n} j={j} {parts}", call, self._lm_check(n, j, parts, kind)))
        for lbl, nodes, lams in self.pip:
            rs, pd = state[lbl], state["pip"][lbl]
            call = (lambda rs=rs, pd=pd, lams=lams:
                    [(q.parabolic.pi_P(pd, q.weyl.translation(rs, lam)), q.parabolic.pi_P_translation(pd, lam))
                     for lam in lams])
            ops.append(Op(f"pi_P {lbl}", call, self._pip_check(lbl, nodes, lams)))
        g2, a3 = state["G2"], state["A3"]
        ops.append(Op("tilted G2 w0", (lambda: q.qbruhat.verify_tilted_embedding(g2, self.g2_w0)),
                      self._tilted_check(len(self.mini["G2"].words) ** 2)))
        for n, (u, w, v, want) in enumerate(self.a3_triples):
            ops.append(Op(f"tilted A3 triple {n}", (lambda u=u, w=w, v=v: self._compare(a3, u, w, v)),
                          lambda res, want=want: None if res == (want, want) else _wrong(f"tilted order {res}")))
        rng.shuffle(ops)
        return ops

    def _compare(self, rs, u, w, v):
        """w <=_u v in the tilted order against x(u,v) <= x(u,w) in the affine order."""
        qb = self.q.qbruhat
        g = qb.build_qbg(rs)
        xv = qb.endpoint_for_pair(g, u, v, self.a3_lam)
        xw = qb.endpoint_for_pair(g, u, w, self.a3_lam)
        return qb.tilted_leq(g, u, w, v), self.q.weyl.bruhat_leq(xv, xw)

    @staticmethod
    def _tilted_check(count):
        def check(rep):
            if not rep["ok"] or rep["comparisons"] != count:
                return _wrong(f"tilted embedding report {rep['ok']} after {rep['comparisons']} comparisons")
            return None

        return check

    @staticmethod
    def _lm_check(n, j, parts, kind):
        def check(res):
            got = {}
            for w, c in res.items():
                images = [w.act_root(tuple(int(k == i) for k in range(n - 1))) for i in range(n - 1)]
                got[O.perm_from_root_images(images)] = c
            want = {"row": O.lm_generator, "schur": O.lm_expected, "hook": O.lm_expected_hook}[kind](
                parts[0] if kind == "row" else parts, n, j)
            if got != ({want: 1} if want else {}):
                return _wrong(f"lm n={n} j={j} {parts}: got {got}, want {want}")
            return None

        return check

    def _pip_check(self, lbl, nodes, lams):
        mw = self.mini[lbl]
        identity = (1,) * mw.rank  # the key of the identity: rho itself

        def check(res):
            for lam, (strip, closed) in zip(lams, res):
                if strip != closed:
                    return _wrong(f"pi_P {lbl} {lam}: stripping {strip!r} != closed form {closed!r}")
                key, t = self.lut[lbl][strip.w], strip.t
                if (not mw.in_parabolic_affine_quotient(key, t, nodes)
                        or any(t[i] != lam[i] for i in range(mw.rank) if i not in nodes)
                        or mw.affine_length(key, t) > mw.affine_length(identity, lam)):
                    return _wrong(f"pi_P {lbl} {lam}: {strip!r} is not the (W^P)_af factor")
            return None

        return check


# -- cli-oneshot ---------------------------------------------------------------

def _rootsys_b3(out):
    mw = O.MiniWeyl("B3")
    d = json.loads(out)
    theta = max(mw.positive_roots, key=sum)
    return (d["cartan_matrix"] == [list(r) for r in mw.cartan]
            and sorted(map(tuple, d["positive_roots"])) == mw.positive_roots
            and tuple(d["theta"]) == theta and d["marks"] == [1, *theta]
            and d["weyl_order"] == len(mw.words) and d["num_positive_roots"] == len(mw.positive_roots))


def _qbg_a2(out):
    lines = out.splitlines()
    nb, nq = O.quantum_bruhat_edges(3)
    return (sum(1 for ln in lines if ln.strip().endswith('";') and "->" not in ln) == 6
            and sum("style=solid" in ln for ln in lines) == nb and sum("style=dashed" in ln for ln in lines) == nq)


def _word_perm(text, n):
    return O.perm_from_word([int(t.lstrip("rs")) - 1 for t in text.split()] if text != "id" else [], n)


def _pw_lift_a3(out):
    # Peterson-Woodward: lam_B lifts the coset and pairs to 0 or -1 on R_P^+;
    # I_P' holds the nodes of I_P where it pairs to 0, and v = w_P w_P'
    mw = O.MiniWeyl("A3")
    d = json.loads(out)
    lam = tuple(int(c) for c in d["lam_B"].split(","))
    rp = [a for a in mw.positive_roots if a[0] == 0]
    ipp = [i + 1 for i in (1, 2) if mw.pair(lam, tuple(int(k == i) for k in range(3))) == 0]
    w_p, w_pp = O.longest_perm((2, 3), 4), O.longest_perm(ipp, 4)
    v = tuple(w_p[i - 1] for i in w_pp)
    return (lam[0] == -1 and all(mw.pair(lam, a) in (0, -1) for a in rp)
            and d["I_P'"] == ipp and _word_perm(d["v"], 4) == v)


def _strange_dual(out):
    # w = s1 s2 in Gr(2,4): q^{-delta(w)} sigma^{pi_P(w_P w)} with delta = 1 and
    # pi_P(s1 s3 s1 s2) = s3 s2
    d = json.loads(out)
    (key, coeff), = d.items()
    word, qpart = key.strip("()").split(",")
    return coeff == "1" and qpart == "q^-1" and _word_perm(word, 4) == O.perm_from_word((2, 1), 4)


CLI_COMMANDS = (
    (["rootsys", "show", "--type", "B3"], _rootsys_b3),
    (["weyl", "length", "--type", "A2", "--word", "0 1 2"],
     lambda out: json.loads(out)["length"] == O.affine_perm_length((0, 1, 2), 3)),
    (["qbg", "export", "--type", "A2", "--dot"], _qbg_a2),
    # sigma_{s1}^2 = a1 sigma_{s1} + q1 in QH_T(P^1)
    (["qh", "product", "--type", "A1", "--u", "s1", "--v", "s1", "--equivariant"],
     lambda out: json.loads(out) == {"(s1,)": "a1", "(id,q1)": "1"}),
    # xi_{r0}^2 = xi_{r1 r0} = xi_{t_{-alpha^vee}} in H_*(Gr_{SL2})
    (["gr", "product", "--type", "A1", "--x", "0", "--z", "0"],
     lambda out: json.loads(out) == {"denominator": [0], "product": {json.dumps({"t": [-1], "w": "id"}): 1}}),
    # the paper's worked example pi_P(t_{-alpha_1^vee}) in B3, I_P = {2, 3}
    (["pi-p", "--type", "B3", "--ip", "2,3", "--coroot", "-1,0,0"],
     lambda out: json.loads(out) == {"w": "r2 r3 r2", "t": "-1,-2,-1"}),
    (["pw-lift", "--type", "A3", "--ip", "2,3", "--coset", "-1"], _pw_lift_a3),
    (["strange-dual", "--n", "4", "--j", "2", "--w", "s1 s2"], _strange_dual),
)
# malformed invocations: the correct outcome is exit 2 with a one-line message
CLI_MALFORMED = (
    ["qh", "product", "--type", "A2", "--u", "s9", "--v", "s1"],
    ["weyl", "length", "--type", "A2", "--word", "0 1 7"],
    ["gr", "j-class", "--type", "A1", "--w", "s1", "--t", "-1"],
)
IMPORTS = 15


class CliOneshot:
    """Sequential one-shot ``python -m qaffine.cli`` processes, cold caches each."""

    name = "cli-oneshot"

    def __init__(self, q, rng, src: str, inprocess: bool = False):
        self.q = q
        self.inprocess = inprocess
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        self.rootsystems = []

    def _child(self, code: str) -> tuple:
        """(CPU seconds, stdout) of a fresh interpreter running ``code``."""
        t0 = cpu_clock()
        proc = subprocess.run([sys.executable, "-c", code], env=self.env, capture_output=True, text=True,
                              timeout=60, check=True)
        return cpu_clock() - t0, proc.stdout

    def setup(self):
        """Median CPU time of a fresh interpreter importing qaffine.cli."""
        self._child("import qaffine.cli")  # writes the bytecode cache once
        times = sorted(self._child("import qaffine.cli")[0] for _ in range(IMPORTS))
        return {"import_s": times[len(times) // 2]}

    def import_seconds(self) -> float:
        """Median in-interpreter seconds to import qaffine.cli (no interpreter start)."""
        code = "import time; t = time.process_time(); import qaffine.cli; print(time.process_time() - t)"
        times = sorted(float(self._child(code)[1]) for _ in range(IMPORTS))
        return times[len(times) // 2]

    def prepare(self, state):
        return []

    def caches(self, state):
        return []

    def _run(self, argv):
        if not self.inprocess:
            proc = subprocess.run([sys.executable, "-m", "qaffine.cli", *argv], env=self.env,
                                  capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.q.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error ends a one-shot run with a traceback
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def round_ops(self, state, rng):
        ops = [Op(" ".join(argv), (lambda argv=argv: self._run(argv)), self._valid_check(argv, oracle))
               for argv, oracle in CLI_COMMANDS]
        ops += [Op(" ".join(argv), (lambda argv=argv: self._run(argv)), self._malformed_check(argv))
                for argv in CLI_MALFORMED]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _valid_check(argv, oracle):
        def check(res):
            code, out, err = res
            if code != 0:
                return ("failed", f"{argv}: exit {code}: {err.strip()[-200:]}")
            try:
                ok = oracle(out)
            except (ValueError, KeyError, TypeError) as exc:
                ok = False
                out = f"{out!r} ({exc})"
            return None if ok else _wrong(f"{argv}: unexpected output {out[:300]}")

        return check

    @staticmethod
    def _malformed_check(argv):
        def check(res):
            code, _out, err = res
            lines = err.strip().splitlines()
            if code == 2 and len(lines) == 1 and lines[0].startswith("error:"):
                return None
            return ("failed", f"{argv}: exit {code} with {len(lines)} stderr lines")

        return check


WORKLOADS = {w.name: w for w in (QuantumProducts, AffineJclasses, BruhatParabolic, CliOneshot)}
