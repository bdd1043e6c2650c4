"""Command-line surface: computations, graph exports, verification suites.

Elements are written as reduced words ("r2 r3", "s1", "0 6 2 1 0"; "id" for
the identity) plus coroot coordinate lists like "-1,0,0".  Output is
machine-first JSON on stdout (DOT only for `qbg export --dot`); identical
invocations produce byte-identical output.  Exit codes: 0 success, 1
verification failure, 2 argument errors (a malformed or out-of-range
element, or a translation without the superregularity margin the
computation needs); an exit 2 prints one ``error:`` line on stderr.  Each
command imports only the layers it uses.
"""

import argparse
import json
import sys

from . import cartan
from .weyl import (
    AffineElt,
    affine_from_word,
    cocovers,
    from_word,
    is_grassmannian,
    length,
    serialize,
)


def _integer(tok: str, text: str) -> int:
    """int(tok), or a ValueError naming the token and the text it came from."""
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"{tok!r} in {text!r} is not an integer") from None


def _parse_word(text: str):
    text = text.strip()
    if not text or text == "id":
        return ()
    out = []
    for tok in text.replace(",", " ").split():
        if tok[0] in "rs":
            tok = tok[1:]
        out.append(_integer(tok, text))
    return tuple(out)


def _parse_coroot(text: str, size: int | None = None):
    vec = tuple(_integer(t, text) for t in text.split(","))
    if size is not None and len(vec) != size:
        raise ValueError(f"{text!r} has {len(vec)} coordinates, expected {size}")
    return vec


def _checked_word(rs, text, lowest: int):
    """A parsed word whose letters must lie in lowest..rank."""
    word = _parse_word(text)
    bad = [i for i in word if not lowest <= i <= rs.rank]
    if bad:
        raise ValueError(f"letter {bad[0]} in {text!r} is outside {lowest}..{rs.rank} for {rs.label}")
    return word


def _finite_elt(rs, text):
    return from_word(rs, tuple(i - 1 for i in _checked_word(rs, text, 1)))


def _affine_word_elt(rs, text):
    return affine_from_word(rs, _checked_word(rs, text, 0))


def _affine_elt(rs, args):
    if getattr(args, "word", None):
        return _affine_word_elt(rs, args.word)
    w = _finite_elt(rs, args.w or "id")
    t = _parse_coroot(args.t, rs.rank) if getattr(args, "t", None) else rs.zero_coroot()
    return AffineElt(w, t)


def _qh_json(cls):
    from .coeffring import q_str

    out = {}
    for (w, q), c in cls.items():
        out[f"({w!r},{q_str(q)})"] = str(c)
    return out


def _emit(obj):
    print(json.dumps(obj, sort_keys=True, indent=None, separators=(", ", ": ")))


def _merge_negative_values(argv):
    """Join '--flag -1,0,0' into '--flag=-1,0,0' so argparse accepts it."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok.startswith("--")
            and "=" not in tok
            and nxt is not None
            and nxt.startswith("-")
            and any(ch.isdigit() for ch in nxt)
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # here and in every subparser: one error: line, exit 2
        self.exit(2, f"error: {message}\n")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    p = _Parser(
        prog="qaffine",
        description=__doc__,
        epilog=(
            "element grammar: finite Weyl words are space-separated letters "
            "'s1 s2', 'r1 r2' or '1 2' (1-based); affine words may use the "
            "letter 0 for the affine node, e.g. '0 6 2 1 0'; 'id' is the "
            "identity; coroot coordinates and exponents are comma lists like "
            "'-1,0,0'."
        ),
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("rootsys", help="root system tables")
    sps = sp.add_subparsers(dest="sub", required=True)
    q = sps.add_parser("show")
    q.add_argument("--type", required=True)

    sp = sub.add_parser("weyl", help="affine Weyl group computations")
    sps = sp.add_subparsers(dest="sub", required=True)
    for name in ("length", "covers", "grassmannian"):
        q = sps.add_parser(name)
        q.add_argument("--type", required=True)
        q.add_argument("--word", help="reduced word over I_af, e.g. '0 1 2'")
        q.add_argument("--w", help="finite reduced word, e.g. 'r1 r2'")
        q.add_argument("--t", help="coroot coordinates, e.g. '-1,0'")

    sp = sub.add_parser("qbg", help="quantum Bruhat graph")
    sps = sp.add_subparsers(dest="sub", required=True)
    q = sps.add_parser("export")
    q.add_argument("--type", required=True)
    q.add_argument("--dot", action="store_true")
    q = sps.add_parser("tilted")
    q.add_argument("--type", required=True)
    q.add_argument("--u", required=True)
    q.add_argument("--w", required=True)
    q.add_argument("--v", required=True)

    sp = sub.add_parser("qh", help="quantum cohomology of G/B")
    sps = sp.add_subparsers(dest="sub", required=True)
    q = sps.add_parser("product")
    q.add_argument("--type", required=True)
    q.add_argument("--u", required=True)
    q.add_argument("--v", required=True)
    q.add_argument("--equivariant", action="store_true")
    q = sps.add_parser("schubert-poly")
    q.add_argument("--type", required=True)
    q.add_argument("--w", required=True)
    q = sps.add_parser("gw")
    q.add_argument("--type", required=True)
    q.add_argument("--u", required=True)
    q.add_argument("--v", required=True)
    q.add_argument("--w", required=True)
    q.add_argument("--qexp", required=True)

    sp = sub.add_parser("gr", help="homology of the affine Grassmannian")
    sps = sp.add_subparsers(dest="sub", required=True)
    q = sps.add_parser("product")
    q.add_argument("--type", required=True)
    q.add_argument("--x", required=True, help="affine reduced word")
    q.add_argument("--z", required=True)
    q.add_argument("--equivariant", action="store_true")
    q = sps.add_parser("j-class")
    q.add_argument("--type", required=True)
    q.add_argument("--w")
    q.add_argument("--t")
    q.add_argument("--word")
    q = sps.add_parser("pieri0")
    q.add_argument("--type", required=True)
    q.add_argument("--x", required=True)

    q = sub.add_parser("pi-p")
    q.add_argument("--type", required=True)
    q.add_argument("--ip", required=True, help="parabolic nodes, 1-based, e.g. 2,3")
    q.add_argument("--coroot", required=True)

    q = sub.add_parser("pw-lift")
    q.add_argument("--type", required=True)
    q.add_argument("--ip", required=True)
    q.add_argument("--coset", required=True, help="q-exponents over the free nodes")

    q = sub.add_parser("strange-dual")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--j", type=int, required=True)
    q.add_argument("--w", required=True)

    q = sub.add_parser("lm-map")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--j", type=int, required=True)
    q.add_argument("--partition", required=True)

    q = sub.add_parser("verify")
    q.add_argument("suite", help="suite name; an unknown one lists the suites")
    q.add_argument("--type", help="restrict to one root-system type where supported")
    q.add_argument("--qdeg", type=int, help="bound on <lambda, 2 rho> for the comparison sweep")

    args = p.parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _grassmannian(n: int, j: int):
    """A_{n-1} and the maximal parabolic of Gr(j, n): I_P leaves out node j."""
    from .parabolic import build_parabolic

    if not 2 <= n <= 9:
        raise ValueError(f"n must lie in 2..9, got n = {n}")
    rs = cartan.build(f"A{n - 1}")
    if not 1 <= j <= n - 1:
        raise ValueError(f"j must lie in 1..n-1, got j = {j} with n = {n}")
    return rs, build_parabolic(rs, [k for k in range(n - 1) if k != j - 1])


def _dispatch(args) -> int:
    if args.cmd == "rootsys":
        rs = cartan.build(args.type)
        _emit(cartan.to_json_dict(rs))
        return 0

    if args.cmd == "weyl":
        rs = cartan.build(args.type)
        x = _affine_elt(rs, args)
        if args.sub == "length":
            _emit({"element": serialize(x), "length": length(x)})
        elif args.sub == "grassmannian":
            _emit({"element": serialize(x), "grassmannian": is_grassmannian(x)})
        else:
            recs = cocovers(x)
            _emit(
                {
                    "element": serialize(x),
                    "cocovers": sorted(
                        (
                            {
                                "target": serialize(c.target),
                                "root": {"finite": list(c.reflection_root.finite), "level": c.reflection_root.level},
                            }
                            for c in recs
                        ),
                        key=lambda d: json.dumps(d, sort_keys=True),
                    ),
                }
            )
        return 0

    if args.cmd == "qbg":
        from .qbruhat import build_qbg, tilted_distance, tilted_leq, to_dot, to_json_dict

        rs = cartan.build(args.type)
        g = build_qbg(rs)
        if args.sub == "export":
            if args.dot:
                print(to_dot(g))
            else:
                _emit(to_json_dict(g))
            return 0
        u = _finite_elt(rs, args.u)
        w = _finite_elt(rs, args.w)
        v = _finite_elt(rs, args.v)
        _emit(
            {
                "tilted_leq": tilted_leq(g, u, w, v),
                "d(u,w)": tilted_distance(g, u, w),
                "d(u,v)": tilted_distance(g, u, v),
            }
        )
        return 0

    if args.cmd == "qh":
        from .coeffring import q_str
        from .quantum import gw_coefficient, product_basis, schubert_poly

        rs = cartan.build(args.type)
        if args.sub == "product":
            u = _finite_elt(rs, args.u)
            v = _finite_elt(rs, args.v)
            prod = product_basis(rs, u, v)
            if not args.equivariant:
                prod = {k: c for k, c in ((k, v2.eval_zero()) for k, v2 in prod.items()) if c}
                _emit({f"({w!r},{q_str(q)})": str(c) for (w, q), c in prod.items()})
            else:
                _emit(_qh_json(prod))
        elif args.sub == "schubert-poly":
            w = _finite_elt(rs, args.w)
            poly = schubert_poly(rs, w)
            terms = [
                {"coefficient": str(c), "q": q_str(qs), "word": [i + 1 for i in word]}
                for (qs, word), c in sorted(poly.terms.items(), key=repr)
            ]
            _emit({"w": repr(w), "terms": terms})
        else:
            u = _finite_elt(rs, args.u)
            v = _finite_elt(rs, args.v)
            w = _finite_elt(rs, args.w)
            c = gw_coefficient(rs, u, v, w, _parse_coroot(args.qexp, rs.rank))
            _emit({"coefficient": str(c)})
        return 0

    if args.cmd == "gr":
        from .nilhecke import to_json_list
        from .peterson import hom_product_basis, j_class, pieri_r0

        rs = cartan.build(args.type)
        if args.sub == "product":
            x = _affine_word_elt(rs, args.x)
            z = _affine_word_elt(rs, args.z)
            prod = hom_product_basis(rs, x, z)
            if not args.equivariant:
                out = {json.dumps(serialize(k), sort_keys=True): v.eval_zero() for k, v in prod.items()}
                _emit({"product": {k: v for k, v in out.items() if v}, "denominator": [0] * rs.rank})
            else:
                out = {json.dumps(serialize(k), sort_keys=True): str(v) for k, v in prod.items()}
                _emit({"product": out, "denominator": [0] * rs.rank})
        elif args.sub == "j-class":
            x = _affine_elt(rs, args)
            _emit({"element": serialize(x), "j": to_json_list(rs, j_class(rs, x))})
        else:
            x = _affine_word_elt(rs, args.x)
            img = pieri_r0(rs, {x: 1})
            _emit({json.dumps(serialize(k), sort_keys=True): v for k, v in img.items()})
        return 0

    if args.cmd == "pi-p":
        from .parabolic import build_parabolic, pi_P_translation

        rs = cartan.build(args.type)
        nodes = [i - 1 for i in _parse_coroot(args.ip)]
        pd = build_parabolic(rs, nodes)
        x = pi_P_translation(pd, _parse_coroot(args.coroot, rs.rank))
        word = x.w.word()
        _emit({"w": " ".join(f"r{i + 1}" for i in word) or "id", "t": ",".join(str(c) for c in x.t)})
        return 0

    if args.cmd == "pw-lift":
        from .parabolic import build_parabolic
        from .quantum import pw_lift

        rs = cartan.build(args.type)
        nodes = [i - 1 for i in _parse_coroot(args.ip)]
        pd = build_parabolic(rs, nodes)
        lam_b, ipp, v = pw_lift(pd, _parse_coroot(args.coset, len(pd.free_nodes)))
        _emit(
            {
                "lam_B": ",".join(str(c) for c in lam_b),
                "I_P'": sorted(i + 1 for i in ipp),
                "v": repr(v),
            }
        )
        return 0

    if args.cmd == "strange-dual":
        from .coeffring import scalar_one
        from .parabolic import strange_duality

        rs, pd = _grassmannian(args.n, args.j)
        w = _finite_elt(rs, args.w)
        img = strange_duality(pd, {(w, (0,)): scalar_one(rs)})
        _emit({f"({t!r},q^{q[0]})": str(c) for (t, q), c in img.items()})
        return 0

    if args.cmd == "lm-map":
        from .parabolic import lm_map, partition_to_affine

        rs, pd = _grassmannian(args.n, args.j)
        parts = _parse_coroot(args.partition) if args.partition else ()
        x = partition_to_affine(rs, parts, args.n)
        img = lm_map(pd, {x: 1})
        _emit({repr(y): c for y, c in img.items()})
        return 0

    if args.cmd == "verify":
        from . import suites

        kwargs = {}
        if getattr(args, "type", None):
            kwargs["types"] = (args.type,)
        if getattr(args, "qdeg", None) is not None:
            if args.qdeg < 0:
                raise ValueError(f"qdeg must be at least 0, got {args.qdeg}")
            kwargs["max_q_height"] = args.qdeg
        report = suites.run_suite(args.suite, **kwargs)
        _emit(report)
        return 0 if report["ok"] else 1

    raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
