"""Acceptance criteria, one test per item, each printing a PASS/FAIL line.

Everything here is an exact identity; there are no tolerances anywhere.
Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random

import pytest

from qaffine import cartan, suites
from qaffine.coeffring import scalar_one
from qaffine.nilhecke import mod_J
from qaffine.peterson import b_element
from qaffine.weyl import AffineElt, simple_reflection, superregular_antidominant


def _line(num, label, report, checks):
    """Print and assert one criterion; ``checks`` pins how many checks it runs,
    so a change that silently drops checks fails here too."""
    status = "PASS" if report["ok"] else "FAIL"
    print(f"criterion {num:>2} ({label}): {status}  [{report['checks']} checks]")
    assert report["ok"], report["failures"][:5]
    assert report["checks"] == checks, f"{report['checks']} checks, expected {checks}"


@pytest.fixture(scope="module")
def parabolic_report():
    return suites.suite_parabolic()


@pytest.fixture(scope="module")
def operators_report():
    return suites.suite_operators()


def test_criterion_1_paper_examples():
    _line(1, "paper worked examples", suites.suite_paper_examples(), 8)


def test_criterion_2_main_theorem_borel():
    _line(2, "main theorem, Borel case", suites.suite_peterson_borel(("A1", "A2", "B2", "A3")), 204)


def test_criterion_3_comparison():
    _line(3, "GW = j dictionary", suites.suite_compare(("A1", "A2", "B2"), max_q_height=4), 4682)


def test_criterion_4_centrality():
    rng = random.Random(99)
    failures = []
    checks = 0
    for lbl in ["A2", "B2"]:
        rs = cartan.build(lbl)
        for _ in range(50):
            k = rng.randint(0, 3)
            lam = superregular_antidominant(rs, units=k + 1)
            seq = [tuple(rng.randint(-1, 2) for _ in range(rs.rank)) for _ in range(k)]
            checks += 1
            try:
                b_element(rs, lam, seq)  # is_central asserted inside
            except AssertionError:
                failures.append({"type": lbl, "seq": seq})
        lam = superregular_antidominant(rs, units=2)
        for i in range(rs.rank):
            b = b_element(rs, lam, [rs.fundamental_weight(i)])
            checks += 1
            if mod_J(b) != {AffineElt(simple_reflection(rs, i), lam): scalar_one(rs)}:
                failures.append({"type": lbl, "mod_J": i + 1})
    _line(4, "centrality of b elements", {"ok": not failures, "checks": checks, "failures": failures}, 104)


def test_criterion_5_operator_identities(operators_report):
    _line(5, "operator identities", operators_report, 375)


def test_criterion_6_positivity():
    _line(6, "positivity", suites.suite_positivity(), 4951)


def test_criterion_7_ring_axioms():
    _line(7, "quantum ring axioms", suites.suite_chevalley(), 610)


def test_criterion_8_parabolic(parabolic_report):
    rep = dict(parabolic_report)
    rep["failures"] = [f for f in rep["failures"] if f.get("id") in ("chevalley-vs-quotient", "pw-transport")]
    rep["ok"] = not rep["failures"]
    _line(8, "parabolic quotient ring", rep, 142)


def test_criterion_9_highest_root(parabolic_report):
    rep = dict(parabolic_report)
    rep["failures"] = [f for f in rep["failures"] if f.get("id") == "highest-root"]
    rep["ok"] = not rep["failures"]
    _line(9, "highest-root product", rep, 142)


def test_criterion_10_tilted_orders():
    _line(10, "tilted Bruhat orders", suites.suite_tilted(), 728)


def test_criterion_11_lapointe_morse():
    _line(11, "Lapointe-Morse map", suites.suite_lapointe_morse(), 174)
