"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` to get one line per
criterion; every test re-derives its claim from scratch at desk scale.
"""

import itertools
import time
from math import comb

from qkc import alcove, ichevalley, qbg, qkpres, relations, semimod, verify
from qkc.rings import specialize_Q_zero
from qkc.weylc import enumerate_group, positive_roots


def report(name, ok):
    print("criterion %s: %s" % (name, "PASS" if ok else "FAIL"))
    assert ok, name


def test_criterion_01_qbg_pattern_equals_length():
    start = time.monotonic()
    pairs = 0
    ok = True
    for n in range(1, 5):
        roots = positive_roots(n)
        for w in enumerate_group(n):
            for root in roots:
                pairs += 1
                if qbg.edge_by_pattern(w, root) != qbg.edge_by_length(w, root):
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and pairs >= 6144 and elapsed < 5.0
    report("01 qbg pattern criterion equals length criterion", ok)


def test_criterion_02_alcove_enumerations():
    ok = True
    for n in range(1, 5):
        for k in range(1, n + 1):
            for record in (verify._check_mountain_theta(n, k),
                           verify._check_mountain_gamma(n, k),
                           verify._check_staircase_gamma(n, k)):
                ok = ok and record[1]
    report("02 alcove model listings with end and down values", ok)


def test_criterion_03_inverse_chevalley():
    ok = True
    for n in range(1, 5):
        for k in range(1, n + 1):
            got = ichevalley.inverse_chevalley(ichevalley.mountain(n, k), k)
            ok = ok and got == ichevalley.ic2_closed(n, k)
            rep = ichevalley.cancellation_report(n, k)
            ok = ok and rep["matches_closed_form"]
            chains = set(rep["survivors"])
            expect = {(j, tuple(range(k, j - 1, -1))) for j in range(1, k + 1)}
            ok = ok and chains == expect
    report("03 evaluator reproduces the closed form with full "
           "cancellation accounting", ok)


def test_criterion_04_recursion_closed_forms():
    ok = True
    for n in range(1, 5):
        for trunc in (2 * n + 2, None):
            ok = ok and all(r[1] for r in semimod.check_recursion(n, trunc))
    report("04 recursion identities for the closed forms, truncated "
           "and exact", ok)


def test_criterion_05_symmetry_and_duality():
    ok = True
    for n in range(1, 5):
        ok = ok and all(r[1] for r in semimod.check_symmetry(n))
        ok = ok and all(r[1] for r in semimod.check_duality(n))
    report("05 palindromic symmetry and the duality refinements", ok)


def test_criterion_06_demazure_derivation_chain():
    ok = True
    for n in range(1, 5):
        ok = ok and relations.audit_base_rewrite(n)
        chain = list(relations.derivation_chain(n))
        ok = ok and len(chain) == n - 1
        if n >= 2:
            ok = ok and chain[0] == relations.secondary_literal(n)
        for k in range(2, n):
            ok = ok and chain[k - 1] == relations.system_arbitrary(n, k)
        ok = ok and all(r[1] for r in relations.check_system(n))
    report("06 Demazure derivation chain matches the literal formulas", ok)


def test_criterion_07_system_solution():
    ok = True
    for n in range(1, 6):
        sol = relations.solve_system(n)
        ok = ok and sol == tuple(relations.elementary_E(n, l)
                                 for l in range(n + 1))
    start = time.monotonic()
    sol = relations.solve_system(6)
    elapsed = time.monotonic() - start
    ok = ok and sol == tuple(relations.elementary_E(6, l) for l in range(7))
    ok = ok and elapsed < 10.0
    report("07 the relation system pins down the elementary "
           "symmetric values", ok)


def test_criterion_08_symmetric_function_suite():
    ok = all(r[1] for r in relations.check_csym_props(4))
    for n in range(1, 5):
        ok = ok and all(
            r[1] for r in relations.check_generating_identities(n))
    report("08 complete-symmetric properties and generating-function "
           "identities", ok)


def test_criterion_09_factorization_lemmas():
    ok = True
    for n in range(1, 6):
        pool = semimod.universe(n)
        for size in range(len(pool) + 1):
            for I in itertools.combinations(pool, size):
                for j in pool:
                    phi = semimod.phi(n, I, j)
                    ok = ok and (qkpres.zeta(n, I, j) * qkpres.eta(n, I, j)
                                 == phi)
                    ok = ok and (phi * semimod.theta_sinf(n, I, j)
                                 == semimod.psi(n, I, j))
    report("09 both coefficient factorizations hold over all subsets, "
           "exactly", ok)


def test_criterion_10_end_to_end_dictionary():
    ok = True
    for n in range(1, 4):
        for l in range(2 * n + 1):
            ok = ok and (qkpres.to_semimod(qkpres.f_poly(n, l))
                         == semimod.ff(n, l))
        for k in range(1, n + 1):
            for l in range(k + 1):
                ok = ok and (qkpres.to_semimod(qkpres.f_poly(n, l, "upper", k))
                             == semimod.ff(n, l, "upper", k))
            for l in range(2 * n - k + 1):
                ok = ok and (qkpres.to_semimod(qkpres.f_poly(n, l, "barred", k))
                             == semimod.ff(n, l, "barred", k))
    report("10 the polynomial-to-module dictionary matches termwise", ok)


def test_criterion_11_specialization():
    ok = True
    for n in range(1, 5):
        for l in range(2 * n + 1):
            spec = specialize_Q_zero(qkpres.f_poly(n, l))
            ok = ok and spec == specialize_Q_zero(qkpres.elementary_z(n, l))
            total = 0
            for _, c in spec.sorted_terms():
                for _, v in c.sorted_terms():
                    total += v
            ok = ok and total == comb(2 * n, l)
    report("11 setting the Novikov variables to zero recovers the "
           "classical generators", ok)
