import pytest

from qkc.ichevalley import (
    SemiClassSum,
    cancellation_report,
    derive_recurrence,
    ic1_data,
    ic2_closed,
    ic2_data,
    ic_lhs,
    inverse_chevalley,
    mountain,
    staircase,
)
from qkc.rings import ConfigError, QExtElement
from qkc.weylc import SignedPerm


def alpha_range(n, a, b):
    return tuple(1 if a <= t <= b else 0 for t in range(1, n + 1))


def eps(n, j, sign=1):
    return tuple(sign if t == j - 1 else 0 for t in range(n))


def test_rank_one_by_hand():
    n = 1
    s1 = SignedPerm.simple(n, 1)
    got = inverse_chevalley(s1, 1)
    expect = SemiClassSum.basis(s1, lam=(-1,))
    expect = expect + SemiClassSum.basis(SignedPerm.identity(n), (1,), (1,), qexp=1)
    expect = expect - SemiClassSum.basis(s1, (1,), (1,), qexp=1)
    assert got == expect
    assert got == ic2_closed(n, 1)


def test_evaluator_matches_closed_form_small_ranks():
    for n in range(1, 4):
        for k in range(1, n + 1):
            got = inverse_chevalley(mountain(n, k), k)
            assert got == ic2_closed(n, k), (n, k)


def test_k_equals_one_second_term_absent():
    n = 3
    closed = ic2_closed(n, 1)
    # no key with the weight -eps_1 besides the leading mountain class
    for (w, xi, lam), _ in closed.terms.items():
        if lam == eps(n, 1, -1):
            assert w == mountain(n, 1) and xi == (0,) * n


def test_lhs_weight_is_eps1():
    n = 3
    for k in range(1, n + 1):
        lhs = ic_lhs(mountain(n, k), k)
        ((w, xi, lam), coeff), = lhs.terms.items()
        assert coeff == QExtElement.monomial(n, eps(n, 1))


def test_all_down_vectors_nonnegative():
    n = 2
    for k in range(1, n + 1):
        for (w, xi, lam) in inverse_chevalley(mountain(n, k), k).terms:
            assert all(x >= 0 for x in xi)


def test_cancellation_report():
    for n, k in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
        report = cancellation_report(n, k)
        assert report["matches_closed_form"], (n, k)
        got = {(j, chain) for j, chain, _ in report["survivors"]}
        expect = {(j, tuple(range(k, j - 1, -1))) for j in range(1, k + 1)}
        assert got == expect
        for j, l, c1, c2 in report["pairs"]:
            assert k < l <= n and j <= l


def test_derive_rec_1():
    n = 3
    for k in range(1, n):
        lhs, rhs = ic1_data(n, k)
        target, expr = derive_recurrence(lhs, rhs, eps(n, k + 1, -1),
                                         (staircase(n, k + 1), (0,) * n, (0,) * n))
        expect = SemiClassSum.basis(
            staircase(n, k), lam=eps(n, k + 1, -1),
            coeff=QExtElement.monomial(n, eps(n, 1), coeff=-1))
        expect = expect + SemiClassSum.basis(staircase(n, k))
        for j in range(1, k + 1):
            xi = alpha_range(n, j, k)
            lam = tuple(a - b for a, b in zip(eps(n, j), eps(n, k + 1)))
            expect = expect + SemiClassSum.basis(staircase(n, j - 1), xi, lam)
            expect = expect - SemiClassSum.basis(staircase(n, j), xi, lam)
        assert expr == expect, k


def test_derive_rec_2():
    n = 3
    for k in range(2, n + 1):
        lhs, rhs = ic2_data(n, k)
        target, expr = derive_recurrence(lhs, rhs, eps(n, k),
                                         (mountain(n, k - 1), (0,) * n, (0,) * n))
        expect = SemiClassSum.basis(
            mountain(n, k), lam=eps(n, k),
            coeff=QExtElement.monomial(n, eps(n, 1), coeff=-1))
        expect = expect + SemiClassSum.basis(mountain(n, k))
        for j in range(k + 1, n + 1):
            xi = alpha_range(n, k, j - 1)
            lam = tuple(a - b for a, b in zip(eps(n, k), eps(n, j)))
            expect = expect + SemiClassSum.basis(mountain(n, j), xi, lam)
            expect = expect - SemiClassSum.basis(mountain(n, j - 1), xi, lam)
        for j in range(1, k + 1):
            xi = alpha_range(n, j, n)
            lam = tuple(a + b for a, b in zip(eps(n, j), eps(n, k)))
            expect = expect + SemiClassSum.basis(staircase(n, j - 1), xi, lam)
            expect = expect - SemiClassSum.basis(staircase(n, j), xi, lam)
        assert expr == expect, k


def test_zero_twist_is_identity():
    n = 2
    s = ic2_closed(n, 1)
    assert s.tensor((0,) * n) == s


def test_target_must_be_unit():
    n = 2
    lhs, rhs = ic1_data(n, 1)
    with pytest.raises(ConfigError):
        derive_recurrence(lhs, rhs, (0, 0),
                          (SignedPerm(range(-1, -n - 1, -1)), (0,) * n, (0,) * n))
