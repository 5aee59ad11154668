import itertools

import pytest

from qkc import semimod
from qkc.rings import GroupRingElement, NovikovFraction, NovikovSeries
from qkc.semimod import (
    SemiModElement,
    adjacent_in,
    bare_psi_product,
    check_duality,
    check_recursion,
    check_symmetry,
    closed_P,
    closed_Q,
    decompose_I,
    duality_hypothesis,
    ff,
    jab_sets,
    phi,
    psi,
    psi_product,
    star_map,
    theta_sinf,
    universe,
)
from qkc.weylc import SignedPerm, _eps


def t_mono(n, a, b, trunc=None):
    return NovikovSeries.monomial(
        n, tuple(1 if a <= t <= b else 0 for t in range(1, n + 1)),
        trunc=trunc)


def all_subsets(n):
    pool = universe(n)
    for size in range(len(pool) + 1):
        for c in itertools.combinations(pool, size):
            yield frozenset(c)


def test_psi_table_example():
    n = 4
    I = frozenset({2, 3, -3, -1})
    one = NovikovSeries.one(n)
    expect = [
        one - t_mono(n, 1, 1),          # j = 1
        one, one, one,                  # j = 2, 3, 4
        one - t_mono(n, 3, 3) + t_mono(n, 3, 4),  # j = 4bar
        one,                            # j = 3bar
        one - t_mono(n, 1, 1),          # j = 2bar
        one,                            # j = 1bar
    ]
    got = [psi(n, I, j) for j in universe(n)]
    assert got == expect


# The coefficient functions as they read the index set I directly: the
# oracle for the tables keyed by semimod._case.

def oracle_psi(n, I, j, trunc=None):
    out = NovikovSeries.one(n, trunc)
    if j > 0:
        succ = j + 1 if j < n else -n
        if j not in I and succ in I:
            out = out - t_mono(n, j, j, trunc)
    elif j != -1:
        jj = -j
        if adjacent_in(n, I, jj - 1, -(jj - 1)):
            out = (out - t_mono(n, jj - 1, jj - 1, trunc)
                   + t_mono(n, jj - 1, n, trunc))
        elif -jj not in I and -(jj - 1) in I:
            out = out - t_mono(n, jj - 1, jj - 1, trunc)
    return out


def oracle_theta_sinf(n, I, j, trunc=None):
    out = NovikovSeries.one(n, trunc)
    if j > 0:
        if (j + 1 if j < n else -n) in I:
            out = out - t_mono(n, j, j, trunc)
    elif j != -1:
        jj = -j
        if -(jj - 1) in I:
            out = out - t_mono(n, jj - 1, jj - 1, trunc)
    return out


def oracle_phi(n, I, j, trunc=None):
    out = NovikovFraction.one(n)
    if j > 0:
        succ = j + 1 if j < n else -n
        if j in I and succ in I:
            out = NovikovFraction.geometric(n, j)
    elif j != -1:
        jj = -j
        if adjacent_in(n, I, jj - 1, -(jj - 1)):
            num = (NovikovSeries.one(n) - t_mono(n, jj - 1, jj - 1)
                   + t_mono(n, jj - 1, n))
            out = NovikovFraction(n, num, _eps(n, jj - 1))
        elif -jj in I and -(jj - 1) in I:
            out = NovikovFraction.geometric(n, jj - 1)
    return out if trunc is None else out.truncate(trunc)


def check_case_table(fn, oracle, table):
    """fn equals the oracle on every I and j for n <= 4, exact and at
    trunc = 2n+2, and its table then holds at most 12n values per
    truncation: it is keyed by the case of I, not by I."""
    for n in range(1, 5):
        table.cache_clear()
        truncs = (None, 2 * n + 2)
        for I in all_subsets(n):
            for j in universe(n):
                for trunc in truncs:
                    assert fn(n, I, j, trunc) == oracle(n, I, j, trunc), \
                        (n, sorted(I), j, trunc)
        assert table.cache_info().currsize <= 12 * n * len(truncs), n


@pytest.mark.parametrize("fn, oracle, table", [
    (psi, oracle_psi, semimod._psi),
    (theta_sinf, oracle_theta_sinf, semimod._theta_sinf),
    (phi, oracle_phi, semimod._phi),
], ids=["psi", "theta_sinf", "phi"])
def test_case_table_matches_index_set_oracle(fn, oracle, table):
    check_case_table(fn, oracle, table)


def test_phi_theta_factorization_of_psi():
    # phi(j) * theta(j) = psi(j) at every position, every subset; checked
    # exactly with the fraction form and again after truncation
    n = 3
    for I in all_subsets(n):
        for j in universe(n):
            p = psi(n, I, j)
            th = theta_sinf(n, I, j)
            assert phi(n, I, j) * th == NovikovFraction(p.n, p)
            lhs = phi(n, I, j, trunc=5) * th.with_trunc(5)
            assert lhs == p.with_trunc(5)


def test_ff_rank_one():
    n = 1
    e = SignedPerm.identity(n)
    one = NovikovSeries.one(n)
    expect = SemiModElement(n, {
        (e, (-1,)): one,
        (e, (1,)): one - t_mono(n, 1, 1),
    }.items())
    assert ff(n, 1) == expect
    assert ff(n, 0) == SemiModElement.one(n)
    assert ff(n, 2) == ff(n, 0)  # the symmetry FF_k = FF_{2n-k}


def test_barred_zero_variant_is_full():
    n = 2
    for l in range(2 * n + 1):
        assert ff(n, l, "barred", 0) == ff(n, l, "full")


def test_recursions_truncated_and_exact():
    for n in (1, 2):
        for trunc in (2 * n + 2, None):
            for name, ok, _ in check_recursion(n, trunc):
                assert ok, (n, trunc, name)


def test_recursion_endpoints():
    n = 2
    assert closed_P(n, n) == closed_Q(n, n)
    assert closed_P(n, 0) == SemiModElement.one(n)


def test_symmetry_small_ranks():
    for n in (1, 2, 3):
        for name, ok, _ in check_symmetry(n):
            assert ok, (n, name)


def test_star_map_example():
    n = 7
    I = frozenset({2, 4, 5, -6, -5, -2})
    assert decompose_I(n, I) == ([4], [6], [2, 5])
    assert star_map(n, I) == frozenset({4, -6, 1, 3, 7, -1, -3, -7})
    assert I in jab_sets(n, {4}, {6}, 6)


def test_star_map_is_an_involution():
    n = 3
    for I in all_subsets(n):
        assert star_map(n, star_map(n, I)) == I


def test_star_map_bijection_on_weight_classes():
    n = 3
    for A in (set(), {1}, {2}, {1, 3}):
        for B in (set(), {2}, {3}):
            if A & B:
                continue
            for k in range(len(A) + len(B), n + 1, 2):
                left = jab_sets(n, A, B, k)
                right = jab_sets(n, A, B, 2 * n - k)
                assert {star_map(n, I) for I in left} == set(right)


def _jab_sets_by_filter(n, A, B, k):
    """Every size-k subset of [1,1bar] with eps_I = eps_A - eps_B, by a
    scan of all of them in combinations order."""
    def eps(I):
        v = [0] * n
        for x in I:
            v[abs(x) - 1] += 1 if x > 0 else -1
        return v

    target = eps(set(A) | {-b for b in B})
    return [frozenset(I) for I in itertools.combinations(universe(n), k)
            if eps(I) == target]


def test_jab_sets_matches_the_filter_over_all_subsets():
    for n in range(1, 5):
        halves = [frozenset(c) for size in range(n + 1)
                  for c in itertools.combinations(range(1, n + 1), size)]
        for A in halves:
            for B in halves:
                if A & B:
                    continue
                for k in range(2 * n + 1):
                    assert jab_sets(n, A, B, k) == _jab_sets_by_filter(
                        n, A, B, k), (n, A, B, k)


def test_duality_groups_are_nonempty_and_split_as_A_B():
    # check_duality reads every group without testing for an empty one,
    # and duality_hypothesis reads only the pairs of I
    for n in range(1, 5):
        halves = [frozenset(c) for size in range(n + 1)
                  for c in itertools.combinations(range(1, n + 1), size)]
        for A in halves:
            for B in halves:
                if A & B:
                    continue
                for k in range(len(A) + len(B), n + 1, 2):
                    group = jab_sets(n, A, B, k)
                    assert group, (n, A, B, k)
                    for I in group:
                        a, b, _ = decompose_I(n, I)
                        assert (a, b) == (sorted(A), sorted(B)), (n, I)


def test_duality_lemma_termwise():
    n = 3
    A, B = {1}, set()
    for I in jab_sets(n, A, B, 3):
        if duality_hypothesis(n, I, A, B):
            p = psi_product(n, I)
            assert p == bare_psi_product(n, I)
            assert p == psi_product(n, star_map(n, I))


def test_duality_sums():
    for n in (2, 3):
        for name, ok, _ in check_duality(n):
            assert ok, (n, name)


def test_module_arithmetic():
    n = 2
    a = ff(n, 1)
    assert a - a == SemiModElement(n)
    assert a.tensor((0, 0)) == a
    e1 = GroupRingElement.monomial(n, (1, 0))
    assert a.scale(e1).scale(-1) == -a.scale(e1)
