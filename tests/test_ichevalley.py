import itertools

import pytest

from qkc import ichevalley
from qkc.alcove import admissible_subsets, gamma_seq, theta_seq
from qkc.ichevalley import (
    SemiClassSum,
    _chain_blocks,
    cancellation_report,
    ic2_closed,
    inverse_chevalley,
    mountain,
    staircase,
)
from qkc.rings import ConfigError, QExtElement
from qkc.weylc import (
    SignedPerm,
    coroot_sum,
    enumerate_group,
    order_key,
    pairing,
    universe,
)

from oracles import (
    act_weight,
    derive_recurrence,
    ic1_data,
    ic2_data,
    ic_lhs,
    tensor,
    weighted_class,
)


def alpha_range(n, a, b):
    return tuple(1 if a <= t <= b else 0 for t in range(1, n + 1))


def eps(n, j, sign=1):
    return tuple(sign if t == j - 1 else 0 for t in range(n))


def signed_eps(n, x):
    return eps(n, abs(x), 1 if x > 0 else -1)


def brute_force_tuples(w, m):
    """(chain, A-list, end, down, size) for every chain mbar > j_1 > ... > j_r
    and tuple A_t in A_{ed(A_{t-1})}^{j_{t-1}, j_t}, from the definition:
    chains are combinations of the elements below mbar, and each family is
    A(base, seq) filtered by ed(A)^{-1} base eps_{j_{t-1}} = eps_{j_t}."""
    n = w.n
    below = [x for x in universe(n) if order_key(n, x) < order_key(n, -m)]
    out = []

    def tuples(base, prev, rest, alist):
        if not rest:
            down = coroot_sum(n, [a.down for a in alist])
            size = sum(len(a.positions) for a in alist)
            yield alist, base, down, size
            return
        seq = theta_seq(n, prev) if prev > 0 else gamma_seq(n, -prev)
        moved = act_weight(base, signed_eps(n, prev))
        for a in admissible_subsets(base, seq):
            if a.positions and (act_weight(a.end.inverse(), moved)
                                == signed_eps(n, rest[0])):
                yield from tuples(a.end, rest[0], rest[1:], alist + [a])

    for r in range(1, len(below) + 1):
        for subset in itertools.combinations(below, r):
            chain = tuple(sorted(subset, key=lambda x: -order_key(n, x)))
            for alist, end, down, size in tuples(w, -m, chain, []):
                out.append((chain, alist, end, down, size))
    return out


def test_chain_walk_matches_the_definition():
    for n in range(1, 4):
        for w in enumerate_group(n):
            for m in range(1, n + 1):
                got = [(chain, tuple(a.positions for a in alist))
                       for chain, alist, _ in _chain_blocks(w, m) if chain]
                assert len(got) == len(set(got)), (w, m)
                brute = {(chain, tuple(a.positions for a in alist))
                         for chain, alist, _, _, _ in brute_force_tuples(w, m)}
                assert set(got) == brute, (w, m)


def test_evaluator_matches_blocks_from_the_definition():
    for n in range(1, 4):
        for w in enumerate_group(n):
            for m in range(1, n + 1):
                # first block: B-sum over A(w, Theta_m), twist -eps_m
                parts = [SemiClassSum.basis(b.end, b.down, eps(n, m, -1),
                                            coeff=(-1) ** len(b.positions))
                         for b in admissible_subsets(w, theta_seq(n, m))]
                # per-(j, barred) blocks: Theta_j and -eps_j for a barred
                # target jbar, Gamma_j and +eps_j for an unbarred one
                for chain, _, end, down, size in brute_force_tuples(w, m):
                    j, barred = abs(chain[-1]), chain[-1] < 0
                    seq = theta_seq(n, j) if barred else gamma_seq(n, j)
                    sign = (-1) ** (size - len(chain))
                    qexp = pairing(eps(n, j), down) * (-1 if barred else 1)
                    parts.extend(
                        SemiClassSum.basis(
                            b.end, coroot_sum(n, [down, b.down]),
                            eps(n, j, -1 if barred else 1),
                            coeff=sign * (-1) ** len(b.positions), qexp=qexp)
                        for b in admissible_subsets(end, seq))
                expect = SemiClassSum.sum_of(n, parts)
                assert inverse_chevalley(w, m) == expect, (w, m)


def test_mountain_step_from_kbar_to_k_plus_one_bar():
    # A^{kbar, k+1bar} from mountain(k) has one single {-(k, k+1)}, and it
    # ends at mountain(k+1)
    n, k = 3, 1
    singles = [alist[0].end for chain, alist, _ in _chain_blocks(mountain(n, k), k)
               if chain == (-(k + 1),)
               and [(alist[0].sequence[p].i, alist[0].sequence[p].j)
                    for p in alist[0].positions] == [(k, k + 1)]]
    assert singles == [mountain(n, k + 1)]


def test_each_node_lists_its_subsets_once(monkeypatch):
    w = mountain(4, 1)
    blocks = sum(1 for _ in _chain_blocks(w, 1))
    calls = []

    def counted(base, seq):
        calls.append(1)
        return admissible_subsets(base, seq)

    monkeypatch.setattr(ichevalley, "admissible_subsets", counted)
    inverse_chevalley(w, 1)
    assert len(calls) <= 2 * blocks


def test_rank_one_by_hand():
    n = 1
    s1 = SignedPerm.simple(n, 1)
    got = inverse_chevalley(s1, 1)
    expect = SemiClassSum.basis(s1, lam=(-1,))
    expect = expect + SemiClassSum.basis(SignedPerm.identity(n), (1,), (1,), qexp=1)
    expect = expect - SemiClassSum.basis(s1, (1,), (1,), qexp=1)
    assert got == expect
    assert got == ic2_closed(n, 1)
    assert (got - expect).render() == "0"


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
        got = set(report["survivors"])
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
        expect = weighted_class(staircase(n, k), eps(n, 1),
                                eps(n, k + 1, -1), -1)
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
        expect = weighted_class(mountain(n, k), eps(n, 1), eps(n, k), -1)
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
    assert tensor(s, (0,) * n) == s


def test_target_must_be_unit():
    n = 2
    lhs, rhs = ic1_data(n, 1)
    with pytest.raises(ConfigError):
        derive_recurrence(lhs, rhs, (0, 0),
                          (SignedPerm(range(-1, -n - 1, -1)), (0,) * n, (0,) * n))
