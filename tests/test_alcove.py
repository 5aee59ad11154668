import itertools

import pytest

from qkc.alcove import (
    a_filtered,
    admissible_subsets,
    gamma_seq,
    s_chains,
    theta_seq,
)
from qkc.qbg import edge_by_length
from qkc.rings import ConfigError
from qkc.weylc import SignedPerm, coroot_sum, enumerate_group, order_key


def mountain(n, k):
    """s_1 ... s_{n-1} s_n s_{n-1} ... s_k."""
    w = SignedPerm.identity(n)
    for i in list(range(1, n + 1)) + list(range(n - 1, k - 1, -1)):
        w = w * SignedPerm.simple(n, i)
    return w


def staircase(n, k):
    """s_1 ... s_k (k = 0 gives the identity)."""
    w = SignedPerm.identity(n)
    for i in range(1, k + 1):
        w = w * SignedPerm.simple(n, i)
    return w


def alpha_range(n, a, b):
    """alpha_a^vee + ... + alpha_b^vee in alpha^vee coordinates."""
    return tuple(1 if a <= t <= b else 0 for t in range(1, n + 1))


def test_sequence_shapes():
    assert len(theta_seq(3, 1)) == 0
    assert len(gamma_seq(2, 1)) == 3
    for n in range(1, 5):
        for k in range(1, n + 1):
            assert len(theta_seq(n, k)) == k - 1
            assert len(gamma_seq(n, k)) == 2 * n - k
    with pytest.raises(ConfigError):
        theta_seq(2, 3)


def test_gamma_ordering():
    n, k = 4, 2
    labels = [(root.i, root.j) for root in gamma_seq(n, k)]
    assert labels == [(1, -2), (2, -3), (2, -4), (2, -2), (2, 4), (2, 3)]


def test_empty_set_always_admissible():
    n = 2
    for w in enumerate_group(n):
        fam = admissible_subsets(w, gamma_seq(n, 1))
        empty = fam[0]
        assert empty.positions == ()
        assert empty.end == w
        assert empty.down == (0, 0)


def test_mountain_theta_listing():
    for n in range(2, 5):
        for k in range(1, n + 1):
            w = mountain(n, k)
            fam = admissible_subsets(w, theta_seq(n, k))
            if k == 1:
                assert [a.positions for a in fam] == [()]
                continue
            assert len(fam) == 2
            assert fam[1].positions == (k - 2,)
            root = fam[1].sequence[fam[1].positions[0]]
            assert (root.i, root.j) == (k - 1, k)
            assert fam[1].end == mountain(n, k - 1)


def test_mountain_gamma_listing():
    for n in range(2, 5):
        for k in range(1, n + 1):
            w = mountain(n, k)
            fam = admissible_subsets(w, gamma_seq(n, k))
            got = {a.positions: a for a in fam}
            seq = gamma_seq(n, k)
            idx = {(root.i, root.j): p for p, root in enumerate(seq)}
            long_p = idx[(k, -k)]
            if k < n:
                next_p = idx[(k, k + 1)]
                expect = {(), (next_p,), (long_p,), (long_p, next_p)}
                assert set(got) == expect
                assert got[(next_p,)].end == mountain(n, k + 1)
                assert got[(next_p,)].down == alpha_range(n, k, k)
                assert got[(long_p, next_p)].end == staircase(n, k)
                assert got[(long_p, next_p)].down == alpha_range(n, k, n)
            else:
                assert set(got) == {(), (long_p,)}
            assert got[(long_p,)].end == staircase(n, k - 1)
            assert got[(long_p,)].down == alpha_range(n, k, n)


def test_staircase_gamma_listing():
    # A(s_1 ... s_{j-1}, Gamma_j(j)) = { {}, {-(j, j+1)} }, where j+1 is
    # read as nbar when j = n
    for n in range(2, 5):
        for j in range(1, n + 1):
            w = staircase(n, j - 1)
            fam = admissible_subsets(w, gamma_seq(n, j))
            assert len(fam) == 2
            a = fam[1]
            label = (j, j + 1) if j < n else (n, -n)
            root = a.sequence[a.positions[0]]
            assert (root.i, root.j) == label
            assert a.end == staircase(n, j)
            assert edge_by_length(w, root) == "B" and a.down == (0,) * n


def test_paths_revalidate_and_down_nonnegative():
    n = 3
    for w in enumerate_group(n):
        for seq in (theta_seq(n, 3), gamma_seq(n, 2)):
            for a in admissible_subsets(w, seq):
                assert list(a.positions) == sorted(set(a.positions))
                current = w
                downs = []
                for p in a.positions:
                    root = seq[p]
                    kind = edge_by_length(current, root)
                    assert kind is not None
                    if kind == "Q":
                        downs.append(root.coroot)
                    current = current * root.reflection
                assert current == a.end
                assert coroot_sum(n, downs) == a.down
                assert all(c >= 0 for c in a.down)


def test_prefix_closed():
    n = 2
    for w in enumerate_group(n):
        for seq in (theta_seq(n, 2), gamma_seq(n, 1), gamma_seq(n, 2)):
            fam = {a.positions for a in admissible_subsets(w, seq)}
            for positions in fam:
                if positions:
                    assert positions[:-1] in fam


def test_s_chains():
    n = 3
    assert s_chains(n, 2, 1) == [(1,)]
    # |S_{m,j}| = 2^{d-1}, d = #{x : j <= x < m}
    universe = list(range(1, n + 1)) + [-t for t in range(n, 0, -1)]
    for m in universe:
        for j in universe:
            if order_key(n, j) >= order_key(n, m):
                continue
            d = sum(1 for x in universe
                    if order_key(n, j) <= order_key(n, x) < order_key(n, m))
            chains = s_chains(n, m, j)
            assert len(chains) == 2 ** (d - 1)
            assert len(set(chains)) == len(chains)
            for c in chains:
                keys = [order_key(n, x) for x in c]
                assert keys == sorted(keys, reverse=True)
                assert c[-1] == j and keys[0] < order_key(n, m)
    # the chain used in the second-sum derivation: (k+1bar, ..., jbar)
    k, j = 1, 3
    assert (-2, -3) in s_chains(n, -k, -j)


def test_a_filtered_against_bruteforce():
    n = 2
    universe = [1, 2, -2, -1]
    for w in enumerate_group(n):
        for source in universe:
            seq = theta_seq(n, source) if source > 0 else gamma_seq(n, -source)
            fam = admissible_subsets(w, seq)
            moved = w.act_weight(
                tuple((1 if source > 0 else -1) if t == abs(source) - 1 else 0
                      for t in range(n)))
            for l in universe:
                target = tuple((1 if l > 0 else -1) if t == abs(l) - 1 else 0
                               for t in range(n))
                brute = [(a.positions, a.end) for a in fam if a.positions
                         and a.end.inverse().act_weight(moved) == target]
                assert [(a.positions, a.end)
                        for a in a_filtered(w, source, l)] == brute


def test_a_filtered_mountain_example():
    n, k = 3, 1
    w = mountain(n, k)
    fam = a_filtered(w, -k, -(k + 1))
    singles = [a for a in fam if [(a.sequence[p].i, a.sequence[p].j)
                                  for p in a.positions] == [(k, k + 1)]]
    assert len(singles) == 1
    assert singles[0].end == mountain(n, k + 1)
