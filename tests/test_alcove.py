import pytest

from qkc.alcove import admissible_subsets, gamma_seq, theta_seq
from qkc.ichevalley import _chain_blocks
from qkc.qbg import edge_by_length
from qkc.rings import ConfigError
from qkc.weylc import (
    SignedPerm,
    coroot_sum,
    enumerate_group,
    order_key,
    universe,
)

from oracles import act_weight


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
    # the chains S_{mbar,j} the inverse Chevalley walk runs over: over all w
    # it yields every strictly decreasing chain mbar > j_1 > ... > j, and
    # |S_{mbar,j}| = 2^{d-1}, d = #{x : j <= x < mbar}
    for n in range(1, 4):
        for m in range(1, n + 1):
            top = order_key(n, -m)
            chains = set()
            for w in enumerate_group(n):
                chains |= {c for c, _, _ in _chain_blocks(w, m) if c}
            for c in chains:
                keys = [order_key(n, x) for x in c]
                assert keys == sorted(keys, reverse=True)
                assert len(set(keys)) == len(keys) and keys[0] < top
            for j in universe(n):
                if order_key(n, j) >= top:
                    continue
                d = sum(1 for x in universe(n)
                        if order_key(n, j) <= order_key(n, x) < top)
                assert sum(1 for c in chains if c[-1] == j) == 2 ** (d - 1)
    # the chain used in the second-sum derivation: (k+1bar, ..., jbar)
    n, k = 3, 1
    assert (-2, -3) in {c for c, _, _ in _chain_blocks(mountain(n, k), k)}


def test_a_filtered_against_bruteforce():
    # each step of the walk from (base, prev) to l keeps exactly the
    # non-empty A in A(base, seq(prev)) with ed(A)^{-1} base eps_prev = eps_l
    def signed_eps(n, x):
        return tuple((1 if x > 0 else -1) if t == abs(x) - 1 else 0
                     for t in range(n))

    for n in range(1, 4):
        for w in enumerate_group(n):
            for m in range(1, n + 1):
                nodes = [(chain, alist) for chain, alist, _ in _chain_blocks(w, m)]
                for chain, alist in nodes:
                    base = alist[-1].end if alist else w
                    prev = chain[-1] if chain else -m
                    seq = theta_seq(n, prev) if prev > 0 else gamma_seq(n, -prev)
                    moved = act_weight(base, signed_eps(n, prev))
                    fam = admissible_subsets(base, seq)
                    for l in universe(n):
                        if order_key(n, l) >= order_key(n, prev):
                            continue
                        brute = [(a.positions, a.end) for a in fam if a.positions
                                 and act_weight(a.end.inverse(), moved)
                                 == signed_eps(n, l)]
                        walked = [(al[-1].positions, al[-1].end)
                                  for c, al in nodes
                                  if c == chain + (l,) and al[:-1] == alist]
                        assert walked == brute, (w, m, chain, l)
