import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qkc.alcove import gamma_seq, theta_seq
from qkc.rings import ConfigError, GroupRingElement
from qkc.weylc import (
    RootC,
    SignedPerm,
    demazure_D,
    enumerate_group,
    order_key,
    pairing,
    positive_roots,
    rho_vector,
    simple_root_weight,
)

from oracles import act_weight, demazure_D_fraction


def test_enumerate_group_sizes():
    assert [w.window for w in enumerate_group(1)] == [(1,), (-1,)]
    assert len(enumerate_group(2)) == 8
    assert len(enumerate_group(4)) == 384
    with pytest.raises(ConfigError):
        enumerate_group(0)


def test_order_and_interval():
    n = 3
    assert [order_key(n, x) for x in (1, 2, 3, -3, -2, -1)] == [1, 2, 3, 4, 5, 6]


def test_group_axioms_small():
    n = 2
    group = enumerate_group(n)
    e = SignedPerm.identity(n)
    for w in group:
        assert w * e == w and e * w == w
        assert w * w.inverse() == e
    a, b, c = group[1], group[3], group[5]
    assert (a * b) * c == a * (b * c)


def test_long_reflection_case_table():
    n = 3
    s = RootC(n, 2, -2).reflection
    assert s.act(2) == -2 and s.act(-2) == 2
    assert s.act(1) == 1 and s.act(3) == 3
    # (i, jbar) case table
    t = RootC(n, 1, -3).reflection
    assert t.act(1) == -3 and t.act(3) == -1
    assert t.act(-1) == 3 and t.act(-3) == 1
    # (i, j) case table
    u = RootC(n, 1, 2).reflection
    assert u.act(1) == 2 and u.act(-1) == -2


def test_mountain_window_notation():
    # s_1 ... s_{n-1} s_n s_{n-1} ... s_k = [2,3,...,k,1bar,k+1,...,n]
    n = 4
    for k in range(1, n + 1):
        w = SignedPerm.identity(n)
        for i in list(range(1, n + 1)) + list(range(n - 1, k - 1, -1)):
            w = w * SignedPerm.simple(n, i)
        expect = tuple(range(2, k + 1)) + (-1,) + tuple(range(k + 1, n + 1))
        assert w.window == expect


def test_length_basics():
    n = 2
    assert SignedPerm.identity(n).length() == 0
    assert SignedPerm(range(-1, -n - 1, -1)).length() == n * n
    s1, s2 = SignedPerm.simple(n, 1), SignedPerm.simple(n, 2)
    assert (s1 * s2).length() == 2
    assert len(positive_roots(3)) == 9


def test_longest_element_negates_weights():
    for n in range(1, 5):
        w0 = SignedPerm(range(-1, -n - 1, -1))
        lam = tuple(range(1, n + 1))
        assert act_weight(w0, lam) == tuple(-x for x in lam)


def test_cartan_matrix_from_pairing():
    n = 3
    cartan = {(1, 1): 2, (1, 2): -1, (1, 3): 0,
              (2, 1): -1, (2, 2): 2, (2, 3): -1,
              (3, 1): 0, (3, 2): -2, (3, 3): 2}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cv = tuple(1 if t == j - 1 else 0 for t in range(n))
            assert pairing(simple_root_weight(n, i), cv) == cartan[(i, j)]


def test_coroot_pairings():
    n = 4
    for root in positive_roots(n):
        cv = root.coroot
        w = root.weight
        assert pairing(w, cv) == 2
        # <eps_k, alpha^vee> values determine the coroot; cross-check the
        # three families against their eps-coordinate coroots, read off
        # the label (i, j): eps_i - eps_j, or eps_i for the long root.
        eps_pair = [pairing(tuple(1 if t == k else 0 for t in range(n)), cv)
                    for k in range(n)]
        i, j = root.i, root.j
        expect = [0] * n
        expect[i - 1] = 1
        if j > 0:
            expect[j - 1] = -1
        elif j != -i:
            expect[-j - 1] = 1
        assert eps_pair == expect


def test_root_labels_are_exactly_the_canonical_ones():
    # (i, j) with i < j, (i, jbar) with i < j, and the long (i, ibar);
    # RootC takes its label unchecked, so every builder of roots must
    # hand it a canonical one
    for n in range(1, 5):
        canonical = {(i, s * j) for i in range(1, n + 1)
                     for j in range(i + 1, n + 1) for s in (1, -1)}
        canonical |= {(i, -i) for i in range(1, n + 1)}
        assert len(canonical) == n * n
        assert {(r.i, r.j) for r in positive_roots(n)} == canonical
        for k in range(1, n + 1):
            for seq in (theta_seq(n, k), gamma_seq(n, k)):
                assert {(r.i, r.j) for r in seq} <= canonical, (n, k)


def test_demazure_examples():
    n = 2
    one = GroupRingElement.one(n)
    # <nu, alpha_i^vee> = 1 kills the monomial
    assert demazure_D(1, GroupRingElement.monomial(n, (1, 0))).is_zero()
    assert demazure_D(1, one) == one
    # D_1(e^{eps2}) = e^{eps2} + e^{eps1}
    assert demazure_D(1, GroupRingElement.monomial(n, (0, 1))) == \
        GroupRingElement.monomial(n, (0, 1)) + GroupRingElement.monomial(n, (1, 0))


def test_demazure_matches_fraction_definition():
    n = 3
    vals = range(-3, 4)
    monos = [GroupRingElement.monomial(n, v)
             for v in itertools.product(vals, repeat=n)]
    for i in range(1, n + 1):
        for f in monos:
            assert demazure_D(i, f) == demazure_D_fraction(i, f)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
       st.integers(-3, 3))
def test_demazure_idempotent(i, nu, c):
    f = GroupRingElement.monomial(3, nu, c)
    d = demazure_D(i, f)
    assert demazure_D(i, d) == d


def test_length_changes_by_one_at_simple():
    for n in range(1, 4):
        for w in enumerate_group(n):
            lw = w.length()
            for i in range(1, n + 1):
                assert abs((w * SignedPerm.simple(n, i)).length() - lw) == 1


def root_count_length(w):
    """Reference length: the positive roots that w sends to negative roots."""
    count = 0
    for root in positive_roots(w.n):
        v = act_weight(w, root.weight)
        for c in v:
            if c > 0:
                break
            if c < 0:
                count += 1
                break
    return count


def test_length_matches_root_count_on_whole_group():
    for n in range(1, 6):
        for w in enumerate_group(n):
            assert w.length() == root_count_length(w), w


def bfs_length(n):
    """Reference length by definition: the distance from the identity in
    the Cayley graph of the simple reflections, walked breadth-first."""
    simples = [SignedPerm.simple(n, i) for i in range(1, n + 1)]
    dist = {SignedPerm.identity(n): 0}
    frontier = list(dist)
    while frontier:
        step = []
        for w in frontier:
            for s in simples:
                ws = w * s
                if ws not in dist:
                    dist[ws] = dist[w] + 1
                    step.append(ws)
        frontier = step
    return dist


def test_length_matches_breadth_first_distance():
    for n in range(1, 5):
        dist = bfs_length(n)
        group = enumerate_group(n)
        assert len(dist) == len(group)
        for w in group:
            assert w.length() == dist[w], w


def test_rho():
    for n in range(1, 7):
        assert rho_vector(n) == tuple(range(n, 0, -1))


def test_positive_roots_are_a_tuple_of_n_squared_roots():
    for n in range(1, 7):
        roots = positive_roots(n)
        assert isinstance(roots, tuple)
        assert len(roots) == len({(r.i, r.j) for r in roots}) == n * n


def test_window_parse_render():
    w = SignedPerm.parse("[2,3,-1]")
    assert w.window == (2, 3, -1)
    assert w.render() == "[2,3,-1]"
    with pytest.raises(ConfigError, match=r"not a signed permutation: \(1, 1\)"):
        SignedPerm.parse("[1,1]")
