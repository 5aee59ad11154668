from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import qkc.relations as relations
from qkc.relations import (
    SolverError,
    assemble_system,
    audit_base_rewrite,
    base_relation,
    check_csym_props,
    check_generating_identities,
    check_system,
    csym_nested_lhs,
    derivation_chain,
    elementary_E,
    secondary_literal,
    solve_system,
    system_arbitrary,
    system_row,
)
from qkc.rings import GroupRingElement, Poly
from qkc.weylc import _eps

from oracles import e_brute, h_brute


def mono(n, exps, coeff=1):
    return GroupRingElement.monomial(n, exps, coeff)


def test_base_relation_small_ranks():
    r1 = base_relation(1)
    assert r1 == (mono(1, (-1,)) + mono(1, (1,)),
                   GroupRingElement.one(1) * -1)
    r2 = base_relation(2)
    assert r2[0] == mono(2, (-2, 0)) + mono(2, (2, 0))
    assert r2[1] == -(mono(2, (-1, 0)) + mono(2, (1, 0)))
    assert r2[2] == GroupRingElement.one(2)


def test_base_rewrite_audit():
    for n in range(1, 5):
        assert audit_base_rewrite(n)


def test_secondary_derivation_matches_literal():
    for n in range(2, 6):
        assert next(derivation_chain(n)) == secondary_literal(n)


def test_secondary_top_coefficient():
    # the l = n-1 term collapses to a single monomial
    n = 4
    rel = secondary_literal(n)
    assert rel[n - 1] == mono(n, (-1, 0, 0, 0), (-1) ** (n - 1))
    assert rel[n].is_zero()


def test_chain_matches_nested_sums():
    for n in range(3, 5):
        chain = list(derivation_chain(n))
        for k in range(2, n):
            assert chain[k - 1] == system_arbitrary(n, k), (n, k)


def test_induction_step_needs_room():
    # the chain takes steps k = 1..n-1 only: rank 1 has none, and rank 2
    # stops at the secondary relation
    assert list(derivation_chain(1)) == []
    assert list(derivation_chain(2)) == [secondary_literal(2)]


def test_a_raising_step_fails_every_later_chain_record(monkeypatch):
    original = relations.demazure_D

    def demazure_D(i, f):
        # off by one at k = 2, so the division after that step fails
        out = original(i, f)
        return out + GroupRingElement.one(f.n) if i == 2 else out

    monkeypatch.setattr(relations, "demazure_D", demazure_D)
    records = {cid: (ok, location) for cid, ok, location in check_system(4)}
    assert records["secondary-derivation"] == (True, "")
    ok, location = records["chain-vs-nested-sum-k2"]
    assert not ok and location.startswith("not divisible")
    assert records["chain-vs-nested-sum-k3"] == (False, location)
    assert records["system-rows-audit"] == (False, location)


def test_system_arbitrary_top_term():
    # at l = n-k a single tuple survives: r_t = k-t, s_t = 0
    n, k = 4, 2
    rel = system_arbitrary(n, k)
    l = n - k
    exps = [l + (k - 1)] + [0] * (n - 1)
    for t in range(2, k):
        exps[t - 1] = -(k - t + 1) + (k - t)
    exps[k - 1] = -1
    assert rel[l] == mono(n, tuple(exps), (-1) ** l)


def test_complete_symmetric_props():
    for name, ok, _ in check_csym_props():
        assert ok, name


def test_a_doubled_shift_add_fails_the_elementary_symmetry(monkeypatch):
    # a + 2x*b in place of a + x*b: the product of the factors (1 + x t)
    # loses the symmetry e_{n+l} = e_{n-l}, which the closed form keeps
    original = Poly.add_shifted
    monkeypatch.setattr(Poly, "add_shifted",
                        lambda self, x, b: original(self, x + x, b))
    failing = [cid for cid, ok, _ in check_csym_props(3)
               if cid.startswith("elementary-symmetry") and not ok]
    assert failing == ["elementary-symmetry-n%d-l%d" % nl for nl in (
        (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))]


def test_h_conventions():
    hv = [mono(1, (1,)), mono(1, (-1,))]
    row = relations._h_row(hv, 2)
    assert row[0] == GroupRingElement.one(1)
    # h_{-1} = h_{-2} = 0 in the differences h_l - h_{l-2}
    assert relations._diffs(row)[:2] == row[:2]
    assert row[2] == mono(1, (2,)) + 1 + mono(1, (-2,))


def test_elementary_examples():
    n = 2
    assert elementary_E(n, 0) == GroupRingElement.one(n)
    assert elementary_E(n, 1) == (mono(n, (1, 0)) + mono(n, (0, 1))
                                  + mono(n, (0, -1)) + mono(n, (-1, 0)))
    for l in range(1, n + 1):
        assert elementary_E(n, n + l) == elementary_E(n, n - l)
    empty = relations._e_row(n, (), 1)
    assert empty[0] == GroupRingElement.one(n)
    assert empty[1].is_zero()


def _hyperbolic(n, coords):
    """e^{eps_j}, then e^{-eps_j}, for j in coords."""
    return ([mono(n, _eps(n, j)) for j in coords]
            + [mono(n, _eps(n, j, -1)) for j in coords])


def _subsets(n):
    return [c for size in range(n + 1)
            for c in combinations(range(1, n + 1), size)]


def test_h_row_matches_brute_force():
    for n in range(1, 5):
        for coords in _subsets(n)[1:]:
            hv = _hyperbolic(n, coords)
            assert relations._h_row(hv, 5) == \
                [h_brute(n, hv, m) for m in range(6)], (n, coords)


def test_e_row_matches_brute_force():
    for n in range(1, 5):
        for coords in _subsets(n):
            top = 2 * len(coords) + 1
            assert relations._e_row(n, coords, top) == \
                [e_brute(n, _hyperbolic(n, coords), m)
                 for m in range(top + 1)], (n, coords)


def test_elementary_E_matches_brute_force():
    for n in range(1, 5):
        hv = _hyperbolic(n, range(1, n + 1))
        for l in range(2 * n + 1):
            assert elementary_E(n, l) == e_brute(n, hv, l), (n, l)


def test_csym_nested_equals_h_difference():
    nv = 3
    variables = [mono(nv, tuple(1 if t == j else 0 for t in range(nv)))
                 for j in range(nv)]
    hv = variables + [mono(nv, tuple(-e for e in v.sorted_terms()[0][0]))
                      for v in reversed(variables)]
    hd = relations._diffs(relations._h_row(hv, 4))
    for m in range(1, 5):
        assert csym_nested_lhs(variables, m) == hd[m]


def test_nested_sum_covers_two_to_five_variables():
    # two variables are the csym-3 side and the printed k = 1 relation
    for nv in range(2, 6):
        variables = [mono(nv, _eps(nv, j)) for j in range(1, nv + 1)]
        hd = relations._diffs(
            relations._h_row(relations._hyperbolic(nv, range(1, nv + 1)), 6))
        for m in range(7):
            assert csym_nested_lhs(variables, m) == hd[m], (nv, m)


def test_nested_sum_matches_the_brute_force_h_difference():
    # the oracle sums index tuples and subtracts term maps: it takes no
    # ring product, sum or shift-add
    for nv in range(2, 6):
        variables = [mono(nv, _eps(nv, j)) for j in range(1, nv + 1)]
        hv = _hyperbolic(nv, range(1, nv + 1))
        for m in range(8):
            expect = h_brute(nv, hv, m).terms
            if m >= 2:
                for key, c in h_brute(nv, hv, m - 2).terms.items():
                    expect[key] = expect.get(key, 0) - c
            assert csym_nested_lhs(variables, m) == GroupRingElement(
                nv, expect), (nv, m)


def test_nested_sum_multiplies_out_only_its_leaves(monkeypatch):
    # a product and a sum per walk path and a product per leaf: 427 ring
    # operations here, where a product per step of the walk made 6,682
    calls = []
    for name in ("__mul__", "_merge", "add_shifted", "__pow__"):
        original = getattr(Poly, name)

        def counted(*args, original=original):
            calls.append(original)
            return original(*args)
        monkeypatch.setattr(Poly, name, counted)
    csym_nested_lhs([mono(4, _eps(4, j)) for j in range(1, 5)], 6)
    assert 0 < len(calls) <= 500


def test_system_rows_audit():
    for n in range(1, 5):
        for name, ok, location in check_system(n):
            assert ok, (n, name, location)


def test_rows_annihilate_elementary():
    for n in range(1, 7):
        values = tuple(elementary_E(n, l) for l in range(n + 1))
        for row in assemble_system(n):
            total = GroupRingElement.zero(n)
            for c, v in zip(row, values):
                total = total + c * v
            assert total.is_zero(), n


def test_solve_system_rank_one():
    # X_1 = e^{eps_1} + e^{-eps_1} from the two-relation system
    sol = solve_system(1)
    assert sol == (GroupRingElement.one(1), mono(1, (1,)) + mono(1, (-1,)))


def test_solve_system_matches_elementary():
    for n in range(1, 7):
        sol = solve_system(n)
        assert sol == tuple(elementary_E(n, l) for l in range(n + 1)), n


def test_solver_rejects_non_unit_lead(monkeypatch):
    import qkc.relations as relations

    n = 1
    bad = (GroupRingElement.one(n), mono(n, (1,), 2))
    monkeypatch.setattr(relations, "assemble_system",
                        lambda m: [bad])
    with pytest.raises(SolverError):
        solve_system(n)


def test_generating_identities():
    for n in range(1, 6):
        for name, ok, _ in check_generating_identities(n):
            assert ok, (n, name)


def test_row_matches_complete_h():
    n, k = 3, 1
    row = system_row(n, k)
    hv = relations._hyperbolic(n, range(1, k + 2))
    for l in range(n - k + 1):
        expect = h_brute(n, hv, n - l - k)
        if n - l - k >= 2:
            expect = expect - h_brute(n, hv, n - l - k - 2)
        assert row[l] == (expect if l % 2 == 0 else -expect)


def _t_mul(a, b, bound):
    """Dense product of two t-polynomials (lists of Z[P] coefficients),
    truncated at degree bound: the oracle for the linear-factor products."""
    n = (a[0] if a else b[0]).n
    out = [GroupRingElement.zero(n)
           for _ in range(min(len(a) + len(b) - 1, bound + 1))]
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if i + j <= bound:
                out[i + j] = out[i + j] + ca * cb
    return out


grp2 = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                       st.integers(-3, 3), max_size=4).map(
    lambda terms: GroupRingElement(2, terms))


@settings(max_examples=80, deadline=None)
@given(st.lists(grp2, max_size=8), st.integers(0, 6),
       st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
       st.sampled_from([1, -1]))
def test_linear_factor_matches_dense_product(a, bound, exps, sign):
    x = mono(2, exps, sign)
    assert relations._t_linear(a, x, bound) == \
        _t_mul(a, [GroupRingElement.one(2), x], bound)


def _dense_gf_products(n, k, d_t):
    """The four t-polynomials of row k as dense products of expanded
    t-polynomials, in the order relations._gf_row_products returns them."""
    one, zero = GroupRingElement.one(n), GroupRingElement.zero(n)
    denom = [one]
    for x in relations._hyperbolic(n, range(1, k + 2)):
        denom = _t_mul(denom, [one, -x], d_t)
    hs = relations._h_row(relations._hyperbolic(n, range(1, k + 2)), d_t)
    hd = [hs[l] - (hs[l - 2] if l >= 2 else zero) for l in range(d_t + 1)]
    alt = [c if l % 2 == 0 else -c for l, c in enumerate(hd)]
    es = [elementary_E(n, m) for m in range(2 * n + 1)]
    tail = [mono(n, tuple(int(i == j) for i in range(n)))
            for j in range(k + 1, n)]
    tail += [mono(n, tuple(-int(i == j) for i in range(n)))
             for j in range(n - 1, k, -1)]
    rhs = [one]
    for x in tail:
        rhs = _t_mul(rhs, [one, x], d_t)
    rhs = _t_mul(rhs, [one, zero, -one], d_t)
    return (_t_mul(hs, denom, d_t), _t_mul(hd, denom, d_t),
            _t_mul(alt, es, d_t), rhs)


def test_gf_products_match_dense_products():
    for n in range(1, 5):
        d_t = 2 * n + 2
        for k in range(n):
            got = relations._gf_row_products(n, k, d_t)
            assert got == _dense_gf_products(n, k, d_t), (n, k)
        one = GroupRingElement.one(n)
        dense = [one]
        for x in relations._hyperbolic(n, range(1, n + 1)):
            dense = _t_mul(dense, [one, x], d_t)
        factors = relations._t_factors(
            [one], relations._hyperbolic(n, range(1, n + 1)), d_t)
        assert factors == dense
        es = [elementary_E(n, m) for m in range(2 * n + 1)]
        assert relations._t_trim(factors) == es, n


def test_generating_identities_make_no_dense_products(monkeypatch):
    # every ring product is a one-term operand times anything, and the
    # linear factors go through the fused shift-add
    sizes, shifts = [], []
    original_mul, original_shifted = Poly.__mul__, Poly.add_shifted

    def counting(self, other):
        right = 1 if isinstance(other, int) else len(other.terms)
        sizes.append(min(len(self.terms), right))
        return original_mul(self, other)

    def counting_shifted(self, x, b):
        shifts.append(len(x.terms))
        sizes.append(min(len(x.terms), len(b.terms)))
        return original_shifted(self, x, b)

    monkeypatch.setattr(Poly, "__mul__", counting)
    monkeypatch.setattr(Poly, "__rmul__", counting)
    monkeypatch.setattr(Poly, "add_shifted", counting_shifted)
    assert all(ok for _, ok, _ in check_generating_identities(4))
    assert shifts and set(shifts) == {1}
    assert sizes and max(sizes) <= 1
