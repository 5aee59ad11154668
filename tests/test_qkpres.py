import itertools
from math import comb

import pytest

from qkc import qkpres
from qkc.qkpres import (
    elementary_z,
    eta,
    f_poly,
    ideal_generators,
    schubert_poly,
    to_semimod,
    zeta,
)
from qkc.relations import elementary_E
from qkc.rings import (
    ConfigError,
    GroupRingElement,
    NovikovFraction,
    NovikovSeries,
    ZLaurentElement,
    specialize_Q_zero,
)
from qkc.semimod import SemiModElement, adjacent_in, ff, phi, universe
from qkc.weylc import SignedPerm, _eps

from test_semimod import check_case_table


def q_mono(n, a, b):
    return NovikovSeries.monomial(
        n, tuple(1 if a <= t <= b else 0 for t in range(1, n + 1)))


def frac(s):
    return NovikovFraction(s.n, s)


def test_zeta_table_example():
    n = 4
    I = {2, 3, -3, -1}
    one = NovikovSeries.one(n)
    assert zeta(n, I, 3) == frac(one - q_mono(n, 3, 3))
    expect_4bar = NovikovFraction(
        n, one - q_mono(n, 3, 3) + q_mono(n, 3, 4), (0, 0, 1, 0))
    assert zeta(n, I, -4) == expect_4bar
    assert zeta(n, I, 1) == frac(one)
    assert zeta(n, I, 2) == frac(one)
    assert zeta(n, I, 4) == frac(one)
    # these two follow the printed definition; the example table disagrees
    assert zeta(n, I, -3) == frac(one - q_mono(n, 2, 2))
    assert zeta(n, I, -2) == frac(one)
    assert zeta(n, I, -1) == frac(one)


# zeta and eta as they read the index set I directly: the oracle for the
# tables keyed by semimod._case.

def oracle_zeta(n, I, j, trunc=None):
    out = NovikovFraction.one(n)
    if j > 0:
        succ = j + 1 if j < n else -n
        if j in I and succ not in I:
            out = out - q_mono(n, j, j)
    elif j != -1:
        jj = -j
        if adjacent_in(n, I, jj - 1, -(jj - 1)):
            num = (NovikovSeries.one(n) - q_mono(n, jj - 1, jj - 1)
                   + q_mono(n, jj - 1, n))
            out = NovikovFraction(n, num, _eps(n, jj - 1))
        elif -jj in I and -(jj - 1) not in I:
            out = out - q_mono(n, jj - 1, jj - 1)
    return out if trunc is None else out.truncate(trunc)


def oracle_eta(n, I, j, trunc=None):
    out = NovikovFraction.one(n)
    if j > 0 and j in I:
        out = NovikovFraction.geometric(n, j)
    elif j < -1 and j in I:
        out = NovikovFraction.geometric(n, -j - 1)
    return out if trunc is None else out.truncate(trunc)


@pytest.mark.parametrize("fn, oracle, table", [
    (zeta, oracle_zeta, qkpres._zeta),
    (eta, oracle_eta, qkpres._eta),
], ids=["zeta", "eta"])
def test_case_table_matches_index_set_oracle(fn, oracle, table):
    check_case_table(fn, oracle, table)


def test_empty_set_gives_trivial_factors():
    n = 3
    one = frac(NovikovSeries.one(n))
    for j in universe(n):
        assert zeta(n, (), j) == one
        assert eta(n, (), j) == one
        assert phi(n, (), j) == one


def test_zeta_eta_phi_pointwise():
    for n in (1, 2, 3):
        pool = universe(n)
        for size in range(len(pool) + 1):
            for I in itertools.combinations(pool, size):
                for j in pool:
                    assert zeta(n, I, j) * eta(n, I, j) == phi(n, I, j), \
                        (n, I, j)
    # and in truncated mode
    for j in universe(2):
        assert (zeta(2, {1, -1}, j, trunc=5) * eta(2, {1, -1}, j, trunc=5)
                == phi(2, {1, -1}, j, trunc=5)), j


def test_q_zero_specialization_of_factors():
    n = 2
    for I in ({1}, {1, 2}, {2, -2}, {-1, -2}):
        for j in universe(n):
            for fn in (zeta, phi):
                value = fn(n, I, j, trunc=4)
                spec = specialize_Q_zero(ZLaurentElement.constant(n, value))
                assert specialize_Q_zero(spec) == spec
                assert not spec.is_zero()


def test_f_small_cases():
    n = 1
    one = NovikovSeries.one(n)
    expect = ZLaurentElement(n, [((1,), frac(one - q_mono(n, 1, 1))),
                                 ((-1,), frac(one))])
    assert f_poly(n, 1) == expect
    assert f_poly(n, 0) == ZLaurentElement.constant(n, frac(one))
    with pytest.raises(ConfigError):
        f_poly(2, 1, "upper")


def test_specialization_is_elementary():
    for n in (1, 2, 3):
        for l in range(2 * n + 1):
            lhs = specialize_Q_zero(f_poly(n, l))
            assert lhs == specialize_Q_zero(elementary_z(n, l)), (n, l)


def test_specialized_term_count():
    for n in (1, 2, 3, 4):
        for l in range(2 * n + 1):
            spec = specialize_Q_zero(f_poly(n, l))
            total = 0
            for _, c in spec.sorted_terms():
                [(_, v)] = c.sorted_terms()
                total += v
            assert total == comb(2 * n, l), (n, l)


def test_ideal_generators():
    n = 2
    gens = ideal_generators(n)
    assert len(gens) == n
    for l, g in enumerate(gens, start=1):
        spec = specialize_Q_zero(g)
        classical = specialize_Q_zero(
            elementary_z(n, l)
            - ZLaurentElement.constant(
                n, NovikovFraction.one(n) * elementary_E(n, l)))
        assert spec == classical
    n = 1
    g, = ideal_generators(n)
    one = NovikovSeries.one(n)
    expect = (ZLaurentElement(n, [((1,), frac(one - q_mono(n, 1, 1))),
                                  ((-1,), frac(one))])
              - ZLaurentElement.constant(
                  n, frac(one) * elementary_E(n, 1)))
    assert g == expect


def test_schubert_poly():
    n = 2
    e1_inv = GroupRingElement.monomial(n, (-1, 0), -1)
    expect = (f_poly(n, 0, "upper", 1)
              + f_poly(n, 1, "upper", 1).scale(e1_inv))
    assert schubert_poly(n, 1) == expect
    assert schubert_poly(n, n, "barred") == schubert_poly(n, n, "upper")
    with pytest.raises(ConfigError):
        schubert_poly(n, 0)


def test_to_semimod_basics():
    n = 2
    one = ZLaurentElement.constant(n, NovikovFraction.one(n))
    assert to_semimod(one) == SemiModElement.one(n)
    # z_1 drags (1 - T_0)/(1 - T_1) along, with T_0 = 0
    z1 = ZLaurentElement(n, [((1, 0), NovikovFraction.one(n))])
    assert to_semimod(z1) == SemiModElement(n, [(
        (SignedPerm.identity(n), (-1, 0)), NovikovFraction.geometric(n, 1))])


def test_to_semimod_matches_module_elements():
    for n in (1, 2):
        for l in range(2 * n + 1):
            assert to_semimod(f_poly(n, l)) == ff(n, l), (n, l)
        for k in range(1, n + 1):
            for l in range(k + 1):
                assert to_semimod(f_poly(n, l, "upper", k)) \
                    == ff(n, l, "upper", k)
            for l in range(2 * n - k + 1):
                assert to_semimod(f_poly(n, l, "barred", k)) \
                    == ff(n, l, "barred", k)


def test_to_semimod_truncated_mode():
    n, trunc = 2, 6
    for l in range(2 * n + 1):
        assert to_semimod(f_poly(n, l, trunc=trunc)) == ff(n, l, trunc=trunc)


def test_image_symmetry():
    for n in (1, 2):
        for l in range(n + 1):
            lhs = to_semimod(f_poly(n, n + l))
            assert lhs == to_semimod(f_poly(n, n - l))


def _variants(n):
    yield "full", None, range(2 * n + 1)
    for k in range(n + 1):
        yield "upper", k, range(k + 1)
        yield "barred", k, range(2 * n - k + 1)


def test_exact_mode_expands_to_truncated_mode():
    for n in (1, 2, 3):
        d = 2 * n + 2
        for variant, k, ls in _variants(n):
            for l in ls:
                exact = f_poly(n, l, variant, k)
                truncated = f_poly(n, l, variant, k, trunc=d)
                assert exact.map_coefficients(
                    lambda c: c.truncate(d)) == truncated, (n, variant, k, l)
                assert to_semimod(exact).map_coefficients(
                    lambda c: c.truncate(d)) == to_semimod(truncated), \
                    (n, variant, k, l)
                assert ff(n, l, variant, k).map_coefficients(
                    lambda c: c.with_trunc(d)) == ff(n, l, variant, k, d), \
                    (n, variant, k, l)
