import pytest
from hypothesis import given, settings, strategies as st

from qkc.rings import (
    MAX_EXPONENT,
    ConfigError,
    DivisibilityError,
    GroupRingElement,
    NovikovFraction,
    NovikovSeries,
    QExtElement,
    ZLaurentElement,
    exact_div,
    specialize_Q_zero,
)


def e(n, *exps):
    return GroupRingElement.monomial(n, exps)


def test_inverse_monomials_cancel():
    assert e(2, 1, 0) * e(2, -1, 0) == GroupRingElement.one(2)


def test_truncated_geometric_identity():
    one = NovikovSeries.one(1, trunc=2)
    q1 = NovikovSeries.variable(1, 1, trunc=2)
    assert (one - q1) * (one + q1 + q1 * q1) == one


def test_distributivity_example():
    a = e(1, 1)
    assert a * (e(1, 1) + e(1, -1)) == e(1, 2) + GroupRingElement.one(1)


def test_rank_mismatch_is_config_error():
    with pytest.raises(ConfigError):
        e(1, 1) + e(2, 1, 0)


def test_trunc_mismatch_is_config_error():
    with pytest.raises(ConfigError):
        NovikovSeries.one(1, trunc=2) + NovikovSeries.one(1, trunc=3)


def test_division_by_one_minus_x_example():
    g = NovikovSeries.one(1, 3) * NovikovFraction.geometric(1, 1)
    q1 = NovikovSeries.variable(1, 1, trunc=3)
    expect = NovikovSeries.one(1, 3) + q1 + q1 ** 2 + q1 ** 3
    assert type(g) is NovikovSeries and g.trunc == 3
    assert g == expect
    assert (NovikovSeries.one(1, 3) - q1) * g == NovikovSeries.one(1, 3)


def test_phi_style_factor_expansion():
    # 1 + Q_1 Q_2 / (1 - Q_1) at n=2, D=3
    d = 3
    f = NovikovSeries.one(2, d) + (
        NovikovSeries.monomial(2, (1, 1), trunc=d)
        * NovikovFraction.geometric(2, 1))
    q1 = NovikovSeries.variable(2, 1, trunc=d)
    q2 = NovikovSeries.variable(2, 2, trunc=d)
    assert f == NovikovSeries.one(2, d) + q1 * q2 + q1 * q1 * q2


def test_a_term_dropped_by_the_cut_leaves_no_exponent_bound():
    x = NovikovSeries.variable(1, 1, trunc=2)
    by_monomial = NovikovSeries.monomial(1, (MAX_EXPONENT,), trunc=2)
    by_constructor = NovikovSeries(1, 2, {(MAX_EXPONENT,) * 2 + (0, 0): 1})
    cut = NovikovSeries.monomial(1, (MAX_EXPONENT,)).with_trunc(2)
    for zero in (by_monomial, by_constructor, cut):
        assert zero.is_zero() and zero == by_constructor
        assert (zero * x).is_zero() and (x * zero).is_zero()
        assert (zero * NovikovFraction.geometric(1, 1)).is_zero()


def test_exact_div_factorization():
    n = 2
    a = GroupRingElement.one(n) - e(n, 2, 2)
    d = GroupRingElement.one(n) - e(n, 1, 1)
    assert exact_div(a, d) == GroupRingElement.one(n) + e(n, 1, 1)


def test_exact_div_geometric_block():
    # (e^{-2 eps1} - e^{-2 eps2}) / (1 - e^{eps1 - eps2})
    n = 2
    a = e(n, -2, 0) - e(n, 0, -2)
    d = GroupRingElement.one(n) - e(n, 1, -1)
    assert exact_div(a, d) == e(n, -2, 0) * (GroupRingElement.one(n) + e(n, 1, -1))


def test_exact_div_failure():
    n = 1
    with pytest.raises(DivisibilityError):
        exact_div(GroupRingElement.one(n), GroupRingElement.one(n) - e(n, 1))


def test_exact_div_monomial():
    # every caller divides by a binomial: a monomial is no divisor
    n = 2
    for d in (e(n, 1, 1) * 2, e(n, 0, 0)):
        with pytest.raises(ConfigError):
            exact_div(e(n, 3, 1) * 4, d)


def test_specialize_Q_zero_example():
    n = 1
    one = NovikovSeries.one(n, None)
    q1 = NovikovSeries.variable(n, 1, None)
    f = ZLaurentElement(n, [((1,), one - q1), ((-1,), one)])
    g = specialize_Q_zero(f)
    expect = ZLaurentElement(n, [((1,), one), ((-1,), one)])
    assert g == expect
    assert specialize_Q_zero(ZLaurentElement.constant(n, one)) == \
        ZLaurentElement.constant(n, one)


def test_fraction_arithmetic_and_equality():
    n = 2
    half1 = NovikovFraction.geometric(n, 1)
    one = NovikovFraction.one(n)
    q1 = NovikovSeries.variable(n, 1)
    # 1/(1-Q1) - Q1/(1-Q1) = 1
    num_q = NovikovFraction(n, q1, (1, 0))
    assert half1 - num_q == one
    # truncation divides 1 by (1 - Q1): the geometric series
    q1_5 = NovikovSeries.variable(n, 1, 5)
    assert half1.truncate(5) == sum(
        (q1_5 ** k for k in range(6)), NovikovSeries.zero(n, 5))
    # cross-multiplied equality with differing denominators
    lhs = NovikovFraction(n, NovikovSeries.one(n) - q1, (1, 0))
    assert lhs == one


def test_render_is_stable():
    n = 2
    x = e(n, 1, 0) - e(n, 0, -1) * 2
    assert x.render() == "-2*e[0,-1] + e[1,0]"
    assert (x - x).render() == "0"
    assert QExtElement.monomial(n, (0, 1), -1, -2).render() == "-q^-2*e[0,1]"
    s = NovikovSeries.monomial(n, (2, 0), coeff=QExtElement.monomial(n, (0, 0), qexp=1))
    assert s.render() == "(q)*Q1^2"


grp = st.builds(
    lambda terms: GroupRingElement(2, {k: v for k, v in terms}),
    st.lists(st.tuples(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.integers(-5, 5)), max_size=5),
)


@settings(max_examples=80, deadline=None)
@given(grp, grp, grp)
def test_ring_axioms_group_ring(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(grp, st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
def test_exact_div_roundtrip(a, m1, m2, n1, n2):
    d = GroupRingElement(2, {(m1, m2): 1}) - GroupRingElement(2, {(n1, n2): 1})
    if d.is_zero():
        return
    assert exact_div(a * d, d) == a


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 16))
def test_division_by_one_minus_x_is_two_sided(j, d):
    n = 3
    geometric = NovikovFraction.geometric(n, j)
    one = NovikovSeries.one(n, d)
    factor = one - NovikovSeries.variable(n, j, d)
    g = geometric.truncate(d)
    assert factor * g == one
    assert g * factor == one
    assert factor * geometric == one
    assert geometric * factor == one


nov = st.builds(
    lambda terms: sum(
        (NovikovSeries.monomial(1, (k,), QExtElement.monomial(1, (w,), coeff=c))
         for k, w, c in terms), NovikovSeries.zero(1)),
    st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2),
                       st.integers(-4, 4)), max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(nov, nov)
def test_specialization_is_ring_hom(a, b):
    fa = ZLaurentElement(1, [((1,), a)])
    fb = ZLaurentElement(1, [((1,), b)])
    assert specialize_Q_zero(fa + fb) == specialize_Q_zero(fa) + specialize_Q_zero(fb)
    # a sum is multiplied only by a coefficient: its Q = 0 part goes along
    b0 = specialize_Q_zero(ZLaurentElement.constant(1, b)).terms.get(
        (0,), NovikovSeries.zero(1))
    assert specialize_Q_zero(fa.scale(b)) == specialize_Q_zero(fa).scale(b0)


def test_cross_layout_equality_is_symmetric():
    n = 2
    e1 = e(n, 1, 0)
    values = [
        1, 2,
        GroupRingElement.one(n), GroupRingElement.one(n) * 2, e1,
        QExtElement.one(n), QExtElement.monomial(n, (1, 0)),
        QExtElement.monomial(n, (1, 0), qexp=1),
        NovikovSeries.one(n, 4), NovikovSeries.monomial(n, (0, 0), e1, 4),
        NovikovSeries.one(n), NovikovSeries.monomial(n, (0, 0), e1),
        NovikovSeries.variable(n, 1, 4), NovikovSeries.variable(n, 1),
        NovikovFraction.one(n), NovikovFraction.one(n) * e1,
        NovikovFraction.geometric(n, 1),
    ]
    for a in values:
        for b in values:
            assert (a == b) == (b == a), (a, b)
    for a in values[2:]:  # ring values are not hashable
        with pytest.raises(TypeError):
            hash(a)
    assert GroupRingElement.one(n) == QExtElement.one(n)
    assert GroupRingElement.one(n) == 1
    assert NovikovSeries.monomial(n, (0, 0), e1) == NovikovFraction.one(n) * e1
    # a truncated series and an exact fraction are values of different
    # modes, unequal either way round (as series of different truncs are)
    assert NovikovSeries.one(n, 4) != NovikovFraction.one(n)
    assert NovikovFraction.one(n) != NovikovSeries.one(n, 4)
    assert NovikovSeries.one(n, 4) != NovikovSeries.one(n)
    assert NovikovSeries.one(n, 4) == 1 == NovikovSeries.one(n)


# An oracle that shares no code with the kernel: sympy expands the same
# values written as Laurent expressions in X1, X2 (series variables), q
# and E1, E2 (e^{eps_1}, e^{eps_2}), and the result is read back into the
# key layout of the expected ring.

try:
    import sympy
except ImportError:
    sympy = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")

N = 2
LAYOUTS = (GroupRingElement, QExtElement, NovikovSeries)
if sympy is not None:
    X = sympy.symbols("X1:%d" % (N + 1))
    Q = sympy.Symbol("q")
    E = sympy.symbols("E1:%d" % (N + 1))
    SLOTS = {GroupRingElement: E, QExtElement: (Q,) + E,
             NovikovSeries: X + (Q,) + E}


def to_expr(p):
    """A Poly as a sympy expression; a series key's leading total degree
    is left out."""
    syms = SLOTS[type(p)]
    skip = 1 if isinstance(p, NovikovSeries) else 0
    return sympy.Add(*[c * sympy.Mul(*[s ** e for s, e in zip(syms, k[skip:])])
                       for k, c in p.terms.items()])


def oracle_terms(expr, cls, trunc=None):
    """The terms of expr, expanded by sympy, in the key layout of cls;
    for a series, the terms of total degree above trunc are dropped."""
    syms = SLOTS[cls]
    out = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        if term == 0:
            continue
        coeff, mono = term.as_coeff_Mul()
        assert coeff.is_integer, term
        powers = mono.as_powers_dict()
        exps = tuple(int(powers.get(s, 0)) for s in syms)
        if cls is NovikovSeries:
            deg = sum(exps[:N])
            if trunc is not None and deg > trunc:
                continue
            exps = (deg,) + exps
        out[exps] = int(coeff)
    return out


def fraction_expr(f):
    den = sympy.Mul(*[(1 - x) ** d for x, d in zip(X, f.den)])
    return to_expr(f.num) / den


@st.composite
def elements(draw, cls, trunc=None):
    """A random element of one layout: dense, one term, a constant or 1."""
    shape = draw(st.sampled_from(("dense", "one-term", "constant", "unit")))
    if shape == "unit":
        return NovikovSeries.one(N, trunc) if cls is NovikovSeries \
            else cls.one(N)
    small = st.integers(-2, 2)
    terms = {}
    for _ in range(1 if shape != "dense" else draw(st.integers(0, 6))):
        w = tuple(draw(small) for _ in range(N))
        key = w if cls is GroupRingElement else (draw(small),) + w
        if cls is NovikovSeries:
            x = tuple(draw(st.integers(0, 3)) for _ in range(N))
            key = (sum(x),) + x + key
        if shape == "constant":
            key = (0,) * len(key)
        terms[key] = draw(st.integers(-4, 4).filter(bool))
    if cls is NovikovSeries:
        return NovikovSeries(N, trunc, terms)
    return cls(N, terms)


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_products_and_sums_match_sympy(data):
    trunc = data.draw(st.sampled_from((None, 0, 1, 2, 4)))
    ca = data.draw(st.sampled_from(LAYOUTS))
    cb = data.draw(st.sampled_from(LAYOUTS))
    a = data.draw(elements(ca, trunc))
    b = data.draw(elements(cb, trunc))
    wide = max(ca, cb, key=LAYOUTS.index)
    A, B = to_expr(a), to_expr(b)
    for got, expr in ((a * b, A * B), (b * a, A * B),
                      (a + b, A + B), (a - b, A - B)):
        assert type(got) is wide
        assert got.terms == oracle_terms(expr, wide, trunc), (a, b)


@needs_sympy
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_exact_div_matches_sympy(data):
    key = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    c = data.draw(st.integers(-3, 3).filter(bool))
    nu = data.draw(key)
    mu = data.draw(key.filter(lambda k: k != nu))
    d = GroupRingElement(N, {mu: c, nu: -c})
    a = data.draw(elements(GroupRingElement))
    if data.draw(st.booleans()):  # a multiple of d
        a = GroupRingElement(
            N, oracle_terms(to_expr(a) * to_expr(d), GroupRingElement))
    quotient = sympy.cancel(to_expr(a) / to_expr(d))
    _, den = sympy.fraction(sympy.together(quotient))
    terms = sympy.Add.make_args(sympy.expand(quotient))
    if sympy.Poly(den, *E).is_monomial and all(
            t.as_coeff_Mul()[0].is_integer for t in terms):
        assert exact_div(a, d).terms == oracle_terms(quotient, GroupRingElement)
    else:
        with pytest.raises(DivisibilityError):
            exact_div(a, d)


@st.composite
def fractions(draw):
    num = draw(elements(NovikovSeries))
    den = tuple(draw(st.integers(0, 2)) for _ in range(N))
    return NovikovFraction(N, num, den)


@needs_sympy
@settings(max_examples=100, deadline=None)
@given(fractions(), st.data())
def test_fraction_equality_matches_sympy(fa, data):
    if data.draw(st.booleans()):
        # the same value over a larger denominator
        j = data.draw(st.integers(0, N - 1))
        k = data.draw(st.integers(1, 2))
        num = oracle_terms(to_expr(fa.num) * (1 - X[j]) ** k, NovikovSeries)
        den = tuple(d + k * (i == j) for i, d in enumerate(fa.den))
        fb = NovikovFraction(N, NovikovSeries(N, None, num), den)
    else:
        fb = data.draw(fractions())
    expect = sympy.cancel(fraction_expr(fa) - fraction_expr(fb)) == 0
    assert (fa == fb) == expect
    assert (fb == fa) == expect


M = MAX_EXPONENT


def bound(p):
    """The largest exponent, deg included, of p's terms in absolute
    value: the bound of a value built from its terms."""
    return max((abs(x) for k in p.terms for x in k), default=0)


@st.composite
def edge_elements(draw, cls, trunc=None):
    """Elements whose exponents reach the ends of the slot range; series
    terms sit at, just below and just above trunc."""
    edge = st.sampled_from((-M, -M + 1, -1, 0, 1, M - 1, M))
    degrees = [0, 1, M] if trunc is None else [max(trunc - 1, 0), trunc,
                                                trunc + 1]
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        key = tuple(draw(edge) for _ in range(N))
        if cls is not GroupRingElement:
            key = (draw(edge),) + key
        if cls is NovikovSeries:
            deg = draw(st.sampled_from(degrees))
            x1 = draw(st.sampled_from((0, deg)))
            key = (deg, x1, deg - x1) + key
        terms[key] = draw(st.integers(-3, 3).filter(bool))
    if cls is NovikovSeries:
        return NovikovSeries(N, trunc, terms)
    return cls(N, terms)


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_values_at_the_slot_bounds_match_sympy_or_raise(data):
    trunc = data.draw(st.sampled_from((None, 0, 1, 4)))
    ca = data.draw(st.sampled_from(LAYOUTS))
    cb = data.draw(st.sampled_from(LAYOUTS))
    a = data.draw(edge_elements(ca, trunc))
    b = data.draw(st.one_of(edge_elements(cb, trunc), elements(cb, trunc)))
    wide = max(ca, cb, key=LAYOUTS.index)
    A, B = to_expr(a), to_expr(b)
    for got, expr in ((a + b, A + B), (a - b, A - B)):
        assert got.terms == oracle_terms(expr, wide, trunc), (a, b)
    if bound(a) + bound(b) > M:
        for product in (lambda: a * b, lambda: b * a):
            with pytest.raises(ConfigError):
                product()
    else:
        for got in (a * b, b * a):
            assert type(got) is wide
            assert got.terms == oracle_terms(A * B, wide, trunc), (a, b)


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fraction_times_truncated_series_matches_sympy(data):
    # the series times the numerator, with each (1 - x_j)^c divided out,
    # against sympy's expansion cut at total degree trunc
    trunc = data.draw(st.sampled_from((0, 1, 2, 4)))
    s = data.draw(st.one_of(elements(NovikovSeries, trunc),
                            edge_elements(NovikovSeries, trunc)))
    num = data.draw(elements(NovikovSeries))
    if bound(s) + bound(num) > M:  # the product would raise
        num = NovikovSeries.one(N)
    den = tuple(data.draw(st.integers(0, 3)) for _ in range(N))
    f = NovikovFraction(N, num, den)
    before = s.terms
    expansion = sympy.Mul(*[
        sympy.series((1 - x) ** -c, x, 0, trunc + 1).removeO()
        for x, c in zip(X, den)])
    expect = oracle_terms(to_expr(s) * to_expr(num) * expansion,
                          NovikovSeries, trunc)
    for got in (s * f, f * s):
        assert type(got) is NovikovSeries and got.trunc == trunc
        assert got.terms == expect, (s, f)
    assert f.truncate(trunc).terms == oracle_terms(
        to_expr(num) * expansion, NovikovSeries, trunc)
    assert s.terms == before


def test_cut_keeps_degree_trunc_with_the_most_negative_lower_slots():
    for trunc in (0, 1, 5):
        low = (-M,) * (N + 1)
        at = (trunc, trunc, 0) + low
        above = (trunc + 1, 0, trunc + 1) + low
        top = (trunc, 0, trunc) + (M,) * (N + 1)
        s = NovikovSeries(N, trunc, {at: 1, above: 2, top: 3})
        assert s.terms == {at: 1, top: 3}
        assert s.sorted_terms() == sorted(s.terms.items())


def test_cut_at_the_ends_of_the_series_layout():
    # Raw keys at the two ends of the layout: the cut reads only the top
    # slot, so the slots below it need not add up to the degree here.
    lower = 2 * N + 1

    def series(trunc, *keys):
        return NovikovSeries(N, trunc, {k: 1 for k in keys})

    for trunc in (0, 1, 5):
        last = (trunc,) + (M,) * lower  # the greatest key of degree trunc
        first = (trunc + 1,) + (-M,) * lower  # the least one above it
        assert series(trunc, last, first).terms == {last: 1}
        below = (trunc,) + (1 - M,) * lower
        step = (1,) + (-1,) * lower
        unit = (0,) * (lower + 1)
        a, b = series(trunc, below), series(trunc, step)
        assert (a * b).is_zero()  # the one-term shift lands on `first`
        expect = series(trunc, below, unit, *([step] if trunc else []))
        assert series(trunc, below, unit) * series(trunc, step, unit) == expect
        if trunc:  # at trunc 0, b is cut to zero, which is no shift
            assert a.add_shifted(b, a) == a
        up = series(trunc, (0,) + (1,) * lower)
        assert (series(trunc, (trunc,) + (M - 1,) * lower) * up).terms \
            == {last: 1}


def test_exponents_past_the_bound_raise_and_never_wrap():
    top, bottom = e(N, M, 0), e(N, -M, 0)
    for make in (lambda: GroupRingElement(N, {(M + 1, 0): 1}),
                 lambda: QExtElement.monomial(N, (0, 0), qexp=-M - 1),
                 lambda: NovikovSeries.monomial(N, (M, 1)),
                 lambda: top * e(N, 1, 0),
                 lambda: bottom * e(N, -1, 5),
                 lambda: (top + e(N, 0, 1)) * (e(N, 0, 0) + e(N, 2, 0)),
                 lambda: e(N, 0, 1) ** (M + 1),
                 lambda: e(N, 2, 0) ** (M // 2 + 1),
                 lambda: GroupRingElement.one(N).add_shifted(top, e(N, 1, 0)),
                 lambda: QExtElement.monomial(N, (0, 0), qexp=M)
                 * NovikovSeries.monomial(N, (1, 0), QExtElement.monomial(
                     N, (0, 0), qexp=1))):
        with pytest.raises(ConfigError):
            make()
    # a product raises once its operands' bounds add up past M, even
    # where every pair of terms would stay in range
    for make in (lambda: top * e(N, -1, 0), lambda: top * bottom,
                 lambda: top.add_shifted(bottom, top)):
        with pytest.raises(ConfigError):
            make()
    assert top * e(N, 0, 0) == top
    assert e(N, 0, -1) ** M == e(N, 0, -M)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_add_shifted_matches_add_and_multiply(data):
    trunc = data.draw(st.sampled_from((None, 0, 1, 2, 4)))
    ca, cx, cb = (data.draw(st.sampled_from(LAYOUTS)) for _ in range(3))
    a = data.draw(elements(ca, trunc))
    x = data.draw(elements(cx, trunc).filter(lambda v: len(v.terms) == 1))
    b = data.draw(elements(cb, trunc))
    if data.draw(st.booleans()):
        a = a - x * b  # the shift-add then cancels every shifted term
    expect = a + x * b
    got = a.add_shifted(x, b)
    assert type(got) is type(expect) and got.trunc == expect.trunc
    assert got.terms == expect.terms
    assert got == expect
    two = GroupRingElement.one(N) + e(N, 1, 0)
    two_q = QExtElement.monomial(N, (0, 0)) + QExtElement.monomial(N, (1, 0))
    for bad in (two, two_q, NovikovSeries.monomial(N, (0, 0), two, trunc), 2,
                GroupRingElement.zero(N)):
        with pytest.raises(ConfigError):
            a.add_shifted(bad, b)
