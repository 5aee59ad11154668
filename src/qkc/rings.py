"""Exact arithmetic kernel.

All integer-coefficient arithmetic lives in `Poly`: a sparse map from
exponent keys to nonzero integers, multiplied term by term.  A key is
one packed int (Kronecker substitution, as in Monagan & Pearce, "Sparse
polynomial multiplication and division in Maple 14", 2009, and
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007): the exponent tuple (e_1, ..., e_L) is stored as
e_1 S^{L-1} + ... + e_L, with a slot base S of about 2^32 and signed
slots, so multiplying two monomials adds their keys.  Besides the ring
operations, `a.add_shifted(x, b)` is a + x*b for a one-term x, fused
into one pass over b's terms: the step of a recurrence such as
h_d += x h_{d-1} then builds no shifted copy to merge.

Three subclasses fix the layout, the constructors and the printed form;
they have no arithmetic of their own.  In the order of the exponent
tuple, most significant slot first:

* GroupRingElement -- the group ring Z[P] = Z[e^{+-eps_1}, ..., e^{+-eps_n}],
  keys (w_1..w_n), the exponent vector in the eps-basis.
* QExtElement -- Z[q^{+-1}][P], keys (q, w_1..w_n).
* NovikovSeries -- power series in n commuting variables (Q_1..Q_n, or the
  shift variables T_1..T_n) over Z[q^{+-1}][P], keys
  (deg, x_1..x_n, q, w_1..w_n) with deg = x_1 + ... + x_n.  The series is
  truncated at total degree `trunc`, or kept as an exact polynomial
  (trunc=None).  With deg in the top slot, a product term is dropped by
  one compare, ka + kb >= cut; deg never decides the printed order.

The weight slots are the low slots of every layout, then q, then the
series slots, so a key of a narrower layout is already the same int in
a wider one: mixing layouts needs no conversion, and values that are
equal compare equal whatever their layout.  An int is a constant of any
layout.  Values are not hashable: tables key by ints, tuples or object
identity, never by a term map.

Every exponent, deg included, lies in [-MAX_EXPONENT, MAX_EXPONENT].
Each value carries a bound on its exponents: the largest exponent of the
terms it is built from, and for a product the sum of its operands'
bounds.  A product whose bound leaves the range raises ConfigError, even
where each pair of terms would fit, so no term is checked and a key
never wraps into its neighbour slot.

The packed map is private to this module.  `.terms` is a decoded copy
with the exponent tuples above as keys, `sorted_terms` lists the terms in
the order of those tuples, and constructors take tuple-keyed dicts.

NovikovFraction is the denominator-cleared exact mode: an exact
NovikovSeries numerator together with multiplicities of (1 - x_j) factors
in the denominator, compared by cross-multiplication.  Fractions are never
reduced to lowest terms: the checks only compare them, which needs no
polynomial gcd, so a fraction prints its numerator as it was computed.
A fraction times a truncated series is a truncated series: the series
times the numerator, with each factor (1 - x_j) divided out as a running
sum along x_j up to the cut, so no denominator is ever expanded.

KeyedSum is a finite sum over hashable basis keys with Poly or
NovikovFraction coefficients, built from (key, coefficient) pairs in one
pass.  ZLaurentElement (keys: exponent vectors of z_1..z_n),
semimod.SemiModElement and ichevalley.SemiClassSum add their keys'
printed form; a sum is multiplied only by a ring element, with `scale`.

Values are immutable and may be shared between callers: every operation
returns a new value, and no code mutates a term map (or a fraction's
numerator and denominator) in place.  The units and the fraction
denominators are therefore built once per argument tuple and handed out
to every caller.

Every value kept between calls is kept in a `table`, built once per
argument tuple.  `verify.run_suite` empties every table when it starts
and again when it ends, so no value outlives the run that built it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

# A slot holds a balanced digit -M..M, M = MAX_EXPONENT = (S - 1) / 2,
# for the odd slot base S = _BASE.  S is not a power of two: Python
# hashes an int as its residue mod 2^61 - 1 and a dict indexes by the
# low bits of that hash, which for S = 2^32 depend on few slots.  On the
# term maps of `verify --n 5`, such keys fill about a tenth of the dict
# cells that random hashes fill; with S = 2^32 - 17 they fill as many.
_BASE = (1 << 32) - 17
MAX_EXPONENT = (_BASE - 1) // 2


class ConfigError(ValueError):
    """Operands disagree on rank or truncation degree, or an exponent
    leaves the key range."""


class DivisibilityError(ArithmeticError):
    """exact_div was asked for a quotient that does not exist."""


TABLES = []


def table(fn):
    """fn with each value kept per argument tuple until `clear_tables`."""
    memo = lru_cache(maxsize=None)(fn)
    TABLES.append(memo)
    return memo


def clear_tables():
    for memo in TABLES:
        memo.cache_clear()


def _slots(level, n):
    """Number of key slots of a layout."""
    return (n, n + 1, 2 * n + 2)[level]


def _encode(key):
    k = 0
    for e in key:
        k = k * _BASE + e
    return k


def _bias(slots):
    """The key whose every slot is MAX_EXPONENT: adding it makes every
    digit of a key non-negative."""
    return MAX_EXPONENT * ((_BASE ** slots - 1) // (_BASE - 1))


def _decoder(slots):
    """The map from a packed key to its exponent tuple of `slots` slots."""
    bias = _bias(slots)
    powers = [_BASE ** i for i in range(slots - 1, -1, -1)]

    def decode(k):
        u, out = k + bias, []
        for p in powers:
            digit, u = divmod(u, p)
            out.append(digit - MAX_EXPONENT)
        return tuple(out)

    return decode


@table
def _cut(n, trunc):
    """The least series key of degree trunc + 1: a key has degree <= trunc
    iff it is below _cut, since the slots under deg add up to less than
    half of deg's unit in absolute value.  Kept per (n, trunc), as every
    truncated product reads it."""
    if trunc is None:
        return None
    top = _BASE ** (2 * n + 1)
    return trunc * top + (top + 1) // 2


def _reach(value):
    return value._reach if isinstance(value, Poly) else 0


class Poly:
    """Sparse polynomial with integer coefficients over packed int keys.

    A subclass sets `_level` (0 group ring, 1 q-extended, 2 series); trunc
    is None except for truncated series.
    """

    __slots__ = ("n", "trunc", "_packed", "_reach")
    _level = 0

    def __init__(self, n, terms=None, trunc=None):
        """terms: a dict from exponent tuples of this layout to ints."""
        slots = _slots(self._level, n)
        cut = _cut(n, trunc)
        packed, reach = {}, 0
        for key, v in (terms or {}).items():
            if v:
                if len(key) != slots:
                    raise ConfigError("key %r does not fit the layout" % (key,))
                top = max(map(abs, key))
                if top > MAX_EXPONENT:
                    raise ConfigError("exponent out of range: %d" % top)
                k = _encode(key)
                if cut is None or k < cut:
                    packed[k] = v
                    reach = max(reach, top)
        self.n, self.trunc, self._packed, self._reach = n, trunc, packed, reach

    @classmethod
    def _make(cls, n, trunc, packed, reach):
        """A value over an already clean packed map."""
        out = object.__new__(cls)
        out.n, out.trunc, out._packed, out._reach = n, trunc, packed, reach
        return out

    def _like(self, packed, reach):
        """A value of this layout and trunc over an already clean map."""
        return self._make(self.n, self.trunc, packed, reach)

    @property
    def terms(self):
        """The terms as a dict from exponent tuples to coefficients: a
        decoded copy, so changing it leaves the value as it was."""
        decode = _decoder(_slots(self._level, self.n))
        return {decode(k): v for k, v in self._packed.items()}

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n):
        return cls._make(n, None, {0: 1}, 0)

    def is_zero(self):
        return not self._packed

    def _pair(self, other):
        """(operand whose layout the result takes, self's packed map,
        other's packed map); None when other is not an int or a Poly."""
        if isinstance(other, int):
            return self, self._packed, {0: other} if other else {}
        if not isinstance(other, Poly):
            return None
        if self.n != other.n:
            raise ConfigError("rank mismatch: %d vs %d" % (self.n, other.n))
        if self._level == other._level and self.trunc != other.trunc:
            raise ConfigError(
                "truncation mismatch: %r vs %r" % (self.trunc, other.trunc))
        like = other if other._level > self._level else self
        return like, self._packed, other._packed

    def _merge(self, other, sign):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        like, ta, tb = pair
        out = dict(ta)
        for k, v in tb.items():
            s = out.get(k, 0) + sign * v
            if s:
                out[k] = s
            else:
                del out[k]
        return like._like(out, max(self._reach, _reach(other)))

    def __add__(self, other):
        return self._merge(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return self._like({k: -v for k, v in self._packed.items()},
                          self._reach)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._like({k: v * other for k, v in self._packed.items()}
                              if other else {}, self._reach)
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        like, ta, tb = pair
        reach = self._reach + other._reach
        if reach > MAX_EXPONENT:
            raise ConfigError("exponent out of range in a product")
        cut = _cut(like.n, like.trunc)
        if len(ta) == 1:
            ta, tb = tb, ta
        if len(tb) == 1:
            return like._like(_shift(ta, tb, cut), reach)
        out = {}
        get = out.get
        for ka, va in ta.items():
            room = None if cut is None else cut - ka
            for kb, vb in tb.items():
                if room is not None and kb >= room:
                    continue
                key = ka + kb
                out[key] = get(key, 0) + va * vb
        return like._like({k: v for k, v in out.items() if v}, reach)

    __rmul__ = __mul__

    def add_shifted(self, x, b):
        """self + x*b for a one-term x, in one pass over b's terms without
        building x*b.  Layouts, truncation and errors are those of
        self + x * b; any other x is a ConfigError."""
        if not isinstance(x, Poly) or len(x._packed) != 1:
            raise ConfigError("add_shifted needs a one-term x, not %r" % (x,))
        like, tx, tb = x._pair(b)
        like, ta, _ = self._pair(like)
        reach = x._reach + _reach(b)
        if reach > MAX_EXPONENT:
            raise ConfigError("exponent out of range in a product")
        reach = max(self._reach, reach)
        (kx, vx), = tx.items()
        cut = _cut(like.n, like.trunc)
        out = dict(ta)
        get = out.get
        for kb, vb in tb.items():
            key = kb + kx
            if cut is not None and key >= cut:
                continue
            s = get(key, 0) + vx * vb
            if s:
                out[key] = s
            else:
                del out[key]
        return like._like(out, reach)

    def __pow__(self, m):
        if m < 0:
            raise ConfigError("negative power of a ring element")
        out = self._like({0: 1}, 0)
        base = self
        while m:
            if m & 1:
                out = out * base
            m >>= 1
            if m:
                base = base * base
        return out

    def __eq__(self, other):
        # series of two truncations are unequal; two ranks raise, as
        # their sum does
        if (isinstance(other, Poly) and self._level == other._level
                and self.trunc != other.trunc):
            return False
        pair = self._pair(other)
        return NotImplemented if pair is None else pair[1] == pair[2]

    __hash__ = None

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs in tuple order: with signed
        slots in range, int order of packed keys is that order."""
        decode = _decoder(_slots(self._level, self.n))
        return [(decode(k), v) for k, v in sorted(self._packed.items())]

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.render())


def _shift(terms, mono, cut):
    """terms times the one-term map mono: every key moves by the same
    exponent, so no two terms merge and none cancels."""
    (kb, vb), = mono.items()
    if not kb:
        return dict(terms) if vb == 1 else {k: v * vb for k, v in terms.items()}
    if cut is None:
        return {ka + kb: va * vb for ka, va in terms.items()}
    room = cut - kb
    return {ka + kb: va * vb for ka, va in terms.items() if ka < room}


def _render_terms(items):
    """Signed sum of (q exponent, weight, coeff) terms, e.g. "q*e[1,0] - 2"."""
    if not items:
        return "0"
    parts = []
    for qe, exps, coeff in items:
        factors = []
        if qe == 1:
            factors.append("q")
        elif qe:
            factors.append("q^%d" % qe)
        if any(exps):
            factors.append("e[%s]" % ",".join(str(a) for a in exps))
        body = "*".join(factors) if factors else "1"
        if abs(coeff) != 1:
            body = "%d*%s" % (abs(coeff), body) if factors else str(abs(coeff))
        parts.append(("- " if coeff < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _monomial_text(var, exps):
    """x1*x2^3-style product of the variables with nonzero exponents."""
    return "*".join("%s%d" % (var, i + 1) if e == 1 else "%s%d^%d" % (var, i + 1, e)
                    for i, e in enumerate(exps) if e)


def _render_products(pairs):
    """ " + "-joined (monomial text, coefficient text) pairs; an empty
    monomial prints the bare "(coeff)", a coefficient "1" the bare
    monomial."""
    parts = []
    for mono, ctext in pairs:
        if not mono:
            parts.append("(%s)" % ctext)
        elif ctext == "1":
            parts.append(mono)
        else:
            parts.append("(%s)*%s" % (ctext, mono))
    return " + ".join(parts) if parts else "0"


class GroupRingElement(Poly):
    """Sparse element of Z[P]; keys are exponent vectors."""

    __slots__ = ()
    _level = 0

    @classmethod
    def monomial(cls, n, exps, coeff=1):
        return cls(n, {tuple(exps): coeff})

    def render(self):
        return _render_terms([(0, k, v) for k, v in self.sorted_terms()])


class QExtElement(Poly):
    """Sparse element of Z[q^{+-1}][P]; keys are (q exponent, *exps)."""

    __slots__ = ()
    _level = 1

    @classmethod
    def monomial(cls, n, exps, coeff=1, qexp=0):
        return cls(n, {(qexp,) + tuple(exps): coeff})

    def render(self):
        return _render_terms([(k[0], k[1:], v) for k, v in self.sorted_terms()])

    def to_json(self):
        return [[k[0], list(k[1:]), v] for k, v in self.sorted_terms()]


class NovikovSeries(Poly):
    """Power series in n variables over Z[q^{+-1}][P]; keys are
    (deg, *series exps, q exponent, *weight exps).

    trunc is the total-degree truncation bound, or None for exact
    polynomial arithmetic (no degree is ever dropped).
    """

    __slots__ = ()
    _level = 2

    def __init__(self, n, trunc, terms=None):
        Poly.__init__(self, n, terms, trunc)

    @classmethod
    def zero(cls, n, trunc=None):
        return cls(n, trunc)

    @classmethod
    def one(cls, n, trunc=None):
        return _series_one(n, trunc)

    @classmethod
    def variable(cls, n, j, trunc=None):
        """The series variable x_j, 1-based."""
        if not 1 <= j <= n:
            raise ConfigError("variable index out of range")
        return cls.monomial(n, tuple(int(i == j - 1) for i in range(n)),
                            trunc=trunc)

    @classmethod
    def monomial(cls, n, exps, coeff=1, trunc=None):
        """x^exps times an int, GroupRingElement or QExtElement coeff."""
        exps = tuple(exps)
        if any(a < 0 for a in exps):
            raise ConfigError("series exponents must be non-negative")
        if isinstance(coeff, int):
            coeff = QExtElement.one(n) * coeff
        if not isinstance(coeff, Poly) or coeff._level > 1 or coeff.n != n:
            raise ConfigError("cannot use %r as a coefficient" % (coeff,))
        head = (sum(exps),) + exps + (0,) * (1 - coeff._level)
        return cls(n, trunc, {head + k: v for k, v in coeff.terms.items()})

    def with_trunc(self, trunc):
        """Re-truncate (or lift an exact polynomial) to the given degree.
        A cut that drops terms rebuilds the value from the terms kept, so
        the exponent bound is theirs."""
        cut = _cut(self.n, trunc)
        if cut is not None and max(self._packed, default=0) >= cut:
            return NovikovSeries(self.n, trunc, self.terms)
        return NovikovSeries._make(self.n, trunc, self._packed, self._reach)

    def _div_one_minus(self, j):
        """self / (1 - x_j) for a truncated self: the running sum
        out[k] = self[k] + out[k - x_j], one degree layer at a time up to
        the cut.  Every series slot and deg stay <= trunc, so
        max(bound, trunc) bounds the result."""
        top = _BASE ** (2 * self.n + 1)
        half, step = top // 2, top + _BASE ** (2 * self.n + 1 - j)
        layers = [{} for _ in range(self.trunc + 1)]
        for k, v in self._packed.items():
            layers[(k + half) // top][k] = v
        for below, layer in zip(layers, layers[1:]):
            for k, v in below.items():
                layer[k + step] = layer.get(k + step, 0) + v
        return self._like({k: v for layer in layers for k, v in layer.items()
                           if v}, max(self._reach, self.trunc))

    def render(self, var="Q"):
        n = self.n
        groups = {}
        for k, v in sorted(self.terms.items(), key=lambda kv: kv[0][1:]):
            groups.setdefault(k[1:n + 1], []).append((k[n + 1], k[n + 2:], v))
        return _render_products(
            (_monomial_text(var, exps), _render_terms(items))
            for exps, items in groups.items())


class NovikovFraction:
    """num / prod_j (1 - x_j)^{den[j]} with an exact polynomial numerator."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n, num, den=None):
        if num.trunc is not None:
            raise ConfigError("fraction numerators must be exact polynomials")
        self.n = n
        self.num = num
        self.den = tuple(den) if den is not None else (0,) * n
        if len(self.den) != n or any(d < 0 for d in self.den):
            raise ConfigError("bad denominator multiplicities")

    @classmethod
    def one(cls, n):
        return _fraction_one(n)

    @classmethod
    def geometric(cls, n, j):
        """1 / (1 - x_j)."""
        den = tuple(1 if i == j - 1 else 0 for i in range(n))
        return cls(n, NovikovSeries.one(n), den)

    @classmethod
    def ratio(cls, n, up, down):
        """prod_j (1 - x_j)^{up[j]} / prod_j (1 - x_j)^{down[j]}."""
        return cls(n, _den_poly(n, up), down)

    def is_zero(self):
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, (int, Poly)):
            return NovikovFraction(self.n, NovikovSeries.one(self.n) * other)
        return other if isinstance(other, NovikovFraction) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.n != other.n:
            raise ConfigError("rank mismatch")
        den = tuple(max(a, b) for a, b in zip(self.den, other.den))
        lift_a = _den_poly(self.n, tuple(d - a for d, a in zip(den, self.den)))
        lift_b = _den_poly(self.n, tuple(d - b for d, b in zip(den, other.den)))
        return NovikovFraction(
            self.n, self.num * lift_a + other.num * lift_b, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __neg__(self):
        return NovikovFraction(self.n, -self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, Poly) and other.trunc is not None:
            out = other * self.num.with_trunc(other.trunc)
            for j, c in enumerate(self.den, start=1):
                for _ in range(c):
                    out = out._div_one_minus(j)
            return out
        if isinstance(other, (int, Poly)):
            return NovikovFraction(self.n, self.num * other, self.den)
        if not isinstance(other, NovikovFraction):
            return NotImplemented
        if self.n != other.n:
            raise ConfigError("rank mismatch")
        return NovikovFraction(
            self.n, self.num * other.num,
            tuple(a + b for a, b in zip(self.den, other.den)))

    __rmul__ = __mul__

    def __eq__(self, other):
        # A truncated series is a value of the other mode, never equal to
        # an exact fraction (as series of different truncs are unequal).
        if isinstance(other, Poly) and other.trunc is not None:
            return False
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        lhs = self.num * _den_poly(self.n, other.den)
        rhs = other.num * _den_poly(self.n, self.den)
        return lhs == rhs

    __hash__ = None

    def truncate(self, trunc):
        """Expand into a NovikovSeries truncated at trunc."""
        return self * NovikovSeries.one(self.n, trunc)

    def render(self, var="Q"):
        den = "*".join(
            "(1-%s%d)" % (var, j + 1) if c == 1 else "(1-%s%d)^%d" % (var, j + 1, c)
            for j, c in enumerate(self.den) if c)
        num = self.num.render(var)
        return "(%s)/%s" % (num, den) if den else num

    def __repr__(self):
        return "NovikovFraction(%r)" % self.render()


@table
def _series_one(n, trunc):
    return NovikovSeries.monomial(n, (0,) * n, trunc=trunc)


@table
def _fraction_one(n):
    return NovikovFraction(n, NovikovSeries.one(n))


@table
def _den_poly(n, counts):
    """prod_j (1 - x_j)^{counts[j]} as an exact series."""
    poly = NovikovSeries.one(n)
    for j, c in enumerate(counts, start=1):
        if c:
            factor = NovikovSeries.one(n) - NovikovSeries.variable(n, j)
            poly = poly * factor ** c
    return poly


class KeyedSum:
    """Finite sum over hashable basis keys with ring coefficients.

    Subclasses choose the keys, print them, and add their own products;
    the coefficients of one sum are Poly or NovikovFraction values.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, pairs=()):
        """The sum of the (key, coefficient) pairs: equal keys add up in
        one pass, and zero sums are dropped once at the end."""
        self.n = n
        terms = {}
        for k, v in pairs:
            s = terms.get(k)
            terms[k] = v if s is None else s + v
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    @classmethod
    def sum_of(cls, n, parts):
        """The sum of the rank-n sums in parts, built in one pass."""
        return cls(n, chain.from_iterable(p.terms.items() for p in parts))

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.n != other.n:
            raise ConfigError("rank mismatch")
        return type(self)(
            self.n, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.n, ((k, -v) for k, v in self.terms.items()))

    def scale(self, c):
        """Multiply every coefficient by a ring element c."""
        return type(self)(self.n, ((k, v * c) for k, v in self.terms.items()))

    def map_coefficients(self, fn):
        return type(self)(self.n, ((k, fn(v)) for k, v in self.terms.items()))

    def __eq__(self, other):
        # A fraction coefficient can equal zero only if its numerator is
        # zero, which the constructor already dropped; so equal sums have
        # equal key sets and dict equality decides.
        return (type(other) is type(self) and self.n == other.n
                and self.terms == other.terms)

    __hash__ = None

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.render())


class ZLaurentElement(KeyedSum):
    """Laurent polynomial in z_1..z_n; coefficients are NovikovSeries or
    NovikovFraction values (uniform within one element)."""

    __slots__ = ()

    @classmethod
    def constant(cls, n, coeff):
        return cls(n, [((0,) * n, coeff)])

    def render(self):
        return _render_products((_monomial_text("z", exps), coeff.render())
                                for exps, coeff in self.sorted_terms())


def exact_div(a, d):
    """Divide a by d exactly in Z[P].

    d must be a binomial c*(e^mu - e^nu); any other divisor is a
    ConfigError.  Raises DivisibilityError when the quotient does not
    exist.
    """
    if d.is_zero():
        raise DivisibilityError("division by zero")
    n = a.n
    if a.n != d.n:
        raise ConfigError("rank mismatch")
    if a.is_zero():
        return GroupRingElement.zero(n)

    items = d.sorted_terms()
    # d = c * e^nu * (e^gamma - 1) with gamma the higher term: first
    # divide a by c * e^nu.
    nu, c = items[0][0], items[-1][1]
    if len(items) != 2 or items[0][1] != -c:
        raise ConfigError("divisor must have the form c*(e^mu - e^nu)")
    b = {}
    for exps, v in a.terms.items():
        if v % c:
            raise DivisibilityError("coefficient %d not divisible by %d" % (v, c))
        b[tuple(x - y for x, y in zip(exps, nu))] = v // c

    gamma = tuple(x - y for x, y in zip(items[1][0], nu))
    gdot = lambda exps: sum(g * e for g, e in zip(gamma, exps))
    step = gdot(gamma)  # |gamma|^2 > 0

    # Solve q * (e^gamma - 1) = a / (c e^nu) by lifting the minimal terms
    # along the gamma-grading.  Quotient terms satisfy
    # g(term) <= max_g(dividend) - |gamma|^2, which bounds the climb and
    # turns non-divisibility into a detectable stall.  The remainder is
    # kept as layers by grade: a lifted key lands one layer up, at
    # g + |gamma|^2, so every key is graded once.
    layers = {}
    for exps, v in b.items():
        layers.setdefault(gdot(exps), {})[exps] = v
    bound = max(layers) - step
    quotient = {}
    while layers:
        low = min(layers)
        if low > bound:
            rem = {e: v for layer in layers.values() for e, v in layer.items()}
            raise DivisibilityError("not divisible: remainder %s" %
                                    GroupRingElement(n, rem).render())
        upper = layers.setdefault(low + step, {})
        for exps, v in layers.pop(low).items():
            # quotient term -v e^exps; add v e^{exps+gamma} - v e^exps to rem
            quotient[exps] = -v
            up = tuple(x + y for x, y in zip(exps, gamma))
            nv = upper.get(up, 0) + v
            if nv:
                upper[up] = nv
            else:
                del upper[up]
        if not upper:
            del layers[low + step]
    return GroupRingElement(n, quotient)


def specialize_Q_zero(f):
    """Set every series variable to zero in a ZLaurentElement; fraction
    coefficients become the exact series of their numerator's constant
    part."""
    def at_zero(c):
        s = c.num if isinstance(c, NovikovFraction) else c
        cut = _cut(s.n, 0)
        return s._like({k: v for k, v in s._packed.items() if k < cut},
                       s._reach)

    return f.map_coefficients(at_zero)
