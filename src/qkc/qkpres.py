"""Borel-side polynomial model.

Laurent polynomials in z_1..z_n over Novikov coefficients, with the
zeta/eta coefficient functions, the elements F_l and their upper and
barred variants, the ideal generators F_l - E_l, Schubert-class
polynomials, and the translation map into the semi-infinite module.

zeta and eta read the index set I only through `semimod._case`, and
their values, like the factors `_z_factor` of the translation map, are
built once per small-int key and shared.  A z-factor is an exact
fraction in both modes: a truncated coefficient times it divides by
each (1 - T_j) in the truncated ring.  `f_poly` multiplies the zeta
factors of each index set once per (n, I, trunc).  The factorization
zeta * eta = semimod.phi is checked by the same sweep in `verify` as
phi * theta = psi.
"""

from __future__ import annotations

import itertools

from .relations import elementary_E
from .rings import (
    ConfigError,
    GroupRingElement,
    NovikovFraction,
    NovikovSeries,
    ZLaurentElement,
    table,
)
from .semimod import (
    SemiModElement,
    _case,
    _eps_I as eps_I,
    _t_mono,
    _variant_pool,
    universe,
)
from .weylc import SignedPerm, _eps


def _unit(n, trunc):
    """1 as an exact fraction, or as a series truncated at trunc."""
    return NovikovFraction.one(n) if trunc is None else NovikovSeries.one(n, trunc)


def zeta(n, I, j, trunc=None):
    """The coefficient function attached to the z-side elements F_l."""
    return _zeta(n, j, _case(n, frozenset(I), j), trunc)


@table
def _zeta(n, j, case, trunc):
    if trunc is not None:
        return _zeta(n, j, case, None).truncate(trunc)
    out = NovikovFraction.one(n)
    if j > 0:
        here, succ = case
        if here and not succ:
            out = out - _t_mono(n, j, j)
    elif j != -1:
        adjacent, here, succ = case
        jj = -j
        if adjacent:
            num = (NovikovSeries.one(n) - _t_mono(n, jj - 1, jj - 1)
                   + _t_mono(n, jj - 1, n))
            out = NovikovFraction(n, num, _eps(n, jj - 1))
        elif here and not succ:
            out = out - _t_mono(n, jj - 1, jj - 1)
    return out


def eta(n, I, j, trunc=None):
    """The geometric-series correction absorbed by each z-variable."""
    return _eta(n, j, _case(n, frozenset(I), j), trunc)


@table
def _eta(n, j, case, trunc):
    if trunc is not None:
        return _eta(n, j, case, None).truncate(trunc)
    out = NovikovFraction.one(n)
    if j > 0 and case[0]:
        out = NovikovFraction.geometric(n, j)
    elif j < -1 and case[1]:
        # at j = 1bar, Q_0 := 0 makes this factor 1
        out = NovikovFraction.geometric(n, -j - 1)
    return out


def f_poly(n, l, variant="full", k=None, trunc=None):
    """F_l (or its upper/barred variant): the zeta-weighted sum of
    z-monomials over index sets of size l."""
    return ZLaurentElement(n, (
        (eps_I(n, I), _zeta_product(n, frozenset(I), trunc))
        for I in itertools.combinations(_variant_pool(n, variant, k), l)))


@table
def _zeta_product(n, I, trunc):
    out = _unit(n, trunc)
    for j in universe(n):
        out = out * zeta(n, I, j, trunc)
    return out


def elementary_z(n, l, trunc=None):
    """e_l(z_1, ..., z_n, z_n^{-1}, ..., z_1^{-1}): E_l with z for e^eps."""
    return ZLaurentElement(n, ((exps, _unit(n, trunc) * c)
                               for exps, c in elementary_E(n, l).terms.items()))


def ideal_generators(n, trunc=None):
    """The n generators F_l - E_l of the presentation ideal."""
    out = []
    for l in range(1, n + 1):
        const = _unit(n, trunc) * elementary_E(n, l)
        out.append(f_poly(n, l, trunc=trunc)
                   - ZLaurentElement.constant(n, const))
    return out


def schubert_poly(n, k, variant="upper", trunc=None):
    """The polynomial representing a Schubert class: the alternating sum
    of e^{-l eps_1} F_l over the upper (or barred) variant."""
    if not 1 <= k <= n:
        raise ConfigError("k out of range")
    top = k if variant == "upper" else 2 * n - k
    return ZLaurentElement.sum_of(n, (
        f_poly(n, l, variant, k, trunc).scale(
            GroupRingElement.monomial(n, _eps(n, 1, -l), (-1) ** l))
        for l in range(top + 1)))


@table
def _z_factor(n, j, power):
    """The module-side factor replacing z_j^{power}: each positive power
    contributes (1 - T_{j-1})/(1 - T_j), each negative power the inverse.
    An exact fraction: times a truncated coefficient it divides in that
    coefficient's mode."""
    up, down = (j - 1, j) if power > 0 else (j, j - 1)
    a = abs(power)
    return NovikovFraction.ratio(n, _eps(n, up, a), _eps(n, down, a))


def to_semimod(p):
    """Translate a z-polynomial into the semi-infinite module: the
    monomial in z maps to the basis weight, and every z-power drags along
    its geometric correction factor in the shift variables."""
    n = p.n
    e = SignedPerm.identity(n)
    pairs = []
    for exps, c in p.sorted_terms():
        for j, a in enumerate(exps, start=1):
            if a:
                c = c * _z_factor(n, j, a)
        pairs.append(((e, tuple(-a for a in exps)), c))
    return SemiModElement(n, pairs)
