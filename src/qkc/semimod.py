"""Free-module model of the semi-infinite K-group.

Elements are finite sums over basis pairs (w, lambda) with coefficients in
the shift-operator variables T_1..T_n (truncated series, exact polynomials,
or denominator-cleared fractions); a translation t_xi is recorded as the
monomial T^xi inside the coefficient.

Provides the psi/phi/theta operator factors, the elements FF_l and their
upper/barred variants, the staircase/mountain recursion checks, the
symmetry FF_k = FF_{2n-k}, and the star-map duality refinements.

psi, theta_sinf and phi (and qkpres.zeta and qkpres.eta) read the index
set I only through `_case`, the two or three membership facts that
decide their value at position j.  Each value is built once per
(n, j, case, trunc) and shared, so a table holds at most 12n entries
per truncation however many index sets are asked about.  `psi_product`
multiplies those values once per (n, I, trunc), and `jab_sets` reads
one table per rank, the index sets grouped by size and eps_I.
"""

from __future__ import annotations

import itertools

from .rings import (
    ConfigError,
    GroupRingElement,
    KeyedSum,
    NovikovFraction,
    NovikovSeries,
    table,
)
from .weylc import (
    SignedPerm,
    _alpha_range,
    _eps,
    order_key,
    universe,
)


def adjacent_in(n, I, a, b):
    """True when a and b both lie in I with no element of I strictly
    between them in the [1,1bar] order."""
    if a not in I or b not in I:
        return False
    ka, kb = order_key(n, a), order_key(n, b)
    lo, hi = min(ka, kb), max(ka, kb)
    return not any(lo < order_key(n, x) < hi for x in I)


@table
def _t_mono(n, a, b, trunc=None):
    """T_a T_{a+1} ... T_b (or Q_a ... Q_b) as a series monomial."""
    return NovikovSeries.monomial(n, _alpha_range(n, a, b), trunc=trunc)


def _case(n, I, j):
    """The membership facts of I that psi, theta_sinf, phi, qkpres.zeta and
    qkpres.eta read at position j: (j in I, succ(j) in I), succ being the
    next element in the [1,1bar] order, and for j = jj bar with jj > 1
    first whether jj-1 and its bar are adjacent in I; nothing at 1bar."""
    if j > 0:
        return (j in I, (j + 1 if j < n else -n) in I)
    if j == -1:
        return ()
    jj = -j
    return (adjacent_in(n, I, jj - 1, -(jj - 1)), -jj in I, -(jj - 1) in I)


def psi(n, I, j, trunc=None):
    """The operator factor psi_I(j), j a signed element of [1,1bar]."""
    return _psi(n, j, _case(n, frozenset(I), j), trunc)


@table
def _psi(n, j, case, trunc):
    out = NovikovSeries.one(n, trunc)
    if j > 0:
        here, succ = case
        if not here and succ:
            out = out - _t_mono(n, j, j, trunc)
    elif j != -1:
        adjacent, here, succ = case
        jj = -j
        if adjacent:
            out = (out - _t_mono(n, jj - 1, jj - 1, trunc)
                   + _t_mono(n, jj - 1, n, trunc))
        elif not here and succ:
            out = out - _t_mono(n, jj - 1, jj - 1, trunc)
    return out


def theta_sinf(n, I, j, trunc=None):
    return _theta_sinf(n, j, _case(n, frozenset(I), j), trunc)


@table
def _theta_sinf(n, j, case, trunc):
    out = NovikovSeries.one(n, trunc)
    if j > 0:
        _, succ = case
        if succ:
            out = out - _t_mono(n, j, j, trunc)
    elif j != -1:
        _, _, succ = case
        if succ:
            out = out - _t_mono(n, -j - 1, -j - 1, trunc)
    return out


def phi(n, I, j, trunc=None):
    """The phi factor, psi = phi * theta on the semi-infinite side and
    zeta * eta = phi on the z-side: an exact NovikovFraction, or with
    trunc given that fraction expanded once to degree trunc."""
    return _phi(n, j, _case(n, frozenset(I), j), trunc)


@table
def _phi(n, j, case, trunc):
    if trunc is not None:
        return _phi(n, j, case, None).truncate(trunc)
    out = NovikovFraction.one(n)
    if j > 0:
        here, succ = case
        if here and succ:
            out = NovikovFraction.geometric(n, j)
    elif j != -1:
        adjacent, here, succ = case
        jj = -j
        if adjacent:
            num = (NovikovSeries.one(n) - _t_mono(n, jj - 1, jj - 1)
                   + _t_mono(n, jj - 1, n))
            out = NovikovFraction(n, num, _eps(n, jj - 1))
        elif here and succ:
            out = NovikovFraction.geometric(n, jj - 1)
    return out


@table
def psi_product(n, I, trunc=None):
    """The product of psi_I(j) over [1,1bar], I a frozenset."""
    out = NovikovSeries.one(n, trunc)
    for j in universe(n):
        out = out * psi(n, I, j, trunc)
    return out


class SemiModElement(KeyedSum):
    """Finite sum over basis pairs (w, lam) with series coefficients."""

    __slots__ = ()

    @classmethod
    def one(cls, n, trunc=None):
        return cls(n, [((SignedPerm.identity(n), (0,) * n),
                        NovikovSeries.one(n, trunc))])

    def tensor(self, mu):
        return SemiModElement(self.n, (
            ((w, tuple(a + b for a, b in zip(lam, mu))), v)
            for (w, lam), v in self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0].window, kv[0][1]))

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for (w, lam), v in self.sorted_terms():
            key = "O(%s)" % w.render()
            if any(lam):
                key += "(%s)" % ",".join(str(x) for x in lam)
            parts.append("(%s)*%s" % (v.render("T"), key))
        return " + ".join(parts)


def _eps_I(n, I):
    v = [0] * n
    for x in I:
        if x > 0:
            v[x - 1] += 1
        else:
            v[-x - 1] -= 1
    return tuple(v)


def _variant_pool(n, variant, k):
    """The index universe of the full, upper (I in [1,k]) or barred
    (I in [1, k+1 bar], with n+1 bar meaning n) variant."""
    if variant == "full":
        return universe(n)
    if k is None or not 0 <= k <= n:
        raise ConfigError("k out of range")
    if variant == "upper":
        return list(range(1, k + 1))
    if k == n:
        return list(range(1, n + 1))
    bound = order_key(n, -(k + 1))
    return [x for x in universe(n) if order_key(n, x) <= bound]


def ff(n, l, variant="full", k=None, trunc=None):
    """FF_l: the psi-weighted sum of translation classes over the index
    sets of size l in the chosen variant's universe."""
    e = SignedPerm.identity(n)
    return SemiModElement(n, (
        ((e, tuple(-x for x in _eps_I(n, I))),
         psi_product(n, frozenset(I), trunc))
        for I in itertools.combinations(_variant_pool(n, variant, k), l)))


def _alternating_sum(n, top, variant, k, trunc):
    """sum over l <= top of (-1)^l e^{l eps_1} FF_l in the given variant."""
    return SemiModElement.sum_of(n, (
        ff(n, l, variant, k, trunc).scale(
            GroupRingElement.monomial(n, _eps(n, 1, l), (-1) ** l))
        for l in range(top + 1)))


def closed_P(n, k, trunc=None):
    """The alternating upper-variant sum solving the staircase recursion."""
    return _alternating_sum(n, k, "upper", k, trunc)


def closed_Q(n, k, trunc=None):
    """The alternating barred-variant sum solving the mountain recursion."""
    return _alternating_sum(n, 2 * n - k, "barred", k, trunc)


def rec_step_P(n, k, P, trunc):
    """Right-hand side of the staircase recursion for P_{k+1}, given the
    list P[0..k] at truncation trunc."""
    e1 = GroupRingElement.monomial(n, _eps(n, 1))
    rhs = P[k].scale(e1).tensor(_eps(n, k + 1, -1)).scale(-1) + P[k]
    for j in range(1, k + 1):
        mu = tuple(a - b for a, b in zip(_eps(n, j), _eps(n, k + 1)))
        rhs = rhs + (P[j - 1] - P[j]).scale(_t_mono(n, j, k, trunc)).tensor(mu)
    return rhs


def rec_step_Q(n, k, P, Q, trunc):
    """Right-hand side of the mountain recursion for Q_{k-1}, given the
    lists P[0..n] and Q[1..n] at truncation trunc."""
    e1 = GroupRingElement.monomial(n, _eps(n, 1))
    rhs = Q[k].scale(e1).tensor(_eps(n, k)).scale(-1) + Q[k]
    for j in range(k + 1, n + 1):
        mu = tuple(a - b for a, b in zip(_eps(n, k), _eps(n, j)))
        t = _t_mono(n, k, j - 1, trunc)
        rhs = rhs + (Q[j] - Q[j - 1]).scale(t).tensor(mu)
    for j in range(1, k + 1):
        mu = tuple(a + b for a, b in zip(_eps(n, j), _eps(n, k)))
        rhs = rhs + (P[j - 1] - P[j]).scale(_t_mono(n, j, n, trunc)).tensor(mu)
    return rhs


def check_recursion(n, trunc=None):
    """Verify the recursions against the closed forms.

    Yields (check id, ok, detail) triples.  trunc=None runs the exact
    polynomial mode.
    """
    P = [closed_P(n, k, trunc) for k in range(n + 1)]
    Q = [None] + [closed_Q(n, k, trunc) for k in range(1, n + 1)]
    for k in range(0, n):
        ok = P[k + 1] == rec_step_P(n, k, P, trunc)
        ok = ok and (k > 0 or P[0] == SemiModElement.one(n, trunc))
        yield ("rec-staircase-k%d" % k, ok, "")
    yield ("staircase-meets-mountain", P[n] == Q[n], "")
    for k in range(2, n + 1):
        ok = Q[k - 1] == rec_step_Q(n, k, P, Q, trunc)
        yield ("rec-mountain-k%d" % k, ok, "")
    # the k=1 step lands on the full alternating sum (the scalar relation
    # consumed by the relation engine)
    full = _alternating_sum(n, 2 * n, "full", None, trunc)
    ok = rec_step_Q(n, 1, P, Q, trunc) == full
    yield ("rec-mountain-k1-full-sum", ok, "")


def check_symmetry(n, trunc=None):
    """FF_k = FF_{2n-k} as module elements."""
    for k in range(0, n + 1):
        ok = ff(n, k, trunc=trunc) == ff(n, 2 * n - k, trunc=trunc)
        yield ("symmetry-k%d" % k, ok, "")


def decompose_I(n, I):
    """Split I into (A, B, pairs): unbarred-only part, barred-only part,
    and the set of paired values; None when no such split exists."""
    I = frozenset(I)
    unbarred = {x for x in I if x > 0}
    barred = {-x for x in I if x < 0}
    pairs = unbarred & barred
    return sorted(unbarred - pairs), sorted(barred - pairs), sorted(pairs)


def star_map(n, I):
    """I -> I* via the pair-complement construction."""
    a, b, pairs = decompose_I(n, I)
    m = [x for x in range(1, n + 1)
         if x not in a and x not in b and x not in pairs]
    out = set(a) | {-x for x in b} | set(m) | {-x for x in m}
    return frozenset(out)


@table
def _jab_table(n):
    """The subsets of [1,1bar] grouped by (size, eps_I), each group in
    `itertools.combinations` order."""
    groups = {}
    pool = universe(n)
    for k in range(len(pool) + 1):
        for I in itertools.combinations(pool, k):
            groups.setdefault((k, _eps_I(n, I)), []).append(frozenset(I))
    return groups


def jab_sets(n, A, B, k):
    """All I of size k with eps_I = eps_A - eps_B, for disjoint A and B."""
    target = _eps_I(n, set(A) | {-b for b in B})
    return list(_jab_table(n).get((k, target), ()))


def duality_hypothesis(n, I, A, B):
    """The sufficient condition under which psi-products match termwise:
    k_r < max A, k_r < max B, or the tail {M+1..n} inside I.  I splits as
    (A, B, pairs), as every I of `jab_sets(n, A, B, k)` does."""
    pairs = decompose_I(n, I)[2]
    if not pairs:
        return True
    kr = max(pairs)
    if A and kr < max(A):
        return True
    if B and kr < max(B):
        return True
    M = max(list(A) + list(B)) if (A or B) else 0
    return all(x in I for x in range(M + 1, n + 1))


def bare_psi_product(n, I, trunc=None):
    """The simplified product from the duality lemma."""
    I = frozenset(I)
    one = NovikovSeries.one(n, trunc)
    out = one
    for j in range(1, n + 1):
        succ = j + 1 if j < n else -n
        if j not in I and succ in I:
            out = out * (one - _t_mono(n, j, j, trunc))
    for j in range(2, n + 1):
        if -j not in I and -(j - 1) in I:
            out = out * (one - _t_mono(n, j - 1, j - 1, trunc))
    return out


def _psi_sum(n, sets, trunc):
    total = NovikovSeries.zero(n, trunc)
    for I in sets:
        total = total + psi_product(n, I, trunc)
    return total


def check_duality(n, trunc=None):
    """Group-by-group duality sums plus the S = T refinement."""
    subsets = [frozenset(c)
               for size in range(n + 1)
               for c in itertools.combinations(range(1, n + 1), size)]
    for A in subsets:
        for B in subsets:
            if A & B:
                continue
            st = len(A) + len(B)
            M = max(list(A) + list(B)) if (A or B) else 0
            for k in range(st, n + 1, 2):
                left = jab_sets(n, A, B, k)
                right = jab_sets(n, A, B, 2 * n - k)
                # the star map is a bijection J^k -> J^{2n-k}
                image = {star_map(n, I) for I in left}
                ok = image == set(right)
                # termwise equality under the lemma hypothesis
                for I in left:
                    if duality_hypothesis(n, I, A, B):
                        lhs = psi_product(n, I, trunc)
                        bare = bare_psi_product(n, I, trunc)
                        rhs = psi_product(n, star_map(n, I), trunc)
                        ok = ok and lhs == bare == rhs
                ok = ok and _psi_sum(n, left, trunc) == _psi_sum(n, right, trunc)
                yield ("duality-A%s-B%s-k%d" % (sorted(A), sorted(B), k),
                       ok, "")
                # S(J, p) = T(J, p) refinements
                for p in range(1, n - M):
                    for J in left:
                        if any(x in J for x in range(M + 1, n + 1)):
                            continue
                        augs = [J | set(ks) | {-x for x in ks}
                                for ks in itertools.combinations(
                                    range(M + 1, n + 1), p)]
                        s = _psi_sum(n, augs, trunc)
                        t = _psi_sum(n, [star_map(n, a) for a in augs], trunc)
                        yield ("duality-S-eq-T-A%s-B%s-J%s-p%d"
                               % (sorted(A), sorted(B),
                                  sorted(J, key=lambda x: order_key(n, x)), p),
                               s == t, "")

