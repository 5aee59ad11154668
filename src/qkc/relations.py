"""Scalar relation engine.

A relation sum(c_l X_l) = 0 in the formal unknowns X_0..X_n is the
tuple (c_0, ..., c_n) of its Z[P] coefficients.  The base relation is
refined by a Demazure derivation chain (multiply by a monomial, apply
D_k, divide exactly, coefficient by coefficient), rewritten through
complete symmetric polynomials into a triangular recurrence system, and
solved; the unique solution is the tuple of hyperbolic elementary
symmetric polynomials E_0..E_n.  `derivation_chain` walks the chain once,
each relation derived from the one before.

Each symmetric family has one builder: `_h_row` gives the complete
polynomials h_0..h_m as one recurrence row, read whole, and `_e_row` gives
the elementary ones in closed form, without the shift-add that the
linear-factor products `_t_factors` use, so gf-2, gf-3 and the solved
system are compared with an E built by another route.

The printed relations (`secondary_literal`, `system_arbitrary`) and the
csym-3/csym-4 lemma share one transcription of the nested sum,
`csym_nested_lhs`; a printed coefficient is the sum times (-1)^l e^shift.
It walks the outer sums on exponent vectors and multiplies out only the
two-variable leaves, once each, with no shift-add.

`check_system` checks the chain, the rows and the solution as records: a
failed exact division or a non-unit pivot fails a record.  No function
here raises ConfigError: each rank, index and degree comes from a caller
in the package that keeps it in range.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .rings import GroupRingElement, exact_div, table
from .weylc import _eps, demazure_D


class SolverError(ArithmeticError):
    """The triangular solve hit a non-unit leading coefficient."""


def _mono(n, exps, coeff=1):
    return GroupRingElement.monomial(n, exps, coeff)


def _scaled(rel, c):
    """The relation with every coefficient multiplied by c."""
    return tuple(v * c for v in rel)


def base_relation(n):
    """sum over l < n of (-1)^l (e^{-(n-l)eps_1} + e^{(n-l)eps_1}) X_l,
    closed by (-1)^n X_n."""
    coeffs = []
    for l in range(n):
        c = _mono(n, _eps(n, 1, -(n - l))) + _mono(n, _eps(n, 1, n - l))
        coeffs.append(c if l % 2 == 0 else -c)
    coeffs.append(GroupRingElement.one(n) * (-1) ** n)
    return tuple(coeffs)


def audit_base_rewrite(n):
    """Rebuild the base relation from the full alternating coefficient
    sequence (-1)^l e^{l eps_1}, l = 0..2n: scale by e^{-n eps_1}, then
    fold X_{2n-l} onto X_l (the index symmetry of the FF elements)."""
    scaled = [
        _mono(n, _eps(n, 1, l - n), (-1) ** l) for l in range(2 * n + 1)]
    folded = [scaled[l] + scaled[2 * n - l] for l in range(n)] + [scaled[n]]
    return tuple(folded) == base_relation(n)


def derivation_chain(n):
    """Relations 1..n-1 of the Demazure derivation chain, each derived
    from the one before by the step at k: multiply by e^{eps_k}, apply
    D_k, divide by e^{eps_k}(1 - e^{eps_k+eps_{k+1}}).  The step at k = 1
    turns the base relation into the secondary relation, which is scaled
    by e^{n eps_1} before the steps at k = 2..n-1.  Rank 1 has no step."""
    rel = base_relation(n)
    for k in range(1, n):
        if k == 2:
            rel = _scaled(rel, _mono(n, _eps(n, 1, n)))
        ek = _mono(n, _eps(n, k))
        d = ek - _mono(
            n, tuple(2 * a + b for a, b in zip(_eps(n, k), _eps(n, k + 1))))
        rel = tuple(exact_div(demazure_D(k, c * ek), d) for c in rel)
        yield rel


def _printed_relation(n, k, shift):
    """Coefficient l <= n - k is (-1)^l e^shift times the nested sum in
    e^{eps_1}, ..., e^{eps_{k+1}} at m = n - k - l; the others are zero."""
    variables = [_mono(n, _eps(n, j)) for j in range(1, k + 2)]
    coeffs = [GroupRingElement.zero(n)] * (n + 1)
    for l in range(n - k + 1):
        coeffs[l] = (csym_nested_lhs(variables, n - k - l)
                     * _mono(n, shift, (-1) ** l))
    return tuple(coeffs)


def secondary_literal(n):
    """The printed second relation: coefficients
    (-1)^l e^{-(n-l)eps_1} (sum_r e^{r(eps_1-eps_2)}) (sum_s e^{s(eps_1+eps_2)}),
    r, s < n - l; the nested sum in two variables shifted by e^{-eps_1}."""
    return _printed_relation(n, 1, _eps(n, 1, -1))


def system_arbitrary(n, k):
    """The k-th derived relation (2 <= k <= n-1) as a literal nested sum
    in k + 1 variables, shifted by e^{(n-1)eps_1 - eps_2 - ... - eps_k}."""
    shift = (n - 1,) + (-1,) * (k - 1) + (0,) * (n - k)
    return _printed_relation(n, k, shift)


def _h_row(variables, m):
    """[h_0, ..., h_m] from one recurrence row."""
    n = variables[0].n
    row = [GroupRingElement.one(n)] + [GroupRingElement.zero(n)] * m
    for x in variables:
        for deg in range(1, m + 1):
            row[deg] = row[deg].add_shifted(x, row[deg - 1])
    return row


def _diffs(row):
    """[r_l - r_{l-2}] for l = 0..len(row)-1, with r_{-1} = r_{-2} = 0."""
    return [c - row[l - 2] if l >= 2 else c for l, c in enumerate(row)]


def _e_row(n, coords, m):
    """[e_0, ..., e_m] in the variables e^{+-eps_j}, j in coords, in closed
    form: the factor of j is 1 + (e^{eps_j} + e^{-eps_j}) t + t^2, so
    [e^lam] e_l = C(z, (l - |lam|_1)/2) for lam in {-1, 0, 1} on coords and
    0 elsewhere, where z counts the zero entries (Macdonald, I.2)."""
    row = [{} for _ in range(m + 1)]
    for signs in itertools.product((-1, 0, 1), repeat=len(coords)):
        lam = [0] * n
        for j, s in zip(coords, signs):
            lam[j - 1] = s
        lam, z = tuple(lam), signs.count(0)
        for pairs in range(z + 1):
            l = len(coords) - z + 2 * pairs
            if l <= m:
                row[l][lam] = comb(z, pairs)
    return [GroupRingElement(n, terms) for terms in row]


def _hyperbolic(n, coords):
    """e^{eps_j} for j in coords, then e^{-eps_j} for j in reversed(coords),
    in rank n."""
    return ([_mono(n, _eps(n, j)) for j in coords]
            + [_mono(n, _eps(n, j, -1)) for j in reversed(coords)])


@table
def _elementary_row(n):
    """(E_0, ..., E_2n), built once per rank."""
    return tuple(_e_row(n, range(1, n + 1), 2 * n))


def elementary_E(n, l):
    """E_l: e_l in the 2n variables e^{+-eps_1..n}, 0 <= l <= 2n."""
    return _elementary_row(n)[l]


def csym_nested_lhs(variables, m):
    """The literal nested-sum side of the complete-symmetric identity in
    nv >= 2 monomials x_t = e^{u_t}; equals h_m - h_{m-2} over the
    hyperbolic list.  The walk keeps each path's product of steps x_t^e as
    an exponent vector acc; a path ending at index r adds e^acc times the
    leaf x^{1-r} (sum_{c<r} (x/y)^c) (sum_{c<r} (xy)^c) in the last two
    variables, multiplied out once per r and call (nv = 2: r = m + 1)."""
    nv = len(variables)
    n = variables[0].n
    us = [next(iter(v.terms)) for v in variables]
    total = GroupRingElement.zero(n)

    def ray(r, s, sign):
        """sum_{c<r} x^{s+c} y^{sign c}, from its exponent dict."""
        terms = {}
        for c in range(r):
            key = tuple((s + c) * a + sign * c * b for a, b in zip(*us[-2:]))
            terms[key] = terms.get(key, 0) + 1
        return GroupRingElement(n, terms)

    @lru_cache(maxsize=None)
    def leaf(r):
        return ray(r, 1 - r, -1) * ray(r, 0, 1)

    def walk(t, r_prev, acc):
        nonlocal total
        if t == nv - 1:
            total = total + _mono(n, acc) * leaf(r_prev)
            return
        for r in range(nv - 1 - t, r_prev):
            for e in range(r + 1 - r_prev, r_prev - r, 2):
                walk(t + 1, r, tuple(a + e * b for a, b in zip(acc, us[t - 1])))

    walk(1, m + nv - 1, (0,) * n)
    return total


def check_csym_props(n_max=4):
    """The four complete-symmetric identities at m = 1..6 plus the index
    symmetry e_{n+l} = e_{n-l} of the linear-factor product over the 2n
    hyperbolic variables (not of the closed form, which has it built in)."""
    degrees = range(1, 7)
    for nv in range(1, n_max + 1):
        row = _h_row(_hyperbolic(nv, range(1, nv + 1)), 0)
        ok = row == [GroupRingElement.one(nv)]
        yield ("csym-1-n%d" % nv, ok, "")
    hd = _diffs(_h_row(_hyperbolic(1, [1]), degrees[-1]))
    for m in degrees:
        ok = _mono(1, (m,)) + _mono(1, (-m,)) == hd[m]
        yield ("csym-2-m%d" % m, ok, "")
    # csym-3: the nested sum in two variables (any n_max); csym-4: more
    for nv in range(2, max(n_max, 2) + 1):
        variables = [_mono(nv, _eps(nv, j)) for j in range(1, nv + 1)]
        hd = _diffs(_h_row(_hyperbolic(nv, range(1, nv + 1)), degrees[-1]))
        for m in degrees:
            ok = csym_nested_lhs(variables, m) == hd[m]
            cid = "csym-3-m%d" % m if nv == 2 else "csym-4-n%d-m%d" % (nv, m)
            yield (cid, ok, "")
    for n in range(1, n_max + 1):
        one = GroupRingElement.one(n)
        e = _t_factors([one], _hyperbolic(n, range(1, n + 1)), 2 * n)
        for l in range(1, n + 1):
            ok = e[n + l] == e[n - l]
            yield ("elementary-symmetry-n%d-l%d" % (n, l), ok, "")


def system_row(n, k):
    """Row k of the triangular system:
    sum over l <= n-k of (-1)^l (H^{k+1}_{n-l-k} - H^{k+1}_{n-l-k-2}) X_l."""
    hd = _diffs(_h_row(_hyperbolic(n, range(1, k + 2)), n - k))
    zero = GroupRingElement.zero(n)
    return tuple(hd[n - l - k] * (-1) ** l if l <= n - k else zero
                 for l in range(n + 1))


def assemble_system(n):
    """All n rows of the system.  `check_system` compares them with the
    derivation chain: row 0 = base, row 1 = secondary * e^{eps_1}, and for
    k >= 2 row k = chain output * e^{-(n-1)eps_1 + eps_2 + ... + eps_k}."""
    return [system_row(n, k) for k in range(n)]


def solve_system(n):
    """Solve the triangular system with X_0 = 1, from k = n-1 down to 0."""
    return _solve_rows(n, assemble_system(n))


def _solve_rows(n, rows):
    """Solve the n rows of a triangular system with X_0 = 1."""
    one = GroupRingElement.one(n)
    values = [one] + [None] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        if row[n - k] not in (one, -one):
            raise SolverError("leading coefficient of row %d is not a unit" % k)
        acc = GroupRingElement.zero(n)
        for l in range(n - k):
            acc = acc + row[l] * values[l]
        values[n - k] = acc * -row[n - k]
    return tuple(values)


def _record(cid, check):
    """The record of check(); an ArithmeticError it raises fails the
    record, with the error message as the location."""
    try:
        return (cid, check(), "")
    except ArithmeticError as exc:
        return (cid, False, str(exc))


def check_system(n):
    """Records for the derivation chain, the system rows and the solve.
    The chain is walked once; a step that raises fails its record and
    every later chain record with the same location.  The rows audit
    reuses the chain verdicts: it fails at the first failed derivation,
    else at the first row unequal to its literal."""
    yield ("base-rewrite-audit", audit_base_rewrite(n), "")
    expect, derivations = [base_relation(n)], []
    chain, fault = derivation_chain(n), None
    for k in range(1, n):
        if k == 1:
            cid, literal, pref = ("secondary-derivation",
                                  secondary_literal(n), _eps(n, 1))
        else:
            cid, literal = ("chain-vs-nested-sum-k%d" % k,
                            system_arbitrary(n, k))
            pref = (-(n - 1),) + (1,) * (k - 1) + (0,) * (n - k)
        expect.append(_scaled(literal, _mono(n, pref)))
        try:
            ok = fault is None and next(chain) == literal
        except ArithmeticError as exc:
            ok, fault = False, str(exc)
        derivations.append((cid, ok, fault or ""))
        yield derivations[-1]
    rows = assemble_system(n)
    faults = [location for _, ok, location in derivations if not ok]
    faults += ["row %d" % k for k in range(n) if rows[k] != expect[k]]
    yield ("system-rows-audit", not faults, faults[0] if faults else "")
    values = tuple(elementary_E(n, l) for l in range(n + 1))
    yield _record("solution-is-elementary",
                  lambda: _solve_rows(n, rows) == values)
    zero = GroupRingElement.zero(n)
    yield ("rows-annihilate-elementary", all(
        sum((c * v for c, v in zip(row, values)), zero).is_zero()
        for row in rows), "")


def _t_linear(a, x, bound):
    """a(t) * (1 + x t), truncated at t-degree bound, for a one-term x:
    out[i] = a[i] + x * a[i-1], one fused shift-add per coefficient."""
    size = min(len(a) + 1, bound + 1)
    out = list(a[:size]) + [GroupRingElement.zero(x.n)] * (size - len(a))
    for i in range(1, size):
        out[i] = out[i].add_shifted(x, a[i - 1])
    return out


def _t_factors(a, xs, bound):
    """a(t) times the product of the linear factors (1 + x t), x in xs."""
    for x in xs:
        a = _t_linear(a, x, bound)
    return a


def _t_trim(a):
    while a and a[-1].is_zero():
        a = a[:-1]
    return list(a)


def _gf_row_products(n, k, d_t):
    """The t-polynomials the row-k checks compare, truncated at d_t, with
    H(t) = sum h_l t^l over the 2(k+1) variables x of row k:
    H(t) prod (1 - x t), (1 - t^2) H(t) prod (1 - x t),
    (1 - t^2) H(-t) prod over all 2n variables of (1 + x t), and
    (1 - t^2) prod over the tail variables of (1 + x t)."""
    one = GroupRingElement.one(n)
    hv = _hyperbolic(n, range(1, k + 2))
    tail = _hyperbolic(n, range(k + 2, n + 1))  # the variables outside row k
    minus = [-x for x in hv]
    hs = _h_row(hv, d_t)
    hd = _diffs(hs)
    alt = [c if l % 2 == 0 else -c for l, c in enumerate(hd)]
    # row k's factors first, so alt shrinks to 1 - t^2 before it grows
    return (_t_factors(hs, minus, d_t),
            _t_factors(hd, minus, d_t),
            _t_factors(alt, hv + tail, d_t),
            _t_factors([one], tail + [-one, one], d_t))


def check_generating_identities(n):
    """The generating-function identities behind the triangular solve,
    as t-polynomials truncated at degree 2n + 2.

    Every product is taken one linear factor (1 +- x t) at a time.
    gf-2 compares the product of the 2n factors (1 + x t) with the
    elementary_E list, so it alone covers the E_m; gf-3 multiplies by
    the same 2n factors and checks the product against the tail factors
    times (1 - t^2) and against e_l - e_{l-2} over the tail variables.
    Both expectations are closed forms (`_e_row`), not factor products."""
    d_t = 2 * n + 2
    one = GroupRingElement.one(n)
    zero = GroupRingElement.zero(n)
    for k in range(n):
        hs_d, hd_d, lhs, rhs = _gf_row_products(n, k, d_t)
        ok = _t_trim(hs_d) == [one]
        yield ("gf-sum-complete-k%d" % k, ok, "")
        ok = _t_trim(hd_d) == _t_trim([one, zero, -one])
        yield ("gf-1-k%d" % k, ok, "")
        lhs, rhs = _t_trim(lhs), _t_trim(rhs)
        ok = lhs == rhs
        ok = ok and len(rhs) - 1 <= 2 * (n - k - 1) + 2
        expect = _diffs(_e_row(n, range(k + 2, n + 1), 2 * (n - k - 1) + 2))
        ok = ok and rhs == _t_trim(expect)
        ok = ok and (len(lhs) <= n - k or lhs[n - k].is_zero())
        yield ("gf-3-k%d" % k, ok, "")
    prod = _t_factors([one], _hyperbolic(n, range(1, n + 1)), d_t)
    ok = _t_trim(prod) == _t_trim([elementary_E(n, m)
                                   for m in range(2 * n + 1)])
    yield ("gf-2", ok, "")
