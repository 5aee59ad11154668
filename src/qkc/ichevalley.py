"""Inverse Chevalley evaluator.

Expands e^{-w(eps_m)} [O(w)] into twisted classes [O(x t_xi)(lambda)] with
coefficients in Z[q^{+-1}].  One depth-first walk visits the strictly
decreasing chains mbar > j_1 > ... > j_r in the [1,1bar] order together
with their tuples of admissible subsets, listing each node's subsets once,
and every node adds one block.  The module also holds the
staircase/mountain closed forms and the cancellation bookkeeping that
links the general evaluator to them.

No command reaches `ic1_data`, `ic2_data`, `derive_recurrence` and the
`ic_lhs`, `SemiClassSum.tensor`, `QExtElement.from_group` and
`specialize_q_one` they use.  They stay: the tests derive both semimod
recursions from them, the only check that the recursions follow from the
inverse Chevalley formulas.
"""

from __future__ import annotations

from .alcove import admissible_subsets, gamma_seq, theta_seq
from .rings import ConfigError, KeyedSum, QExtElement
from .weylc import SignedPerm, _alpha_range, _eps, coroot_sum, order_key, pairing


class SemiClassSum(KeyedSum):
    """Formal sum over keys (w, xi, lambda) with QExtElement coefficients.

    xi is a coroot-lattice vector in alpha^vee coordinates; the key stands
    for the class [O(w t_xi)(lambda)].
    """

    __slots__ = ()

    @classmethod
    def basis(cls, w, xi=None, lam=None, coeff=1, qexp=0):
        n = w.n
        xi = tuple(xi) if xi is not None else (0,) * n
        lam = tuple(lam) if lam is not None else (0,) * n
        if isinstance(coeff, QExtElement):
            c = coeff
        else:
            c = QExtElement.monomial(n, (0,) * n, coeff=coeff, qexp=qexp)
        return cls(n, [((w, xi, lam), c)])

    def tensor(self, mu):
        """Tensor with O(mu): lambda -> lambda + mu on every key."""
        return SemiClassSum(self.n, (
            ((w, xi, tuple(a + b for a, b in zip(lam, mu))), v)
            for (w, xi, lam), v in self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (kv[0][0].window, kv[0][1], kv[0][2]))

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for (w, xi, lam), v in self.sorted_terms():
            bits = ["O(%s" % w.render()]
            if any(xi):
                bits.append(" t[%s]" % ",".join(str(x) for x in xi))
            bits.append(")")
            if any(lam):
                bits.append("(%s)" % ",".join(str(x) for x in lam))
            parts.append("(%s)*%s" % (v.render(), "".join(bits)))
        return " + ".join(parts)

    def to_json(self):
        return [
            {"w": w.render(), "xi": list(xi), "lam": list(lam),
             "coeff": v.to_json()}
            for (w, xi, lam), v in self.sorted_terms()
        ]


def staircase(n, k):
    """s_1 s_2 ... s_k (k = 0 gives the identity)."""
    w = SignedPerm.identity(n)
    for i in range(1, k + 1):
        w = w * SignedPerm.simple(n, i)
    return w


def mountain(n, k):
    """s_1 ... s_{n-1} s_n s_{n-1} ... s_k."""
    w = SignedPerm.identity(n)
    for i in list(range(1, n + 1)) + list(range(n - 1, k - 1, -1)):
        w = w * SignedPerm.simple(n, i)
    return w


def _seq(n, s):
    """Theta_s for s > 0, Gamma_|s| for a barred s."""
    return theta_seq(n, s) if s > 0 else gamma_seq(n, -s)


def _chain_blocks(w, m):
    """Walk the chains mbar > j_1 > ... > j_r in the [1,1bar] order with
    their tuples (A_1, ..., A_r), A_1 in A_w^{mbar, j_1} and A_t in
    A_{ed(A_{t-1})}^{j_{t-1}, j_t}, depth first.

    A node (base, prev) is the end of the last A (w at the root) and the
    last chain element (mbar at the root).  Each admissible subset A of
    _seq(prev) from base leads to l = ed(A)^{-1} base(prev), a child when
    l is below prev; the empty subset gives l = prev and never is.  Every
    node yields (chain, A-list, block): the B-sum over A(base, _seq(-prev))
    with twist eps_prev, q-exponent <eps_prev, down> and sign
    (-1)^(size - len(chain)), where down and size add up the A-list's
    down vectors and lengths.
    """
    n = w.n

    def walk(base, prev, chain, alist, down, size):
        twist = _eps(n, prev)
        sign = (-1) ** (size - len(chain))
        qexp = pairing(twist, down)
        yield chain, alist, SemiClassSum.sum_of(n, (
            SemiClassSum.basis(
                b.end, coroot_sum(n, [down, b.down]), twist,
                coeff=sign * (-1) ** len(b.positions), qexp=qexp)
            for b in admissible_subsets(base, _seq(n, -prev))))
        moved, here = base.act(prev), order_key(n, prev)
        for a in admissible_subsets(base, _seq(n, prev)):
            l = a.end.inverse().act(moved)
            if order_key(n, l) < here:
                yield from walk(a.end, l, chain + (l,), alist + [a],
                                coroot_sum(n, [down, a.down]),
                                size + len(a.positions))

    yield from walk(w, -m, (), [], (0,) * n, 0)


def inverse_chevalley(w, m):
    """The right-hand side of the expansion of e^{-w(eps_m)} [O(w)]."""
    if not 1 <= m <= w.n:
        raise ConfigError("m out of range")
    return SemiClassSum.sum_of(
        w.n, (block for _, _, block in _chain_blocks(w, m)))


def ic_lhs(w, m):
    """e^{-w(eps_m)} [O(w)] as a one-term SemiClassSum."""
    n = w.n
    weight = tuple(-x for x in w.act_weight(_eps(n, m)))
    return SemiClassSum.basis(
        w, coeff=QExtElement.monomial(n, weight))


def _staircase_block(n, k, top):
    """q times the sum over j <= k of
    [O(s_1..s_{j-1} t_xi)(eps_j)] - [O(s_1..s_j t_xi)(eps_j)],
    xi = alpha_j^vee + ... + alpha_top^vee."""
    return SemiClassSum.sum_of(n, (
        SemiClassSum.basis(staircase(n, j - 1 + d), _alpha_range(n, j, top),
                           _eps(n, j), coeff=(-1) ** d, qexp=1)
        for j in range(1, k + 1) for d in (0, 1)))


def ic2_closed(n, k):
    """The staircase/mountain closed form of inverse_chevalley(mountain(k), k)."""
    if not 1 <= k <= n:
        raise ConfigError("k out of range")
    total = SemiClassSum.basis(mountain(n, k), lam=_eps(n, k, -1))
    if k > 1:
        total = total - SemiClassSum.basis(mountain(n, k - 1), lam=_eps(n, k, -1))
    for j in range(k + 1, n + 1):
        xi = _alpha_range(n, k, j - 1)
        total = total + SemiClassSum.basis(
            mountain(n, j), xi, _eps(n, j, -1), qexp=1)
        total = total - SemiClassSum.basis(
            mountain(n, j - 1), xi, _eps(n, j, -1), qexp=1)
    return total + _staircase_block(n, k, n)


def ic1_data(n, k):
    """Both sides of the staircase expansion: returns (lhs, rhs)."""
    if not 1 <= k <= n - 1:
        raise ConfigError("k out of range")
    lhs = SemiClassSum.basis(
        staircase(n, k), coeff=QExtElement.monomial(n, _eps(n, 1)))
    rhs = SemiClassSum.basis(staircase(n, k), lam=_eps(n, k + 1))
    rhs = rhs - SemiClassSum.basis(staircase(n, k + 1), lam=_eps(n, k + 1))
    return lhs, rhs + _staircase_block(n, k, k)


def ic2_data(n, k):
    """Both sides of the mountain expansion: returns (lhs, rhs)."""
    return ic_lhs(mountain(n, k), k), ic2_closed(n, k)


def cancellation_report(n, k):
    """Account for every chain contribution in the unbarred block of
    inverse_chevalley(mountain(k), k).

    Returns a dict with the matched cancelling pairs, the surviving chains,
    and a residual check (sum of paired contributions must be zero and the
    survivors must add up to the closed form's unbarred block).  A pair
    that cannot be matched or does not cancel makes the check false, and
    the first such pair is named under "location".
    """
    contributions = [  # (j, chain, A-labels, term)
        (chain[-1], chain, tuple(a.render() for a in alist), block)
        for chain, alist, block in _chain_blocks(mountain(n, k), k)
        if chain and chain[-1] > 0]

    def expected_chain(j, l, family):
        """The chain tuple for the two proof families: the barred run goes
        up to lbar in family 1 and stops below it in family 2."""
        top = l + 1 if family == 1 else l
        return tuple(-t for t in range(k + 1, top)) + tuple(range(l, j - 1, -1))

    pairs = []
    survivors = []
    location = ""
    used = [False] * len(contributions)
    index = {}
    for pos, (j, chain, labels, block) in enumerate(contributions):
        index.setdefault((j, chain), []).append(pos)

    for j in range(1, n + 1):
        for l in range(max(j, k + 1), n + 1):
            c1 = expected_chain(j, l, 1)
            c2 = expected_chain(j, l, 2)
            p1 = [p for p in index.get((j, c1), []) if not used[p]]
            p2 = [p for p in index.get((j, c2), []) if not used[p]]
            if not p1 and not p2:
                continue
            if len(p1) != 1 or len(p2) != 1:
                location = location or (
                    "cancellation pairing failed at j=%d l=%d" % (j, l))
                continue
            a, b = p1[0], p2[0]
            if not (contributions[a][3] + contributions[b][3]).is_zero():
                location = location or (
                    "paired terms do not cancel at j=%d l=%d" % (j, l))
                continue
            used[a] = used[b] = True
            pairs.append((j, l, contributions[a][1], contributions[b][1]))

    residual = SemiClassSum.zero(n)
    for pos, (j, chain, labels, block) in enumerate(contributions):
        if used[pos] or block.is_zero():
            continue
        survivors.append((j, chain, labels))
        residual = residual + block

    # survivors must be exactly the chains (k, k-1, ..., j) with j <= k
    expect_chains = {(j, tuple(range(k, j - 1, -1))) for j in range(1, k + 1)}
    got_chains = {(j, chain) for j, chain, _ in survivors}
    ok = not location and got_chains == expect_chains
    ok = ok and residual == _staircase_block(n, k, n)

    return {
        "pairs": pairs,
        "survivors": survivors,
        "matches_closed_form": ok,
        "location": location,
    }


def derive_recurrence(lhs, rhs, twist, target):
    """Tensor both sides by O(twist), set q := 1, and isolate the target
    basis key (w, xi, lam), whose coefficient must be a unit +-1.

    Returns (target_key, expression) with expression a SemiClassSum over
    the remaining keys whose coefficients are q-free.
    """
    n = lhs.n
    combined = (rhs - lhs).tensor(twist).map_coefficients(
        lambda v: QExtElement.from_group(v.specialize_q_one()))
    coeff = combined.terms.get(target)
    if coeff is None:
        raise ConfigError("target key absent after specialization")
    unit = coeff.specialize_q_one().monomial_or_none()
    if unit is None or unit[0] != (0,) * n or unit[1] not in (1, -1):
        raise ConfigError("target coefficient is not a unit")
    rest = SemiClassSum(
        n, ((k, v) for k, v in combined.terms.items() if k != target))
    sign = -unit[1]
    return target, rest.scale(sign)
