"""Inverse Chevalley evaluator.

Expands e^{-w(eps_m)} [O(w)] into twisted classes [O(x t_xi)(lambda)] with
coefficients in Z[q^{+-1}].  One depth-first walk visits the strictly
decreasing chains mbar > j_1 > ... > j_r in the [1,1bar] order together
with their tuples of admissible subsets, listing each node's subsets once,
and every node adds one block.  The module also holds the
staircase/mountain closed forms and the cancellation bookkeeping that
links the general evaluator to them.
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
        c = QExtElement.monomial(n, (0,) * n, coeff=coeff, qexp=qexp)
        return cls(n, [((w, xi, lam), c)])

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


def cancellation_report(n, k):
    """Account for every chain contribution in the unbarred block of
    inverse_chevalley(mountain(k), k).

    Returns a dict with the matched cancelling pairs, the surviving chains,
    and a residual check (sum of paired contributions must be zero and the
    survivors must add up to the closed form's unbarred block).  A pair
    that cannot be matched or does not cancel, or a chain walked twice,
    makes the check false, and the first such fault is named under
    "location".
    """
    blocks = {}  # chain -> block, in walk order
    location = ""
    for chain, _, block in _chain_blocks(mountain(n, k), k):
        if chain and chain[-1] > 0:
            if chain in blocks:  # each chain has one term to pair
                location = location or (
                    "cancellation pairing failed at j=%d l=%d"
                    % (chain[-1], next(x for x in chain if x > 0)))
            blocks[chain] = block

    def family(j, l, top):
        """The chain of a proof family: k+1bar, ..., (top-1)bar, then
        l, l-1, ..., j; top is l + 1 in family 1 and l in family 2."""
        return tuple(-t for t in range(k + 1, top)) + tuple(range(l, j - 1, -1))

    # every family (j, l) has both chains, so one missing is a fault
    pairs = []
    for j in range(1, n + 1):
        for l in range(max(j, k + 1), n + 1):
            c1, c2 = family(j, l, l + 1), family(j, l, l)
            if c1 not in blocks or c2 not in blocks:
                location = location or (
                    "cancellation pairing failed at j=%d l=%d" % (j, l))
            elif not (blocks[c1] + blocks[c2]).is_zero():
                location = location or (
                    "paired terms do not cancel at j=%d l=%d" % (j, l))
            else:
                del blocks[c1], blocks[c2]
                pairs.append((j, l, c1, c2))

    # the survivors must be exactly the chains (k, k-1, ..., j) with
    # j <= k, and add up to the closed form's unbarred block
    survivors = [(chain[-1], chain) for chain, block in blocks.items()
                 if not block.is_zero()]
    expect = {tuple(range(k, j - 1, -1)) for j in range(1, k + 1)}
    residual = SemiClassSum.sum_of(n, blocks.values())
    ok = (not location and {chain for _, chain in survivors} == expect
          and residual == _staircase_block(n, k, n))

    return {
        "pairs": pairs,
        "survivors": survivors,
        "matches_closed_form": ok,
        "location": location,
    }
