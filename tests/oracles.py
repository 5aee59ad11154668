"""Reference implementations that the tests compare the library with.

No `qkc` command runs these, so they live with the tests.  They build
their values from the definitions through the public ring API only
(`.terms`, `sorted_terms` and the constructors), and share no packed-key
code with the kernel they check.  pytest does not collect this module.
"""

from itertools import combinations, combinations_with_replacement
from operator import add

from qkc.ichevalley import (
    SemiClassSum,
    _staircase_block,
    ic2_closed,
    mountain,
    staircase,
)
from qkc.rings import ConfigError, GroupRingElement, QExtElement, exact_div
from qkc.weylc import _eps, pairing, simple_root_weight


def act_weight(w, lam):
    """w . sum lam_k eps_k = sum lam_k eps_{w(k)}, with eps_{jbar} = -eps_j."""
    out = [0] * w.n
    for img, c in zip(w.window, lam):
        out[abs(img) - 1] += c if img > 0 else -c
    return tuple(out)


def _monomial_sum(n, variables, index_tuples):
    """The sum over the index tuples of the products of those one-term
    variables, by adding their exponent tuples."""
    out = {}
    for indices in index_tuples:
        exps, coeff = (0,) * n, 1
        for i in indices:
            (e, c), = variables[i].terms.items()
            exps, coeff = tuple(map(add, exps, e)), coeff * c
        out[exps] = out.get(exps, 0) + coeff
    return GroupRingElement(n, out)


def h_brute(n, variables, m):
    """h_m: the sum of all products of m of the one-term variables,
    repetition allowed."""
    return _monomial_sum(n, variables, combinations_with_replacement(
        range(len(variables)), m))


def e_brute(n, variables, m):
    """e_m: the sum of all products of m distinct one-term variables."""
    return _monomial_sum(n, variables, combinations(range(len(variables)), m))


def demazure_D_fraction(i, f):
    """D_i f = (f - e^{alpha_i} s_i(f)) / (1 - e^{alpha_i}), by exact
    division: the definition that the closed form `demazure_D` follows."""
    n = f.n
    alpha = simple_root_weight(n, i)
    cv = _eps(n, i)
    ealpha = GroupRingElement.monomial(n, alpha)
    num = GroupRingElement.zero(n)
    for nu, c in f.terms.items():
        m = pairing(nu, cv)
        snu = tuple(x - m * a for x, a in zip(nu, alpha))
        num = num + GroupRingElement.monomial(n, nu, c)
        num = num - ealpha * GroupRingElement.monomial(n, snu, c)
    return exact_div(num, GroupRingElement.one(n) - ealpha)


def specialize_q_one(v):
    """The ring map q := 1 from Z[q^{+-1}][P] onto Z[P]."""
    out = {}
    for (_, *weight), c in v.terms.items():
        out[tuple(weight)] = out.get(tuple(weight), 0) + c
    return GroupRingElement(v.n, out)


def tensor(s, mu):
    """A SemiClassSum tensored with O(mu): lambda -> lambda + mu on every
    key."""
    return SemiClassSum(s.n, (((w, xi, tuple(map(add, lam, mu))), v)
                              for (w, xi, lam), v in s.terms.items()))


def ic_lhs(w, m):
    """e^{-w(eps_m)} [O(w)] as a one-term SemiClassSum."""
    n = w.n
    weight = tuple(-x for x in act_weight(w, _eps(n, m)))
    return weighted_class(w, weight)


def weighted_class(w, weight, lam=None, coeff=1):
    """coeff e^weight [O(w)(lam)] as a one-term SemiClassSum."""
    n = w.n
    lam = (0,) * n if lam is None else tuple(lam)
    return SemiClassSum(n, [((w, (0,) * n, lam),
                             QExtElement.monomial(n, weight, coeff))])


def ic1_data(n, k):
    """Both sides of the staircase expansion: returns (lhs, rhs)."""
    if not 1 <= k <= n - 1:
        raise ConfigError("k out of range")
    lhs = weighted_class(staircase(n, k), _eps(n, 1))
    rhs = SemiClassSum.basis(staircase(n, k), lam=_eps(n, k + 1))
    rhs = rhs - SemiClassSum.basis(staircase(n, k + 1), lam=_eps(n, k + 1))
    return lhs, rhs + _staircase_block(n, k, k)


def ic2_data(n, k):
    """Both sides of the mountain expansion: returns (lhs, rhs)."""
    return ic_lhs(mountain(n, k), k), ic2_closed(n, k)


def derive_recurrence(lhs, rhs, twist, target):
    """Tensor both sides by O(twist), set q := 1, and isolate the target
    basis key (w, xi, lam), whose coefficient must be a unit +-1.

    Returns (target_key, expression) with expression a SemiClassSum over
    the remaining keys, with q-free coefficients.
    """
    n = lhs.n
    combined = tensor(rhs - lhs, twist).map_coefficients(specialize_q_one)
    coeff = combined.terms.get(target)
    if coeff is None:
        raise ConfigError("target key absent after specialization")
    one = GroupRingElement.one(n)
    if coeff not in (one, -one):
        raise ConfigError("target coefficient is not a unit")
    rest = SemiClassSum(
        n, ((k, v) for k, v in combined.terms.items() if k != target))
    return target, rest.scale(-coeff)
