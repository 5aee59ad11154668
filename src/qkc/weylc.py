"""Hyperoctahedral Weyl group of type C_n.

Elements of [1,1bar] = {1 < ... < n < nbar < ... < 1bar} are encoded as
signed integers: +k for k, -k for kbar.  The total order is realized by
order_key: +k -> k, -k -> 2n+1-k.

A positive root is named by its label (i, j) with j signed: the root
eps_i - eps_j, where eps_{jbar} = -eps_j, so (i, ibar) is the long root
2 eps_i.  Weights live in the eps-basis (integer vectors of length n);
coroots are stored in the alpha^vee basis.
"""

from __future__ import annotations

import itertools

from .rings import ConfigError, GroupRingElement, table


def order_key(n, x):
    """Position of the signed element x in the [1,1bar] total order."""
    return x if x > 0 else 2 * n + 1 + x


def universe(n):
    """[1,1bar] in increasing order, as signed integers."""
    return list(range(1, n + 1)) + [-t for t in range(n, 0, -1)]


class SignedPerm:
    """Signed permutation in window notation [w(1), ..., w(n)]."""

    __slots__ = ("n", "window")

    def __init__(self, window):
        self.window = tuple(window)
        self.n = len(self.window)
        if sorted(abs(x) for x in self.window) != list(range(1, self.n + 1)):
            raise ConfigError("not a signed permutation: %r" % (self.window,))

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def simple(cls, n, i):
        """The simple reflection s_i."""
        if i < n:
            window = list(range(1, n + 1))
            window[i - 1], window[i] = window[i], window[i - 1]
        else:
            window = list(range(1, n))
            window.append(-n)
        return cls(window)

    def act(self, k):
        """Apply to a signed element of [1,1bar]."""
        if k > 0:
            return self.window[k - 1]
        return -self.window[-k - 1]

    def __mul__(self, other):
        """(w*v)(k) = w(v(k))."""
        return SignedPerm(self.act(x) for x in other.window)

    def inverse(self):
        out = [0] * self.n
        for k, img in enumerate(self.window, start=1):
            if img > 0:
                out[img - 1] = k
            else:
                out[-img - 1] = -k
        return SignedPerm(out)

    def __eq__(self, other):
        return isinstance(other, SignedPerm) and self.window == other.window

    def __hash__(self):
        return hash(self.window)

    def render(self):
        return "[%s]" % ",".join(str(x) for x in self.window)

    @classmethod
    def parse(cls, text):
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        return cls(int(p) for p in body.split(",") if p.strip())

    def __repr__(self):
        return "SignedPerm(%r)" % self.render()

    def length(self):
        """Number of positive roots sent to negative roots.

        Counted as inversions in the [1,1bar] order (Bjorner-Brenti,
        Combinatorics of Coxeter Groups, 8.1): with k_t the order key of
        w(t), pairs t<u with k_t > k_u, pairs t<u with k_t > key(-w(u)),
        i.e. k_t + k_u > 2n+1, and the negative entries.
        """
        n = self.n
        keys = [x if x > 0 else 2 * n + 1 + x for x in self.window]
        bound = 2 * n + 1
        count = 0
        for t, kt in enumerate(keys):
            if kt > n:
                count += 1
            for ku in keys[t + 1:]:
                count += (kt > ku) + (kt + ku > bound)
        return count


def check_rank(n):
    """Raise ConfigError unless `enumerate_group` lists W(C_n)."""
    if not 1 <= n <= 6:
        raise ConfigError("rank out of supported range 1..6")


def enumerate_group(n):
    """All 2^n n! signed permutations, in a deterministic order."""
    check_rank(n)
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(SignedPerm(s * p for s, p in zip(signs, perm)))
    out.sort(key=lambda w: tuple(order_key(n, x) for x in w.window))
    return out


class RootC:
    """Positive root of type C_n, named by its label (i, j): j is a signed
    element of [1,1bar] with i < |j|, or j = -i for the long root
    (Bjorner-Brenti 8.1).  The root is eps_i - eps_j, with
    eps_{jbar} = -eps_j.  Its weight (eps-basis), coroot (alpha^vee
    basis), reflection and quantum length drop 2<rho, root^vee> - 1 are
    built with the root.
    """

    __slots__ = ("i", "j", "weight", "coroot", "reflection", "drop")

    def __init__(self, n, i, j):
        self.i, self.j = i, j
        self.weight = tuple(a + b for a, b in zip(_eps(n, i), _eps(n, j, -1)))
        # eps-coordinates of the coroot, summed up into the alpha^vee basis
        half = 2 if j == -i else 1
        self.coroot = tuple(itertools.accumulate(c // half for c in self.weight))
        window = list(range(1, n + 1))
        window[i - 1] = j
        window[abs(j) - 1] = i if j > 0 else -i
        self.reflection = SignedPerm(window)
        self.drop = 2 * pairing(rho_vector(n), self.coroot) - 1

    def render(self):
        return "(%d,%d)" % (self.i, self.j)


def _labels(n):
    """The n^2 positive-root labels: (i, j), then (i, jbar) for i < j, then
    the long roots (i, ibar)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return (pairs + [(i, -j) for i, j in pairs]
            + [(i, -i) for i in range(1, n + 1)])


@table
def positive_roots(n):
    """The n^2 positive roots of C_n, as a tuple built once per rank."""
    return tuple(RootC(n, i, j) for i, j in _labels(n))


def _eps(n, j, c=1):
    """c * eps_j in the eps-basis; a barred index j < 0 gives -c * eps_|j|."""
    if j < 0:
        j, c = -j, -c
    return tuple(c if t == j - 1 else 0 for t in range(n))


def _alpha_range(n, a, b):
    """alpha_a^vee + ... + alpha_b^vee in the alpha^vee basis."""
    return tuple(1 if a <= t <= b else 0 for t in range(1, n + 1))


def simple_root_weight(n, i):
    """alpha_i in the eps-basis."""
    if i < n:
        return tuple(a - b for a, b in zip(_eps(n, i), _eps(n, i + 1)))
    return _eps(n, n, 2)


def pairing(lam, cv):
    """<lam, cv> with lam in the eps-basis and cv in the alpha^vee basis."""
    n = len(lam)
    total = 0
    for i in range(1, n + 1):
        c = cv[i - 1]
        if not c:
            continue
        total += c * (lam[i - 1] - lam[i] if i < n else lam[n - 1])
    return total


def coroot_sum(n, cvs):
    out = [0] * n
    for cv in cvs:
        for t in range(n):
            out[t] += cv[t]
    return tuple(out)


@table
def rho_vector(n):
    """rho = half the sum of the positive roots eps_i - eps_j, in the
    eps-basis."""
    total = [0] * n
    for i, j in _labels(n):
        total[i - 1] += 1
        total[abs(j) - 1] -= 1 if j > 0 else -1
    return tuple(c // 2 for c in total)


def demazure_D(i, f):
    """Demazure operator D_i on a GroupRingElement, via the closed form:

    m = <nu, alpha_i^vee>:
      m <= 0 : e^nu (1 + e^{alpha_i} + ... + e^{-m alpha_i})
      m == 1 : 0
      m >= 2 : -e^nu (e^{-alpha_i} + ... + e^{-(m-1) alpha_i})
    """
    n = f.n
    alpha = simple_root_weight(n, i)
    cv = _eps(n, i)
    out = {}  # zero sums are dropped by the constructor
    for nu, c in f.terms.items():
        m = pairing(nu, cv)
        if m <= 0:
            for t in range(-m + 1):
                key = tuple(x + t * a for x, a in zip(nu, alpha))
                out[key] = out.get(key, 0) + c
        elif m >= 2:
            for t in range(1, m):
                key = tuple(x - t * a for x, a in zip(nu, alpha))
                out[key] = out.get(key, 0) - c
    return GroupRingElement(n, out)

