"""Quantum alcove model: the root sequences Theta_k and Gamma_k(k),
admissible subsets with end/down statistics, decreasing chains S_{m,j},
and the end-filtered families used by the inverse Chevalley evaluator."""

from __future__ import annotations

import itertools

from .rings import ConfigError
from .qbg import edge_by_length
from .weylc import RootC, _eps, coroot_sum, order_key, root_from_label, universe


class RootSequence:
    """Ordered list of signed roots; entries are (negated: bool, RootC)."""

    __slots__ = ("n", "name", "entries")

    def __init__(self, n, name, entries):
        self.n = n
        self.name = name
        self.entries = tuple(entries)

    def __len__(self):
        return len(self.entries)

    def absolute(self, idx):
        """|gamma| for the entry at idx (0-based)."""
        return self.entries[idx][1]

    def render(self):
        parts = []
        for neg, root in self.entries:
            parts.append(("-" if neg else "") + root.render())
        return "%s = (%s)" % (self.name, ", ".join(parts))

    def __repr__(self):
        return "RootSequence(%r)" % self.render()


def theta_seq(n, k):
    """Theta_k = (-(1,k), ..., -(k-1,k))."""
    if not 1 <= k <= n:
        raise ConfigError("k out of range")
    entries = [(True, RootC(n, "minus", i, k)) for i in range(1, k)]
    return RootSequence(n, "Theta_%d" % k, entries)


def gamma_seq(n, k):
    """Gamma_k(k), of length 2n - k:

    (-(1,kbar), ..., -(k-1,kbar), -(k,k+1bar), ..., -(k,nbar),
     -(k,kbar), -(k,n), ..., -(k,k+1))
    """
    if not 1 <= k <= n:
        raise ConfigError("k out of range")
    entries = []
    for i in range(1, k):
        entries.append((True, root_from_label(n, i, -k)))
    for j in range(k + 1, n + 1):
        entries.append((True, root_from_label(n, k, -j)))
    entries.append((True, root_from_label(n, k, -k)))
    for j in range(n, k, -1):
        entries.append((True, root_from_label(n, k, j)))
    return RootSequence(n, "Gamma_%d(%d)" % (k, k), entries)


class AdmissibleSubset:
    __slots__ = ("base", "sequence", "positions", "path", "end", "down")

    def __init__(self, base, sequence, positions, path, end, down):
        self.base = base
        self.sequence = sequence
        self.positions = tuple(positions)   # 0-based indices, increasing
        self.path = tuple(path)             # (vertex, root, kind) per step
        self.end = end
        self.down = down                    # alpha^vee coordinates

    def size(self):
        return len(self.positions)

    def labels(self):
        """The chosen entries as signed labels, e.g. [-(1,2), -(2,-2)]."""
        return tuple(self.sequence.entries[p] for p in self.positions)

    def render(self):
        labels = ", ".join(
            ("-" if neg else "") + root.render() for neg, root in self.labels())
        return "{%s}" % labels

    def __repr__(self):
        return "AdmissibleSubset(%r)" % self.render()

    def __eq__(self, other):
        return (isinstance(other, AdmissibleSubset)
                and self.base == other.base
                and self.sequence.name == other.sequence.name
                and self.positions == other.positions)

    def __hash__(self):
        return hash((self.base, self.sequence.name, self.positions))


def admissible_subsets(w, seq):
    """All w-admissible subsets of the root sequence, by DFS extension."""
    out = []

    def extend(idx, positions, path, end, downs):
        out.append(AdmissibleSubset(
            w, seq, positions, path, end, coroot_sum(w.n, downs)))
        for p in range(idx, len(seq)):
            root = seq.absolute(p)
            kind = edge_by_length(end, root)
            if kind is None:
                continue
            nxt = end * root.reflection()
            extend(p + 1, positions + [p], path + [(end, root, kind)], nxt,
                   downs + [root.coroot()] if kind == "Q" else downs)

    extend(0, [], [], w, [])
    out.sort(key=lambda a: (a.size(), a.positions))
    return out


def s_chains(n, m, j):
    """S_{m,j}: all strictly decreasing chains m > j_1 > ... > j_r = j
    in the [1,1bar] order, for signed elements m, j with j < m."""
    km, kj = order_key(n, m), order_key(n, j)
    if not kj < km:
        raise ConfigError("need j < m in the [1,1bar] order")
    between = [x for x in universe(n) if kj < order_key(n, x) < km]
    chains = []
    for r in range(len(between) + 1):
        for subset in itertools.combinations(between, r):
            chain = sorted(subset, key=lambda x: -order_key(n, x))
            chains.append(tuple(chain) + (j,))
    chains.sort(key=lambda c: (len(c), tuple(order_key(n, x) for x in c)))
    return chains


def a_filtered(w, source, l):
    """The family A_w^{source, l} (source and l signed; barred source means
    the Gamma sequence): nonempty admissible subsets A with
    ed(A)^{-1} w eps_source = eps_l."""
    n = w.n
    seq = theta_seq(n, source) if source > 0 else gamma_seq(n, -source)
    target = _eps(n, l)
    moved = w.act_weight(_eps(n, source))
    out = []
    for a in admissible_subsets(w, seq):
        if not a.positions:
            continue
        if a.end.inverse().act_weight(moved) == target:
            out.append(a)
    return out
