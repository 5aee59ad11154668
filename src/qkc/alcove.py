"""Quantum alcove model: the root sequences Theta_k and Gamma_k(k) and
their admissible subsets with end/down statistics.

Every entry of Theta_k and Gamma_k(k) is a negated root, so a sequence is
the tuple of those roots (built once per rank and k), and a subset is the
tuple of positions it picks from it.
"""

from __future__ import annotations

from .rings import ConfigError, table
from .qbg import edge_by_length
from .weylc import RootC, coroot_sum


@table
def theta_seq(n, k):
    """Theta_k = (-(1,k), ..., -(k-1,k)), as the tuple of roots (1,k), ...,
    (k-1,k)."""
    if not 1 <= k <= n:
        raise ConfigError("k out of range")
    return tuple(RootC(n, i, k) for i in range(1, k))


@table
def gamma_seq(n, k):
    """Gamma_k(k), of length 2n - k:

    (-(1,kbar), ..., -(k-1,kbar), -(k,k+1bar), ..., -(k,nbar),
     -(k,kbar), -(k,n), ..., -(k,k+1))

    as the tuple of its roots, with the common sign dropped.
    """
    if not 1 <= k <= n:
        raise ConfigError("k out of range")
    labels = ([(i, -k) for i in range(1, k)]
              + [(k, -j) for j in range(k + 1, n + 1)] + [(k, -k)]
              + [(k, j) for j in range(n, k, -1)])
    return tuple(RootC(n, i, j) for i, j in labels)


class AdmissibleSubset:
    """The positions (0-based, increasing) chosen from a root sequence, the
    end of the path they walk and the sum of its quantum steps' coroots."""

    __slots__ = ("sequence", "positions", "end", "down")

    def __init__(self, sequence, positions, end, down):
        self.sequence = sequence
        self.positions = tuple(positions)
        self.end = end
        self.down = down  # alpha^vee coordinates

    def render(self):
        return "{%s}" % ", ".join(
            "-" + self.sequence[p].render() for p in self.positions)


def admissible_subsets(w, seq):
    """All w-admissible subsets of the root sequence, by DFS extension."""
    out = []

    def extend(idx, positions, end, downs):
        out.append(AdmissibleSubset(seq, positions, end, coroot_sum(w.n, downs)))
        for p in range(idx, len(seq)):
            root = seq[p]
            kind = edge_by_length(end, root)
            if kind is None:
                continue
            extend(p + 1, positions + [p], end * root.reflection,
                   downs + [root.coroot] if kind == "Q" else downs)

    extend(0, [], w, [])
    out.sort(key=lambda a: (len(a.positions), a.positions))
    return out

