"""Faults injected into the library, shared by the fault tests of
tests/test_cli.py and the reachability run of tests/test_source.py.

Each fault is a function of `patch`, a setattr that the caller can undo
(pytest's `monkeypatch.setattr`, say): it replaces one library function
by a broken copy that calls the original.  pytest does not collect this
module.
"""

from qkc import ichevalley, relations
from qkc.rings import GroupRingElement, NovikovSeries, QExtElement
from qkc.weylc import _eps, pairing


def demazure_D_sign(patch):
    """relations.demazure_D with the m >= 2 case missing its minus sign:
    the secondary derivation stops at a division that does not exist."""
    original = relations.demazure_D

    def demazure_D(i, f):
        out = GroupRingElement.zero(f.n)
        for nu, c in f.terms.items():
            value = original(i, GroupRingElement.monomial(f.n, nu, c))
            out = out + (-value if pairing(nu, _eps(f.n, i)) >= 2 else value)
        return out

    patch(relations, "demazure_D", demazure_D)


def doubled_pivots(patch):
    """relations.system_row with its pivot doubled: no row has a unit
    leading coefficient."""
    original = relations.system_row

    def system_row(n, k):
        coeffs = list(original(n, k))
        coeffs[n - k] = coeffs[n - k] + coeffs[n - k]
        return tuple(coeffs)

    patch(relations, "system_row", system_row)


def uncancelled_pair(patch):
    """ichevalley._chain_blocks with the blocks of the unbarred chains of
    length 3 times q, so their family pairs no longer cancel."""
    original = ichevalley._chain_blocks

    def chain_blocks(w, m):
        q = QExtElement.monomial(w.n, (0,) * w.n, qexp=1)
        for chain, alist, block in original(w, m):
            if len(chain) == 3 and chain[-1] > 0:
                block = block.scale(q)
            yield chain, alist, block

    patch(ichevalley, "_chain_blocks", chain_blocks)


def missing_partner(patch):
    """ichevalley._chain_blocks without the chain (2, 1); at k = 1 its
    family-1 partner (2bar, 2, 1) is left unpaired."""
    original = ichevalley._chain_blocks

    def chain_blocks(w, m):
        return ((chain, alist, block) for chain, alist, block
                in original(w, m) if chain != (2, 1))

    patch(ichevalley, "_chain_blocks", chain_blocks)


def chain_walked_twice(patch):
    """ichevalley._chain_blocks yielding every unbarred chain twice."""
    original = ichevalley._chain_blocks

    def chain_blocks(w, m):
        for node in original(w, m):
            yield node
            if node[0] and node[0][-1] > 0:
                yield node

    patch(ichevalley, "_chain_blocks", chain_blocks)


def division_short_of_the_cut(patch):
    """NovikovSeries._div_one_minus with its running sum stopped one
    degree short of the cut: the terms at the cut keep their own value
    and get nothing carried up from the degree below."""
    original = NovikovSeries._div_one_minus

    def div_one_minus(self, j):
        below = self.with_trunc(self.trunc - 1)
        top = self - below.with_trunc(self.trunc)
        return original(below, j).with_trunc(self.trunc) + top

    patch(NovikovSeries, "_div_one_minus", div_one_minus)


def stale_leaf(patch):
    """relations.lru_cache, which makes the leaf table of each
    csym_nested_lhs call, with the table handing out the first leaf it
    built for every r."""
    original = relations.lru_cache

    def lru_cache(maxsize):
        def stale_table(build):
            built = []

            def leaf(r):
                if not built:
                    built.append(build(r))
                return built[0]
            return original(maxsize)(leaf)
        return stale_table

    patch(relations, "lru_cache", lru_cache)
