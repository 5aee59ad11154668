"""Quantum Bruhat graph for type C_n.

Edges are built two independent ways: from the length conditions (the
definition, with the reflection and quantum length drop each root carries)
and from the five-case window-pattern criterion, which reads the root's
label (i, j) against the window of w; the qbg suite and the tests
cross-check the two exhaustively.
"""

from __future__ import annotations

import json

from .rings import ConfigError
from .weylc import enumerate_group, order_key, positive_roots, universe


def edge_by_length(w, root):
    """Classify w -> w s_root by the length conditions; None if no edge."""
    lw, lt = w.length(), (w * root.reflection).length()
    if lt == lw + 1:
        return "B"
    if lt == lw - root.drop:
        return "Q"
    return None


def edge_by_pattern(w, root):
    """Classify w -> w s_root by the window-pattern criterion."""
    n = w.n
    val = lambda x: order_key(n, w.act(x))
    i, j = root.i, root.j
    vi, vj = val(i), val(j)
    lo, hi = order_key(n, i), order_key(n, j)
    inner = [val(x) for x in universe(n) if lo < order_key(n, x) < hi]
    if j > 0 or j == -i:
        if vi < vj:
            if not any(vi < v < vj for v in inner):
                return "B"
            return None
        if vi > vj and all(vi > v > vj for v in inner):
            return "Q"
        return None
    # (i, jbar) roots: only Bruhat edges, with the sign condition
    wi, wj = w.act(i), w.act(j)
    sign = lambda x: 1 if x > 0 else -1
    if vi < vj and sign(wi) == sign(wj) and not any(vi < v < vj for v in inner):
        return "B"
    return None


def build_graph(n):
    """All edges of QBG(W) as (source, root, target, kind) tuples, kind
    "B" or "Q", deterministically ordered."""
    if not 1 <= n <= 4:
        raise ConfigError("full graph build supported for 1 <= n <= 4")
    edges = []
    roots = positive_roots(n)
    for w in enumerate_group(n):
        for root in roots:
            kind = edge_by_length(w, root)
            if kind is not None:
                edges.append((w, root, w * root.reflection, kind))
    return edges


def export(edges, fmt):
    if fmt == "dot":
        lines = ["digraph qbg {"]
        for source, root, target, kind in edges:
            lines.append('  "%s" -> "%s" [label="%s %s"];' % (
                source.render(), target.render(), root.render(), kind))
        lines.append("}")
        return "\n".join(lines) + "\n"
    vertices = sorted({e[0].render() for e in edges}
                      | {e[2].render() for e in edges})
    payload = {
        "vertices": vertices,
        "edges": [{"src": source.render(), "root": root.render(),
                   "dst": target.render(), "kind": kind}
                  for source, root, target, kind in edges],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
