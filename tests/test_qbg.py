import json

from qkc.qbg import (
    build_graph,
    edge_by_length,
    edge_by_pattern,
    export,
)
from qkc.weylc import (
    RootC,
    SignedPerm,
    enumerate_group,
    pairing,
    positive_roots,
    rho_vector,
)


def test_simple_reflection_from_identity_is_bruhat():
    n = 3
    e = SignedPerm.identity(n)
    for i in range(1, n):
        assert edge_by_length(e, RootC(n, i, i + 1)) == "B"
    assert edge_by_length(e, RootC(n, n, -n)) == "B"


def test_rank_one_quantum_edge():
    n = 1
    s1 = SignedPerm.simple(n, 1)
    root = RootC(n, 1, -1)
    assert edge_by_length(s1, root) == "Q"
    assert edge_by_pattern(s1, root) == "Q"


def test_mountain_edge_exists():
    n = 3
    for k in range(2, n + 1):
        w = SignedPerm.identity(n)
        for i in list(range(1, n + 1)) + list(range(n - 1, k - 1, -1)):
            w = w * SignedPerm.simple(n, i)
        assert edge_by_length(w, RootC(n, k - 1, k)) is not None


def test_quantum_case_vacuous_intermediate():
    # (i, i+1) roots have an empty intermediate range, so the quantum
    # condition reduces to w(i) > w(i+1) plus the length drop.
    n = 2
    root = RootC(n, 1, 2)
    for w in enumerate_group(n):
        assert edge_by_pattern(w, root) == edge_by_length(w, root)


def test_pattern_equals_length_up_to_rank_three():
    for n in range(1, 4):
        roots = positive_roots(n)
        for w in enumerate_group(n):
            for root in roots:
                assert edge_by_pattern(w, root) == edge_by_length(w, root), \
                    (w.render(), root.render())


def test_routes_are_independent(monkeypatch):
    # each route classifies every pair of W(C_3) x roots with the other
    # route's ingredient broken, and the two still agree
    n = 3
    pairs = [(w, root) for w in enumerate_group(n) for root in positive_roots(n)]
    expect = [edge_by_length(w, root) for w, root in pairs]

    def broken(*args):
        raise AssertionError("route reached the other route's ingredient")

    with monkeypatch.context() as patch:
        patch.setattr(SignedPerm, "length", broken)
        assert [edge_by_pattern(w, root) for w, root in pairs] == expect
    with monkeypatch.context() as patch:
        patch.setattr("qkc.qbg.order_key", broken)
        assert [edge_by_length(w, root) for w, root in pairs] == expect


def test_rank_one_graph():
    edges = build_graph(1)
    assert len(edges) == 2
    kinds = {(source.window, kind) for source, _, _, kind in edges}
    assert kinds == {((1,), "B"), ((-1,), "Q")}


def test_bruhat_orientation_unique_for_simple_roots():
    n = 3
    simples = [RootC(n, i, i + 1) for i in range(1, n)] + \
        [RootC(n, n, -n)]
    for w in enumerate_group(n):
        for root in simples:
            ws = w * root.reflection
            fwd = edge_by_length(w, root) == "B"
            back = edge_by_length(ws, root) == "B"
            assert fwd != back


def test_quantum_length_drop_formula():
    n = 3
    rho = rho_vector(n)
    for source, root, target, kind in build_graph(n):
        if kind == "Q":
            drop = source.length() - target.length()
            assert drop == 2 * pairing(rho, root.coroot) - 1


def test_graph_matches_bruteforce_n2():
    n = 2
    edges = build_graph(n)
    brute = [(w, (root.i, root.j), w * root.reflection, kind)
             for w in enumerate_group(n) for root in positive_roots(n)
             for kind in [edge_by_pattern(w, root)] if kind is not None]
    assert [(source, (root.i, root.j), target, kind)
            for source, root, target, kind in edges] == brute
    assert len({source for source, _, _, _ in edges}) == 8


def test_export_formats():
    edges = build_graph(1)
    dot = export(edges, "dot")
    assert dot.startswith("digraph qbg {") and "(1,-1) B" in dot
    payload = json.loads(export(edges, "json"))
    assert payload["vertices"] == ["[-1]", "[1]"]
    assert len(payload["edges"]) == 2
    assert payload["edges"][0].keys() == {"src", "root", "dst", "kind"}
