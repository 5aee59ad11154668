import importlib
import importlib.resources
import json
import pkgutil
import threading

import jsonschema
import pytest

import qkc
from qkc import qbg, qkpres, relations, rings, semimod, verify
from qkc.cli import MAX_TRUNC, main
from qkc.rings import GroupRingElement, Poly
from qkc.verify import SUITES, run_suite
from qkc.weylc import _eps

import faults


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def load_schema():
    text = (importlib.resources.files("qkc") / "report_schema.json").read_text()
    return json.loads(text)


def test_verify_passes_and_exits_zero(capsys):
    code, out = run(capsys, "verify", "--n", "2", "--suite", "all")
    assert code == 0
    assert "overall: PASS" in out
    assert "FAIL" not in out


def test_verify_json_validates_against_schema(capsys):
    code, out = run(capsys, "verify", "--n", "2", "--suite",
                    "semimod,qkpres", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema())
    assert [r["suite"] for r in payload["reports"]] == ["semimod", "qkpres"]
    assert payload["status"] == "pass"


def test_verify_json_with_timings_validates(capsys):
    code, out = run(capsys, "verify", "--n", "1", "--suite", "qbg",
                    "--json", "--timings")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema())
    for rec in payload["reports"][0]["checks"]:
        assert "seconds" in rec


def test_timings_are_measured_not_split(monkeypatch):
    clock = [100.0]
    monkeypatch.setattr(verify.time, "monotonic", lambda: clock[0])
    original = semimod.check_symmetry

    def check_symmetry(n, trunc=None):
        records = original(n, trunc)
        yield next(records)
        clock[0] += 5.0  # work charged to the second record only
        yield from records

    monkeypatch.setattr(semimod, "check_symmetry", check_symmetry)
    report = run_suite("semimod", 2)
    assert report.ok
    seconds = {cid: s for cid, _, _, s in report.checks}
    assert seconds["symmetry-k1"] == 5.0
    assert all(s == 0.0 for cid, s in seconds.items() if cid != "symmetry-k1")
    assert sum(seconds.values()) == clock[0] - 100.0


def test_text_timings_print_one_measured_total_per_suite(monkeypatch, capsys):
    clock = [100.0]

    def tick():  # every reading of the clock is a quarter second later
        clock[0] += 0.25
        return clock[0]

    monkeypatch.setattr(verify.time, "monotonic", tick)
    code, out = run(capsys, "verify", "--n", "2", "--suite",
                    "alcove,relations", "--timings")
    assert code == 0
    blocks = [b.splitlines() for b in out.split("suite ")[1:]]
    assert len(blocks) == 2
    for lines in blocks:
        checks = [l for l in lines if l.startswith(("  PASS", "  FAIL"))]
        assert all(l.endswith("  (0.250s)") for l in checks)
        # the suite's own start and end readings, not a sum of the lines
        total = "  total  (%.3fs)" % (0.25 * (len(checks) + 1))
        assert [l for l in lines if "total" in l] == [total]
        assert lines.index(total) == len(checks) + 1
    _, plain = run(capsys, "verify", "--n", "2", "--suite", "alcove,relations")
    assert "total" not in plain


def test_verify_output_is_byte_identical(capsys):
    _, first = run(capsys, "verify", "--n", "2", "--json")
    _, second = run(capsys, "verify", "--n", "2", "--json")
    assert first == second


def test_suites_run_on_the_calling_thread(monkeypatch):
    seen = []
    original = qbg.edge_by_pattern

    def recording(w, root):
        seen.append(threading.get_ident())
        return original(w, root)

    monkeypatch.setattr(qbg, "edge_by_pattern", recording)
    assert run_suite("qbg", 2).ok
    assert seen and set(seen) == {threading.get_ident()}


def _succ(n, j):
    return j + 1 if j < n else -n


def _qkpres_checks(mode):
    return {cid: (ok, location)
            for cid, ok, location, _ in run_suite("qkpres", 2, mode).checks}


def test_phi_theta_psi_reports_first_failure(monkeypatch):
    original = semimod.psi
    broken = {(frozenset(), 2), (frozenset({1, 2, -2, -1}), -1)}

    def psi(n, I, j, trunc=None):
        value = original(n, I, j, trunc)
        return value + value if (frozenset(I), j) in broken else value

    monkeypatch.setattr(semimod, "psi", psi)
    assert _qkpres_checks("exact")["phi-theta-equals-psi"] == (
        False, "I=() j=2")


@pytest.mark.parametrize("mode", ["truncated", "exact"])
def test_broken_phi_case_fails_both_factorizations(monkeypatch, mode):
    original = semimod.phi

    def phi(n, I, j, trunc=None):
        if j > 0 and j in I and _succ(n, j) in I:
            return original(n, (), j, trunc)  # 1 instead of 1/(1 - Q_j)
        return original(n, I, j, trunc)

    monkeypatch.setattr(semimod, "phi", phi)
    checks = _qkpres_checks(mode)
    for cid in ("zeta-eta-equals-phi", "phi-theta-equals-psi"):
        ok, location = checks[cid]
        assert not ok and location, cid


@pytest.mark.parametrize("mode", ["truncated", "exact"])
def test_broken_zeta_case_fails_the_zeta_side_only(monkeypatch, mode):
    original = qkpres.zeta

    def zeta(n, I, j, trunc=None):
        if j > 0 and j in I and _succ(n, j) not in I:
            return original(n, (), j, trunc)  # 1 instead of 1 - Q_j
        return original(n, I, j, trunc)

    monkeypatch.setattr(qkpres, "zeta", zeta)
    checks = _qkpres_checks(mode)
    # F_l is built from zeta, so the dictionary checks see the fault too;
    # the semi-infinite factorization and the Q = 0 specialization do not.
    assert checks == {
        "zeta-eta-equals-phi": (False, "I=(1,) j=1"),
        "phi-theta-equals-psi": (True, ""),
        "dictionary-f-to-module": (False, "l=1"),
        "dictionary-variants": (False, "upper k=1 l=1"),
        "specialization-at-Q-zero": (True, ""),
    }


def test_an_exact_only_zeta_fault_fails_a_truncated_run(monkeypatch):
    # each factorization is checked at the run's degree and also exact
    original = qkpres.zeta

    def zeta(n, I, j, trunc=None):
        if trunc is None and j > 0 and j in I and _succ(n, j) not in I:
            return original(n, (), j)
        return original(n, I, j, trunc)

    monkeypatch.setattr(qkpres, "zeta", zeta)
    failing = {cid: location for cid, (ok, location)
               in _qkpres_checks("truncated").items() if not ok}
    assert failing == {"zeta-eta-equals-phi": "I=(1,) j=1"}


@pytest.mark.parametrize("mode", ["truncated", "exact"])
def test_faults_show_after_the_tables_are_filled(monkeypatch, mode):
    # a stale table entry would hide a fault injected after this run
    assert run_suite("qkpres", 2, mode).ok
    test_phi_theta_psi_reports_first_failure(monkeypatch)
    monkeypatch.undo()
    test_broken_phi_case_fails_both_factorizations(monkeypatch, mode)
    monkeypatch.undo()
    test_broken_zeta_case_fails_the_zeta_side_only(monkeypatch, mode)


def _failing_with_psi_doubled_at_1_2(monkeypatch, mode):
    """The checks of the semimod and qkpres suites at n = 2 that fail
    while psi_{1}(2) reads twice its value."""
    original = semimod.psi

    def psi(n, I, j, trunc=None):
        value = original(n, I, j, trunc)
        return value + value if (set(I), j) == ({1}, 2) else value

    monkeypatch.setattr(semimod, "psi", psi)
    failing = [cid for suite in ("semimod", "qkpres")
               for cid, ok, _, _ in run_suite(suite, 2, mode).checks if not ok]
    monkeypatch.undo()
    return failing


@pytest.mark.parametrize("mode", ["truncated", "exact"])
def test_a_late_psi_fault_shows_in_semimod_and_qkpres(monkeypatch, mode):
    # the products are kept per index set, but each run builds its own
    fresh = _failing_with_psi_doubled_at_1_2(monkeypatch, mode)
    assert fresh == [
        "rec-staircase-k0", "rec-staircase-k1", "rec-mountain-k2",
        "rec-mountain-k1-full-sum", "symmetry-k1", "duality-A[1]-B[]-k1",
        "phi-theta-equals-psi", "dictionary-f-to-module",
        "dictionary-variants"]
    assert run_suite("semimod", 2, mode).ok
    assert run_suite("qkpres", 2, mode).ok
    assert _failing_with_psi_doubled_at_1_2(monkeypatch, mode) == fresh


def _table_lookups():
    """(module, name, table) for every name under which a module of the
    package looks up a registered table."""
    modules = [importlib.import_module("qkc." + info.name)
               for info in pkgutil.iter_modules(qkc.__path__)]
    return [(module, name, value) for module in modules
            for name, value in vars(module).items()
            if any(value is table for table in rings.TABLES)]


def _snapshot(value):
    """The contents of a value, down to ints, tuples and frozensets."""
    if isinstance(value, (tuple, list)):
        return tuple(map(_snapshot, value))
    if isinstance(value, dict):
        return {key: _snapshot(v) for key, v in value.items()}
    if isinstance(value, rings.Poly):
        return dict(value.terms), value.trunc
    if hasattr(value, "__slots__"):  # a fraction, a root or a permutation
        return tuple(_snapshot(getattr(value, s)) for s in value.__slots__)
    return value


def test_shared_values_are_never_mutated(monkeypatch, capsys):
    handed_out, used = {}, set()

    def recording(table):
        def lookup(*args):
            value = table(*args)
            if id(value) not in handed_out:
                handed_out[id(value)] = value, _snapshot(value)
            used.add(id(table))
            return value
        return lookup

    for module, name, table in _table_lookups():
        monkeypatch.setattr(module, name, recording(table))
    for mode in ("truncated", "exact"):
        assert run(capsys, "verify", "--n", "3", "--mode", mode)[0] == 0
    monkeypatch.undo()
    assert used == set(map(id, rings.TABLES))
    for value, snapshot in handed_out.values():
        assert _snapshot(value) == snapshot


def test_run_suite_starts_and_ends_with_every_table_empty(monkeypatch):
    def filled():
        return [table for table in rings.TABLES if table.cache_info().currsize]

    seen = []

    def runner(n, trunc):
        seen.append(filled())
        semimod.psi_product(n, frozenset(), trunc)
        yield ("fills-a-table", True, "")
        raise RuntimeError("a runner that raises")

    semimod.psi_product(2, frozenset({1}))
    assert filled()
    monkeypatch.setitem(verify._RUNNERS, "semimod", runner)
    with pytest.raises(RuntimeError):
        run_suite("semimod", 2)
    assert seen == [[]] and not filled()
    monkeypatch.undo()
    assert run_suite("qkpres", 2).ok and not filled()


def _failing_checks(capsys, *argv):
    code, out = run(capsys, "verify", *argv, "--json")
    [report] = json.loads(out)["reports"]
    return code, {rec["id"]: rec.get("location", "")
                  for rec in report["checks"] if rec["status"] == "fail"}


def _failing_relations_checks(capsys):
    return _failing_checks(capsys, "--n", "3", "--suite", "relations")


def test_broken_elementary_E_fails_gf2_and_the_solution(monkeypatch, capsys):
    original = relations.elementary_E

    def elementary_E(n, l):
        value = original(n, l)
        return value + GroupRingElement.monomial(n, _eps(n, 1)) if l == 2 \
            else value

    monkeypatch.setattr(relations, "elementary_E", elementary_E)
    code, failing = _failing_relations_checks(capsys)
    assert code == 1
    # gf-3 multiplies by the factors (1 + x t), so gf-2 is what sees E_2
    assert {"gf-2", "solution-is-elementary"} <= set(failing)
    assert not any(cid.startswith("gf-3") for cid in failing)


def test_a_sign_flip_in_the_shift_add_fails_the_e_checks(monkeypatch, capsys):
    # a - x*b in place of a + x*b: the factor products and the h rows
    # change, but E is built in closed form, so the checks against it fail;
    # the nested sum takes no shift-add, so the csym lemmas that compare it
    # with an h row fail too (the csym-4-n4 records need n = 4)
    original = Poly.add_shifted
    monkeypatch.setattr(Poly, "add_shifted",
                        lambda self, x, b: original(self, -x, b))
    code, failing = _failing_checks(capsys, "--n", "4", "--suite", "relations")
    assert code == 1
    assert {"gf-2", "gf-3-k0", "gf-3-k1", "solution-is-elementary",
            "rows-annihilate-elementary", "csym-3-m1",
            "csym-4-n4-m5"} <= set(failing)


def test_broken_demazure_case_fails_the_derivation(monkeypatch, capsys):
    faults.demazure_D_sign(monkeypatch.setattr)
    code, failing = _failing_relations_checks(capsys)
    assert code == 1
    assert set(failing) == {"secondary-derivation", "chain-vs-nested-sum-k2",
                            "system-rows-audit"}
    assert failing["secondary-derivation"].startswith("not divisible")


def test_dropped_nested_sum_term_fails_every_reader(monkeypatch, capsys):
    original = relations.csym_nested_lhs

    def csym_nested_lhs(variables, m):
        value = original(variables, m)
        key, c = min(value.terms.items())
        return value - GroupRingElement.monomial(value.n, key, c)

    monkeypatch.setattr(relations, "csym_nested_lhs", csym_nested_lhs)
    code, failing = _failing_checks(capsys, "--n", "4", "--suite", "relations")
    assert code == 1
    # the printed relations and both csym lemmas read the one walker
    assert {"secondary-derivation", "chain-vs-nested-sum-k2",
            "system-rows-audit", "csym-3-m1"} <= set(failing)
    assert any(cid.startswith("csym-4-") for cid in failing)
    assert not any(cid.startswith("gf-") for cid in failing)


def test_a_stale_leaf_fails_the_nested_sums_of_three_variables_or_more(
        monkeypatch, capsys):
    faults.stale_leaf(monkeypatch.setattr)
    code, failing = _failing_checks(capsys, "--n", "4", "--suite", "relations")
    assert code == 1
    # a call in two variables builds one leaf, so secondary-derivation and
    # csym-3 still pass; the gf checks read no nested sum
    assert set(failing) == {
        "chain-vs-nested-sum-k2", "chain-vs-nested-sum-k3",
        "system-rows-audit"} | {
        "csym-4-n%d-m%d" % (nv, m) for nv in (3, 4) for m in range(1, 7)}


def test_uncancelled_pair_fails_the_cancellation_check(monkeypatch, capsys):
    faults.uncancelled_pair(monkeypatch.setattr)
    code, failing = _failing_checks(capsys, "--n", "3", "--suite", "ic")
    assert code == 1
    assert failing["cancellation-accounting-k1"].startswith(
        "paired terms do not cancel")


def test_missing_partner_fails_the_cancellation_check(monkeypatch, capsys):
    faults.missing_partner(monkeypatch.setattr)
    code, failing = _failing_checks(capsys, "--n", "3", "--suite", "ic")
    assert code == 1
    assert failing["cancellation-accounting-k1"].startswith(
        "cancellation pairing failed at j=1 l=2")


def test_a_chain_walked_twice_fails_the_cancellation_check(monkeypatch,
                                                          capsys):
    faults.chain_walked_twice(monkeypatch.setattr)
    code, failing = _failing_checks(capsys, "--n", "3", "--suite", "ic")
    assert code == 1
    for k in (1, 2, 3):
        assert failing["cancellation-accounting-k%d" % k].startswith(
            "cancellation pairing failed at j=")


# The qkpres checks that fail in truncated mode under
# faults.division_short_of_the_cut, in a fresh process.
SHORT_DIVISION_FAILURES = {"zeta-eta-equals-phi", "phi-theta-equals-psi",
                           "dictionary-f-to-module", "dictionary-variants"}


@pytest.mark.parametrize("n", ["2", "3"])
def test_a_division_short_of_the_cut_fails_the_dictionary(monkeypatch,
                                                          capsys, n):
    # truncated to_semimod divides the F_l coefficients by (1 - T_j);
    # the factor sweeps check each factor at degree 2n+2 in both modes
    faults.division_short_of_the_cut(monkeypatch.setattr)
    code, failing = _failing_checks(capsys, "--n", n, "--suite", "qkpres")
    assert code == 1 and set(failing) == SHORT_DIVISION_FAILURES
    code, failing = _failing_checks(capsys, "--n", n, "--suite", "qkpres",
                                    "--mode", "exact")
    assert code == 1
    assert set(failing) == {"zeta-eta-equals-phi", "phi-theta-equals-psi"}


def test_a_division_fault_after_a_clean_run_fails_as_in_a_fresh_process(
        monkeypatch, capsys):
    # the clean run builds phi, zeta and eta with the sound division; the
    # run under the fault must build its own
    assert run(capsys, "verify", "--n", "3")[0] == 0
    faults.division_short_of_the_cut(monkeypatch.setattr)
    code, failing = _failing_checks(capsys, "--n", "3", "--suite", "qkpres")
    assert code == 1 and set(failing) == SHORT_DIVISION_FAILURES


def test_a_rank_beyond_the_group_is_refused_before_any_suite_runs(
        monkeypatch, capsys):
    def run_suite(*args):
        pytest.fail("a suite ran")

    monkeypatch.setattr(verify, "run_suite", run_suite)
    assert main(["verify", "--n", "7", "--suite", "semimod,qbg"]) == 2
    assert capsys.readouterr().err == \
        "error: rank out of supported range 1..6\n"


def test_non_unit_pivot_fails_the_solution(monkeypatch, capsys):
    faults.doubled_pivots(monkeypatch.setattr)
    code, failing = _failing_relations_checks(capsys)
    assert code == 1
    assert failing["solution-is-elementary"] \
        == "leading coefficient of row 2 is not a unit"


def test_solve_system_reports_a_non_unit_pivot(monkeypatch, capsys):
    faults.doubled_pivots(monkeypatch.setattr)
    code, out = run(capsys, "solve-system", "--n", "3")
    assert code == 1
    assert out.startswith("FAIL") and "row 2" in out
    code, out = run(capsys, "solve-system", "--n", "3", "--json")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


@pytest.mark.parametrize("doubled", [{0}, {0, 1, 2}],
                         ids=["k0", "every-k"])
def test_wrong_P0_fails_the_first_staircase_step(monkeypatch, capsys,
                                                   doubled):
    original = semimod.closed_P

    def closed_P(n, k, trunc=None):
        value = original(n, k, trunc)
        return value + value if k in doubled else value

    monkeypatch.setattr(semimod, "closed_P", closed_P)
    code, failing = _failing_checks(capsys, "--n", "2", "--suite", "semimod")
    assert code == 1
    assert "rec-staircase-k0" in failing
    if len(doubled) == 3:
        # the recursion is linear in P, so only P[0] == 1 can see this
        assert "rec-staircase-k1" not in failing


def test_exact_mode_ignores_trunc(capsys):
    code, out = run(capsys, "verify", "--n", "1", "--mode", "exact",
                    "--trunc", "3", "--suite", "semimod", "--json")
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["mode"] == "exact"
    assert report["trunc"] is None


@pytest.mark.parametrize("argv", [
    ["ic", "--w", "[a]", "--m", "1"],
    ["show", "f", "--n", "2", "--l", "-1"],
    ["show", "ff", "--n", "2", "--l", "1", "--variant", "abc"],
    ["alcove", "list", "--w", "[2,-1]", "--seq", "gamma"],
    ["alcove", "list", "--w", "[2,-1]", "--seq", "gamma:x"],
    ["alcove", "list", "--w", "[2,-1]", "--seq", "bogus:1"],
    # an empty flag is not an unset one
    ["verify", "--n", "2", "--suite", ""],
    # nor is an empty window a rank-0 permutation
    ["ic", "--w", "[]", "--m", "1"],
    ["alcove", "list", "--w", "[]", "--seq", "theta:1"],
])
def test_malformed_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "Traceback" not in err
    # the error names the flag at fault
    assert any("argument %s:" % a in err for a in argv if a.startswith("--"))


def test_trunc_above_the_ceiling_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "qkc.cfg"
    for trunc, code in ((MAX_TRUNC, 0), (MAX_TRUNC + 1, 2)):
        cfg.write_text("trunc = %d\n" % trunc)
        for argv in (["verify", "--n", "1", "--trunc", str(trunc)],
                     ["verify", "--n", "1", "--config", str(cfg)],
                     ["show", "f", "--n", "1", "--l", "1",
                      "--trunc", str(trunc)]):
            try:
                got = main(argv)
            except SystemExit as exc:
                got = exc.code
            assert got == code, argv
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if code == 2:
                assert err.count("usage: ") == 1
                assert "argument --trunc: must be at most %d" % MAX_TRUNC \
                    in err


def test_trunc_below_2n_runs_every_suite(capsys):
    # --trunc cuts only the semimod and qkpres series; the gf identities
    # keep their own t-degree 2n+2, so a low truncation is no usage error
    code, out = run(capsys, "verify", "--n", "2", "--trunc", "1", "--json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["suite"] for r in reports] == list(SUITES)
    assert all(r["trunc"] == 1 for r in reports)


def test_show_reads_one_variant_flag(capsys):
    _, upper = run(capsys, "show", "schubert", "--n", "2", "--variant", "1")
    _, barred = run(capsys, "show", "schubert", "--n", "2", "--variant", "1bar")
    assert upper != barred
    for argv, err in ((["show", "schubert", "--n", "2"],
                       "arguments are required: --variant"),
                      (["show", "schubert", "--n", "2", "--variant", "1",
                        "--k", "1"], "--k"),
                      (["show", "f", "--n", "2", "--l", "1", "--barred"],
                       "--barred")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert err in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["show", "ideal", "--n", "1", "--variant", "1bar"],
    ["show", "ideal", "--n", "1", "--l", "3"],
    ["show", "schubert", "--n", "2", "--variant", "1", "--l", "5"],
])
def test_show_rejects_flags_the_object_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: %s" % argv[-2] in err


def test_show_usage_names_the_object(capsys):
    with pytest.raises(SystemExit):
        main(["show", "f", "--n", "2"])
    err = capsys.readouterr().err
    assert err.startswith("usage: qkc show f ")
    assert "arguments are required: --l" in err


def test_invalid_rank_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "0"])
    assert exc.value.code == 2


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "2", "--suite", "nope"])
    assert exc.value.code == 2


def test_config_file_defaults_and_overrides(capsys, tmp_path):
    cfg = tmp_path / "qkc.cfg"
    cfg.write_text("# sample config\nn = 1\nmode = exact\nsuites = relations\n")
    code, out = run(capsys, "verify", "--config", str(cfg), "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 1
    report = payload["reports"][0]
    assert (report["suite"], report["n"], report["mode"]) \
        == ("relations", 1, "exact")
    # a flag beats the config value
    code, out = run(capsys, "verify", "--config", str(cfg),
                    "--suite", "qbg", "--json")
    assert json.loads(out)["reports"][0]["suite"] == "qbg"


@pytest.mark.parametrize("text", [None, "trunc = abc", "n = x", "trunc = -3",
                                  "suites =", "suite = alcove",
                                  "mdoe = exact"])
def test_bad_config_is_usage_error(capsys, tmp_path, text):
    cfg = tmp_path / "qkc.cfg"
    if text is not None:
        cfg.write_text("suites = qbg\n%s\n" % text)
    try:
        code = main(["verify", "--config", str(cfg)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    # a misspelled key is named, not silently ignored
    key = (text or "").split("=")[0].strip()
    if key in ("suite", "mdoe"):
        assert "unknown config key %r" % key in err


def test_bad_config_value_reports_under_verify_usage(capsys, tmp_path):
    cfg = tmp_path / "qkc.cfg"
    cfg.write_text("mode = fast\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qkc verify ")
    assert "argument --mode: invalid choice: 'fast'" in err


def test_every_suite_runs_at_rank_two():
    for suite in SUITES:
        report = run_suite(suite, 2)
        assert report.ok, report.render()
        assert report.checks


def test_show_commands(capsys):
    code, out = run(capsys, "show", "f", "--n", "1", "--l", "1")
    assert code == 0 and "z1" in out
    code, out = run(capsys, "show", "ff", "--n", "2", "--l", "1",
                    "--variant", "1", "--json")
    assert code == 0
    triples = json.loads(out)
    assert triples == [{"w": "[1,2]", "lam": [-1, 0], "coeff": "(1)"}]
    code, out = run(capsys, "show", "ff", "--n", "2", "--l", "2",
                    "--variant", "1bar")
    assert code == 0 and out.strip()
    code, out = run(capsys, "show", "ideal", "--n", "1")
    assert code == 0 and "F_1 - E_1" in out
    code, out = run(capsys, "show", "schubert", "--n", "2", "--variant",
                    "2bar", "--json")
    assert code == 0 and json.loads(out)


def test_qbg_export(capsys):
    code, out = run(capsys, "qbg", "export", "--n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == ["[-1]", "[1]"]
    assert {(e["src"], e["dst"], e["kind"]) for e in payload["edges"]} \
        == {("[1]", "[-1]", "B"), ("[-1]", "[1]", "Q")}
    code, out = run(capsys, "qbg", "export", "--n", "1", "--format", "dot")
    assert code == 0 and out.startswith("digraph")


def test_alcove_list(capsys):
    code, out = run(capsys, "alcove", "list", "--w", "[2,-1]",
                    "--seq", "gamma:1", "--json")
    assert code == 0
    fam = json.loads(out)
    assert fam[0] == {"positions": [], "end": "[2,-1]", "down": [0, 0]}
    assert len(fam) == 4
    with pytest.raises(SystemExit) as exc:
        main(["alcove", "list", "--w", "[2,-1]", "--seq", "bogus"])
    assert exc.value.code == 2


def test_ic_command(capsys):
    code, out = run(capsys, "ic", "--w", "[-1]", "--m", "1", "--json")
    assert code == 0
    terms = json.loads(out)
    assert {t["w"] for t in terms} == {"[1]", "[-1]"}


def test_solve_system_command(capsys):
    code, out = run(capsys, "solve-system", "--n", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4
    assert all(l.startswith("PASS F_") for l in lines)
    code, out = run(capsys, "solve-system", "--n", "2", "--json")
    assert json.loads(out)["status"] == "pass"


def test_library_errors_exit_two(capsys):
    code, _ = run(capsys, "qbg", "export", "--n", "6")
    assert code == 2
