"""Suite runners and verification reports.

Each suite re-checks one layer of the construction at a chosen rank.  A
suite runner is a generator of (id, ok, location) check records, and
`run_suite` times each record from the end of the previous one, so work
shared by several checks is charged to the first check that uses it.
It also times the whole suite, which `--timings` prints as a total line
(a sum of the rounded per-check lines would read high).  Every check
runs in order on the calling thread, so profilers see all of the work.

The two coefficient factorizations of the qkpres suite, zeta * eta = phi
on the z-side and phi * theta = psi on the semi-infinite side, share one
sweep, `_factor_sweep`, over every (I, j) at the run's degree and exact.
"""

from __future__ import annotations

import itertools
import time

from . import alcove, ichevalley, qbg, qkpres, relations, semimod
from .rings import clear_tables, specialize_Q_zero
from .weylc import _alpha_range, enumerate_group, positive_roots

class VerificationReport:
    """Outcome of one suite: ordered check records plus run parameters,
    and the suite's measured wall time in seconds."""

    __slots__ = ("suite", "n", "trunc", "mode", "checks", "seconds")

    def __init__(self, suite, n, trunc, mode, checks, seconds):
        self.suite = suite
        self.n = n
        self.trunc = trunc
        self.mode = mode
        self.checks = list(checks)  # (id, ok, location, seconds)
        self.seconds = seconds

    @property
    def ok(self):
        return all(ok for _, ok, _, _ in self.checks)

    def to_json(self, timings=False):
        records = []
        for cid, ok, location, seconds in self.checks:
            rec = {"id": cid, "status": "pass" if ok else "fail"}
            if location:
                rec["location"] = location
            if timings:
                rec["seconds"] = seconds
            records.append(rec)
        return {
            "suite": self.suite,
            "n": self.n,
            "trunc": self.trunc,
            "mode": self.mode,
            "status": "pass" if self.ok else "fail",
            "checks": records,
        }

    def render(self, timings=False):
        lines = ["suite %s (n=%d, mode=%s)" % (self.suite, self.n, self.mode)]
        for cid, ok, location, seconds in self.checks:
            line = "  %s %s" % ("PASS" if ok else "FAIL", cid)
            if location:
                line += "  [%s]" % location
            if timings:
                line += "  (%.3fs)" % seconds
            lines.append(line)
        if timings:
            lines.append("  total  (%.3fs)" % self.seconds)
        return "\n".join(lines)


def _sweep(cid, failures):
    """One record for a sweep: it fails at the first location `failures`
    yields, and passes when it yields none."""
    location = next(failures, None)
    return (cid, location is None, location or "")


def _suite_qbg(n, trunc):
    roots = positive_roots(n)
    for w in enumerate_group(n):
        yield _sweep("pattern-vs-length-%s" % w.render(), (
            "root %s" % root.render() for root in roots
            if qbg.edge_by_pattern(w, root) != qbg.edge_by_length(w, root)))


def _picked(a):
    """The labels of the roots an admissible subset picks."""
    return [(a.sequence[p].i, a.sequence[p].j) for p in a.positions]


def _check_mountain_theta(n, k):
    fam = alcove.admissible_subsets(ichevalley.mountain(n, k),
                                    alcove.theta_seq(n, k))
    if k == 1:
        ok = [a.positions for a in fam] == [()]
    else:
        ok = (len(fam) == 2 and _picked(fam[1]) == [(k - 1, k)]
              and fam[1].end == ichevalley.mountain(n, k - 1))
    return ("mountain-theta-k%d" % k, ok, "")


def _check_mountain_gamma(n, k):
    seq = alcove.gamma_seq(n, k)
    fam = alcove.admissible_subsets(ichevalley.mountain(n, k), seq)
    got = {a.positions: a for a in fam}
    idx = {(root.i, root.j): p for p, root in enumerate(seq)}
    long_p = idx[(k, -k)]
    ok = True
    if k < n:
        next_p = idx[(k, k + 1)]
        ok = set(got) == {(), (next_p,), (long_p,), (long_p, next_p)}
        ok = ok and got[(next_p,)].end == ichevalley.mountain(n, k + 1)
        ok = ok and got[(next_p,)].down == _alpha_range(n, k, k)
        ok = ok and got[(long_p, next_p)].end == ichevalley.staircase(n, k)
        ok = ok and got[(long_p, next_p)].down == _alpha_range(n, k, n)
    else:
        ok = set(got) == {(), (long_p,)}
    ok = ok and got[(long_p,)].end == ichevalley.staircase(n, k - 1)
    ok = ok and got[(long_p,)].down == _alpha_range(n, k, n)
    return ("mountain-gamma-k%d" % k, ok, "")


def _check_staircase_gamma(n, j):
    fam = alcove.admissible_subsets(ichevalley.staircase(n, j - 1),
                                    alcove.gamma_seq(n, j))
    label = (j, j + 1) if j < n else (n, -n)
    ok = (len(fam) == 2 and _picked(fam[1]) == [label]
          and fam[1].end == ichevalley.staircase(n, j)
          and fam[1].down == (0,) * n)
    return ("staircase-gamma-j%d" % j, ok, "")


def _suite_alcove(n, trunc):
    for k in range(1, n + 1):
        yield _check_mountain_theta(n, k)
        yield _check_mountain_gamma(n, k)
        yield _check_staircase_gamma(n, k)


def _suite_ic(n, trunc):
    for k in range(1, n + 1):
        got = ichevalley.inverse_chevalley(ichevalley.mountain(n, k), k)
        yield ("evaluator-vs-closed-form-k%d" % k,
               got == ichevalley.ic2_closed(n, k), "")
        report = ichevalley.cancellation_report(n, k)
        yield ("cancellation-accounting-k%d" % k,
               report["matches_closed_form"], report["location"])


def _suite_semimod(n, trunc):
    yield from semimod.check_recursion(n, trunc)
    yield from semimod.check_symmetry(n, trunc)
    yield from semimod.check_duality(n, trunc)


def _suite_relations(n, trunc):
    yield from relations.check_system(n)
    yield from relations.check_csym_props(min(n, 4))
    yield from relations.check_generating_identities(n)


def _factor_sweep(cid, n, trunc, left, right, target):
    """left * right = target at every (I, j), at the run's degree and
    exact.  The three functions are asked at every (I, j), and the
    identity is decided once per triple of returned objects: a verdict
    keeps its operands, so no id is reused while it is a key."""
    degree = trunc if trunc is not None else 2 * n + 2
    pool = semimod.universe(n)
    verdicts = {}

    def fails(I, j, trunc):
        args = tuple(f(n, I, j, trunc) for f in (left, right, target))
        key = tuple(map(id, args))
        if key not in verdicts:
            verdicts[key] = args, args[0] * args[1] != args[2]
        return verdicts[key][1]

    return _sweep(cid, (
        "I=%s j=%s" % (I, j)
        for size in range(len(pool) + 1)
        for I in itertools.combinations(pool, size)
        for index_set in (frozenset(I),)
        for j in pool
        if fails(index_set, j, degree) or fails(index_set, j, None)))


def _suite_qkpres(n, trunc):
    def matches(l, variant="full", k=None):
        return (qkpres.to_semimod(qkpres.f_poly(n, l, variant, k, trunc))
                == semimod.ff(n, l, variant, k, trunc))

    # looked up on their modules at each run, so a patched function is read
    yield _factor_sweep("zeta-eta-equals-phi", n, trunc,
                        qkpres.zeta, qkpres.eta, semimod.phi)
    yield _factor_sweep("phi-theta-equals-psi", n, trunc,
                        semimod.phi, semimod.theta_sinf, semimod.psi)
    yield _sweep("dictionary-f-to-module", (
        "l=%d" % l for l in range(2 * n + 1) if not matches(l)))
    yield _sweep("dictionary-variants", (
        "%s k=%d l=%d" % (variant, k, l)
        for k in range(1, n + 1)
        for variant, top in (("upper", k), ("barred", 2 * n - k))
        for l in range(top + 1) if not matches(l, variant, k)))
    yield _sweep("specialization-at-Q-zero", (
        "l=%d" % l for l in range(2 * n + 1)
        if specialize_Q_zero(qkpres.f_poly(n, l, trunc=trunc))
        != specialize_Q_zero(qkpres.elementary_z(n, l, trunc=trunc))))


_RUNNERS = {
    "qbg": _suite_qbg,
    "alcove": _suite_alcove,
    "ic": _suite_ic,
    "semimod": _suite_semimod,
    "relations": _suite_relations,
    "qkpres": _suite_qkpres,
}
SUITES = tuple(_RUNNERS)


def run_suite(suite, n, mode="truncated", trunc=None):
    trunc = {"truncated": 2 * n + 2 if trunc is None else trunc,
             "exact": None}[mode]
    checks = []
    clear_tables()
    try:
        begin = start = time.monotonic()
        for cid, ok, location in _RUNNERS[suite](n, trunc):
            now = time.monotonic()
            checks.append((cid, ok, location, now - start))
            start = now
        return VerificationReport(suite, n, trunc, mode, checks,
                                  time.monotonic() - begin)
    finally:
        clear_tables()
