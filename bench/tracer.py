"""Traced run of one `qkc` command: per-layer calls and self times.

Run as a child process by run.py:

    python3 bench/tracer.py verify --n 4 --suite all --json

It imports `qkc.cli`, wraps the public callables of each layer where
their callers look them up (the class, the defining module and every
`qkc` module that imported the name), runs `qkc.cli.main` in this
process with its standard output captured, and prints one JSON object:
the exit code, the SHA-256 of the captured report, and per span the
number of calls, the self time and an optional output size.

Self times are thread CPU seconds (`time.thread_time`): a span's time
minus the time of the spans it called on the same thread.  The suites
fan out over a thread pool, and the interpreter lock lets one thread
run at a time, so CPU time charges each instant to one span only, where
wall time would count it once per pool thread.  Each pool task is
charged to the suite span open when it ran, so a suite's self time
holds the pool overhead and the check code outside the layer spans.
The sum of all self times is then the CPU time spent inside
`qkc.cli.main`, which run.py compares with its wall time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
import threading
import time

# (span name, module, class or None, attribute, output counter or None).
# An output counter is (metric suffix, size of one call's result).
# A target missing from the program is skipped and reports no calls.
LAYER_SPANS = (
    ("rings.series_mul", "qkc.rings", "NovikovSeries", "__mul__",
     ("terms_out", lambda r: len(r.terms))),
    ("rings.qext_mul", "qkc.rings", "QExtElement", "__mul__", None),
    ("rings.group_mul", "qkc.rings", "GroupRingElement", "__mul__", None),
    ("rings.fraction_mul", "qkc.rings", "NovikovFraction", "__mul__", None),
    ("rings.exact_div", "qkc.rings", None, "exact_div", None),
    ("weylc.length", "qkc.weylc", "SignedPerm", "length", None),
    ("qbg.edge_by_length", "qkc.qbg", None, "edge_by_length", None),
    ("qbg.edge_by_pattern", "qkc.qbg", None, "edge_by_pattern", None),
    ("alcove.admissible_subsets", "qkc.alcove", None, "admissible_subsets",
     ("subsets_out", len)),
    ("ichevalley.inverse_chevalley", "qkc.ichevalley", None,
     "inverse_chevalley", None),
    ("ichevalley.cancellation_report", "qkc.ichevalley", None,
     "cancellation_report", None),
    ("semimod.ff", "qkc.semimod", None, "ff", None),
    ("semimod.coeff", "qkc.semimod", None, "psi", None),
    ("semimod.coeff", "qkc.semimod", None, "theta_sinf", None),
    ("semimod.coeff", "qkc.semimod", None, "phi_sinf", None),
    ("semimod.coeff", "qkc.semimod", None, "phi_sinf_frac", None),
    ("relations.check_generating_identities", "qkc.relations", None,
     "check_generating_identities", None),
    ("relations.solve_system", "qkc.relations", None, "solve_system", None),
    ("qkpres.to_semimod", "qkc.qkpres", None, "to_semimod", None),
    ("qkpres.f_poly", "qkc.qkpres", None, "f_poly", None),
    ("qkpres.check_coefficient_factorization", "qkc.qkpres", None,
     "check_coefficient_factorization", None),
)


class Tracer:
    """Span statistics kept per thread and merged when the run ends."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread = []
        self.suite = None  # name of the suite span now open
        self.walls = {}

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], {})
            with self._lock:
                self._per_thread.append(state[1])
            return state

    def wrap(self, fn, name, out=None):
        """fn with a span: [calls, self CPU seconds, output size]."""
        state = self._state
        clock = time.thread_time

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack, stats = state()
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                inner = stack.pop()
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0]
                rec[0] += 1
                rec[1] += spent - inner
                if stack:
                    stack[-1] += spent
            if out is not None:
                rec[2] += out(result)
            return result

        return span

    def wrap_suite(self, run_suite):
        """verify.run_suite as span verify.<suite>, also timing its wall."""

        @functools.wraps(run_suite)
        def span(suite, *args, **kwargs):
            name = "verify." + suite
            self.suite = name
            start = time.perf_counter()
            try:
                return self.wrap(run_suite, name)(suite, *args, **kwargs)
            finally:
                self.walls[name] = (self.walls.get(name, 0.0)
                                    + time.perf_counter() - start)
                self.suite = None

        return span

    def wrap_task(self, timed):
        """A pool task, charged to the suite span open when it runs."""

        @functools.wraps(timed)
        def span(*args, **kwargs):
            return self.wrap(timed, self.suite or "verify.task")(
                *args, **kwargs)

        return span

    def stats(self):
        merged = {}
        with self._lock:
            for stats in self._per_thread:
                for name, (calls, self_s, out) in stats.items():
                    rec = merged.setdefault(name, [0, 0.0, 0])
                    rec[0] += calls
                    rec[1] += self_s
                    rec[2] += out
        return merged


def _rebind(original, wrapper):
    """Replace `original` in every loaded qkc module that binds it."""
    for modname, module in list(sys.modules.items()):
        if modname == "qkc" or modname.startswith("qkc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer):
    """Wrap every layer callable in LAYER_SPANS and the suite runner."""
    for name, modname, clsname, attr, out in LAYER_SPANS:
        module = sys.modules.get(modname)
        owner = getattr(module, clsname, None) if clsname else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            continue
        wrapper = tracer.wrap(original, name, out and out[1])
        if clsname:
            # Also catches aliases such as __rmul__ = __mul__.
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
        else:
            _rebind(original, wrapper)
    verify = sys.modules["qkc.verify"]
    _rebind(verify.run_suite, tracer.wrap_suite(verify.run_suite))
    if hasattr(verify, "_timed"):
        _rebind(verify._timed, tracer.wrap_task(verify._timed))


def main(argv):
    import qkc.cli

    tracer = Tracer()
    install(tracer)
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = tracer.wrap(qkc.cli.main, "cli.main")(argv)
    wall = time.perf_counter() - start
    report = captured.getvalue().encode()
    print(json.dumps({
        "exit": code,
        "sha256": hashlib.sha256(report).hexdigest(),
        "cli_wall_s": wall,
        "suite_wall_s": tracer.walls,
        "spans": tracer.stats(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
