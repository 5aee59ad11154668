"""Benchmark of `qkc verify`: wall time, CPU time, peak memory, set-up time.

Run from the root of a checkout:

    python3 bench/run.py --workload n4-truncated --seed 0 --seconds 40 --trace 0

Each workload is one `qkc verify ... --json` command.  The program runs
from the checkout's `src` directory; nothing is installed.  Children run
one at a time, each with the program's default thread pool
(`QKC_THREADS` is removed from their environment) and with
`PYTHONHASHSEED` set from `--seed`.  The workloads have no random input,
so the seed only varies hashing.

Every child is checked: it must exit 0 and its report must have the
SHA-256 recorded for the workload below, taken from the seed commit's
output.  Any other outcome is a failed run and is not retried.

`--trace 0` runs the workload for about `--seconds` seconds and reports
medians over the children of:

    wall_s       spawn to exit of the child
    cpu_s        user + system CPU of the child (os.wait4 rusage)
    peak_rss_mb  ru_maxrss of the child, in MiB
    setup_s      interpreter start plus `import qkc.cli`, in its own child

`--trace 1` runs the workload untraced for half of `--seconds`, then once
under bench/tracer.py, and reports per layer the calls and self CPU
seconds of each span, each suite's wall and self time, and the tracing
overhead.  The self times must add up to the traced wall time of
`qkc.cli.main` within CLOSURE_MARGIN, or the traced run fails.

Standard output has a `meta` line (machine, Python, commit, command,
resolved thread count), one line per metric with its unit, and a
`fail_rate` line (failed children over attempted ones).  The last line
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  The exit code is 0 only when every child passed, 1 when a
run failed, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 150.0
# Largest allowed |wall of qkc.cli.main - sum of self times|, as a share
# of that wall.
CLOSURE_MARGIN = 0.10
SUITES = ("qbg", "alcove", "ic", "semimod", "relations", "qkpres")
ENTRY = "import sys; from qkc.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    args: tuple
    sha256: str  # of the --json report at the seed commit


WORKLOADS = {
    "n4-truncated": Workload(
        ("verify", "--n", "4", "--suite", "all", "--mode", "truncated",
         "--json"),
        "dd4c84e65f4a492409dec2812d0ab917d133f2a048b614fc82618da047ee8cac"),
    "n4-exact": Workload(
        ("verify", "--n", "4", "--suite", "all", "--mode", "exact", "--json"),
        "aa1f9d61ac6dcbd026cdf6e60d4ac9cb74026e4cfe2a6656bb89cdec9ba444e3"),
    "n5-weyl": Workload(
        ("verify", "--n", "5", "--suite", "qbg,alcove,ic", "--json"),
        "e8c7e96dd6b6e15cd66cbafba695acc2a91f1ed3b76f007cf54df4435226e22f"),
}


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_kib: int
    out: bytes
    err: bytes


def spawn(argv, env):
    """Run one child to its exit; time it and read its rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    reader.start()
    timer.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss, out, err[0] if err else b"")


def child_env(seed):
    env = dict(os.environ)
    env.pop("QKC_THREADS", None)
    # Installed programs start from cached bytecode; so do the children.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def report_failure(what, child, detail):
    tail = child.err.decode(errors="replace").strip().splitlines()[-5:]
    print("FAILED %s: %s" % (what, detail), *tail, sep="\n  ",
          file=sys.stderr)


def run_untraced(workload, env, budget):
    """Children one after another until the next would overrun budget."""
    children, failed = [], 0
    start = time.perf_counter()
    while True:
        child = spawn([sys.executable, "-c", ENTRY, *workload.args], env)
        children.append(child)
        digest = hashlib.sha256(child.out).hexdigest()
        if child.code != 0 or digest != workload.sha256:
            failed += 1
            report_failure("qkc " + " ".join(workload.args), child,
                           "exit %d, report sha256 %s" % (child.code, digest))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(c.wall_s for c in children) > budget:
            return children, failed


def setup_times(env):
    argv = [sys.executable, "-c", "import qkc.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first fills bytecode caches
        child = spawn(argv, env)
        if child.code != 0:
            report_failure("import qkc.cli", child, "exit %d" % child.code)
            raise SystemExit(1)
        if i:
            times.append(child.wall_s)
    return times


def measure(workload, env, seconds):
    setup = setup_times(env)
    children, failed = run_untraced(workload, env, seconds)
    metrics = {
        "wall_s": (statistics.median(c.wall_s for c in children), "s"),
        "cpu_s": (statistics.median(c.cpu_s for c in children), "s"),
        "peak_rss_mb": (statistics.median(c.rss_kib for c in children) / 1024,
                        "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    notes = {"wall_s": "median of %d" % len(children),
             "setup_s": "median of %d" % len(setup)}
    return metrics, len(children), failed, notes


def layer_metrics(result):
    """Per-layer metrics from the tracer's span statistics."""
    spans = result["spans"]
    metrics = {}
    for name, _, _, _, out in tracer.LAYER_SPANS:
        calls, self_s, size = spans.get(name, (0, 0.0, 0))
        metrics[name + ".calls"] = (calls, "count")
        metrics[name + ".self_s"] = (self_s, "s")
        if out:
            metrics["%s.%s" % (name, out[0])] = (size, "count")
    for suite in SUITES:
        name = "verify." + suite
        metrics[name + ".wall_s"] = (result["suite_wall_s"].get(name, 0.0), "s")
        metrics[name + ".self_s"] = (spans.get(name, (0, 0.0))[1], "s")
    metrics["cli.main.self_s"] = (spans["cli.main"][1], "s")
    return metrics


def trace(workload, env, seconds):
    children, failed = run_untraced(workload, env, seconds / 2)
    child = spawn([sys.executable, str(HERE / "tracer.py"), *workload.args],
                  env)
    try:
        result = json.loads(child.out.decode().splitlines()[-1])
    except (ValueError, IndexError):
        result = None
    ok = (child.code == 0 and result is not None and result["exit"] == 0
          and result["sha256"] == workload.sha256)
    if not ok:
        report_failure("traced run", child, "exit %d, result %s" % (
            child.code, result and {k: result[k] for k in ("exit", "sha256")}))
        result = {"spans": {"cli.main": (1, 0.0, 0)}, "suite_wall_s": {},
                  "cli_wall_s": 0.0}
    metrics = layer_metrics(result)
    self_sum = sum(rec[1] for rec in result["spans"].values())
    unattributed = result["cli_wall_s"] - self_sum
    if ok and abs(unattributed) > CLOSURE_MARGIN * result["cli_wall_s"]:
        ok = False
        print("FAILED traced run: self times sum to %.3f s against a wall"
              " of %.3f s (margin %.0f%%)" % (
                  self_sum, result["cli_wall_s"], CLOSURE_MARGIN * 100),
              file=sys.stderr)
    untraced_wall = statistics.median(c.wall_s for c in children)
    metrics["trace.wall_s"] = (child.wall_s, "s")
    metrics["trace.overhead_s"] = (child.wall_s - untraced_wall, "s")
    metrics["trace.unattributed_s"] = (unattributed, "s")
    notes = {"trace.overhead_s": "traced child against the median of %d"
                                 " untraced" % len(children),
             "trace.unattributed_s": "margin %.3f s" % (
                 CLOSURE_MARGIN * result["cli_wall_s"])}
    return metrics, len(children) + 1, failed + (not ok), notes


def thread_count(env):
    """The program's resolved worker pool size, if it has one."""
    child = spawn([sys.executable, "-c",
                   "from qkc import verify; "
                   "f = getattr(verify, 'thread_count', None); "
                   "print(f() if f else None)"], env)
    text = child.out.decode().strip()
    return int(text) if child.code == 0 and text.isdigit() else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qkc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check_declared(metrics, declared):
    """The emitted metrics must be exactly those BENCHMARK.json declares."""
    got = {name: unit for name, (_, unit) in metrics.items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise SystemExit("metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(want.items())))


def main(argv=None, workloads=WORKLOADS):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qkc" / "cli.py").is_file():
        print("error: no program at %s" % (ROOT / "src" / "qkc"),
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    workload = workloads[args.workload]
    env = child_env(args.seed)

    runner = trace if args.trace else measure
    metrics, attempted, failed, notes = runner(workload, env, args.seconds)
    check_declared(metrics, spec["per_layer" if args.trace else "end_to_end"])

    meta = {
        "workload": args.workload,
        "why": why.get(args.workload),
        "command": "qkc " + " ".join(workload.args),
        "seed": args.seed,
        "pythonhashseed": env["PYTHONHASHSEED"],
        "threads": thread_count(env),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_sha256": source_sha256(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("%-45s %14.6f %-5s %s" % (name, value, unit,
                                        notes.get(name, "")))
    print("%-45s %14.6f %-5s %d of %d runs failed" % (
        "fail_rate", failed / attempted, "1", failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
