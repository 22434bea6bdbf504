"""weylcurrents benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is the package under
`src/`, started as separate processes, one at a time. Each workload is set up
(untimed, repeated SETUP_REPEATS times), then operations run in a closed loop
for about S seconds; every answer is checked against an oracle from
`workloads.py`. The last stdout line is the result object; the line before it
holds sample counts, failures and diagnostics. With --trace 1 each round also
runs the operation under `layer_trace.py` and the per-layer metrics are
reported. An operation is one or more processes run one after another; each
runs under `peak.py`, which reports that process's own peak RSS.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

import layer_trace
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
PY = sys.executable
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0  # the whole run, set-up included, must end within this


class SetupError(Exception):
    pass


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env():
    # no crystal cache from the caller's environment; bytecode is written, as
    # an installed package has it, so operations do not compile the sources
    drop = ("WEYLCURRENTS_CACHE", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, work, deadline) -> Child:
    """Run one child to completion. CPU time comes from its own os.wait4
    rusage (not RUSAGE_CHILDREN, a maximum over all children), peak RSS from
    the line peak.py appends to stderr."""
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())

        def kill():
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
        # ru_maxrss also counts the parent image the child was forked from
        rss_kb = usage.ru_maxrss
        head, _, last = stderr.rstrip("\n").rpartition("\n")
        if last.startswith("peak_rss_kb "):
            stderr, rss_kb = head, int(last.split()[1])
        return Child(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=rss_kb / 1024.0,
            code=proc.returncode,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=stderr,
        )


def cli(*args):
    return [PY, "-m", "weylcurrents.cli", *args]


def checked(child: Child, what: str) -> str:
    if child.code != 0:
        raise SetupError(f"{what} exited {child.code}: {child.stderr.strip()[-300:]}")
    return child.stdout


def check_import(work, deadline):
    """Import the package once (which also byte-compiles it) and make sure it
    is this checkout's copy."""
    where = checked(
        spawn([PY, "-c", "import weylcurrents.cli as m; print(m.__file__)"], work, deadline),
        "import",
    ).strip()
    if not os.path.abspath(where).startswith(SRC + os.sep):
        raise SetupError(f"weylcurrents was imported from {where}, not from {SRC}")


# -- workloads ----------------------------------------------------------------


class CharactersD4Grid:
    """The two character-heavy parts of the acceptance suite, one process
    each: `decompose --type D4 --k 1 --N 7` on one leg class, then all three
    routes on every point of the cross-route grid in one library session."""

    fresh_op_dir = False

    def __init__(self, rng):
        self.cls = rng.choice(wl.D4_LEG_CLASSES)
        self.points = wl.grid_points()
        self.calls = wl.grid_calls(self.points, rng)

    def setup(self, work, deadline):
        check_import(work, deadline)
        self.expected = wl.level_one_expected(self.cls, wl.LEVEL_ONE_N)
        self.calls_path = os.path.join(work, "calls.json")
        with open(self.calls_path, "w", encoding="utf-8") as fh:
            json.dump(self.calls, fh)
        return self.expected, self.calls

    def steps(self, op_dir):
        decompose = ["decompose", "--type", "D4", "--lambda", ",".join(map(str, self.cls)),
                     "--k", "1", "--N", str(wl.LEVEL_ONE_N)]
        return [("cli", decompose), ("grid", [self.calls_path])]

    def check(self, stdouts, op_dir):
        return (wl.check_decompose(stdouts[0], self.expected)
                or wl.check_grid(stdouts[1], self.points))


class CrystalBuildLoadA2:
    """`kostka --route paths` on A2 twice with one new cache directory: the
    first process builds the crystal and writes the cache file, the second
    loads it."""

    fresh_op_dir = True

    def __init__(self, rng):
        self.mu, self.lam = rng.choice(wl.CRYSTAL_INSTANCES)

    def setup(self, work, deadline):
        check_import(work, deadline)
        argv = cli(*wl.kostka_argv(self.mu, self.lam, "altsum"))
        self.expected = wl.kostka_value(checked(spawn(argv, work, deadline), "altsum"), "altsum")
        return self.expected

    def steps(self, op_dir):
        step = ("cli", wl.kostka_argv(self.mu, self.lam, "paths", op_dir))
        return [step, step]

    def check(self, stdouts, op_dir):
        for what, stdout in zip(("build", "load"), stdouts):
            got = wl.kostka_value(stdout, "paths")
            if got != self.expected:
                return f"{what}: paths {got} != altsum {self.expected}"
        if not any(os.path.getsize(p) for p in glob.glob(os.path.join(op_dir, "*.json"))):
            return "no crystal cache file was written"
        return ""


WORKLOADS = {
    "characters-d4-grid": CharactersD4Grid,
    "crystal-build-load-a2": CrystalBuildLoadA2,
}


# -- measurement ----------------------------------------------------------------


def host_probe() -> float:
    """Fixed pure-Python work, median of 3: exact fractions in a dict too
    large for the CPU caches, read in a shuffled order. A diagnostic of host
    speed, never used to scale other figures."""

    def once():
        start = time.perf_counter()
        table = {i: Fraction(i, 7) for i in range(50_000)}
        keys = list(table)
        random.Random(0).shuffle(keys)
        sum(table[k].numerator for k in keys)
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(3))


def tail(values):
    """(value, percentile): the highest order statistic with at least ten
    samples beyond it, or the median when there are too few for a tail."""
    s = sorted(values)
    rank = len(s) - 10
    if rank <= (len(s) + 1) // 2:
        return statistics.median(s), 50.0
    return s[rank - 1], 100.0 * rank / len(s)


def run_op(wk, work, deadline, trace_out=None):
    """Run the operation's steps one after another, each in its own process.
    Returns the per-step children, the error ('' when the answers check out)
    and, when traced, the combined layer summary."""
    op_dir = tempfile.mkdtemp(dir=work) if wk.fresh_op_dir else work
    try:
        children, summaries, error = [], [], ""
        for i, (kind, args) in enumerate(wk.steps(op_dir)):
            if trace_out is not None:
                out = f"{trace_out}-{i}.json"
                target = [os.path.join(HERE, "layer_trace.py"), out, kind]
            elif kind == "cli":
                target = ["-m", "weylcurrents.cli"]
            else:
                target = [os.path.join(HERE, "grid_session.py")]
            child = spawn([PY, os.path.join(HERE, "peak.py"), *target, *args], work, deadline)
            children.append(child)
            if child.code != 0:
                error = f"exit {child.code}: {child.stderr.strip()[-300:]}"
                break
            if trace_out is not None:
                with open(out, encoding="utf-8") as fh:
                    summaries.append(json.load(fh))
        if not error:
            try:
                error = wk.check([c.stdout for c in children], op_dir)
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {exc!r}"
        summary = layer_trace.combine(summaries) if summaries and not error else None
        return children, error, summary
    finally:
        if wk.fresh_op_dir:
            shutil.rmtree(op_dir, ignore_errors=True)


def op_wall(children):
    return sum(c.wall for c in children)


def per_layer(traced, plain, absent, probe):
    """Median over traced operations of each layer figure, plus the trace's
    own wall time, untraced remainder and overhead."""
    figures = [{**s["self_s"], **layer_trace.counters(s["tallies"])} for _, s in traced]
    out = {name: statistics.median(f[name] for f in figures) for name in sorted(figures[0])}
    remainders = [op_wall(c) - sum(s["self_s"].values()) for c, s in traced]
    out["trace.wall_s"] = statistics.median(op_wall(c) for c, _ in traced)
    out["trace.remainder_s"] = statistics.median(remainders)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(op_wall(c) for c in plain)
    out["trace.absent_hooks"] = len(absent)
    out["host.probe_s"] = probe
    return out


E2E_UNITS = {"wall_s": "s", "wall_s.tail": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(name):
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def measure(name, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        setup_times, ref = [], None
        for rep in range(SETUP_REPEATS):
            rep_dir = os.path.join(work, f"setup{rep}")
            os.makedirs(rep_dir)
            t0 = time.perf_counter()
            wk = WORKLOADS[name](random.Random(seed))
            answer = wk.setup(rep_dir, deadline)
            setup_times.append(time.perf_counter() - t0)
            if ref is not None and answer != ref:
                raise SetupError("set-up repetitions disagree on the reference answers")
            ref = answer
        probe = host_probe()

        plain, traced, errors = [], [], []
        trace_out = os.path.join(base, f"trace-{name}")
        t_loop = time.monotonic()
        while True:
            children, error, _ = run_op(wk, work, deadline)
            plain.append(children)
            errors.append(error)
            if trace:
                children, error, summary = run_op(wk, work, deadline, trace_out)
                errors.append(error)
                if summary is not None:
                    traced.append((children, summary))
            # start another round only if it is expected to end within the
            # measured seconds, so a run takes about as long on every seed
            now = time.monotonic()
            round_s = (now - t_loop) / len(plain)
            if now - t_loop + round_s > seconds or now + 1.5 * round_s > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for e in errors if e)
    walls = [op_wall(c) for c in plain]
    tail_value, tail_pct = tail(walls)
    details = {
        "workload": name,
        "seed": seed,
        "samples": len(plain),
        "setup_samples": len(setup_times),
        "failed_frac": failed / len(errors),
        "wall_s.tail_percentile": tail_pct,
        "host.probe_s": probe,
        "walls_s": walls,
        "step_wall_s": [statistics.median(c[i].wall for c in plain if len(c) > i)
                        for i in range(max(map(len, plain)))],
        "errors": [e for e in errors if e][:3],
    }
    if trace:
        if not traced:
            raise SetupError("no traced operation finished")
        absent = traced[0][1]["absent"]
        metrics = per_layer(traced, plain, absent, probe)
        layers = {k: v for k, v in metrics.items() if k.endswith("_s") and "." in k
                  and not k.startswith(("trace.", "host."))}
        details["traced_samples"] = len(traced)
        details["absent"] = absent
        modules: dict = {}
        for k, v in layers.items():
            modules[k.split(".")[0]] = modules.get(k.split(".")[0], 0.0) + v
        details["module_self_s"] = modules
        details["dominant_layer"] = max(layers, key=layers.get)
        details["self_plus_remainder_s"] = sum(layers.values()) + metrics["trace.remainder_s"]
        details["spans_files"] = sorted(
            os.path.relpath(p, ROOT) for p in glob.glob(f"{glob.escape(trace_out)}-*.json")
        )
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "wall_s.tail": tail_value,
            "cpu_s": statistics.median(sum(c.cpu for c in op) for op in plain),
            "peak_rss_mb": statistics.median(max(c.rss_mb for c in op) for op in plain),
            "setup_s": statistics.median(setup_times),
        }
    result = {
        "correct": failed == 0,
        "attempted": len(errors),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return details, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weylcurrents", "cli.py")):
        print(f"error: no weylcurrents sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    # on SIGTERM, unwind through spawn(), which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        details, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
