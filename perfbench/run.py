"""End-to-end benchmark of the `gpd` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

A workload is a fixed list of `python -m gpd.cli ...` commands (see
workloads.py).  Each command runs in a fresh child process, one at a time,
with the default --jobs 1, under an address-space cap and a CPU deadline
set with setrlimit inside that child, and a wall-clock deadline after which
the parent kills it.  Every output is checked against expected.json.  A
pass runs the whole list; the first pass sets how many passes fill
--seconds.

--trace 0 reports the end-to-end metrics:
  wall_s       wall time of the command list, summed over its children
               (median over passes)
  peak_rss_mb  largest child max-RSS of the list, from os.wait4 (median
               over passes)
  setup_s      wall time of a fresh child that only imports gpd.cli (median
               of SETUP_SAMPLES)
and prints fail_ratio (failed / attempted commands) on its summary line.

--trace 1 alternates untraced passes with passes whose children run
traced_gpd.py, which wraps every call between gpd modules in a span; it
reports the per-layer metrics (median over traced passes) and
trace.overhead_ratio.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import workloads
from tracer import MAXIMA, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")

SETUP_SAMPLES = 7
CHILD_DEADLINE_S = 60
CHILD_AS_BYTES = 2 << 30
WALL_GRACE_S = 2
# No child starts, or runs on, past this many seconds after the run began,
# so a run ends within three minutes even if every command hangs.
RUN_CAP_S = 160

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


@dataclass
class Child:
    """Outcome of one child process."""

    wall: float
    rss_kb: int
    rc: int
    out: bytes
    err: str
    timed_out: bool


def run_child(argv: list[str], env: dict, deadline_s: float) -> Child:
    """Run argv with a CPU deadline and an address-space cap set inside the
    child; the parent kills it if it is still there WALL_GRACE_S later."""
    cpu_s = max(1, int(deadline_s))

    def limits():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s + 1))
        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))

    timed_out = []
    with tempfile.TemporaryFile(dir=TMP) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                env=env, preexec_fn=limits)

        def expire(signum, frame):
            timed_out.append(True)
            os.kill(proc.pid, signal.SIGKILL)

        signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, cpu_s + WALL_GRACE_S)
        try:
            out = proc.stdout.read()
            # Wait without reaping, so the pid cannot be reused before the
            # timer is off; then reap with wait4 for the child's rusage.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        err.seek(0)
        err_text = err.read().decode(errors="replace")
    return Child(wall, usage.ru_maxrss, proc.returncode, out, err_text, bool(timed_out))


# -- output oracle ----------------------------------------------------------------


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def output_problem(cmd: list[str], out: bytes, expected: dict) -> str | None:
    """Why a command's stdout is wrong, or None if it is right."""
    kind = cmd[0]
    opts = dict(zip(cmd[1::2], cmd[2::2])) if kind != "verify" else {}
    if kind == "verify":
        lines = out.decode().splitlines()
        if not lines or not all(line.startswith("PASS ") for line in lines):
            return f"verify printed {out[:200]!r}"
        return None
    shape = f"{opts['--m']} {opts['--n']}"
    digest = hashlib.sha256(out).hexdigest()
    if kind in ("poly", "schubert"):
        want = expected[kind][f"{shape} {opts['--pi']}"]["sha256"]
    elif kind == "enumerate" and shape == "4 5":
        want = expected["enumerate_4_5"][opts["--beta"]]["sha256"]
    elif kind == "count" and shape == "5 5":
        counts = expected["count_5_5"][opts["--beta"]]
        if "--pi" in opts:
            pi = tuple(int(v) for v in opts["--pi"].split(","))
            value = counts[workloads.PI_5_5.index(pi)]
        else:
            value = sum(counts)
        want = hashlib.sha256(f"{value}\n".encode()).hexdigest()
    else:
        raise ValueError(f"no expected output for {' '.join(cmd)}")
    return None if digest == want else f"output sha256 {digest} != expected {want}"


def failure(child: Child, cmd: list[str], expected: dict) -> str | None:
    if child.timed_out:
        return "wall-clock deadline passed"
    if child.rc == -signal.SIGXCPU:
        return "CPU deadline passed"
    if "MemoryError" in child.err:
        return "address-space cap hit"
    if child.rc != 0:
        return f"exit code {child.rc}: {child.err.strip()[-300:]}"
    return output_problem(cmd, child.out, expected)


# -- passes -------------------------------------------------------------------------


class Bench:
    def __init__(self, cmds: list[list[str]], expected: dict):
        self.cmds, self.expected = cmds, expected
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.attempted = 0
        self.failures: list[str] = []

    def remaining(self) -> float:
        return RUN_CAP_S - (time.perf_counter() - self.start)

    def child(self, argv: list[str]) -> Child | None:
        budget = min(CHILD_DEADLINE_S, self.remaining() - WALL_GRACE_S)
        if budget < 1:
            return None
        return run_child(argv, self.env, budget)

    def run_pass(self, traced: bool) -> dict:
        """Run the command list once; returns the pass's wall, RSS and layer sums."""
        wall, rss_kb, out_bytes = 0.0, 0, 0
        layers: dict[str, float] = {}
        for cmd in self.cmds:
            self.attempted += 1
            stats = os.path.join(TMP, f"layers-{self.attempted}.json")
            if traced:
                argv = [sys.executable, os.path.join(HERE, "traced_gpd.py"), SRC, stats, *cmd]
            else:
                argv = [sys.executable, "-m", "gpd.cli", *cmd]
            child = self.child(argv)
            problem = "run time cap reached" if child is None else failure(
                child, cmd, self.expected)
            if problem:
                self.failures.append(f"{' '.join(cmd)}: {problem}")
                continue
            wall += child.wall
            rss_kb = max(rss_kb, child.rss_kb)
            out_bytes += len(child.out)
            if traced:
                with open(stats, encoding="utf-8") as fh:
                    for name, value in json.load(fh).items():
                        if name in MAXIMA:
                            layers[name] = max(layers.get(name, 0), value)
                        else:
                            layers[name] = layers.get(name, 0) + value
        if traced:
            for name in Tracer().metrics():
                layers.setdefault(name, 0)
            built = layers["grid.dreams_built"]
            layers["grid.yield_ratio"] = layers["grid.dreams_yielded"] / built if built else 0.0
            stream = layers["grid.stream_s"]
            layers["grid.dreams_per_s"] = built / stream if stream else 0.0
            layers["cli.out_bytes"] = out_bytes
        return {"wall": wall, "rss_mb": rss_kb / 1024, "layers": layers}

    def setup_samples(self) -> tuple[list[float], str]:
        """Wall times of fresh children that only import gpd.cli, and the
        NumPy version they loaded.

        One untimed child goes first, so bytecode caches exist as they do
        for an installed package.  Each child prints where gpd.cli came
        from, and every one must be the checkout's src/ tree; the command
        children share it through the same interpreter, environment and
        working directory.
        """
        code = ("import gpd.cli, sys; "
                "print(gpd.cli.__file__, sys.modules['numpy'].__version__)")
        want = os.path.realpath(os.path.join(SRC, "gpd", "cli.py"))
        times = []
        for _ in range(SETUP_SAMPLES + 1):
            child = self.child([sys.executable, "-c", code])
            if child is None or child.rc != 0:
                raise SystemExit("cannot import gpd.cli: " + (child.err if child else "no time"))
            cli_file, numpy_version = child.out.decode().split()
            if os.path.realpath(cli_file) != want:
                raise SystemExit(f"children import gpd from {cli_file}, not from {want}")
            times.append(child.wall)
        return times[1:], numpy_version


def provenance() -> dict:
    tree = hashlib.sha256()
    pkg = os.path.join(SRC, "gpd")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                tree.update(name.encode() + b"\0" + fh.read())
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.processor())
    return {"commit": git_commit(), "source_sha256": tree.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "gpd": pkg}


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def spread(values: list[float]) -> str:
    return (f"median {statistics.median(values):.4g} min {min(values):.4g} "
            f"max {max(values):.4g} n={len(values)}")


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Plain passes, or with trace pairs of a plain and a traced pass.

    The first pass (or pair) sets how many fit in `seconds`, rounded to the
    nearest whole number and at least one, so a run's pass count is steady
    even when the first pass ends near a multiple of `seconds`.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    t0 = time.perf_counter()
    rounds = None
    while rounds is None or len(plain) < rounds:
        plain.append(bench.run_pass(False))
        if trace:
            traced.append(bench.run_pass(True))
        if rounds is None:
            rounds = max(1, int(seconds / (time.perf_counter() - t0) + 0.5))
        if bench.remaining() < (time.perf_counter() - t0) / len(plain):
            break
    return plain, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "gpd", "cli.py")):
        print(f"error: no gpd source tree at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    expected = load_expected()
    cmds, drawn = workloads.commands(args.workload, args.seed)
    os.makedirs(TMP, exist_ok=True)
    try:
        bench = Bench(cmds, expected)
        info = provenance()
        info["load_before"] = os.getloadavg()
        setup, info["numpy"] = bench.setup_samples()
        plain, traced = measure(bench, args.seconds, bool(args.trace))
        info["load_after"] = os.getloadavg()
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    failed = len(bench.failures)
    print(f"workload {args.workload} (seed {args.seed}): {workloads.WHY[args.workload]}")
    print("inputs: " + json.dumps({"drawn": drawn, "commands": [" ".join(c) for c in cmds]}))
    print("provenance: " + json.dumps(info))
    for problem in bench.failures:
        print(f"FAILED {problem}")
    print(f"fail_ratio [ratio] {failed / bench.attempted:.4g} "
          f"({failed} of {bench.attempted} commands)")
    walls = [p["wall"] for p in plain]
    rss = [p["rss_mb"] for p in plain]
    values = {"wall_s": statistics.median(walls), "peak_rss_mb": statistics.median(rss),
              "setup_s": statistics.median(setup)}
    print(f"wall_s [s] {spread(walls)}")
    print(f"peak_rss_mb [MB] {spread(rss)}")
    print(f"setup_s [s] {spread(setup)}")
    units = END_TO_END_UNITS
    if args.trace:
        values = {n: statistics.median(p["layers"][n] for p in traced)
                  for n in traced[0]["layers"]}
        values["trace.overhead_ratio"] = (
            statistics.median(p["wall"] for p in traced) / statistics.median(walls) - 1)
        units = {n: layer_unit(n) for n in values}
        for n in sorted(values):
            print(f"{n} [{units[n]}] {values[n]:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
