"""Self-checks of the benchmark itself.  Run from the repository root:

    python3 perfbench/selfcheck.py

Checks that the traced counts repeat exactly between two traced passes under
different hash seeds, that a generator boundary is timed per next() and not
while its consumer works, that a wrong expected output and both resource
guards make a command count as failed, and that a right one does not.
Takes about half a minute.
"""

from __future__ import annotations

import copy
import os
import sys
import time

import run
from tracer import Tracer

# Counts only; the *_s, *_per_s and ratio metrics are times or built on times.
COUNTS = ("grid.dreams_built", "grid.dreams_yielded", "poly.mul_calls", "poly.mul_pairs",
          "poly.format_terms", "poly.max_terms", "packed.merge_calls",
          "packed.merge_keys", "packed.unpack_terms", "schubert.recurrence_steps",
          "cli.out_bytes")

SMALL = [
    ["verify", "recurrence", "--m", "3", "--n", "3"],
    ["verify", "leading", "--m", "3", "--n", "3"],
    ["poly", "--m", "3", "--n", "4", "--beta", "EWE", "--pi", "1,2,4"],
    ["enumerate", "--m", "4", "--n", "5", "--beta", "WEEW"],
]


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {message}")
    print(f"ok   {message}")


def traced_counts_repeat(expected: dict) -> None:
    passes = []
    for hash_seed in ("1", "2"):
        bench = run.Bench(SMALL, expected)
        bench.env["PYTHONHASHSEED"] = hash_seed
        layers = bench.run_pass(traced=True)["layers"]
        check(not bench.failures, f"traced pass under PYTHONHASHSEED={hash_seed} is correct")
        passes.append({name: layers[name] for name in COUNTS})
    check(all(passes[0][n] > 0 for n in COUNTS), "every checked count is nonzero")
    check(passes[0] == passes[1], f"traced counts repeat exactly: {passes[0]}")


def stream_timed_per_next() -> None:
    sys.path.insert(0, run.SRC)
    import gpd

    tracer = Tracer()
    tracer.install(gpd)
    pause, items = 0.02, 0
    for _ in gpd.grid.enumerate_dreams(2, 3, "WE"):
        items += 1
        time.sleep(pause)  # consumer work, outside the stream's spans
    stat = tracer.stats["grid.enumerate_dreams"]
    layers = tracer.metrics()
    check(stat.calls == items + 1, f"one span per next(): {stat.calls} spans, {items} dreams")
    check(layers["grid.dreams_yielded"] == items, "yielded dreams are counted")
    check(layers["grid.stream_s"] < pause * items / 2,
          f"consumer time is not stream time ({layers['grid.stream_s']:.4f} s)")


def oracle_and_guards(expected: dict) -> None:
    cmd = ["enumerate", "--m", "4", "--n", "5", "--beta", "WEEW"]
    bench = run.Bench([cmd], expected)
    bench.run_pass(traced=False)
    check(bench.failures == [], "right expected output: fail_ratio 0")

    wrong = copy.deepcopy(expected)
    wrong["enumerate_4_5"]["WEEW"]["sha256"] = "0" * 64
    bench = run.Bench([cmd], wrong)
    bench.run_pass(traced=False)
    check(len(bench.failures) == 1 and bench.attempted == 1,
          f"wrong expected output: fail_ratio 1 ({bench.failures})")

    env = dict(os.environ, PYTHONPATH=run.SRC)
    spin = run.run_child([sys.executable, "-c", "while True: pass"], env, 1)
    check(run.failure(spin, cmd, expected) == "CPU deadline passed", "CPU deadline fails a child")
    sleep = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], env, 1.0)
    check(run.failure(sleep, cmd, expected) == "wall-clock deadline passed",
          "wall-clock deadline fails a child")
    hog = run.run_child([sys.executable, "-c", f"x = bytearray({run.CHILD_AS_BYTES})"], env, 20)
    check(run.failure(hog, cmd, expected) == "address-space cap hit",
          "address-space cap fails a child")


def main() -> None:
    if not os.path.isfile(os.path.join(run.SRC, "gpd", "cli.py")):
        raise SystemExit(f"no gpd source tree at {run.SRC}; run from the repository root")
    expected = run.load_expected()
    os.makedirs(run.TMP, exist_ok=True)
    try:
        stream_timed_per_next()
        oracle_and_guards(expected)
        traced_counts_repeat(expected)
    finally:
        run.shutil.rmtree(run.TMP, ignore_errors=True)


if __name__ == "__main__":
    main()
