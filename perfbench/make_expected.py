"""Pin the expected output of every command the workloads can draw.

Run once from the repository root:

    python3 perfbench/make_expected.py

It writes perfbench/expected.json.  The expected outputs come from routes
independent of the commands they check, computed here and never inside a
timed run:

- `poly`: G(pi) from the divided-difference recurrence (the command sums
  dream weights instead);
- `schubert`: the double Schubert polynomial of the minimal extension, by
  divided differences from the longest element (the command sums
  nongeneric dreams);
- `count` and `enumerate`: values pinned from the code at the commit that
  defined the benchmark, cross-checked against the counts the test suite
  pins at (4,5).

Takes a few minutes on one core.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from gpd import grid, schubert  # noqa: E402

import workloads  # noqa: E402

# Counts the test suite pins at (4,5) for pi = 1,2,5,3.
TEST_COUNTS_4_5 = {"EWEW": 76, "WWWW": 78, "EEEE": 80}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-m", "gpd.cli", *args], env=env,
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return done.stdout


def poly_record(p) -> dict:
    return {"sha256": digest(p.format() + "\n"), "terms": len(p)}


def main() -> None:
    out: dict = {"poly": {}, "schubert": {}, "count_5_5": {}, "enumerate_4_5": {}}

    for m, n in ((3, 4), (4, 4)):
        for pi, g in sorted(schubert.recurrence_table(m, n).items()):
            out["poly"][f"{m} {n} {workloads.word(pi)}"] = poly_record(g)
        print(f"poly ({m},{n}) pinned", flush=True)

    for pi in workloads.PI_4_5:
        ext = schubert.min_extension(pi, 5)
        out["schubert"][f"4 5 {workloads.word(pi)}"] = poly_record(
            schubert.double_schubert_oracle(ext, 4, 5))
    print("schubert (4,5) pinned", flush=True)

    for beta in workloads.BETA_5_5:
        tally = Counter(grid.connectivity(d)[0] for d in grid.enumerate_dreams(5, 5, beta))
        out["count_5_5"][beta] = [tally[pi] for pi in workloads.PI_5_5]
    print("count (5,5) pinned", flush=True)

    for beta in workloads.BETA_4_5:
        text = cli("enumerate", "--m", "4", "--n", "5", "--beta", beta)
        out["enumerate_4_5"][beta] = {"sha256": digest(text),
                                      "dreams": text.count("\n\n") + 1}
    print("enumerate (4,5) pinned", flush=True)

    # Cross-checks: the test suite's pinned counts, and one command of each
    # kind against the pinned value.
    for beta, expected in TEST_COUNTS_4_5.items():
        got = int(cli("count", "--m", "4", "--n", "5", "--beta", beta, "--pi", "1,2,5,3"))
        if got != expected:
            raise SystemExit(f"count (4,5) beta={beta}: {got}, tests pin {expected}")
    if int(cli("count", "--m", "5", "--n", "5", "--beta", "WEWEW")) != sum(
            out["count_5_5"]["WEWEW"]):
        raise SystemExit("count (5,5) WEWEW disagrees with the tally")
    if digest(cli("poly", "--m", "4", "--n", "4", "--pi", "1,2,3,4")) != out["poly"][
            "4 4 1,2,3,4"]["sha256"]:
        raise SystemExit("poly (4,4) 1,2,3,4 disagrees with the recurrence")

    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True, indent=1)
        fh.write("\n")
    sizes = {k: v["terms"] for k, v in out["poly"].items()}
    print("poly terms:", json.dumps(sizes, sort_keys=True))
    dreams = [sum(v) for v in out["count_5_5"].values()]
    print(f"(5,5) dreams per beta: {min(dreams)}..{max(dreams)}")
    print("schubert terms:", sorted(v["terms"] for v in out["schubert"].values()))
    print("enumerate dreams:", {b: v["dreams"] for b, v in out["enumerate_4_5"].items()})


if __name__ == "__main__":
    main()
