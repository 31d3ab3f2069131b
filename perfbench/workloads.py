"""The benchmark's workloads: fixed lists of `gpd` commands with seeded inputs.

Each workload is a list of argv tails for `python -m gpd.cli`.  The seed
only picks inputs from sets whose members cost about the same, so two seeds
give comparable loads; the program itself sees nothing but the argv.
"""

from __future__ import annotations

import itertools
import random

# Every connectivity word of length m over [1..n], in lexicographic order;
# this is also the order of the per-word lists in expected.json.
def partial_perms(m: int, n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(1, n + 1), m))


def hybridizations(m: int) -> list[str]:
    return ["".join(p) for p in itertools.product("WE", repeat=m)]


def word(pi) -> str:
    return ",".join(map(str, pi))


# Input sets the seed draws from, with the spread of the quantity that sets
# each command's cost:
# - PI_4_4: the 4 words whose G(pi) at (4,4) has exactly 175,928 terms.
#   Over all 24 words (148,184..182,766 terms) the drawn pair moved
#   expand's peak RSS by up to 25% (111..167 MB, in steps of the term
#   dicts' sizes) and its wall time with it; these 4 peak at 142.5..144.2 MB.
# - BETA_5_5: all 32 row types; 19,705..20,245 dreams at (5,5).  `count`
#   with --pi still builds every dream, so the (5,5) word does not move the
#   cost; it draws from all 120.
# - BETA_4_5: all 16 row types for `enumerate --m 4 --n 5`.
# - BETA_3_4: all 8 row types for `poly --m 3 --n 4` at the fixed word
#   POLY_3_4_PI, whose G(pi) has the most terms at (3,4).
# - PI_4_5: all 120 words for `schubert --m 4 --n 5`; the nongeneric stream
#   is built in full whatever the word, and the output stays small.
PI_4_4 = [(1, 3, 4, 2), (1, 4, 2, 3), (2, 3, 1, 4), (3, 1, 2, 4)]
BETA_5_5 = hybridizations(5)
PI_5_5 = partial_perms(5, 5)
BETA_4_5 = hybridizations(4)
BETA_3_4 = hybridizations(3)
POLY_3_4_PI = (1, 2, 4)
PI_4_5 = partial_perms(4, 5)

WHY = {
    "verify": (
        "the verdicts users run; touches every module, and poly ring "
        "arithmetic does most of the work, so a poly or dream-stream change "
        "shows here"
    ),
    "sweep": (
        "the dream stream (grid) and the packed weight engine (schubert, "
        "_packed) do almost all the work and poly almost none, so a poly "
        "change should leave it flat; carries the engine's memory peak"
    ),
    "expand": (
        "builds and renders huge full-alphabet polynomials instead of "
        "comparing them (Polynomial.format, _packed.unpack), so a change to "
        "the verification-side representation that slows output shows here"
    ),
}

WORKLOADS = tuple(WHY)


def commands(workload: str, seed: int) -> tuple[list[list[str]], dict]:
    """The workload's command list and the inputs the seed drew."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        cmds = [["verify", check, "--m", "3", "--n", "4"]
                for check in ("beta", "recurrence", "leading", "mirror")]
        cmds += [["verify", "flux", "--m", "3", "--n", "3"],
                 ["verify", "ybe"], ["verify", "crossing"]]
        return cmds, {}
    if workload == "sweep":
        beta_a, beta_b = rng.choice(BETA_5_5), rng.choice(BETA_5_5)
        pi = rng.choice(PI_5_5)
        beta_e = rng.choice(BETA_4_5)
        cmds = [
            ["verify", "beta", "--m", "4", "--n", "4"],
            ["count", "--m", "5", "--n", "5", "--beta", beta_a],
            ["count", "--m", "5", "--n", "5", "--beta", beta_b, "--pi", word(pi)],
            ["enumerate", "--m", "4", "--n", "5", "--beta", beta_e],
        ]
        drawn = {"count_beta": beta_a, "count_pi_beta": beta_b,
                 "count_pi": word(pi), "enumerate_beta": beta_e}
        return cmds, drawn
    if workload == "expand":
        pi_a, pi_b = rng.sample(PI_4_4, 2)
        beta = rng.choice(BETA_3_4)
        pi_s = rng.choice(PI_4_5)
        cmds = [
            ["poly", "--m", "4", "--n", "4", "--pi", word(pi_a)],
            ["poly", "--m", "4", "--n", "4", "--pi", word(pi_b)],
            ["poly", "--m", "3", "--n", "4", "--beta", beta, "--pi", word(POLY_3_4_PI)],
            ["schubert", "--m", "4", "--n", "5", "--pi", word(pi_s)],
        ]
        drawn = {"poly_pis": [word(pi_a), word(pi_b)], "poly_3_4_beta": beta,
                 "schubert_pi": word(pi_s)}
        return cmds, drawn
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
