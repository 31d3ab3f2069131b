import random

from gpd.poly import Polynomial

# Every shape (m, n) with m <= n <= 4 but (4, 4), the tests' default sweep.
SMALL_SHAPES = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]


def random_poly(rng: random.Random, m: int, n: int, max_terms: int = 5, max_deg: int = 3,
                max_coeff: int = 9) -> Polynomial:
    width = 2 + m + n
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * width
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(width)] += 1
        coeff = rng.randint(-max_coeff, max_coeff)
        if coeff:
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
    return Polynomial(m, n, terms)


def random_point(rng: random.Random, m: int, n: int, bound: int = 10):
    return (
        rng.randint(-bound, bound),
        rng.randint(-bound, bound),
        [rng.randint(-bound, bound) for _ in range(m)],
        [rng.randint(-bound, bound) for _ in range(n)],
    )
