"""The 2 x 2 worked example: fluxes, reductions, and rebuilt dreams.

Flux variables measure accumulated pipe flow through every grid edge.
Killing matrix entries (and identifying markers through a binomial) reduces
the table; joining edges of equal nonzero flux then redraws the component's
pipe dream with no further input.
"""

from gpd.cli import render_flux_lattice
from gpd.flux import (
    component_class,
    dream_from_flux_table,
    flux_grid,
    reduced_flux_table,
    variety_equations,
)
from gpd.grid import serialize, weight
from gpd.poly import parse

M = N = 2
BETA = "WE"

print("full flux table for the 2 x 2 grid, hybridization WE:")
print(render_flux_lattice(M, N, flux_grid(M, N, BETA)))

print("modulo <x21, x12>:")
red1 = reduced_flux_table(M, N, BETA, zeros=[("X", 2, 1), ("X", 1, 2)])
print(render_flux_lattice(M, N, red1))
d1 = dream_from_flux_table(M, N, BETA, red1)
print("reconstructed dream:")
print(serialize(d1))

print("modulo <y22, x21 y12 - x12 y21> (marker x21y12 rewritten to x12y21):")
red2 = reduced_flux_table(M, N, BETA, zeros=[("Y", 2, 2)], rewrites={(2, 1): (1, 2)})
print(render_flux_lattice(M, N, red2))
d2 = dream_from_flux_table(M, N, BETA, red2)
print("reconstructed dream:")
print(serialize(d2))

# Each component is a complete intersection with m(n-1) = 2 independent
# equations; its class times (A+B)^2 is the dream's weight, and the two
# classes sum to the polynomial of connectivity 12.
total = parse("0", M, N)
for d in (d1, d2):
    eqs = variety_equations(d)
    cls = component_class(eqs)
    print("zero entries:",
          sorted(f"x{r}{j}" for r, j in eqs.zero_x) + sorted(f"y{j}{r}" for j, r in eqs.zero_y),
          "| independent equations:", eqs.independent_count())
    print("class:", cls.format())
    assert cls * parse("A+B", M, N) ** 2 == weight(d)
    total = total + cls * parse("A+B", M, N) ** 2

from gpd.schubert import generic_polynomial

print("\nsum of contributions == G(12):",
      total == generic_polynomial(M, N, BETA, (1, 2)))
