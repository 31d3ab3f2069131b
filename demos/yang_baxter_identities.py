"""The Yang-Baxter equations behind hybridization independence.

A diamond vertex is moved through a two-row stack; for every boundary
occupancy and every induced connectivity class the cluster sums on the two
sides agree as polynomials in A, B, x, x', y.
"""

from gpd.verify import verify_ybe
from gpd.yangbaxter import class_identities, forced_tile

for mode, description in (("ww", "two W rows, rightward diamond"),
                          ("we", "W over E, upward diamond")):
    report = verify_ybe(mode)
    print(f"{mode} ({description}):", "all classes agree" if report.ok else "FAILED")

# The full list of per-class identities for the WW mode; classes whose
# common value is a short product are skipped to keep the output readable.
print("\nnontrivial WW class identities (west side = east side):")
for boundary, cls, west, east in class_identities("ww"):
    assert west == east
    if len(west) > 3:
        route = ", ".join(f"{a[3:]}->{b[4:]}" for a, b in cls) or "empty"
        print(f"  pipes in {sorted(b[3:] for b in boundary) or 'none'}; {route}")
        print(f"    {west.format()}")

# The diamonds are tiles with pipe x2 at y1 = A + x1, so an insertion
# scenario with a single admissible diamond tile has that tile's weight:
entry = forced_tile("ww", "east", {"tr": 0, "br": 0})
print("\nrightward diamond east of a WW stack, empty exits ->",
      entry.label, "of weight", entry.weight.format())
entry = forced_tile("we", "west", {"tl": 0, "bl": 1})
print("upward diamond west of a WE stack, one entering pipe ->",
      entry.label, "of weight", entry.weight.format())
