"""
The counterexample gallery
==========================

Each fixture shows that dropping one hypothesis breaks one conclusion:
a perimeter-preserving map that is none of the four canonical ones, a
shake-composite that only a two-disk union can distinguish, a non-monotone
reflection through the center of gravity, and a boundary-zone swap that
shreds perimeter.
"""

import numpy as np

import symmkit as sk
from symmkit.harness import run_gallery, two_disk_symmetric_set

summary = run_gallery(seed=7, trials=20)
print("expected verdict matrices reproduced:", summary["all_match"])
for row in summary["rows"]:
    print(f"\n{row['example']}:")
    for name, verdict in row["checks"].items():
        print(f"  {name:32s}: {verdict}")

# a closer look at two of the fixtures --------------------------------------

grid = sk.centered_grid((32, 32), 1 / 8)
plane = sk.axis_plane(1, 2, 0.0, 1)

# the shake composite agrees with the two-point set map on convex rasters but
# not on a mirror-symmetric pair of disjoint disks
comp = sk.blaschke_composite_set_map(plane)
union = two_disk_symmetric_set(grid, plane, 0.75, 0.35)
print("\ntwo-disk union invariant under the two-point map:",
      sk.polarize_set(union, plane) == union)
print("two-disk union invariant under the shake composite:", comp(union) == union)

# the near-plane swap fragments a square that straddles the swap zone edge
square = sk.box_raster(grid, (0.0, 0.5), (1.0, 1.5))
swapped = sk.near_swap(square, plane)
print("\nsquare raster boundary length:", sk.grid_perimeter(square))
print("after the near-plane swap:     ", sk.grid_perimeter(swapped))
print("cell count unchanged:", swapped.cell_count == square.cell_count)
