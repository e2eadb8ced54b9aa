"""Walk through the dyadic frequency decomposition on a small grid."""

import numpy as np

from paraflux import (bank_specs, build_dyadic_system, build_grid, decompose,
                      lp_norm, materialize)

g = build_grid(1, 128)
sys = build_dyadic_system(g)

print("grid: n=%d sizes=%s nyquist=%.1f jmax=%d" % (g.n, g.sizes, g.nyquist,
                                                    sys.jmax))

# the windows sum to one on the resolved region
total = np.zeros(g.sizes)
for j in range(sys.jmax + 1):
    total = total + sys.window(j)
resolved = g.xi <= 2.0 ** sys.jmax
print("partition deviation on the resolved region: %.3g"
      % np.abs(total[resolved] - 1.0).max())

# decompose a smoothed step and look at where the energy sits; the blocks
# come back as one array of samples, band index first
recipes = dict(bank_specs(g))
f = materialize(recipes["smoothed-step[w=0.25]"], sys)
blocks = decompose(f, sys)

print("\nper-block L2 mass of a smoothed step:")
for j, block in enumerate(blocks):
    print("  j=%d   %.6e" % (j, lp_norm(block, 2.0)))

err = lp_norm(blocks.sum(axis=0) - f.physical, 2.0) / f.l2()
print("\nreconstruction error: %.3g" % err)
