"""Split a pointwise product into its frequency-interaction pieces."""

from paraflux import (bank_specs, build_dyadic_system, build_grid,
                      decompose_product, enumerate_pi2_direct, materialize,
                      verify_supports)

g = build_grid(1, 128)
sys = build_dyadic_system(g)
recipes = dict(bank_specs(g))

f = materialize(recipes["smoothed-step[w=0.25]"], sys)
h = materialize(recipes["random-band[s=1,p=2]"], sys)

pd = decompose_product([f, h], sys)
print("factors: smoothed step x random band, gap N=%d" % pd.gap)
print("product L2:      %.6e" % pd.product.l2())
for k, piece in enumerate(pd.pi1):
    print("pi1 (slot %d):    %.6e" % (k + 1, piece.l2()))
print("pi2 (residual):  %.6e" % pd.pi2.l2())

recon = (pd.pi1_total() + pd.pi2 - pd.product).l2() / pd.product.l2()
print("split minus product: %.3g" % recon)

# the residual agrees with the brute-force sum over near-diagonal pairs
direct = enumerate_pi2_direct([f, h], sys, pd.gap)
print("residual vs direct enumeration: %.3g"
      % ((pd.pi2 - direct).l2() / pd.pi2.l2()))

# every band term of the low-high pieces stays inside its annulus
report = verify_supports(pd, sys)
nonempty = [e for e in report.band_entries if not e["empty"]]
claimed = sum(e["claimed"] for e in nonempty)
print("\nsupport check: hard annulus %s on %d terms, tight annulus %d/%d"
      % ("ok" if report.hard_all_pass else "VIOLATED",
         len(report.band_entries), claimed, len(nonempty)))
