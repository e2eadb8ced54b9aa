"""Check multiplication hypotheses and measure the bound on real fields."""

from paraflux import (build_dyadic_system, build_grid,
                      check_theorem_hypotheses, tuple_fields)
from paraflux.audit import audit_multiplication

params = [(0.4, 2.0), (1.0, 2.0)]
q = 2.0

rep = check_theorem_hypotheses(params, q, 1, "positive")
print("factors:", ", ".join("B^%g_{%g,.}" % (s, p) for s, p in params))
print(rep.summary())
lo, hi, closed = rep.derived["inv_p_interval_capped"]
print("admissible 1/p interval: (%g, %g%s" % (lo, hi, "]" if closed else ")"))

g = build_grid(1, 128)
sys = build_dyadic_system(g)
tuples = [tuple_fields(g, sys, params, 23, t) for t in range(6)]

sweep = audit_multiplication(params, q, "positive", tuples, sys)
print("\naudit over %d tuples:" % len(tuples))
for rec in sweep.records:
    print("  %-28s ratio=%-10.4g %s" % (rec.name, rec.ratio, rec.verdict))

worst = max(r.ratio for r in sweep.records if r.name.startswith("mult-total"))
print("\nworst measured constant: %.4f" % worst)

# a parameter set outside the admissible range is refused up front
bad = [(0.5, 2.0), (1.0, 2.0)]
try:
    audit_multiplication(bad, q, "positive", tuples, sys)
except ValueError as exc:
    print("\nrefused out-of-range parameters: %s" % exc)
