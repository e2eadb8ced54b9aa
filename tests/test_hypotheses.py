import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from paraflux import (INF, SpaceSpec, check_embedding_hypotheses,
                      check_theorem_hypotheses, pick_admissible_p)


def B(s, p, q):
    return SpaceSpec("B", s, p, q)


def F(s, p, q):
    return SpaceSpec("F", s, p, q)


# --- same-family embeddings -------------------------------------------------


def test_equal_diffdim_besov_line():
    # 2 - 2/1 = 0 = 1 - 2/2, s0 >= s1, q0 <= q1
    rep = check_embedding_hypotheses(B(2.0, 1.0, 1.0), B(1.0, 2.0, 2.0), 2)
    assert rep.satisfied
    assert rep.derived["branch"] == "diffdim"
    # same line but q0 > q1 fails for Besov
    rep = check_embedding_hypotheses(B(2.0, 1.0, 2.0), B(1.0, 2.0, 1.0), 2)
    assert not rep.satisfied


def test_strict_smoothness_same_p_ignores_q():
    rep = check_embedding_hypotheses(B(2.0, 2.0, INF), B(1.0, 2.0, 0.5), 1)
    assert rep.satisfied
    assert rep.derived["branch"] == "strict"
    rep = check_embedding_hypotheses(F(2.0, 2.0, INF), F(1.0, 2.0, 0.5), 1)
    assert rep.satisfied


def test_reflexive_pair():
    rep = check_embedding_hypotheses(F(0.5, 2.0, 2.0), F(0.5, 2.0, 2.0), 1)
    assert rep.satisfied


def test_smoothness_decrease_required():
    rep = check_embedding_hypotheses(B(1.0, 1.0, INF), B(2.0, 1.0, 1.0), 1)
    assert not rep.satisfied
    assert "monotone-or-diffdim" in rep.failed()


def test_family_mismatch_in_same_family_mode():
    rep = check_embedding_hypotheses(B(1.0, 2.0, 2.0), F(0.5, 2.0, 2.0), 1,
                                     mode="same-family")
    assert not rep.satisfied
    assert "family-match" in rep.failed()


def test_triebel_line_has_no_q_condition():
    # F-side diffdim branch carries no q constraint: q0 > q1 still fine
    rep = check_embedding_hypotheses(F(2.0, 1.0, INF), F(1.0, 2.0, 1.0), 2)
    assert rep.satisfied


# --- Franke-Jawerth links ----------------------------------------------------


def test_fj_strict_besov_into_triebel():
    # n=1: 1 - 1/1 = 0 = 0.5 - 1/2; s0 > s; q0 <= p
    rep = check_embedding_hypotheses(B(1.0, 1.0, 1.0), F(0.5, 2.0, 2.0), 1)
    assert rep.derived["mode"] == "franke-jawerth"
    assert rep.satisfied
    assert rep.derived["branch"] == "strict"
    # violate q0 <= p
    rep = check_embedding_hypotheses(B(1.0, 1.0, 4.0), F(0.5, 2.0, 2.0), 1)
    assert not rep.satisfied


def test_fj_strict_triebel_into_besov():
    # 0.5 - 1/2 = 0 = 0.25 - 1/4; s > s1; q1 >= p
    rep = check_embedding_hypotheses(F(0.5, 2.0, 2.0), B(0.25, 4.0, 4.0), 1)
    assert rep.satisfied
    rep = check_embedding_hypotheses(F(0.5, 2.0, 2.0), B(0.25, 4.0, 1.0), 1)
    assert not rep.satisfied  # q1 < p


def test_fj_equal_smoothness_branch():
    # s0 = s, equal diffdim forces p0 = p; q0 <= min(p,q)
    rep = check_embedding_hypotheses(B(0.5, 2.0, 1.0), F(0.5, 2.0, 4.0), 1)
    assert rep.satisfied
    assert rep.derived["branch"] == "equal"
    rep = check_embedding_hypotheses(B(0.5, 2.0, 3.0), F(0.5, 2.0, 4.0), 1)
    assert not rep.satisfied  # q0 > min(p,q) = 2
    rep = check_embedding_hypotheses(F(0.5, 2.0, 1.0), B(0.5, 2.0, 3.0), 1)
    assert rep.satisfied  # q1=3 >= max(p,q) = 2
    rep = check_embedding_hypotheses(F(0.5, 2.0, 4.0), B(0.5, 2.0, 3.0), 1)
    assert not rep.satisfied  # q1 < max(p,q) = 4


def test_fj_diffdim_mismatch():
    rep = check_embedding_hypotheses(B(1.0, 1.0, 1.0), F(0.6, 2.0, 2.0), 1)
    assert not rep.satisfied
    assert "diffdim" in rep.failed()


def test_fj_dimension_matters():
    # same exponents, n=2: 1 - 2/1 = -1 vs 0.5 - 2/2 = -0.5
    rep = check_embedding_hypotheses(B(1.0, 1.0, 1.0), F(0.5, 2.0, 2.0), 2)
    assert not rep.satisfied


# --- multiplication theorem hypotheses ---------------------------------------


def test_positive_mode_basic():
    rep = check_theorem_hypotheses([(0.4, 2.0), (1.0, 2.0)], 2.0, 1,
                                   "positive")
    assert rep.satisfied
    lo, hi, closed = rep.derived["inv_p_interval_capped"]
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(1.0)
    assert not closed
    p = pick_admissible_p(rep)
    assert lo < 1.0 / p < hi


def test_subcritical_boundary_is_strict():
    # s1 = n/p1 exactly: the strict inequality s1 < n/p1 fails
    rep = check_theorem_hypotheses([(0.5, 2.0), (1.0, 2.0)], 2.0, 1,
                                   "positive")
    assert not rep.satisfied
    assert rep.failed() == ["s1-subcritical"]


def test_positive_ordering_violations():
    rep = check_theorem_hypotheses([(1.0, 2.0), (0.5, 2.0)], 2.0, 1,
                                   "positive")
    assert "ordering" in rep.failed()  # s1 < s2 fails
    rep = check_theorem_hypotheses([(0.0, 2.0), (1.0, 2.0)], 2.0, 1,
                                   "positive")
    assert "ordering" in rep.failed()  # s1 > 0 fails
    rep = check_theorem_hypotheses([(0.2, 4.0), (0.5, 2.0), (0.4, 2.0)],
                                   2.0, 1, "positive")
    assert "ordering" in rep.failed()  # tail s2 <= s3 fails


def test_negative_mode_basic():
    rep = check_theorem_hypotheses([(-0.25, 2.0), (0.5, 2.0)], 2.0, 1,
                                   "negative")
    assert rep.satisfied
    rep = check_theorem_hypotheses([(-0.5, 2.0), (0.3, 2.0)], 2.0, 1,
                                   "negative")
    assert not rep.satisfied
    assert "s1-plus-s2" in rep.failed()
    # positive s1 is rejected by the negative ordering
    rep = check_theorem_hypotheses([(0.1, 2.0), (0.5, 2.0)], 2.0, 1,
                                   "negative")
    assert "ordering" in rep.failed()


def test_p1_range_checked_in_both_modes():
    for mode, params in (("positive", [(0.4, 0.9), (1.0, 2.0)]),
                         ("negative", [(-0.1, 0.9), (1.0, 2.0)])):
        rep = check_theorem_hypotheses(params, 2.0, 1, mode)
        assert "p1-range" in rep.failed()
    rep = check_theorem_hypotheses([(0.4, INF), (1.0, 2.0)], 2.0, 1,
                                   "positive")
    assert "p1-range" in rep.failed()


def test_zero_integrability_is_reported_not_divided():
    # p_i = 0 or p_1 = 0 has no 1/p: the conditions that read it fail, and
    # the checker returns a report instead of raising ZeroDivisionError
    rep = check_theorem_hypotheses([(0.4, 2.0), (1.0, 0.0)], 2.0, 1,
                                   "positive")
    assert not rep.satisfied
    assert rep.failed() == ["pi-range", "h-feasible", "p-interval"]
    rep = check_theorem_hypotheses([(0.4, 0.0), (1.0, 2.0)], 2.0, 1,
                                   "positive")
    assert not rep.satisfied
    assert rep.failed() == ["p1-range", "s1-subcritical", "p-interval"]
    with pytest.raises(ValueError, match="empty"):
        pick_admissible_p(rep)
    # a negative p_i has no 1/p either: its reciprocal is NaN, so a wider
    # third factor cannot carry p-interval
    rep = check_theorem_hypotheses([(0.4, 2.0), (1.0, -2.0)], 2.0, 1,
                                   "positive")
    assert rep.failed() == ["pi-range", "h-feasible", "p-interval"]
    assert all(math.isnan(v) for v in rep.derived["h_ranges"][0])
    rep = check_theorem_hypotheses([(0.4, 2.0), (1.0, -2.0), (1.0, 1.0)],
                                   2.0, 1, "positive")
    assert not rep.satisfied
    assert rep.failed() == ["pi-range", "h-feasible", "p-interval"]
    with pytest.raises(ValueError, match="empty"):
        pick_admissible_p(rep)


def test_infinite_secondary_p_is_infeasible():
    # p_i = inf makes (.., 1/p_i] = (.., 0] empty
    rep = check_theorem_hypotheses([(0.4, 2.0), (1.0, INF)], 2.0, 1,
                                   "positive")
    assert "h-feasible" in rep.failed()


def test_factor_feasibility_large_smoothness_gap():
    # (1/p_i - s_i/n)_+ = 0 < 1/p_i: feasible whenever p_i finite
    rep = check_theorem_hypotheses([(0.4, 2.0), (5.0, 2.0)], 2.0, 1,
                                   "positive")
    assert rep.condition("h-feasible")[1]


def test_admissible_interval_closed_right_end():
    # (0.3, 1.5), (0.8, 4): 1/p in (2/3, 2/3 + 1/4] = (2/3, 11/12]
    rep = check_theorem_hypotheses([(0.3, 1.5), (0.8, 4.0)], 1.0, 1,
                                   "positive")
    assert rep.satisfied
    lo, hi, closed = rep.derived["inv_p_interval_capped"]
    assert lo == pytest.approx(2.0 / 3.0)
    assert hi == pytest.approx(11.0 / 12.0)
    assert closed
    # p is taken at the midpoint of the interval, closed or not
    assert 1.0 / pick_admissible_p(rep) == pytest.approx(
        (2.0 / 3.0 + 11.0 / 12.0) / 2.0)
    assert pick_admissible_p(rep) == 1.0 / (lo + (hi - lo) * 0.5)


def test_interval_empty_when_subcriticality_eats_it():
    # m=2, s2 tiny and p2 large: left end 1/p1 + (1/p2 - s2)_+ can reach
    # the cap; with p1=1, lo = 1 + something >= 1 -> empty
    rep = check_theorem_hypotheses([(0.4, 1.0), (0.5, 0.5)], 2.0, 1,
                                   "positive")
    # lo = 1 + (2 - 0.5) = 2.5 > 1
    assert "p-interval" in rep.failed()
    with pytest.raises(ValueError):
        pick_admissible_p(rep)


def test_arity_and_mode_validation():
    with pytest.raises(ValueError):
        check_theorem_hypotheses([(0.5, 2.0)], 2.0, 1, "positive")
    with pytest.raises(ValueError):
        check_theorem_hypotheses([(0.5, 2.0), (1.0, 2.0)], 2.0, 1, "both")


def test_report_rendering():
    rep = check_theorem_hypotheses([(0.4, 2.0), (1.0, 2.0)], 2.0, 1,
                                   "positive")
    text = rep.summary()
    assert "satisfied" in text
    assert "p-interval" in text
    rendered, ok = rep.condition("s1-subcritical")
    assert ok and "0.4" in rendered
    with pytest.raises(KeyError):
        rep.condition("nope")


# --- exact arithmetic --------------------------------------------------------


@pytest.mark.parametrize("params, n, mode, failed", [
    # s1 = n/p1 = 3/5 exactly, though 3 * (1/5.0) rounds above 0.6
    ([(0.6, 5.0), (2.0, 4.0)], 3, "positive", ["s1-subcritical"]),
    # 1/p in (1, 11/6]: empty once capped below 1, though the float left
    # end is 0.9999999999999999
    ([(-0.2, 6.0), (0.9, 1.5), (1.6, 1.0)], 3, "negative", ["p-interval"]),
    ([(1.2, 2.5), (1.3, 8.0), (1.3, 1.25)], 3, "positive",
     ["s1-subcritical"]),
    ([(0.6, 5.0), (1.6, 1.5)], 3, "positive", ["s1-subcritical"]),
    # the left end 1/6 + 5/6 + 0 of 1/p is 1; in floats 0.9999999999999999
    ([(-0.3, 6.0), (-0.5, 3.0), (1.5, 1.5)], 1, "negative",
     ["ordering", "s1-plus-s2", "h-feasible", "p-interval"]),
    # the left end 1/3 + 37/60 + 1/20 of 1/p is 1; in floats below it
    ([(-0.4, 3.0), (0.1, 1.5), (0.4, 4.0)], 2, "positive",
     ["ordering", "p-interval"]),
])
def test_theorem_boundaries_are_decided_exactly(params, n, mode, failed):
    # rows where a float evaluation of the conditions disagrees with the
    # exact one on the decimals as written
    rep = check_theorem_hypotheses(params, 2.0, n, mode)
    assert rep.failed() == failed
    assert not rep.satisfied
    if "p-interval" in failed:
        # the derived interval is rounded from the exact ends, so it is
        # empty as well and no p is picked from it
        with pytest.raises(ValueError, match="interval for 1/p is empty"):
            pick_admissible_p(rep)


def test_embedding_diffdim_is_compared_exactly():
    # s - n/p equal as written (0.6 - 3/5 = 0 - 0) though the float
    # difference is -1.1e-16, and unequal by 1e-13 though within the old
    # absolute tolerance of 1e-12
    rep = check_embedding_hypotheses(B(0.6, 5.0, 1.0), B(0.0, INF, 2.0), 3)
    assert rep.satisfied and rep.derived["branch"] == "diffdim"
    rep = check_embedding_hypotheses(B(1.0, 1.0, 1.0),
                                     F(0.5 + 1e-13, 2.0, 2.0), 1)
    assert rep.failed() == ["diffdim"]


_TENTHS = st.integers(-10, 20)
_PS = st.sampled_from(["1", "1.25", "1.5", "2", "2.5", "3", "4", "5", "6",
                       "8", "10", "inf"])


def _reference_failed(params, n, mode):
    """The conditions of check_theorem_hypotheses, in its order, decided
    in Fractions on the decimals as written; params holds (tenths of s,
    p as text)."""
    s = [Fraction(k, 10) for k, _ in params]
    inv = [Fraction(0) if p == "inf" else 1 / Fraction(p) for _, p in params]
    ranges = [(max(i - si / n, Fraction(0)), i)
              for si, i in zip(s[1:], inv[1:])]
    tail = all(a <= b for a, b in zip(s[1:], s[2:]))
    conds = [("p1-range", params[0][1] != "inf" and inv[0] <= 1),
             ("pi-range", True), ("q-range", True)]
    if mode == "positive":
        conds += [("ordering", 0 < s[0] < s[1] and tail),
                  ("s1-subcritical", s[0] < n * inv[0])]
    else:
        conds += [("ordering", s[0] <= 0 < s[1] and tail),
                  ("s1-plus-s2", s[0] + s[1] > 0)]
    lo = inv[0] + sum(a for a, _ in ranges)
    hi = inv[0] + sum(b for _, b in ranges)
    conds += [("h-feasible", all(a < b for a, b in ranges)),
              ("p-interval", lo < min(hi, 1))]
    return [name for name, ok in conds if not ok]


@st.composite
def _theorem_draws(draw):
    """(params, n) as `_reference_failed` reads them; half the time s1
    sits on its boundary n/p1 when that is a tenth."""
    n = draw(st.integers(1, 3))
    params = draw(st.lists(st.tuples(_TENTHS, _PS), min_size=2, max_size=3))
    p1 = params[0][1]
    if p1 != "inf" and (10 * n / Fraction(p1)).denominator == 1 \
            and draw(st.booleans()):
        params[0] = (int(10 * n / Fraction(p1)), p1)
    return params, n


@settings(derandomize=True, database=None, deadline=None,
          max_examples=400)
@given(draw=_theorem_draws(), mode=st.sampled_from(["positive", "negative"]))
def test_theorem_verdicts_match_a_fraction_reference(draw, mode):
    params, n = draw
    floats = [(k / 10, float(p)) for k, p in params]
    rep = check_theorem_hypotheses(floats, 2.0, n, mode)
    assert rep.failed() == _reference_failed(params, n, mode)
