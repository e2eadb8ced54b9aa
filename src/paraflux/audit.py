"""Numerical audits of the inequality lemmas and multiplication embeddings.

Every check measures an empirical constant, the ratio of a left side to the
right side stripped of its constant.  Checks with a derived reference bound
(Hardy, the frozen calibration gates, scaling/stability gates) verdict
pass/fail; the rest are informational because the source results only assert
that constants exist.  A SweepResult serializes to CSV/JSON with fixed row
order and formatting, so identical configurations produce identical bytes.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from ._inputs import MANIFEST, read
from ._parallel import map_ordered, per_worker
from .dyadic import (_axis_bounds, _bands, _box_views, _lows,
                     build_dyadic_system, smooth_cutoff)
from .grid import Field, _lattice, build_grid
from .hypotheses import (check_embedding_hypotheses,
                         check_theorem_hypotheses, pick_admissible_p)
from .norms import (INF, SpaceSpec, _band_norms, _ex_json, _lockstep_rows,
                    _norm_work, _NormAccumulator, _work_rows, lp_norm,
                    lq_of_lp, sequence_norm, triebel_norm)
from .paraproduct import (_checked_gap, _padded_values, _product_lattice,
                          _split_product, _support_radius)
from .testbank import (_item_bands, _item_stack, bank_specs, materialize,
                       tuple_specs)

__all__ = [
    "AuditRecord", "SweepResult", "hardy_bound", "check_hardy",
    "hardy_exhaustive_search", "hardy_random_sweep", "envelope_field",
    "check_nikolskii", "nikolskii_scaling", "check_qj_lp", "check_delta_lt",
    "check_qj_lt", "check_maximal_qsup", "lemma_suite", "audit_embedding",
    "audit_multiplication", "run_audit_manifest",
]

RATIO_SLACK = 1e-9
CALIBRATION_GATE = 4.0  # frozen from the calibration run on the fixed bank
TREND_GATE = 1.10
SCALING_GATE = 1.05
NIKOLSKII_GAMMAS = (8.0, 16.0, 32.0)
# the Hardy trials of the search, the sweep and the suite: decay rates,
# exponents, the search's sequence entries and the sweep's longest length
HARDY = {"gammas": (0.3, 0.5, 0.9), "qs": (0.5, 1.0, 2.0, INF),
         "lattice": (0.0, 0.25, 0.5, 1.0, 2.0), "sweep_len": 64}
STABILITY_FACTOR = 4.0


@dataclass
class AuditRecord:
    """One inequality trial: lhs vs rhs_core and the empirical constant."""

    name: str
    inputs: dict
    lhs: float
    rhs_core: float
    ratio: float
    reference_bound: float = None
    bound_provenance: str = ""
    verdict: str = "informational"

    def row(self):
        return (self.name, _params_text(self.inputs), _num(self.lhs),
                _num(self.rhs_core), _num(self.ratio),
                "" if self.reference_bound is None
                else _num(self.reference_bound), self.verdict)


def _num(x):
    return "" if x is None else "%.17g" % (x,)


def _params_text(inputs):
    return json.dumps(inputs, sort_keys=True, separators=(",", ":"),
                      default=str)


def _make_record(name, inputs, lhs, rhs_core, bound=None, provenance=""):
    if rhs_core > 0.0:
        ratio = lhs / rhs_core
    elif lhs == 0.0:
        return AuditRecord(name, inputs, lhs, rhs_core, float("nan"),
                           bound, provenance, "skipped")
    else:
        ratio = INF
    if bound is None:
        verdict = "informational"
    else:
        verdict = "pass" if ratio <= bound + RATIO_SLACK else "fail"
    return AuditRecord(name, inputs, lhs, rhs_core, ratio, bound,
                       provenance, verdict)


@dataclass
class SweepResult:
    """Ordered record list plus per-check maxima and run metadata."""

    records: list = dc_field(default_factory=list)
    meta: dict = dc_field(default_factory=dict)

    def extend(self, records):
        self.records.extend(records)

    def max_ratio(self, prefix=None):
        best = {}
        for r in self.records:
            if r.ratio != r.ratio:  # skipped
                continue
            key = r.name.split("[", 1)[0]
            if prefix is not None and not key.startswith(prefix):
                continue
            if key not in best or r.ratio > best[key]:
                best[key] = r.ratio
        if prefix is None:
            return best
        return max(best.values()) if best else float("nan")

    def failures(self):
        return [r for r in self.records if r.verdict == "fail"]

    def summarize(self):
        """Write into meta the count of records per verdict ("verdicts")
        and, in record order, the name and reason of each skipped record
        ("skipped"): its inputs' "skipped", or that both sides are 0."""
        verdicts = [r.verdict for r in self.records]
        self.meta["verdicts"] = {
            v: verdicts.count(v)
            for v in ("pass", "fail", "informational", "skipped")}
        self.meta["skipped"] = [
            {"name": r.name, "reason": r.inputs.get(
                "skipped", "lhs and rhs_core are both 0")}
            for r in self.records if r.verdict == "skipped"]

    def to_csv(self):
        text = io.StringIO()
        rows = csv.writer(text, lineterminator="\n")
        rows.writerow(("name", "params", "lhs", "rhs_core", "ratio", "bound",
                       "verdict"))
        rows.writerows(r.row() for r in self.records)
        return text.getvalue()

    def to_json(self):
        payload = {
            "meta": self.meta,
            "max_ratio": self.max_ratio(),
            "records": [
                {"name": r.name, "inputs": r.inputs, "lhs": r.lhs,
                 "rhs_core": r.rhs_core,
                 "ratio": None if r.ratio != r.ratio else r.ratio,
                 "bound": r.reference_bound,
                 "provenance": r.bound_provenance, "verdict": r.verdict}
                for r in self.records
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2, default=str) \
            + "\n"


# ---------------------------------------------------------------------------
# Hardy-type inequality


def hardy_bound(gamma, q):
    """(1 - gamma^tau)^(-1/tau) with tau = min(1, q).

    For q >= 1, Young's inequality for the convolution with (gamma^i)_i
    gives the l_1 norm of the kernel, sum gamma^i = (1-gamma)^(-1); for
    q < 1 the q-subadditivity of t -> t^q gives the same with gamma^q; both
    collapse to this closed form, verified by exhaustive search before
    being adopted.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    tau = min(1.0, float(q))
    return (1.0 - gamma ** tau) ** (-1.0 / tau)


def _hardy_transform(eps, gamma):
    # delta_k = eps_k + gamma * delta_{k-1} along the last axis, one column
    # at a time (the rounding of a direct-form first-order filter)
    delta = np.array(eps, dtype=float)
    for k in range(1, delta.shape[-1]):
        delta[..., k] += gamma * delta[..., k - 1]
    return delta


def check_hardy(eps, gamma, q):
    """Measure ||delta||_q / ||eps||_q against the derived bound."""
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 1:
        raise ValueError("expected a 1-d sequence")
    if np.any(eps < 0.0):
        raise ValueError("sequence entries must be nonnegative")
    bound = hardy_bound(gamma, q)
    delta = _hardy_transform(eps, gamma)
    lhs = sequence_norm(delta, 0.0, q)
    rhs = sequence_norm(eps, 0.0, q)
    return _make_record(
        "hardy[g=%g,q=%g]" % (gamma, q),
        {"gamma": gamma, "q": _ex_json(q), "len": len(eps)},
        lhs, rhs, bound, "derived: geometric convolution bound")


def _seq_norms(matrix, q):
    if q == INF:
        return matrix.max(axis=-1)
    return np.sum(matrix ** q, axis=-1) ** (1.0 / q)


def hardy_exhaustive_search(max_len=6):
    """Worst ratio/bound margin over every sequence up to max_len whose
    entries come from HARDY["lattice"], at each gamma and q of HARDY.

    Returns (worst_margin, sweep) where margin = ratio - bound; validates
    the closed-form bound before it is trusted anywhere else.
    """
    import itertools

    worst = -INF
    records = []
    for L in range(1, max_len + 1):
        block = np.array(list(itertools.product(HARDY["lattice"], repeat=L)))
        block = block[block.sum(axis=1) > 0.0]
        for gamma in HARDY["gammas"]:
            delta = _hardy_transform(block, gamma)
            for q in HARDY["qs"]:
                ratios = _seq_norms(delta, q) / _seq_norms(block, q)
                bound = hardy_bound(gamma, q)
                top = float(ratios.max())
                worst = max(worst, top - bound)
                records.append(_make_record(
                    "hardy-exhaustive[L=%d,g=%g,q=%g]" % (L, gamma, q),
                    {"L": L, "gamma": gamma, "q": _ex_json(q),
                     "count": len(block)},
                    top, 1.0, bound, "derived: geometric convolution bound"))
    sweep = SweepResult(records, {"kind": "hardy-exhaustive"})
    return worst, sweep


def hardy_random_sweep(count=10000, seed=811):
    """Random-sequence stress of the Hardy bound, on sequences of up to
    HARDY["sweep_len"] entries; one record per (gamma, q) of HARDY."""
    max_len = HARDY["sweep_len"]
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_len + 1, size=count)
    eps = np.abs(rng.standard_normal((count, max_len)))
    heavy = rng.random(count) < 0.3
    eps[heavy] = np.exp(2.0 * rng.standard_normal((int(heavy.sum()),
                                                   max_len)))
    mask = np.arange(max_len)[None, :] < lengths[:, None]
    eps *= mask
    records = []
    for gamma in HARDY["gammas"]:
        delta = _hardy_transform(eps, gamma)
        for q in HARDY["qs"]:
            ratios = _seq_norms(delta, q) / _seq_norms(eps, q)
            records.append(_make_record(
                "hardy-random[g=%g,q=%g]" % (gamma, q),
                {"gamma": gamma, "q": _ex_json(q),
                 "count": count, "max_len": max_len, "seed": seed},
                float(ratios.max()), 1.0, hardy_bound(gamma, q),
                "derived: geometric convolution bound"))
    return SweepResult(records, {"kind": "hardy-random", "seed": seed})


# ---------------------------------------------------------------------------
# Nikolskii inequality


def check_nikolskii(f, p, q, gamma):
    """ratio = ||f||_q / (gamma^{n(1/p-1/q)} ||f||_p), informational."""
    if not 0.0 < p <= q:
        raise ValueError("need 0 < p <= q")
    radii = _support_radius(f)
    radius = 0.0 if radii is None else radii[1]
    if radius > gamma * (1.0 + 1e-9):
        raise ValueError("spectral support radius %g exceeds gamma=%g"
                         % (radius, gamma))
    lhs = lp_norm(f, q)
    rhs = gamma ** (f.grid.n * (1.0 / p - 1.0 / q)) * lp_norm(f, p)
    return _make_record(
        "nikolskii[p=%g,q=%g,g=%g]" % (p, q, gamma),
        {"p": p, "q": _ex_json(q), "gamma": gamma,
         "support_radius": radius},
        lhs, rhs)


def envelope_field(grid, gamma):
    """Field with coefficients C(|xi|/gamma) for a fixed smooth envelope C.

    Growing gamma refines the sampling of the same envelope, the discrete
    analogue of dilation: the Nikolskii ratio must stabilize as gamma grows.
    The envelope reuses the smooth cutoff profile, C(t) = psi(3t/2):
    identically 1 up to t = 2/3, zero from t = 1.  C is read pointwise on
    the box that holds |xi| <= gamma only.
    """
    psi = smooth_cutoff()
    coeffs = np.zeros(grid.sizes, dtype=np.complex128)
    for _, lattice in _box_views(_axis_bounds(grid, gamma, closed=True),
                                 grid.sizes):
        xi = grid.xi_box(lattice)
        part = coeffs[lattice]
        part[...] = psi(1.5 * (xi / float(gamma)))
        part[xi > gamma] = 0.0
    return Field.from_spectral(grid, coeffs)


def _skipped(name, inputs, reason):
    """A record of a check that was not measured, with the reason why."""
    return AuditRecord(name, dict(inputs, skipped=reason), None, None,
                       float("nan"), verdict="skipped")


def nikolskii_scaling(grid, p, q):
    """Envelope-dilation stability of the Nikolskii ratio.

    One informational record per gamma of NIKOLSKII_GAMMAS plus one derived
    pass/fail record per consecutive pair: the ratio of ratios must stay
    within 5%.  A gamma above nyquist/2 is skipped, with every pair that
    uses it, and each skip is recorded with its reason: there |f|^q of the
    envelope can have a degree beyond the lattice size (q = 4 at gamma =
    nyquist reaches twice it), so the mean of the samples is not the torus
    integral and the grid's L_q is not the field's.
    """
    top = grid.nyquist / 2.0
    reason = "gamma above nyquist/2 = %g" % top
    records = []
    ratios = {}
    for gamma in NIKOLSKII_GAMMAS:
        if gamma > top:
            records.append(_skipped(
                "nikolskii[p=%g,q=%g,g=%g]" % (p, q, gamma),
                {"p": p, "q": _ex_json(q), "gamma": gamma}, reason))
            continue
        rec = check_nikolskii(envelope_field(grid, gamma), p, q, gamma)
        records.append(rec)
        ratios[gamma] = rec.ratio
    for ga, gb in zip(NIKOLSKII_GAMMAS, NIKOLSKII_GAMMAS[1:]):
        name = "nikolskii-scaling[p=%g,q=%g,g=%g->%g]" % (p, q, ga, gb)
        inputs = {"p": p, "q": _ex_json(q), "gammas": [ga, gb]}
        if ga not in ratios or gb not in ratios:
            records.append(_skipped(name, inputs, reason))
            continue
        a, b = ratios[ga], ratios[gb]
        records.append(_make_record(
            name, inputs, max(a / b, b / a), 1.0, SCALING_GATE,
            "derived: envelope dilation invariance"))
    return records


# ---------------------------------------------------------------------------
# Lemma estimates (i)-(iv)


def _besov_sup(blocks, s, p):
    """||f|B^s_{p,inf}|| from the blocks of f, its `decompose` stack or its
    bands as `dyadic._bands` streams them, bitwise `besov_norm`; a zero
    field is refused."""
    value = lq_of_lp(blocks, s, p, INF)
    if value == 0.0:
        raise ValueError("zero field has no usable reference norm")
    return value


def _calibrated(name, inputs, ratio):
    """The record of a lemma estimate's worst ratio, gated by
    CALIBRATION_GATE."""
    return _make_record(name, inputs, ratio, 1.0, CALIBRATION_GATE,
                        "derived: calibration-frozen")


def _qj_norms(f, s, p, t, sys):
    """(||f|B^s_{p,inf}||, [||Q_j f||_t for j = 0..jmax]), both read
    through one grid-sized array (`dyadic._bands`, `dyadic._lows`)."""
    out = _lattice(f.grid.sizes)
    base = _besov_sup(_bands(f, sys, out), s, p)
    return base, [lp_norm(low, t) for low in _lows(f, sys, out)]


def _eps_qj(s, p, j):
    if s < 0.0:
        return 2.0 ** (-j * s)
    if s > 0.0:
        return 1.0
    return (j + 1.0) ** (1.0 / min(1.0, p))


def _qj_lp_sequence(f, s, p, sys):
    """(||f|B^s_{p,inf}||, the eps_j-normalized ||Q_j f||_p for j =
    0..jmax as an array)."""
    base, norms = _qj_norms(f, s, p, p, sys)
    return base, np.array([qn / _eps_qj(s, p, j)
                           for j, qn in enumerate(norms)])


def check_qj_lp(f, s, p, sys, trend_gate=None, label=""):
    """Lemma estimate for low-pass norms: ||Q_j f||_p <= c eps_j ||f|B^s_{p,inf}||.

    ratio is the worst j, gated by CALIBRATION_GATE; the growth of the
    normalized sequence over the top three j is recorded (and gated when
    trend_gate is given).
    """
    base, seq = _qj_lp_sequence(f, s, p, sys)
    ratio_seq = seq / base
    growth = float(max(seq[-3:]) / seq[-3]) if len(seq) >= 3 else 1.0
    inputs = {"s": s, "p": p, "field": label, "trend_growth": growth}
    rec = _calibrated("qj_lp[s=%g,p=%g]%s" % (s, p, label), inputs,
                      float(ratio_seq.max()))
    if trend_gate is not None and rec.verdict != "fail":
        if growth > trend_gate + RATIO_SLACK:
            rec.verdict = "fail"
            rec.bound_provenance += "; trend gate %g exceeded" % trend_gate
    return rec


def qj_lp_flatness(f, s, p, sys, label=""):
    """s < 0 calibration: eps_j-normalized low-pass norms flat within 4x."""
    if not s < 0.0:
        raise ValueError("flatness gate applies to s < 0")
    base, seq = _qj_lp_sequence(f, s, p, sys)
    seq = seq[2:] / base
    value = float(seq.max() / seq.min())
    return _calibrated("qj_lp-flatness[s=%g,p=%g]%s" % (s, p, label),
                       {"s": s, "p": p, "field": label}, value)


def check_delta_lt(f, s, p, t, sys, label=""):
    """Block norms against ||Delta_j f||_t <= c 2^{(n/p-n/t-s)j} ||f|B^s_{p,inf}||,
    the worst j gated by CALIBRATION_GATE.

    Each block's L_t is read as `dyadic._bands` hands the block to the
    reference norm, in one grid-sized array; an all-zero block reads 0.
    """
    if not 0.0 < p <= t:
        raise ValueError("need p <= t")
    lts = []

    def blocks():
        for block in _bands(f, sys, _lattice(f.grid.sizes)):
            lts.append(0.0 if block is None else lp_norm(block, t))
            yield block

    base = _besov_sup(blocks(), s, p)
    n = f.grid.n
    worst = 0.0
    for j, lt in enumerate(lts):
        rhs = 2.0 ** ((n / p - n * (1.0 / t) - s) * j) * base
        worst = max(worst, lt / rhs)
    return _calibrated("delta_lt[s=%g,p=%g,t=%g]%s" % (s, p, t, label),
                       {"s": s, "p": p, "t": _ex_json(t), "field": label},
                       worst)


def qj_lt_endpoint(s, p, n):
    """The largest admissible t in the low-pass cross-norm estimate:
    1/(1/p - s/n)_+ (inf when s >= n/p)."""
    gap = 1.0 / p - s / n
    return INF if gap <= 0.0 else 1.0 / gap


def _qj_lt_at_endpoint(s, p, t, n):
    """Whether t is the endpoint of the cross-norm estimate at dimension n;
    ValueError unless p < t <= endpoint."""
    tstar = qj_lt_endpoint(s, p, n)
    if not p < t or (t != INF and t > tstar * (1.0 + 1e-12)) \
            or (t == INF and tstar != INF):
        raise ValueError("need p < t <= %g" % tstar)
    return (t == tstar) or (t != INF and abs(t - tstar) <= 1e-12)


def check_qj_lt(f, s, p, t, sys, label=""):
    """Cross-norm low-pass estimate with its endpoint-sensitive eps_j, the
    worst j gated by CALIBRATION_GATE.

    Strictly inside p < t < endpoint, eps_j = 1; at t = endpoint, eps_j =
    (j+1)^{1/min(1,t)}.
    """
    at_endpoint = _qj_lt_at_endpoint(s, p, t, f.grid.n)
    base, norms = _qj_norms(f, s, p, t, sys)
    worst = 0.0
    for j, qn in enumerate(norms):
        eps = (j + 1.0) ** (1.0 / min(1.0, t)) if at_endpoint else 1.0
        worst = max(worst, qn / (eps * base))
    return _calibrated(
        "qj_lt[s=%g,p=%g,t=%g,%s]%s"
        % (s, p, t, "endpoint" if at_endpoint else "strict", label),
        {"s": s, "p": p, "t": _ex_json(t),
         "endpoint": at_endpoint, "field": label}, worst)


def _qsup(f, sys):
    """sup_j |Q_j f|, a running maximum over the levels read through one
    grid-sized array (`dyadic._lows`): bitwise the maximum of
    |q_j(f, j, sys).physical| over j, since a magnitude does not read the
    sign of an exactly-zero sample, the one bit in which the line path's
    samples can differ (`dyadic._line_samples`)."""
    lows = _lows(f, sys, _lattice(f.grid.sizes))
    top = np.abs(next(lows))
    mags = np.empty_like(top)
    for low in lows:
        np.maximum(top, np.abs(low, out=mags), out=top)
    return top


def check_maximal_qsup(f, p, sys, label=""):
    """Maximal low-pass bound: ||sup_j |Q_j f|||_p <= c ||f|F^0_{p,2}||."""
    if not 0.0 < p < INF:
        raise ValueError("need 0 < p < inf")
    lhs = lp_norm(_qsup(f, sys), p)
    rhs = triebel_norm(f, SpaceSpec("F", 0.0, p, 2.0), sys)
    return _make_record("maximal_qsup[p=%g]%s" % (p, label),
                        {"p": p, "field": label}, lhs, rhs)


# ---------------------------------------------------------------------------
# The frozen lemma suite (what `lemmas` runs)

class Lemma(NamedTuple):
    """One record family of the lemma suite: its section, the bank entry
    its check reads (None: a hardy row reads the suite's sequence, a
    nikolskii row the grid), the check, and the exponents passed after
    the field."""

    section: str
    entry: object
    check: object
    exponents: tuple


_TRENDED = functools.partial(check_qj_lp, trend_gate=TREND_GATE)
_BAND = "random-band[s=%g,p=%g]"

# the suite in record order; a qj_lp or delta_lt row reads the random-band
# entry of its own (s, p).  Exponents are floats, as the params JSON
# writes them.
LEMMAS = (
    *(Lemma("hardy", None, check_hardy, (gamma, q))
      for gamma in HARDY["gammas"] for q in HARDY["qs"]),
    *(Lemma("nikolskii", None, nikolskii_scaling, pq)
      for pq in ((1.0, INF), (2.0, 4.0))),
    *(Lemma("maximal", name, check_maximal_qsup, (p,))
      for name in ("lacunary-geometric", _BAND % (1, 2),
                   "smoothed-step[w=0.25]") for p in (1.0, 2.0)),
    Lemma("qj_lp", "lacunary-geometric", check_qj_lp, (1.0, 2.0)),
    *(Lemma("qj_lp", _BAND % sp, _TRENDED, sp) for sp in (
        (1.0, 2.0), (-1.0, 2.0), (0.0, 2.0), (0.0, 1.0), (-1.0, 1.0))),
    *(Lemma("qj_lp", _BAND % sp, qj_lp_flatness, sp)
      for sp in ((-1.0, 2.0), (-1.0, 1.0))),
    *(Lemma("delta_lt", _BAND % spt[:2], check_delta_lt, spt) for spt in (
        (1.0, 1.0, 2.0), (0.5, 2.0, INF), (-1.0, 2.0, 4.0), (0.5, 0.5, 1.0))),
    Lemma("delta_lt", "lacunary-geometric", check_delta_lt, (1.0, 2.0, 2.0)),
    # the qj_lt exponents hold at n = 1 only
    Lemma("qj_lt", _BAND % (0.5, 2), check_qj_lt, (0.25, 2.0, 3.0)),  # strict
    Lemma("qj_lt", _BAND % (0.5, 2), check_qj_lt, (0.25, 2.0, 4.0)),  # t = t*
    Lemma("qj_lt", _BAND % (1, 2), check_qj_lt, (1.0, 2.0, 8.0)),  # t* = inf
    Lemma("qj_lt", _BAND % (0.5, 2), check_qj_lt, (0.5, 2.0, INF)),  # t = t*
)
LEMMA_SECTIONS = tuple(dict.fromkeys(row.section for row in LEMMAS))


def _qj_lt_refusal(grid, s, p, t):
    try:
        _qj_lt_at_endpoint(s, p, t, grid.n)
    except ValueError as exc:
        return "qj_lt[s=%g,p=%g,t=%g]: %s at n = %d" % (s, p, t, exc, grid.n)


def _nikolskii_refusal(grid, p, q):
    need = NIKOLSKII_GAMMAS[1]  # every pair is skipped below it
    if grid.nyquist / 2.0 < need:
        size = min(grid.sizes) * 2 ** math.ceil(math.log2(
            2.0 * need / grid.nyquist))
        return ("nikolskii[p=%g,q=%g]: the nikolskii section measures no "
                "gamma pair on this grid: gamma %g lies above nyquist/2 = "
                "%g; use %d points per axis or more"
                % (p, q, need, grid.nyquist / 2.0, size))


# why a row cannot run on a grid (None if it can), by section, in the
# order the rules are checked
_REFUSALS = {"qj_lt": _qj_lt_refusal, "nikolskii": _nikolskii_refusal}


def lemma_suite(grid, sys, only=None, seed=811):
    """Run the rows of `LEMMAS` in section only (every row when None).

    An unknown section, qj_lt exponents the dimension does not admit, or a
    nikolskii row whose grid measures no gamma pair, is refused with
    ValueError before any row runs, naming the section and the row.  Each
    bank entry the rows read is built once and kept as its spectrum only
    (no check reads the samples), serves every row that reads it, and is
    released before the next is built; records come out in table order.
    meta holds the verdict counts and the skipped records
    (`SweepResult.summarize`).  A system on another grid is refused first.
    """
    sys.check_grid(grid)
    if only is not None and only not in LEMMA_SECTIONS:
        raise ValueError("unknown section %r (have %s)"
                         % (only, ", ".join(LEMMA_SECTIONS)))
    rows = [row for row in LEMMAS if only in (None, row.section)]
    for section, refusal in _REFUSALS.items():
        for row in rows:
            reason = row.section == section and refusal(grid, *row.exponents)
            if reason:
                raise ValueError("lemmas section %s, row %s"
                                 % (section, reason))
    recipes = dict(bank_specs(grid, seed=seed))
    sources = {"hardy": lambda: np.abs(
                   np.random.default_rng([seed, 97]).standard_normal(48)),
               "nikolskii": lambda: grid}
    keys = [row.entry or row.section for row in rows]
    slots = [()] * len(rows)
    for key in dict.fromkeys(keys):
        subject = (sources[key]() if key in sources else Field.from_spectral(
            grid, materialize(recipes[key], sys).spectral))
        for i, row in enumerate(rows):
            if keys[i] == key:
                out = (row.check(subject, *row.exponents) if row.entry is None
                       else row.check(subject, *row.exponents, sys,
                                      label=row.entry))
                slots[i] = out if isinstance(out, list) else [out]
        del subject
    result = SweepResult([rec for out in slots for rec in out], meta={
        "kind": "lemma-suite",
        "grid": {"n": grid.n, "sizes": list(grid.sizes),
                 "period": grid.period},
        "seed": seed, "only": only or "all",
    })
    result.summarize()
    return result


# ---------------------------------------------------------------------------
# Embedding and multiplication sweeps


def _check_embedding(pair, n, mode):
    report = check_embedding_hypotheses(pair[0], pair[1], n, mode)
    if not report.satisfied:
        raise ValueError("embedding hypotheses unsatisfied: %s"
                         % ", ".join(report.failed()))


def _embedding_sweeps(pairs, bank, sys):
    """One SweepResult per (source, target) pair over bank, a list of
    (name, item) pairs as `bank_specs` gives them.

    An item, a recipe or a Field, is streamed band by band by the worker
    that measures it (`testbank._item_bands`) through one pass of
    `norms._band_norms`, for every distinct spec of every pair, in its own
    grid-sized buffers, the band's a work lattice (`grid._lattice`); no
    block stack is made.
    """
    specs = list(dict.fromkeys(spec for pair in pairs for spec in pair))
    n = sys.grid.n
    workspace = per_worker(lambda: (
        _lattice(sys.grid.sizes), _norm_work(specs, sys.grid.sizes)))

    def run(entry):
        name, item = entry
        band, work = workspace()
        # work[0] holds a band's magnitudes only while `_band_norms` reads
        # that band, so the generator takes the next band's there too
        values = dict(zip(specs, _band_norms(
            _item_bands(item, sys, band, work[0]), specs, sys.jmax + 1,
            work)))
        return [_make_record(
            "embedding[%s->%s]" % (source.label(), target.label()),
            {"field": name, "source": source.label(),
             "target": target.label(), "n": n},
            values[target], values[source]) for source, target in pairs]

    rows = map_ordered(run, bank)
    return [SweepResult([row[k] for row in rows], {
        "kind": "embedding",
        "pair": [source.label(), target.label()],
        "grid": {"n": n, "sizes": list(sys.grid.sizes)},
    }) for k, (source, target) in enumerate(pairs)]


def audit_embedding(pair, bank, sys, mode=None):
    """Measured norm_target / norm_source over a field bank.

    Refuses to run when the hypothesis report is unsatisfied, naming the
    failed conditions.  bank is a list of (name, item) pairs, as
    `bank_specs` gives them, each item a recipe or a Field; a recipe is
    measured as `run_audit_manifest` measures it, and both norms come from
    the one pass over an item's blocks.
    """
    _check_embedding(pair, sys.grid.n, mode)
    return _embedding_sweeps([pair], bank, sys)[0]


def _check_multiplication(params, q, mode, grid, N=None, p=None):
    """Refuse a multiplication set the audit cannot run on this grid, and
    return the integrability p it runs with.

    Raises ValueError for unsatisfied theorem hypotheses, a gap N that
    `_checked_gap` refuses (Pi_1 would be empty above jmax), or a p that is
    not positive or whose 1/p lies outside the admissible interval.
    """
    report = check_theorem_hypotheses(params, q, grid.n, mode)
    if not report.satisfied:
        raise ValueError("theorem hypotheses unsatisfied: %s"
                         % ", ".join(report.failed()))
    _checked_gap(len(params), N, grid.jmax)
    if p is None:
        return pick_admissible_p(report)
    if not p > 0.0:
        raise ValueError("p = %r is not positive" % (p,))
    lo, hi, closed = report.derived["inv_p_interval_capped"]
    ip = 1.0 / p
    if not (lo < ip < hi or (closed and ip == hi)):
        raise ValueError("1/p = %g outside the admissible interval "
                         "(%g, %g%s" % (ip, lo, hi, "]" if closed else ")"))
    return p


def audit_multiplication(params, q, mode, tuples, sys, N=None, p=None):
    """Per-tuple empirical constants for the multiplication embedding.

    lhs = triebel_norm(product; s1, p, q); rhs_core = triebel_norm(f1; s1,
    p1, q) * prod_i besov_norm(f_i; s_i, p_i, inf).  Also records the same
    ratio for the paraproduct parts sum_k Pi_{1,k} and Pi_2 separately, and
    a slot-scaling invariance check: all three ratios recomputed with f1
    scaled by 1000 must agree to 1e-9 relative.  The second pass takes the
    blocks of 1000 f1 as 1000 times those of f1 and forms the product from
    the spectrum of 1000 f1, so its drift is the rounding residue of the
    pipeline (see `_tuple_records`).  A grid whose jmax is below the gap N
    is refused with ValueError: Pi_1 would have no band terms there.
    """
    p = _check_multiplication(params, q, mode, sys.grid, N, p)
    mset = _MultSet(params, q, mode, list(tuples), N, p)
    return _multiplication_sweep([mset], sys)[0]


class _MultSet(NamedTuple):
    """A multiplication set as the sweep runs it: its tuples, each one
    recipe or Field per slot, the gap N (None for the minimum) and the
    integrability p it was checked with."""

    params: list
    q: float
    mode: str
    tuples: list
    N: int
    p: float


def _multiplication_sweep(sets, sys):
    """One sweep over the tuple index for every multiplication set at one
    resolution: one SweepResult per set, as `audit_multiplication` gives it.

    sets holds a `_MultSet` for each set that `_check_multiplication` has
    passed on this grid, with the p it returned; `run_audit_manifest`
    checks every set at every resolution before any field is built and then
    calls this once per resolution.  Set k's tuple t is sets[k].tuples[t].

    The worker that takes index t serves every set that has a tuple t, and
    builds each distinct item of those tuples once (`testbank._item_stack`).
    A random-band recipe gets a stack in the worker's buffers that holds
    the unit band samples U_j of the stream it draws from, built once for
    every set, and each set takes the field and the band scales c_j of its
    own targets (s, p), with Delta_j f = c_j U_j.  Any other item gets a
    stack, its blocks with scales 1.0 and 0.0, only when a tuple that holds
    it splits on an unpadded lattice, the one place a stack of it is read
    (`paraproduct._stack_sources`); otherwise its blocks are streamed where
    they are measured (`dyadic._bands`).  A block is written only where it
    is read, band by band into the norms' and the split's work arrays.
    Each set's tuple then runs its two passes, f1 and 1000 f1, in
    `_tuple_records`, which streams the product side through the norm
    accumulators, so no stack of the product is held.  With Fields the
    values are those of `decompose_product` with `triebel_norm` and
    `besov_norm`: bitwise for the product and the right side of the first
    pass, at rounding level for Pi_1, Pi_2 and the second pass; random-band
    recipes move the norms at rounding level too, and give the bits of the
    generator's blocks (`testbank._item_bands`).
    """
    m_top = max(len(mset.params) for mset in sets)
    # the work of `norms._band_norms` for the right side's F spec, or of
    # the product side's three accumulators, which share one key (s1, q)
    # with it; an F spec at p = q has none
    f_rows = max(max(_work_rows([_f_spec(mset, mset.params[0][1])]),
                     _work_rows([_f_spec(mset, mset.p)], 3))
                 for mset in sets)
    grid = sys.grid

    def buffers():
        # items: the stacks of a tuple index, grown on demand; rest holds
        # the samples of f2..fm on an unpadded lattice; f_work is the work
        # array of the F-norms, which they reduce, so it stays C-contiguous;
        # items and work take transforms in place, as work lattices
        # (`grid._lattice`)
        return {"items": [],
                "rest": [np.empty(grid.sizes, dtype=np.complex128)
                         for _ in range(m_top - 1)],
                "f_work": np.empty((f_rows,) + grid.sizes),
                "work": [_lattice(grid.sizes) for _ in range(m_top + 2)]}

    workspace = per_worker(buffers)

    def run(t):
        buf = workspace()
        cache = {}
        handed = 0  # stacks handed out for index t

        def new_stack():
            nonlocal handed
            if handed == len(buf["items"]):
                buf["items"].append(_lattice(grid.sizes, sys.jmax + 1))
            handed += 1
            return buf["items"][handed - 1]

        def factor(item, stacked):
            # f_work and work are free until a tuple's norms and split run,
            # so an unstacked bump is built in work[0]
            return _item_stack(item, sys, cache, new_stack,
                               buf["f_work"][0],
                               None if stacked else buf["work"][0])

        return [_tuple_records(mset, t, factor, buf, sys)
                if t < len(mset.tuples) else [] for mset in sets]

    nested = map_ordered(run, range(max(len(mset.tuples) for mset in sets)))
    return [SweepResult([r for group in nested for r in group[k]], {
        "kind": "multiplication", "mode": mset.mode, "p": mset.p,
        "q": _ex_json(mset.q),
        "params": [[si, _ex_json(pi)] for si, pi in mset.params],
        "grid": {"n": grid.n, "sizes": list(grid.sizes)},
    }) for k, mset in enumerate(sets)]


def _f_spec(mset, p):
    """The F spec (s1, p, q) of the `_MultSet` mset."""
    return SpaceSpec("F", mset.params[0][0], p, mset.q)


def _tuple_records(mset, t, factor, buf, sys):
    """The four records of tuple t of the `_MultSet` mset, made in the
    worker buffers buf of `_multiplication_sweep`.

    factor(item, stacked) gives (field, stack, scales) of an item of the
    tuple (`testbank._item_stack`), with Delta_j f_i = scales[j] stack[j];
    a non-random item has a stack only if stacked, or if another set's
    tuple t stacked it before, and its blocks are streamed by
    `dyadic._bands` otherwise.  The fields come first, for the product
    lattice (`paraproduct._product_lattice`); only an unpadded lattice
    stacks them.

    The tuple runs twice, with f1 and with 1000 f1, and both passes read
    one set of facts about the factors: the B-norms of f2..fm, the product
    lattice (1000 f1 has the nonzero coefficients of f1, so the lattice is
    found once) and, on an unpadded lattice, the samples of f2..fm,
    transformed once into the worker's buffers.  A padded split transforms
    them in each pass, so that no padded samples are held through a band
    loop.  Each pass hands its first factor a f1, a = 1 or 1000, to the
    F-norm of the right side and to `paraproduct._split_product`, as f1's
    own stack with the scales a c_j where it has one, so no pass decomposes
    or copies a first factor; the split forms the product from the samples
    of the pass's first factor times those of f2..fm.  Then one band loop
    windows and transforms Delta_j P of the product P into work[0] and
    Delta_j Pi_1 into work[1] (`dyadic._bands`), feeds both to their
    accumulators, and forms Delta_j Pi_2 = Delta_j P - Delta_j Pi_1 in
    place for the third (`norms._NormAccumulator`), so the product side
    holds no block stack.  The scaling check compares the ratios of the two
    passes.  Since 1000 is not a power of two, the scaled blocks and the
    product of 1000 f1 round apart from 1000 times those of f1, so the
    drift is a real rounding residue of the pipeline, not zero by
    construction.
    """
    params, q, mode, tuples, N, p = mset
    m = len(params)
    f_spec, f1_spec = _f_spec(mset, p), _f_spec(mset, params[0][1])
    facts = [factor(item, False) for item in tuples[t]]
    big = _product_lattice([fact[0] for fact in facts])
    stacked = big == sys.grid.sizes
    fields, stacks, scales = (list(part) for part in zip(*(
        factor(item, True) if stacked and fact[1] is None else fact
        for item, fact in zip(tuples[t], facts))))
    work = buf["work"][:m + 2]

    def blocks(i, scale=1.0):
        # Delta_j (scale f_i) band by band, in one work array
        if stacks[i] is None:
            return (b if b is None or scale == 1.0
                    else np.multiply(b, scale, out=b)
                    for b in _bands(fields[i], sys, work[0]))
        return (np.multiply(u, scale * c, out=work[0])
                for u, c in zip(stacks[i], scales[i]))

    b_norms = [lq_of_lp(blocks(i), s, pi, INF)
               for i, (s, pi) in enumerate(params[1:], 1)]
    rest = None  # transformed in each pass
    if stacked:
        rest = [_padded_values(f.spectral, big, out)
                for f, out in zip(fields[1:], buf["rest"])]

    def ratios(first, scale):
        rhs = _band_norms(blocks(0, scale), [f1_spec], sys.jmax + 1,
                          buf["f_work"])[0]
        for b in b_norms:
            rhs *= b
        split_scales = list(scales)
        if stacked:
            split_scales[0] = [scale * c for c in scales[0]]
        product, pi1 = _split_product([first] + fields[1:], sys, N, stacks,
                                      split_scales, work, big, rest)
        # the accumulators of P, Pi_1 and Pi_2
        sides = [_NormAccumulator([f_spec], sys.jmax + 1, rows)
                 for rows in _lockstep_rows(buf["f_work"], [f_spec], 3)]
        for block, pi1_block in zip(_bands(product, sys, work[0]),
                                    _bands(pi1, sys, work[1])):
            sides[0].add(block)
            sides[1].add(pi1_block)
            if pi1_block is not None:
                # work[0] holds Delta_j P, zeros where block is None
                block = np.subtract(work[0], pi1_block, out=work[0])
            sides[2].add(block)
        return (rhs,) + tuple(side.values()[0] for side in sides)

    rhs, lhs_total, lhs_pi1, lhs_pi2 = ratios(fields[0], 1.0)
    base = {"tuple": t, "mode": mode, "q": _ex_json(q), "p": p,
            "params": [[si, _ex_json(pi)] for si, pi in params]}
    out = [
        _make_record("mult-total[%s,m=%d]" % (mode, m),
                     base, lhs_total, rhs),
        _make_record("mult-pi1[%s,m=%d]" % (mode, m),
                     base, lhs_pi1, rhs),
        _make_record("mult-pi2[%s,m=%d]" % (mode, m),
                     base, lhs_pi2, rhs),
    ]
    rhs2, tot2, pi12, pi22 = ratios(1000.0 * fields[0], 1000.0)
    # the largest relative gap of the ratio pairs not both 0; NaN fails
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.array([lhs_total, lhs_pi1, lhs_pi2]) / rhs
        b = np.array([tot2, pi12, pi22]) / rhs2
        gaps = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    drift = float(np.max(gaps, where=(a != 0.0) | (b != 0.0), initial=0.0))
    out.append(_make_record(
        "mult-scaling[%s,m=%d]" % (mode, m), base,
        drift, 1.0, RATIO_SLACK, "derived: slot 1-homogeneity"))
    return out


def _stability_record(name, inputs, ratios):
    worst = 1.0
    for a, b in zip(ratios, ratios[1:]):
        if a > 0.0 and b > 0.0:
            worst = max(worst, a / b, b / a)
    return _make_record(name, inputs, worst, 1.0, STABILITY_FACTOR,
                        "derived: resolution stability gate")


def run_audit_manifest(manifest):
    """Execute an audit manifest (dict or JSON text), read along
    `_inputs.MANIFEST`: embeddings and multiplication sets at each listed
    resolution in turn (`_resolution_sweeps`), plus resolution-stability
    gates on each max ratio.  Every table, hypothesis, admissible p and gap
    is checked before any dyadic system or field is built, and a refusal is
    a ValueError naming the path.  Records keep the order embedding by
    embedding, then set by set, resolution by resolution; meta holds their
    verdict counts and skipped records (`SweepResult.summarize`).
    """
    if isinstance(manifest, str):
        manifest = json.loads(manifest)
    given, manifest = manifest, read(manifest, MANIFEST, "manifest")
    n = manifest.get("n", 1)
    resolutions = list(manifest.get("resolutions", [128, 256]))
    if not resolutions and (manifest.get("embeddings")
                            or manifest.get("multiplications")):
        raise ValueError("manifest.resolutions: expected at least 1 size "
                         "when embeddings or multiplications are listed")
    seed = manifest.get("seed", 811)

    combined = SweepResult(meta={
        "kind": "audit", "n": n, "resolutions": resolutions, "seed": seed,
    })

    # gates: per sweep, the pairs' and then the sets', the prefix of its
    # records, its stability row and that row's inputs
    pairs, gates = [], []
    for item in manifest.get("embeddings", []):
        pair = (SpaceSpec(**item["source"]), SpaceSpec(**item["target"]))
        _check_embedding(pair, n, item.get("mode"))
        pairs.append(pair)
        labels = [side.label() for side in pair]
        gates.append(("embedding", "embedding-stability[%s->%s]"
                      % tuple(labels), {"pair": labels}))

    grids = [build_grid(n, size) for size in resolutions]
    sets = []
    for item, raw in zip(manifest.get("multiplications", []),
                         given.get("multiplications", [])):
        params = [(float(s), float(p)) for s, p in item["params"]]
        q = float(item.get("q", INF))
        # the p each resolution runs with, as its check resolved it
        ps = [_check_multiplication(params, q, item["mode"], grid,
                                    item.get("gap"), item.get("p"))
              for grid in grids]
        sets.append((item, params, q, ps))
        gates.append(("mult-total", "mult-stability[%s,m=%d]"
                      % (item["mode"], len(params)),
                      {"mode": item["mode"], "params": raw["params"]}))

    # by_size[i][k]: sweep k at resolution i
    by_size = []
    for i, grid in enumerate(grids if pairs or sets else ()):
        msets = [_MultSet(params, q, item["mode"], [
            tuple_specs(grid, params, seed, t)
            for t in range(item.get("tuples", 6))], item.get("gap"), ps[i])
            for item, params, q, ps in sets]
        by_size.append(_resolution_sweeps(pairs, msets, grid, seed))

    for k, (prefix, name, inputs) in enumerate(gates):
        maxima = []
        for size, sweeps in zip(resolutions, by_size):
            sweep = sweeps[k]
            for r in sweep.records:
                r.inputs = dict(r.inputs, size=size)
                r.name += "[size=%d]" % size
            combined.extend(sweep.records)
            maxima.append(sweep.max_ratio(prefix))
        combined.records.append(_stability_record(
            name, dict(inputs, resolutions=resolutions), maxima))

    combined.summarize()
    return combined


def _resolution_sweeps(pairs, msets, grid, seed):
    """The embedding sweeps of pairs and the multiplication sweep of msets
    at one resolution, on a dyadic system built here and freed on return:
    one SweepResult per pair, then one per set."""
    sys = build_dyadic_system(grid)
    sweeps = []
    if pairs:
        sweeps += _embedding_sweeps(pairs, bank_specs(grid, seed=seed), sys)
    if msets:
        sweeps += _multiplication_sweep(msets, sys)
    return sweeps
