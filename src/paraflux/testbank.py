"""Deterministic field generators with independently known norms.

Each generator is a pure function of its parameters (seeds included), and
every generated field is band-limited to |xi| <= nyquist/m_max so that
m_max-fold products stay alias-free.  The lacunary and random-band
constructions place all their content on the plateaus of the annular
windows, where exactly one window equals 1 and its neighbors vanish; that
makes their Besov/Triebel norms available in closed form.

A recipe (`GeneratorSpec`) is plain data, read along the tables
`_inputs.SPEC` and `_inputs.PARAMS`; `materialize` builds its field, a
bump or step included (`spec_for("gaussian-bump", grid, width=0.4)`).
The bank (`bank_specs`) and each multiplication tuple (`tuple_specs`) are
lists of recipes, and the audits take an item's blocks from this module
only (`_item_bands`, `_item_stack`).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._inputs import check_spec
from .dyadic import (DyadicSystem, _axis_bounds, _bands, _box_views,
                     _confined_ifftn, _decompose_into)
from .grid import Field, Grid, _transform
from .norms import _power, sequence_norm

__all__ = [
    "GeneratorSpec", "materialize", "plateau_frequency", "lacunary_field",
    "LacunaryField", "random_band_field", "pure_wave", "constant_field",
    "bank_specs", "band_limit", "tuple_fields",
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
    if len(kvec) != grid.n:
        raise ValueError("wavenumber vector %r has %d entries on a grid of "
                         "%d axes" % (tuple(kvec), len(kvec), grid.n))
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
        if sys._at(j, idx) != 1.0:
            raise ValueError("frequency %d off the plateau of window %d"
                             % (k, j))
        for jn in (j - 1, j + 1):
            if 0 <= jn <= sys.jmax and sys._at(jn, idx) != 0.0:
                raise ValueError("window %d does not vanish at frequency %d"
                                 % (jn, k))
        coeffs[idx] = amp
    out = LacunaryField(grid, coeffs)
    out.amplitudes = amplitudes
    return out


def random_band_field(grid, s, p, seed, sys, m_max=DEFAULT_MAX_ARITY):
    """Random-phase field with lp_norm(Delta_j f) = 2^(-js) on each band.

    Each usable band's plateau points (inside the band limit) get
    unit-modulus coefficients with phases from a per-band PCG64 stream, then
    the band is rescaled to hit the target block norm exactly.  Since all
    content sits on plateaus, besov_norm(f; s, p, inf) = 1 by construction.
    """
    return _band_scales(grid, s, p,
                        _unit_bands(grid, seed, sys, m_max, None))[0]


_M32 = (1 << 32) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341


def _seed_hash(const, mult):
    """SeedSequence's 32-bit hash, whose constant advances by mult on
    every call (hashmix from (0x43b0d7e5, 0x931e8875), the output hash of
    generate_state from (0x8b51f9dd, 0x58f38ded))."""
    def hash_word(value):
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hash_word


def _pcg64_uniform(entropy, n):
    """n doubles in [0, 1), bitwise np.random.default_rng(entropy).random(n),
    without importing numpy.random.

    entropy is a nonnegative int or a sequence of them, as SeedSequence
    takes it: each is split into 32-bit words, least significant first,
    hashed into a pool of 4 words and expanded into 4 64-bit words, which
    seed PCG64 (O'Neill 2014: a 128-bit LCG with XSL-RR output).  A double
    is the top 53 bits of one output times 2^-53.
    """
    words = []
    for word in (entropy if isinstance(entropy, (list, tuple))
                 else [entropy]):
        word = operator.index(word)
        if word < 0:
            raise ValueError("expected non-negative integer")
        words.append(word & _M32)
        while word > _M32:
            word >>= 32
            words.append(word & _M32)

    def mix(x, y):
        result = (0xca01f9dd * x - 0x4973f715 * y) & _M32
        return result ^ result >> 16

    hashmix = _seed_hash(0x43b0d7e5, 0x931e8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): 8 words from the pool, paired little-endian
    out = _seed_hash(0x8b51f9dd, 0x58f38ded)
    state_words = [out(pool[i % 4]) for i in range(8)]
    seed = [state_words[2 * k] | state_words[2 * k + 1] << 32
            for k in range(4)]

    # set_seed: state 0, inc = 2 seq + 1, step, add the seed state, step
    inc = ((seed[2] << 64 | seed[3]) << 1 | 1) & _M128
    state = (inc + (seed[0] << 64 | seed[1])) & _M128
    state = (state * _PCG_MULT + inc) & _M128
    states = bytearray()
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _M128
        states += state.to_bytes(16, "little")
    # XSL-RR: the xor of the two halves rotated right by the top 6 bits
    low, high = np.frombuffer(states, dtype="<u8").reshape(-1, 2).T
    rot = high >> np.uint64(58)
    x = low ^ high
    x = x >> rot | x << (-rot & np.uint64(63))
    return (x >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _unit_bands(grid, seed, sys, m_max, out):
    """The unit band samples of the random-band stream `seed`, band by band.

    Yields (points, phases, samples) for j = 0..jmax: the flat indices of
    band j's plateau points under the band limit, the unit-modulus
    coefficients placed there (phases from the PCG64 stream [seed, j]), and
    U_j, the samples of that content.  A band without plateau points
    yields (None, None, zeros).  The samples are out[j] for a stack out, or
    else one array for every band (out, or one made here if None), read
    before the next band.  The stream depends on the grid, seed and m_max
    only, not on the targets (s, p) of a field.
    """
    cap = band_limit(grid, m_max)
    if out is None:
        out = np.empty(grid.sizes, dtype=np.complex128)
    for j in range(sys.jmax + 1):
        values = out if out.shape == grid.sizes else out[j]
        values[...] = 0.0
        points = sys._plateau(j, cap)
        if points.size == 0:
            yield None, None, values
            continue
        phases = np.exp(2j * np.pi * _pcg64_uniform([int(seed), j],
                                                    points.size))
        np.put(values, points, phases)
        yield points, phases, _confined_ifftn(values, sys._reach[j])


def _band_size(mags, p):
    """L_p(|U_j|) of one band's unit samples from their magnitudes, which
    it overwrites, as the generator normalises the band (`_power`, bitwise
    np.power)."""
    if p == math.inf:
        return float(mags.max())
    return float(np.mean(_power(mags, p, out=mags)) ** (1.0 / p))


def _band_scale(s, j, size):
    """c_j = 2^(-js) / L_p(U_j) of band j from its size L_p(U_j);
    ValueError where a large |s| or p takes it out of the floats."""
    if 0.0 < size < math.inf and -float(s) * j < 1024.0:
        return 2.0 ** (-float(s) * j) / size
    raise ValueError("random-band band %d: 2^(-js) / L_p(U_j) leaves the "
                     "floats at s = %g, L_p(U_j) = %g" % (j, s, size))


_NO_PLATEAU = "no usable plateau frequencies under the band limit"


def _band_scales(grid, s, p, bands, sizes=None):
    """(field, scales) of the random-band field with targets (s, p) drawn
    from bands, the items of `_unit_bands`.

    Band j's scale is c_j = 2^(-js) / L_p(U_j), and 0 for a band without
    plateau points; the field's spectrum is c_j times the unit content on
    each band, so its block Delta_j f is c_j U_j.  sizes, when given, holds
    L_p(U_j) for every band with plateau points (`_band_size`), so that
    recipes with the same stream and p measure its bands once.
    """
    coeffs = np.zeros(grid.npoints, dtype=np.complex128)
    scratch = np.empty(grid.sizes) if sizes is None else None
    scales = []
    for j, (points, phases, values) in enumerate(bands):
        if points is None:
            scales.append(0.0)
            continue
        size = _band_size(np.abs(values, out=scratch), p) \
            if sizes is None else sizes[j]
        scale = _band_scale(s, j, size)
        coeffs[points] += phases * scale
        scales.append(scale)
    if not any(scales):
        raise ValueError(_NO_PLATEAU)
    return Field.from_spectral(grid, coeffs.reshape(grid.sizes)), scales


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


def _truncate_real(grid, a, cap):
    """Band-limit the real samples held in a to |xi| <= cap radially and
    renormalize them to max 1, in place.

    a is a C-contiguous complex array of the grid's shape with zero
    imaginary part: it is transformed to its coefficients, truncated,
    transformed back and normalised where it is, and its imaginary part is
    zeroed again.  Every transform here has the coefficient normalization
    of `Field`; on power-of-two sizes (`Grid`) its 1/npoints scaling is
    exact, so the bits are those of numpy's default pair.  The
    cut reads |xi| on the box |k_a| <= b_a that holds the band limit only;
    every point off it lies beyond.  A field's spectrum is the forward
    transform of the real part of the truncated samples, so it carries
    rounding residue beyond the band limit.
    """
    np.fft.fftn(a, out=a, norm="forward")
    bounds = _axis_bounds(grid, cap, closed=True)
    for axis, (b, size) in enumerate(zip(bounds, grid.sizes)):
        a[(slice(None),) * axis + (slice(b + 1, size - b),)] = 0.0
    for _, lattice in _box_views(bounds, grid.sizes):
        part = a[lattice]
        part[grid.xi_box(lattice) > cap] = 0.0
    _confined_ifftn(a, bounds)
    real = a.real
    top = max(real.max(), -real.min())
    if top == 0.0:
        raise ValueError("field vanished under band limiting")
    real /= top
    a.imag = 0.0


def _bump_samples(grid, params, out=None):
    """The samples of a gaussian-bump recipe with params, band-limited
    (`_truncate_real`), written into out and returned.

    A bump is the periodized Gaussian of sigma width about center, snapped
    to the lattice; `check_spec` has refused a width that is not positive.
    out is a C-contiguous complex array of the grid's shape, or None for a
    new one; its contents are not read.  The audits build in a buffer they
    hold and keep the forward transform only (`_item_field`);
    `materialize` hands a new array to `Field.from_physical`, which keeps
    it as the field's samples.
    """
    if out is None:
        out = np.empty(grid.sizes, dtype=np.complex128)
    width = float(params.get("width", 0.5))
    center = params.get("center")
    if center is None:
        center = (grid.period / 2.0,) * grid.n
    center = [round(float(c) / h) * h
              for c, h in zip(np.atleast_1d(center), grid.spacing)]
    # r2 summed over the axes in order, each axis broadcast; the last sum,
    # and exp(-r2 / (2 width^2)) in place, go into the real part
    r2 = 0.0
    for axis, (size, c) in enumerate(zip(grid.sizes, center)):
        x = np.arange(size) * (grid.period / size)
        d = (np.mod(x - c + grid.period / 2.0, grid.period)
             - grid.period / 2.0)
        d2 = (d * d).reshape((-1,) + (1,) * (grid.n - 1 - axis))
        r2 = np.add(r2, d2, out=out.real if axis == grid.n - 1 else None)
    np.negative(r2, out=r2)
    r2 /= 2.0 * width ** 2
    np.exp(r2, out=r2)
    out.imag = 0.0
    _truncate_real(grid, out, band_limit(
        grid, params.get("m_max", DEFAULT_MAX_ARITY)))
    return out


def _step_field(grid, params, samples=True):
    """The field of a smoothed-step recipe with params, the
    Gaussian-smoothed indicator of [period/4, 3 period/4] along axis 1,
    bitwise its build on the whole lattice: its samples along axis 1 are
    band-limited (`_truncate_real`) on a 1-D grid of that axis's size and
    period under the band limit of grid, and its spectrum is one 1-D
    transform of them on the k_2 = ... = k_n = 0 line.  When samples is set
    (`materialize`) the field keeps them as its samples, on a grid of two
    or three axes written along the later axes into one new C-contiguous
    lattice array.
    """
    w = float(params.get("edge_width", 0.25))
    P = grid.period
    a, b = P / 4.0, 3.0 * P / 4.0
    x = np.arange(grid.sizes[0]) * (P / grid.sizes[0])  # the x_1 axis
    values = np.zeros(grid.sizes[0])
    for wrap in range(-2, 3):
        shift = wrap * P
        values += 0.5 * (_erf((x - a + shift) / (math.sqrt(2.0) * w))
                         - _erf((x - b + shift) / (math.sqrt(2.0) * w)))
    line = values.astype(np.complex128)
    _truncate_real(Grid(1, grid.sizes[:1], P), line, band_limit(
        grid, params.get("m_max", DEFAULT_MAX_ARITY)))
    coeffs = np.zeros(grid.sizes, dtype=np.complex128)
    coeffs[(slice(None),) + (0,) * (grid.n - 1)] = np.fft.fft(
        line, norm="forward")
    if not samples:
        return Field(grid, coeffs)
    lifted = line
    if grid.n > 1:
        lifted = np.empty(grid.sizes, dtype=np.complex128)
        lifted[...] = line.reshape((-1,) + (1,) * (grid.n - 1))
    return Field(grid, coeffs, lifted)


def _on_line(item, grid):
    """Whether the field of an embedding audit's item lies on the
    k_2 = ... = k_n = 0 line of a grid of two or three axes, read from its
    recipe, so that no spectrum is scanned while a bump's is alive: a
    lacunary sum, a constant, a step, or a wave whose k has no component
    past the first; a Field or any other recipe is taken as not."""
    if grid.n == 1 or not isinstance(item, GeneratorSpec):
        return False
    if item.kind == "pure-wave":
        k = item.params["k"]
        return np.isscalar(k) or not any(k[1:])
    return item.kind in ("lacunary", "constant", "smoothed-step")


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
    """Serializable recipe for one generated field (`_inputs.SPEC`)."""

    kind: str
    params: dict = dc_field(default_factory=dict)
    grid: dict = dc_field(default_factory=dict)

    def to_json(self):
        payload = {"kind": self.kind, "params": self.params,
                   "grid": self.grid}
        return json.dumps(payload, sort_keys=True, separators=(",", ": "))

    @classmethod
    def from_json(cls, text):
        """The recipe in JSON text, checked (`check_spec`)."""
        payload = json.loads(text)
        check_spec(payload)
        return cls(kind=payload["kind"], params=payload.get("params", {}),
                   grid=payload["grid"])


def spec_for(kind, grid, **params):
    return GeneratorSpec(kind=kind, params=params,
                         grid={"n": grid.n, "sizes": list(grid.sizes),
                               "period": grid.period})


def _spec_grid(spec, sys):
    """The grid to build a recipe on once `check_spec` passes it: sys.grid,
    which must match the spec's, or without a dyadic system a new Grid."""
    check_spec({"kind": spec.kind, "grid": spec.grid, "params": spec.params})
    g = spec.grid
    shape = (g["n"], tuple(g["sizes"]), g.get("period", 2.0 * np.pi))
    if sys is None:
        return Grid(*shape)
    if shape != (sys.grid.n, sys.grid.sizes, sys.grid.period):
        raise ValueError("provided dyadic system does not match spec grid")
    return sys.grid


def materialize(spec, sys=None):
    """Build the field of a GeneratorSpec read along `_inputs.PARAMS`
    (bitwise reproducible); given a dyadic system, on its grid, which must
    match the spec's."""
    grid = _spec_grid(spec, sys)
    params = spec.params
    kind = spec.kind
    if kind in ("lacunary", "random-band") and sys is None:
        sys = DyadicSystem(grid)
    m_max = params.get("m_max", DEFAULT_MAX_ARITY)
    if kind == "random-band":
        return random_band_field(grid, params["s"], params["p"],
                                 params["seed"], sys, m_max)
    if kind == "lacunary":
        amps = {int(j): complex(re, im)
                for j, (re, im) in params["amplitudes"].items()}
        return lacunary_field(grid, amps, sys)
    if kind == "gaussian-bump":
        return Field.from_physical(grid, _bump_samples(grid, params))
    if kind == "smoothed-step":
        return _step_field(grid, params)
    if kind == "pure-wave":
        return pure_wave(grid, params["k"])
    return constant_field(grid, params.get("value", 1.0))


def _item_field(item, sys, out):
    """The field of an audit item other than a random-band recipe, with
    the spectrum of `materialize`: a Field as it is; a bump recipe built
    in out (`_bump_samples`), a complex array of the grid's shape that the
    caller overwrites next, and a step recipe from its samples along axis
    1 (`_step_field`), so either field keeps its spectrum only; any other
    recipe materialized."""
    if not isinstance(item, GeneratorSpec):
        return item
    if item.kind == "smoothed-step":
        return _step_field(_spec_grid(item, sys), item.params, False)
    if item.kind != "gaussian-bump":
        return materialize(item, sys)
    grid = _spec_grid(item, sys)
    return Field(grid, _transform(np.fft.fftn, _bump_samples(
        grid, item.params, out)))


def _item_bands(item, sys, out, scratch):
    """The blocks of an audit item, a recipe or a Field, as `dyadic._bands`
    yields a field's into out: a random-band recipe's c_j U_j from its
    generator, without building the field, each band's magnitudes taken
    into scratch, a real array of the grid's shape; any other item's
    windowed from its field (`_item_field`), a bump built in out before
    its bands overwrite it, and a field on the k_2 = ... = k_n = 0 line
    (`_on_line`) taking one 1-D transform per band."""
    if not isinstance(item, GeneratorSpec) or item.kind != "random-band":
        yield from _bands(_item_field(item, sys, out), sys, out,
                          _on_line(item, sys.grid))
        return
    grid = _spec_grid(item, sys)
    params = item.params
    live = False
    for j, (points, _, values) in enumerate(_unit_bands(
            grid, params["seed"], sys,
            params.get("m_max", DEFAULT_MAX_ARITY), out)):
        if points is None:
            yield None
            continue
        values *= _band_scale(params["s"], j, _band_size(
            np.abs(values, out=scratch), params["p"]))
        live = True
        yield values
    if not live:
        raise ValueError(_NO_PLATEAU)


def _item_stack(item, sys, cache, new_stack, scratch, out=None,
                line=False):
    """(field, stack, scales) of an audit item on sys, with Delta_j f =
    scales[j] stack[j] for every item given a stack.  A random-band
    recipe's stack holds the unit samples U_j of its stream (seed, m_max)
    and its scales are c_j; any other item's field is decomposed into its
    stack, and its scales are 1.0 on a band with content and 0.0 on an
    exactly-zero band, read as the field is decomposed.  Either way a block
    is zero exactly when its scale is.  A bump is built in stack[0]
    (`_item_field`) before the blocks overwrite it, and a field on the
    k_2 = ... = k_n = 0 line (line true, as the caller read it from the
    extents) takes one 1-D transform per block.

    Given out, a complex array of the grid's shape, a non-random item is
    not decomposed: its field is built (a bump in out) and its
    stack and scales are None, for a caller that streams its blocks
    (`dyadic._bands`); a later call without out decomposes it into a stack
    then, and an item stacked before keeps its stack.

    cache maps a stream to its units, its `_unit_bands` items and the band
    sizes L_p(U_j) of each p drawn so far (measured in scratch, a real
    array of the grid's shape), and another recipe (by its JSON) or a Field
    (by its id, the entry keeping it alive) to its result.  A new stack is
    new_stack(), so recipes that differ only in their targets (s, p) share
    one set of transforms, and those that share p one set of sizes.  The
    field is bitwise that of `materialize`.
    """
    recipe = isinstance(item, GeneratorSpec)
    if not recipe or item.kind != "random-band":
        key = item.to_json() if recipe else id(item)
        field, stack, scales = cache.get(key, (None, None, None))
        if stack is None and out is None:
            stack = new_stack()
            if field is None:
                field = _item_field(item, sys, stack[0])
            scales = [1.0 if block.any() else 0.0
                      for block in _decompose_into(field, sys, stack, line)]
        elif field is None:
            field = _item_field(item, sys, out)
        cache[key] = field, stack, scales
        return cache[key]
    grid = _spec_grid(item, sys)
    params = item.params
    key = (params["seed"], params.get("m_max", DEFAULT_MAX_ARITY))
    if key not in cache:
        units = new_stack()
        cache[key] = units, list(_unit_bands(grid, key[0], sys, key[1],
                                              units)), {}
    units, bands, sizes = cache[key]
    p = params["p"]
    if p not in sizes:
        sizes[p] = [None if points is None
                    else _band_size(np.abs(values, out=scratch), p)
                    for points, _, values in bands]
    field, scales = _band_scales(grid, params["s"], p, bands, sizes[p])
    return field, units, scales


def bank_specs(grid, seed=811):
    """The recipes of the standard bank, in bank order: [(name, spec)].

    Lacunary families with three amplitude laws, random-band fields across
    smoothness/integrability targets (seeds seed, seed + 1, ...), bumps,
    steps, waves, and the constant; all respect the band limit for
    products of DEFAULT_MAX_ARITY factors.  A recipe is plain data, so a
    caller builds each field with `materialize` only when it needs it.
    """
    m_max = DEFAULT_MAX_ARITY
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


def _tuple_slot(grid, params, seed, t, i):
    s, p = params[i]
    return spec_for("random-band", grid, s=s,
                    p=2.0 if p == math.inf else min(p, 4.0),
                    seed=seed * 1000 + t * 10 + i, m_max=DEFAULT_MAX_ARITY)


def tuple_specs(grid, params, seed, t):
    """The recipes of tuple t for a theorem parameter list [(s_i, p_i)],
    one per slot.

    Slot i is a random-band field from the stream [seed, t, i], whatever
    its targets (s_i, p_i), so tuples of different parameter lists share
    their streams slot by slot; tuple 0 swaps a smoothed step into slot 2
    to exercise a non-random factor.
    """
    specs = [_tuple_slot(grid, params, seed, t, i)
             for i in range(len(params))]
    if t == 0 and len(specs) >= 2:
        specs[1] = spec_for("smoothed-step", grid, edge_width=0.25,
                            m_max=DEFAULT_MAX_ARITY)
    return specs


def tuple_fields(grid, sys, params, seed, t):
    """Tuple t built: the fields of `tuple_specs` on sys.grid.

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
