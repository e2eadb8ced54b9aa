"""The outside inputs of paraflux as tables, and the one checker, `read`.

An audit manifest (`audit.run_audit_manifest`) and a generator spec
(`testbank.materialize`) are tables, one per object: a dict from each key
the object takes to a `Key`, the key's kind with its range, whether it is
required and what null reads as (README.md, section Inputs, lists them).
A kind is a table, or the type dict for an object with any keys; a Num, a
number in [lo, hi] that `what` names, an integer if integer, with "inf" if
word; a Choice of strings, in any case if fold; a List of items of one
kind, one per grid axis if per_axis, or one item alone if scalar; a Pair
of two named items; or a Map from band indices, integers >= 0 or their
decimal strings, to values of one kind.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple

from .norms import INF, _FAMILY_ALIASES

_MAX = math.nextafter(INF, 0.0)  # the largest float
_TINY = math.ulp(0.0)  # the least positive float: v >= _TINY means v > 0
_REFUSED = object()
_FAST = {False: (int, float), True: (int,)}  # read without an ABC check

Key = namedtuple("Key", "kind required null", defaults=(False, _REFUSED))
Num = namedtuple("Num", "lo hi what integer word", defaults=(False, False))
Choice = namedtuple("Choice", "values what fold", defaults=(False,))
List = namedtuple("List", "item per_axis scalar", defaults=(False, False))
Pair = namedtuple("Pair", "keys")
Map = namedtuple("Map", "value")


def _text(path):
    """path as text: a string, or (parent, format, key), written out only
    when a refusal names it."""
    return path if type(path) is str else path[1] % (_text(path[0]), path[2])


def _refuse(path, what, value):
    raise ValueError("%s: expected %s, got %s" % (_text(path), what, type(
        value).__name__ if isinstance(value, (dict, list, tuple))
        else repr(value)))


def read(value, kind, path, quote=False, axes=None):
    """value as the program reads it along kind, a kind or a `Key`, or
    ValueError naming path, before anything is built from it.  "inf" reads
    as infinity and null as its meaning; a dict or list comes back itself
    unless an entry reads to another value, so a spec is not copied.  quote
    writes a key into the path as ['key'], not .key; axes is the grid's n.
    A key's path is written out only if it is refused (`_text`).
    """
    if type(kind) is Key:
        if value is None and kind.null is not _REFUSED:
            return kind.null
        kind = kind.kind
    t = type(kind)
    if t is Num:
        if kind.word and value == "inf":
            return INF
        if type(value) not in _FAST[kind.integer] and (isinstance(
                value, bool) or not isinstance(
                value, numbers.Integral if kind.integer else numbers.Real)):
            _refuse(path, "an integer" if kind.integer else
                    'a number or "inf"' if kind.word else "a number", value)
        if not kind.lo <= value <= kind.hi:
            _refuse(path, kind.what, value)
        return value
    if t is Choice:
        if not isinstance(value, str) or (
                value.lower() if kind.fold else value) not in kind.values:
            raise ValueError("%s: unknown %s %r (have %s)" % (
                _text(path), kind.what, value, ", ".join(kind.values)))
        return value
    at = "%s[%r]" if quote else "%s.%s"
    if t is dict or t is Map or kind is dict:
        if not isinstance(value, dict):
            _refuse(path, "an object", value)
        if kind is dict:
            return value
        if t is Map:
            if not all(isinstance(j, numbers.Integral) and j >= 0 or
                       isinstance(j, str) and j.isdecimal() for j in value):
                _refuse(path, "band indices, integers >= 0, as keys", value)
            kind = dict.fromkeys(value, kind.value)
        name = repr if quote else str
        missing = [name(k) for k, key in kind.items()
                   if type(key) is Key and key.required and k not in value]
        extra = value.keys() - kind.keys()
        if missing or extra:
            raise ValueError("%s: %s" % (_text(path), "missing " + ", ".join(
                missing) if missing else "unknown key " + ", ".join(
                sorted(map(name, extra)))))
        entries = ((k, v, kind[k], (path, at, k)) for k, v in value.items())
    elif not isinstance(value, (list, tuple)) or (t is Pair
                                                  and len(value) != 2):
        if t is List and kind.scalar:
            return read(value, kind.item, path, quote, axes)
        _refuse(path, "a list" if t is List else "an [%s] pair"
                % ", ".join(kind.keys), value)
    elif t is Pair:
        entries = ((i, v, key, (path, "%s.%s", name)) for i, (v, (
            name, key)) in enumerate(zip(value, kind.keys.items())))
    else:
        if kind.per_axis and len(value) != axes:
            raise ValueError("%s: expected one entry per axis, %d, got %d"
                             % (_text(path), axes, len(value)))
        entries = ((i, v, kind.item, (path, "%s[%d]", i))
                   for i, v in enumerate(value))
    out = value
    for slot, item, sub, where in entries:
        got = read(item, sub, where, quote, axes)
        if got is not item:
            if out is value:
                out = dict(value) if isinstance(value, dict) else list(value)
            out[slot] = got
    return out


FINITE = Num(-_MAX, _MAX, "a finite number")
EXPONENT = Num(_TINY, INF, 'a positive number or "inf"', word=True)
DIMENSION = Num(1, 3, "1, 2 or 3", integer=True)
# a power of two too (`grid.Grid`); FLD1 keeps an axis size in a u32
SIZES = List(Num(16, 2 ** 31, "at least 16 and at most 2^31", True))
SEED = Num(0, INF, "at least 0", integer=True)

SPACE = {"family": Key(Choice(tuple(_FAMILY_ALIASES), "family", True), True),
         "s": Key(FINITE, True), "p": Key(EXPONENT, True),
         "q": Key(EXPONENT, True)}
EMBEDDING = {"source": Key(SPACE, True), "target": Key(SPACE, True),
             # null: inferred from the two families
             "mode": Key(Choice(("same-family", "franke-jawerth"), "mode"),
                         null=None)}
MULTIPLICATION = {
    "mode": Key(Choice(("positive", "negative"), "mode"), True),
    "params": Key(List(Pair({"s": Key(FINITE),
                             "p": Key(EXPONENT, null=INF)})), True),
    "q": Key(EXPONENT, null=INF),
    "tuples": Key(Num(1, 10000, "at least 1 and at most 10000", True)),
    # ranged by the set and grid (`audit._check_multiplication`); null: p
    # inside its interval, the least gap
    "p": Key(Num(-INF, INF, 'a number or "inf"', word=True), null=None),
    "gap": Key(Num(-INF, INF, "an integer", True), null=None)}
MANIFEST = {"n": Key(DIMENSION), "resolutions": Key(SIZES),
            "seed": Key(SEED), "embeddings": Key(List(EMBEDDING)),
            "multiplications": Key(List(MULTIPLICATION))}

GRID = {"n": Key(DIMENSION, True), "sizes": Key(SIZES, True),
        "period": Key(Num(_TINY, _MAX, "a positive finite number"))}
# beyond these, 2 width^2, or a coordinate over the grid spacing, leaves
# the floats
SPAN = Key(Num(1e-100, 1e100, "a number in [1e-100, 1e100]"))
M_MAX = Key(Num(1, _MAX, "a finite number >= 1"))
PARAMS = {
    "lacunary": {"amplitudes": Key(Map(Pair(
        {"re": Key(FINITE), "im": Key(FINITE)})), True)},
    "random-band": {"s": Key(FINITE, True),
                    "p": Key(Num(_TINY, INF, "a positive number"), True),
                    "seed": Key(SEED, True), "m_max": M_MAX},
    # center null: the centre of the torus
    "gaussian-bump": {"width": SPAN, "m_max": M_MAX, "center": Key(List(
        Num(-1e100, 1e100, "a number in [-1e100, 1e100]"), per_axis=True),
        null=None)},
    "smoothed-step": {"edge_width": SPAN, "m_max": M_MAX},
    "pure-wave": {"k": Key(List(Num(-2 ** 30, 2 ** 30 - 1, "at least -2^30"
                                    " and at most 2^30 - 1", integer=True),
                                per_axis=True, scalar=True), True)},
    "constant": {"value": Key(FINITE)},
}
SPEC = {"kind": Key(Choice(tuple(PARAMS), "generator kind"), True),
        "grid": Key(GRID, True), "params": Key(dict)}


def check_spec(spec):
    """Refuse a generator spec, a dict, off SPEC or its kind's params."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    root = "%s spec" % kind if isinstance(kind, str) else "spec"
    read(spec, SPEC, root, True)
    read(spec.get("params", {}), PARAMS[kind], root + "['params']", True,
         spec["grid"]["n"])
