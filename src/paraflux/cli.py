"""paraflux command line: norms, product decompositions, and audit sweeps.

Every command is a pure function of its flags (plus the PARAFLUX_THREADS
worker cap, which never changes values, only scheduling), so two runs with
the same flags write byte-identical output.  Exit codes: 0 clean, 1 a hard
numerical assertion failed, 2 invalid configuration (a grid that does not
fit in memory included), 3 I/O trouble.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
import tempfile

from . import fldio
from .audit import RATIO_SLACK, _num, lemma_suite, run_audit_manifest
from .dyadic import build_dyadic_system
from .grid import build_grid
from .norms import SpaceSpec, _ex_json, space_norms
from .paraproduct import (_checked_gap, _enum_refusal, decompose_product,
                          dump_decomposition)
from .testbank import (GeneratorSpec, bank_specs, materialize, pure_wave,
                       spec_for, tuple_fields)

__all__ = ["main"]


class ConfigError(ValueError):
    """Bad flag combination or bad input values: exit code 2, as for any
    ValueError."""


def _exponent(text):
    try:
        return float(text)  # SpaceSpec refuses nan
    except ValueError:
        raise ConfigError("not an exponent: %r (use a number or 'inf')"
                          % (text,))


def _emit(text, out_path):
    if out_path is None:
        _sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _check_out(path):
    """Refuse, as an I/O error and before any work, an output file whose
    directory does not exist or is not a directory, or that is one."""
    if path is None:
        return
    folder = os.path.dirname(path) or os.curdir
    if not os.path.isdir(folder):
        raise NotADirectoryError("cannot write %s: no directory %s"
                                 % (path, folder))
    if os.path.isdir(path):
        raise IsADirectoryError("cannot write %s: it is a directory" % path)


def _check_out_dir(path):
    """Refuse, as an I/O error and before any work, an output directory
    that is a file or lies under one; nothing is created.  Returns the
    nearest directory that exists at or above path."""
    folder = path
    while folder and not os.path.exists(folder):
        folder = os.path.dirname(folder)
    if folder and not os.path.isdir(folder):
        raise NotADirectoryError("cannot write %s: %s is not a directory"
                                 % (path, folder))
    return folder or os.curdir


def _build(args):
    grid = build_grid(args.dim, args.grid)
    return grid, build_dyadic_system(grid)


def _load_field(path, grid=None):
    field = fldio.read_field(path)
    if grid is not None and not field.grid.compatible(grid):
        raise ConfigError("field in %s lives on %r, expected %r"
                          % (path, field.grid, grid))
    return field


def _check_resolved_wave(sys_, k):
    """Refuse the wave exp(i k x_1) unless cutoff(jmax), the sum of the
    windows, is exactly 1.0 at it: beyond, its norms would be vacuous.
    It is read on axis 1 of its box, k = 0..b then -b..-1, and is 0 off it."""
    axis = sys_._low(sys_.jmax)[(slice(None),) + (0,) * (sys_.grid.n - 1)]
    b = axis.size // 2
    if abs(k) > b or axis[k] != 1.0:
        largest = max(K for K in range(b + 1) if axis[K] == 1.0)
        raise ConfigError("wave %d lies outside the partition region of this "
                          "grid, where the windows sum to 1; the largest |K| "
                          "accepted is %d" % (k, largest))


# ---------------------------------------------------------------------------


def cmd_norm(args):
    _check_out(args.out)
    if args.s is None or args.p is None:
        raise ConfigError("norm needs at least one --s and --p")
    s_list = [float(v) for v in args.s]
    p_list = [_exponent(v) for v in args.p]
    q_list = [_exponent(v) for v in (args.q or [])]
    count = max(len(s_list), len(p_list), len(q_list) or 1)

    def widen(values, name, fallback=None):
        if not values and fallback is not None:
            return [fallback] * count
        if len(values) == 1:
            return values * count
        if len(values) != count:
            raise ConfigError("%s given %d times, expected 1 or %d"
                              % (name, len(values), count))
        return values

    s_list = widen(s_list, "--s")
    p_list = widen(p_list, "--p")
    q_list = widen(q_list, "--q", fallback=math.inf)

    if args.infile is not None:
        field = _load_field(args.infile)
        grid = field.grid
        sys_ = build_dyadic_system(grid)
        source = args.infile
    elif args.wave is not None:
        grid, sys_ = _build(args)
        field = pure_wave(grid, args.wave)
        _check_resolved_wave(sys_, args.wave)
        source = "wave k=%d" % args.wave
    else:
        raise ConfigError("norm needs --in FILE or --wave K")

    families = ["B", "F"] if args.space is None else [args.space]
    specs = [SpaceSpec(fam, s, p, q)
             for s, p, q in zip(s_list, p_list, q_list)
             for fam in families if not (fam == "F" and p == math.inf)]
    rows = list(zip(specs, space_norms(field, specs, sys_)))

    if args.json:
        payload = {
            "field": source,
            "grid": {"n": grid.n, "sizes": list(grid.sizes),
                     "period": grid.period},
            "norms": [{"space": spec.label(), "family": spec.family,
                       "s": spec.s,
                       "p": _ex_json(spec.p), "q": _ex_json(spec.q),
                       "value": value}
                      for spec, value in rows],
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n",
              args.out)
    else:
        lines = ["%s  %s" % (spec.label(), _num(value))
                 for spec, value in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_decompose(args):
    grid = build_grid(args.dim, args.grid)
    if args.infile:
        if len(args.infile) < 2:
            raise ConfigError("decompose needs at least two --in files")
        m = len(args.infile)
    else:
        m = args.m
        if m < 2:
            raise ConfigError("--m must be at least 2")
    gap = _checked_gap(m, args.gap, grid.jmax)
    _check_out_dir(args.out)
    sys_ = build_dyadic_system(grid)
    if args.infile:
        fields = [_load_field(path, grid) for path in args.infile]
    else:
        params = [(1.0, 2.0)] * m
        fields = list(tuple_fields(grid, sys_, params, args.seed, 0))
    pd = decompose_product(fields, sys_, gap)
    report = dump_decomposition(pd, sys_, args.out, bands=args.dump_bands)

    recon = pd.pi1_total() + pd.pi2 - pd.product
    drift = recon.l2() / pd.product.l2() if pd.product.l2() > 0 else 0.0
    # whether the support report's Pi_2 entries were enumerated
    refusal = _enum_refusal(pd.m, sys_.jmax)
    enumeration = "ran" if refusal is None else "not run (%s)" % refusal
    summary = {
        "m": pd.m, "gap": pd.gap,
        "reconstruction_rel_l2": drift,
        "hard_annulus_pass": report.hard_all_pass,
        "claimed_annulus_rate": report.claimed_pass_rate,
        "pi2_enumeration": enumeration,
        "out": args.out,
    }
    if args.json:
        _emit(json.dumps(summary, sort_keys=True, indent=2,
                         default=str) + "\n", None)
    else:
        lines = [
            "m=%d gap=%d -> %s" % (pd.m, pd.gap, args.out),
            "reconstruction residual (rel l2): %s" % _num(drift),
            "hard annulus [2^(j-2), 2^(j+1)]: %s"
            % ("pass" if report.hard_all_pass else "FAIL"),
            "claimed annulus [2^(j-1), 2^(j+1)] rate: %s"
            % _num(report.claimed_pass_rate),
            "Pi_2 direct enumeration: %s" % enumeration,
        ]
        _emit("\n".join(lines) + "\n", None)
    if not report.hard_all_pass or drift > 1e-10:
        return 1
    return 0


def _emit_sweep(sweep, args):
    text = sweep.to_json() if args.json else sweep.to_csv()
    _emit(text, args.out)
    failures = sweep.failures()
    for rec in failures:
        # a ratio within its bound failed the gate its provenance names
        within = rec.ratio <= rec.reference_bound + RATIO_SLACK
        _sys.stderr.write("FAIL %s ratio=%s bound=%s%s\n" % (
            rec.name, _num(rec.ratio), _num(rec.reference_bound),
            " (%s)" % rec.bound_provenance if within else ""))
    return 1 if failures else 0


def cmd_lemmas(args):
    _check_out(args.out)
    grid, sys_ = _build(args)
    return _emit_sweep(lemma_suite(grid, sys_, only=args.only,
                                   seed=args.seed), args)


def cmd_audit(args):
    _check_out(args.out)
    with open(args.manifest) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("manifest %s: %s" % (args.manifest, exc))
    # the overrides replace manifest keys before run_audit_manifest checks
    # the layout; a manifest that is not an object is left to that check
    if isinstance(manifest, dict):
        if args.resolutions is not None:
            try:
                manifest["resolutions"] = [
                    int(r) for r in args.resolutions.split(",") if r]
            except ValueError:
                raise ConfigError("--resolutions wants a comma list of ints")
        if args.seed is not None:
            manifest["seed"] = args.seed
    return _emit_sweep(run_audit_manifest(manifest), args)


def cmd_gen(args):
    grid, sys_ = _build(args)
    jobs = []  # (stem, spec, the dyadic system to build it with)
    if args.bank:
        for name, spec in bank_specs(grid, seed=args.seed):
            jobs.append((name.replace("[", "_").replace("]", "")
                         .replace("=", "").replace(",", "_"), spec, sys_))
    for path in args.spec or []:
        with open(path) as fh:
            text = fh.read()
        try:
            spec = GeneratorSpec.from_json(text)
        except ValueError as exc:
            raise ConfigError("bad generator spec %s: %s" % (path, exc))
        stem = os.path.splitext(os.path.basename(path))[0]
        jobs.append((stem, spec, None))
    if args.wave is not None:
        jobs.append(("wave_k%d" % args.wave,
                     spec_for("pure-wave", grid, k=args.wave), sys_))
    if not jobs:
        raise ConfigError("gen needs --bank, --spec FILE, or --wave K")

    # each field is written as it is built, and moved into --out once every
    # spec is built: a spec refused as it is built leaves --out as it was
    with tempfile.TemporaryDirectory(prefix=".paraflux-gen-",
                                     dir=_check_out_dir(args.out)) as staged:
        index = []
        for stem, spec, system in jobs:
            fname = stem + ".fld"
            fldio.write_field(os.path.join(staged, fname),
                              materialize(spec, system))
            index.append({"file": fname, "spec": json.loads(spec.to_json())})
        with open(os.path.join(staged, "index.json"), "w") as fh:
            json.dump(index, fh, sort_keys=True, indent=2)
            fh.write("\n")
        os.makedirs(args.out, exist_ok=True)
        for name in os.listdir(staged):
            os.replace(os.path.join(staged, name),
                       os.path.join(args.out, name))
    _emit("wrote %d fields to %s\n" % (len(index), args.out), None)
    return 0


# ---------------------------------------------------------------------------


def _parser():
    top = argparse.ArgumentParser(
        prog="paraflux",
        description="Dyadic frequency decompositions, Besov/Triebel-Lizorkin"
                    " norms, paraproducts, and inequality audits on the"
                    " discrete torus.",
        epilog="PARAFLUX_THREADS caps sweep workers (default 1); results"
               " never depend on it.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, grid_default=64):
        p.add_argument("--grid", type=int, default=grid_default,
                       help="points per axis (default %d)" % grid_default)
        p.add_argument("--dim", type=int, default=1,
                       help="dimension n (default 1)")

    p = sub.add_parser("norm", help="print Besov/Triebel-Lizorkin norms")
    common(p)
    p.add_argument("--space", choices=["B", "F"],
                   help="one family only (default: both)")
    p.add_argument("--s", action="append", help="smoothness (repeatable)")
    p.add_argument("--p", action="append",
                   help="integrability, 'inf' ok (repeatable)")
    p.add_argument("--q", action="append",
                   help="summability, 'inf' ok (repeatable, default inf)")
    p.add_argument("--in", dest="infile", metavar="FILE",
                   help="read the field from an FLD1 file")
    p.add_argument("--wave", type=int, metavar="K",
                   help="use the pure wave exp(i K x) instead of a file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write output here instead of stdout")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("decompose",
                       help="paraproduct decomposition of a pointwise"
                            " product, with support verification")
    common(p, 128)
    p.add_argument("--m", type=int, default=2,
                   help="number of factors to generate (default 2)")
    p.add_argument("--gap", type=int,
                   help="band gap N (default: smallest safe value)")
    p.add_argument("--in", dest="infile", action="append", metavar="FILE",
                   help="factor field file (repeat m times)")
    p.add_argument("--seed", type=int, default=811)
    p.add_argument("--dump-bands", action="store_true",
                   help="also write every per-band term")
    p.add_argument("--out", default="paraflux-decomp",
                   help="artifact directory (default paraflux-decomp)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("lemmas",
                       help="run the inequality lemma suite on the frozen"
                            " field bank")
    common(p, 128)
    p.add_argument("--only", metavar="SECTION",
                   help="one section: hardy, nikolskii, maximal, qj_lp,"
                        " delta_lt, qj_lt")
    p.add_argument("--seed", type=int, default=811)
    p.add_argument("--json", action="store_true",
                   help="JSON instead of CSV")
    p.add_argument("--out", help="write the table here instead of stdout")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("audit",
                       help="embedding/multiplication audits from a JSON"
                            " manifest")
    p.add_argument("--manifest", required=True, metavar="FILE")
    p.add_argument("--resolutions", metavar="N,N",
                   help="override the manifest resolutions, e.g. 128,256")
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("gen", help="materialize field generators to FLD1")
    common(p)
    p.add_argument("--bank", action="store_true",
                   help="write the whole standard bank")
    p.add_argument("--spec", action="append", metavar="FILE",
                   help="generator spec JSON (repeatable)")
    p.add_argument("--wave", type=int, metavar="K")
    p.add_argument("--seed", type=int, default=811)
    p.add_argument("--out", default="paraflux-fields",
                   help="output directory (default paraflux-fields)")
    p.set_defaults(func=cmd_gen)

    return top


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except ValueError as exc:
        _sys.stderr.write("error: %s\n" % exc)
        return 2
    except MemoryError as exc:
        # the grid does not fit: a configuration error, not a numerical one
        _sys.stderr.write("error: out of memory: %s; use a smaller --grid\n"
                          % (str(exc) or "allocation failed"))
        return 2
    except OSError as exc:
        _sys.stderr.write("i/o error: %s\n" % exc)
        return 3


if __name__ == "__main__":
    _sys.exit(main())
