"""Command-line surface: rates, de, threshold, figure6, simulate.

`de` and `simulate` take a regular (d_v, d_c) ensemble, or a coupled
(d_v, d_c, L, w) chain when --L is given (--w defaults to 1).

Every output starts with a metadata header (version, full config, seed) so
that identical configs reproduce identical files.  CSV is the default
format; --format json mirrors the same fields (figure6 needs --out with it,
since it writes two documents).  Exit codes: 2 for usage
errors, 3 for numerical failures (a distribution off the simplex, or
decodability that is not monotone on a --verify-scan grid).  The header
of `de` echoes the iteration cap in force, and those of `threshold` and
`figure6` the cap and the bisection tolerance, defaults included.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, replace
from typing import List, Optional

import numpy as np

from . import __version__
from .channel import ChannelError, get_family
from .de_core import SimplexError
from .de_coupled import Caps, Ensemble, de_coupled, nominal_rate
from .rates import rate_bounds
from .simulate import failure_rate
from .threshold import MonotonicityError, find_threshold, sweep

EXIT_NUMERICAL = 3


def _caps(args, e: Ensemble) -> Caps:
    """The stopping settings in force for e.  They go back into args, so
    the header echoes the cap, and the tolerance where the command has one."""
    caps = Caps(l_max=args.lmax, tol=getattr(args, "tol", None)).for_ensemble(e)
    args.lmax = caps.l_max
    if hasattr(args, "tol"):
        args.tol = caps.tol
    return caps


def _emit(args, rows: List[dict], path=None) -> None:
    """Write rows to path, else to --out or stdout, after a header of the
    version and the settings in args that are not None.  The columns are
    the first row's keys, in their order."""
    out = path or args.out
    try:
        fh = open(out, "w") if out else sys.stdout
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from None
    config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    try:
        if args.format == "json":
            json.dump({"meta": {"version": __version__, "config": config}, "rows": rows}, fh,
                      indent=2, default=str)
            fh.write("\n")
        else:
            for key, val in sorted(config.items()):
                fh.write(f"# {key}={val}\n")
            fh.write(f"# version={__version__}\n")
            columns = list(rows[0])
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    finally:
        if out:
            fh.close()


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return "" if v is None else str(v)


def _family(args):
    return get_family(args.channel, args.channel_config)


def _coupled(d_v: int, d_c: int, L: int, w: int) -> Ensemble:
    """The ensemble of a coupled subcommand, which needs a chain (L >= 1)."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    return Ensemble(d_v, d_c, L, w)


def _ensemble(args) -> Ensemble:
    """The ensemble of `de` and `simulate`: a chain when --L is given, with
    w = 1 unless --w says otherwise, else the regular ensemble."""
    if args.L is not None:
        return _coupled(args.dv, args.dc, args.L, 1 if args.w is None else args.w)
    if args.w is not None:
        raise ValueError("--w needs a coupled chain (--L)")
    return Ensemble(args.dv, args.dc)


def _rate_rows(family, n: int) -> List[dict]:
    """Rate bounds on an n-point eps grid over [0, 1], one row per point."""
    if n < 2:
        raise ValueError(f"an eps grid spans [0, 1] with >= 2 points, got {n}")
    rows = []
    for eps in np.linspace(0.0, 1.0, n):
        rb = rate_bounds(family.eval(float(eps)))
        rows.append({"eps": float(eps), "r_df": rb.r_df, "r_df_prime": rb.r_df_prime,
                     "r_cf": rb.r_cf, "r_jcf_target": rb.r_jcf_target})
    return rows


def cmd_rates(args) -> int:
    _emit(args, _rate_rows(_family(args), args.grid))
    return 0


def cmd_de(args) -> int:
    e = _ensemble(args)
    if args.trace and e.coupled:
        # a trace copies the whole chain every iteration: O(l_max * L) memory
        raise ValueError("--trace needs the regular ensemble; a chain (--L) takes --profile")
    caps = _caps(args, e)
    if args.trace:
        snapshot_iters = range(1, caps.l_max + 1)
    else:
        snapshot_iters = {2**k for k in range(caps.l_max.bit_length())} if args.profile else ()
    res = de_coupled(e, _family(args).eval(args.eps), caps, snapshot_iters)
    if args.trace:
        rows = [
            {
                "iter": it,
                **{f"pvc{i + 1}": float(snap.pvc[0, i]) for i in range(5)},
                **{f"pcv{i + 1}": float(snap.pcv[0, i]) for i in range(5)},
                "p_dec": float(snap.p_dec[0]),
            }
            for it, snap in sorted(res.snapshots.items())
        ]
        _emit(args, rows, path=args.trace)
    if args.profile:
        iters = sorted(res.snapshots)
        rows = [
            {
                "position": pos - e.L,
                **{f"p_dec_iter_{k}": float(res.snapshots[k].p_dec[pos]) for k in iters},
            }
            for pos in range(e.n_var_positions)
        ]
        _emit(args, rows, path=args.profile)
    _emit(args, [{"min_p_dec": res.min_p_dec, "iterations": res.iterations_used,
                  "status": res.converged, "nominal_rate": nominal_rate(e)}])
    return 0


def cmd_threshold(args) -> int:
    family = replace(_family(args), p_pi=args.p_pi)
    e = Ensemble(*args.regular) if args.regular is not None else _coupled(*args.coupled)
    res = find_threshold(e, family, caps=_caps(args, e), verify_scan=args.verify_scan)
    _emit(args, [{"eps_thresh": res.eps_thresh, "eps_lo": res.eps_lo, "eps_hi": res.eps_hi,
                  "tol": res.tol, "evals": len(res.evals), "degenerate": res.degenerate,
                  "cap_limited": res.cap_limited}])
    return 0


def _parse_dv_list(spec: str) -> List[int]:
    if ".." in spec:
        lo, hi = spec.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in spec.split(",")]


def cmd_figure6(args) -> int:
    if args.format == "json" and not args.out:
        raise ValueError("--format json writes the rows and the rate curves as two "
                         "documents; give --out to write them to two files")
    family = _family(args)
    ensembles = [_coupled(dv, args.dc, args.L, args.w) for dv in _parse_dv_list(args.dv)]
    if not ensembles:
        raise ValueError(f"--dv {args.dv} names no d_v")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    # a p_pi out of range fails here, before any bisection
    punctured = [replace(family, p_pi=float(x)) for x in args.p_pi.split(",")]
    pairs = [(e, f) for e in ensembles for f in punctured]
    # every ensemble is a chain, so the first one's defaults are all of theirs
    caps = _caps(args, ensembles[0])
    curve_rows = _rate_rows(family, args.curve_grid)  # before the sweep: it checks the grid
    results = sweep(pairs, caps=caps, jobs=args.jobs)
    _emit(args, [{"d_v": e.d_v, "d_c": e.d_c, "L": e.L, "w": e.w, "p_pi": f.p_pi,
                  "nominal_rate": nominal_rate(e), "rate_pi": nominal_rate(e) / (1 - f.p_pi),
                  "eps_thresh": res.eps_thresh, "eps_lo": res.eps_lo, "eps_hi": res.eps_hi,
                  "evals": len(res.evals), "cap_limited": res.cap_limited}
                 for (e, f), res in zip(pairs, results)])

    # analytic overlay curves on an eps grid
    _emit(args, curve_rows, path=_curves_path(args))
    return 0


def _curves_path(args) -> Optional[str]:
    """The file beside --out to which figure6 writes its rate curves."""
    return f"{args.out}.curves.{args.format}" if args.out else None


def cmd_simulate(args) -> int:
    e = _ensemble(args)
    if e.coupled:
        if args.N is not None:
            raise ValueError("--N sizes the regular ensemble; a coupled chain (--L) takes --M")
        if args.M is None:
            raise ValueError("--M is required for coupled simulation")
        size = args.M
    else:
        if args.M is not None:
            raise ValueError("--M needs a coupled chain (--L)")
        if args.N is None:
            raise ValueError("--N is required for regular simulation")
        size = args.N
    family = replace(_family(args), p_pi=args.p_pi)
    stats = failure_rate(e, family, args.eps, size, args.trials, args.seed)
    _emit(args, [asdict(stats)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twemac-jcf",
        description="Density evolution and finite-length validation for joint "
        "compute-and-forward decoding over two-way erasure MACs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--channel", default="primary", help="channel family name")
        p.add_argument("--channel-config", help="config file with custom families")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output file (default stdout)")

    def ensemble(p):
        p.add_argument("--dv", type=int, required=True)
        p.add_argument("--dc", type=int, required=True)
        p.add_argument("--L", type=int, help="chain half-length (coupled; omit for regular)")
        p.add_argument("--w", type=int, help="coupling width (coupled, default 1)")
        p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("rates", help="rate bounds on an eps grid")
    common(p)
    p.add_argument("--grid", type=int, default=101)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("de", help="evolution at one eps")
    common(p)
    ensemble(p)
    p.add_argument("--lmax", type=int, default=None)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--trace", help="per-iteration trace CSV path (regular only)")
    grp.add_argument("--profile", help="per-position p_dec CSV path")
    p.set_defaults(func=cmd_de)

    p = sub.add_parser("threshold", help="bisect for the erasure threshold")
    common(p)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--regular", nargs=2, type=int, metavar=("DV", "DC"))
    grp.add_argument("--coupled", nargs=4, type=int, metavar=("DV", "DC", "L", "W"))
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--lmax", type=int, default=None)
    p.add_argument("--p-pi", type=float, default=0.0)
    p.add_argument("--verify-scan", type=int, default=None,
                   help="first check monotone decodability on an N-point eps grid, N >= 2")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("figure6", help="rate-vs-threshold sweep with analytic curves")
    common(p)
    p.add_argument("--dc", type=int, default=10)
    p.add_argument("--dv", default="3..9", help="range '3..9' or list '3,5,7'")
    p.add_argument("--L", type=int, default=200)
    p.add_argument("--w", type=int, default=10)
    p.add_argument("--p-pi", default="0", help="comma list of puncture probabilities")
    # a list such as -0.1,0.2 is a value, not an option, so the range check sees it
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--lmax", type=int, default=None)
    p.add_argument("--curve-grid", type=int, default=201)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_figure6)

    p = sub.add_parser("simulate", help="finite-length Monte Carlo failure rates")
    common(p)
    ensemble(p)
    p.add_argument("--N", type=int, help="codeword length (regular)")
    p.add_argument("--M", type=int, help="variables per position (coupled)")
    p.add_argument("--p-pi", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    return parser


def _check_outputs(args) -> None:
    """Reject an output path that is a directory, lies in a missing one, or
    names the same file as another output or as the --channel-config input,
    before any work runs."""
    paths = [(f"--{name}", getattr(args, name, None)) for name in ("out", "trace", "profile")]
    if args.func is cmd_figure6:
        paths.append(("the curves file of --out", _curves_path(args)))
    config = args.channel_config
    # the input, then the first output, that names each file
    named = {os.path.realpath(config): "--channel-config"} if config else {}
    for name, path in paths:
        if path and os.path.isdir(path):
            raise ValueError(f"cannot write {path}: {name} is a directory")
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"cannot write {name} {path}: no directory {os.path.dirname(path)}")
        if path and named.setdefault(os.path.realpath(path), name) != name:
            first = named[os.path.realpath(path)]
            raise ValueError(f"cannot write {path}: {first} and {name} name the same file")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except (SimplexError, MonotonicityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ChannelError, ValueError) as exc:
        parser.exit(2, f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
