"""Command-line entry point.

Subcommands: describe, coeffs, eval, gamma-check, osc, transform,
twist-scan, summatory, certify.  Outputs are CSV (default) or JSON; every
file starts with '# key=value' lines echoing the full parameter set, so a
run can be reproduced from its own output.  Files are written atomically
(temp file + rename) and contain no timestamps: identical invocations give
byte-identical bytes.

Exit codes: 0 success, 1 usage error, 2 computation error, 3 failed
certificate under --strict.  The TWISTLAB_BUDGET environment variable
overrides the default 1e9 operation budget of the direct-quadrature route;
TWISTLAB_BUDGET=inf lifts it.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import TwistlabError
from .evaluate import smoothed_value
from .gammafn import gamma_ratio_compare
from .model import LSeriesInstance, SmoothingParams
from .oscillatory import (PhaseFamily, I_n_quadrature, I_n_stationary_phase,
                          in_stationary_range)
from .presets import PRESET_NAMES, get_preset, load_instance
from .summatory import (TWIST_RHO, omega_certificate, run_growth_scan,
                        run_twist_scan)
from .transforms import ROUTES, constant_conventions, kappa, run_transform


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's default 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# grids and formatting
# ---------------------------------------------------------------------------

def finite(text: str) -> float:
    """A float that is neither nan nor infinite (an argparse type)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def parse_grid(text: str) -> List[float]:
    """Grid syntaxes: '2^a:2^b' dyadic, 'a:b:geomK' geometric with ratio K,
    'a:b:n' linear with n points, or a single number.  Every number must be
    finite."""
    text = text.strip()

    def number(part: str) -> float:
        value = float(part)
        if not math.isfinite(value):
            raise UsageError(f"grid {text!r} must be finite")
        return value

    try:
        if text.startswith("2^"):
            lo_s, hi_s = text.split(":")
            lo, hi = int(lo_s[2:]), int(hi_s[2:] if hi_s.startswith("2^") else hi_s)
            return [float(2 ** j) for j in range(lo, hi + 1)]
        parts = text.split(":")
        if len(parts) == 1:
            return [number(parts[0])]
        if len(parts) == 3 and parts[2].startswith("geom"):
            a, b, ratio = number(parts[0]), number(parts[1]), number(parts[2][4:])
            if not (ratio > 1.0 and a > 0 and b >= a):
                raise ValueError
            out, v = [], a
            while v <= b * (1.0 + 1e-9):
                out.append(v)
                v *= ratio
            return out
        if len(parts) == 3:
            a, b, n = number(parts[0]), number(parts[1]), int(parts[2])
            if n < 1:
                raise ValueError
            return [float(v) for v in np.linspace(a, b, n)]
    except (ValueError, IndexError, OverflowError):
        pass
    raise UsageError(f"cannot parse grid {text!r}")


def parse_int_range(text: str) -> List[int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [int(parts[0])]
        if len(parts) == 2:
            return list(range(int(parts[0]), int(parts[1]) + 1))
        if len(parts) == 3:
            return list(range(int(parts[0]), int(parts[1]) + 1, int(parts[2])))
    except ValueError:
        pass
    raise UsageError(f"cannot parse integer range {text!r}")


def _fmt(v) -> str:
    return repr(float(v))


def _fmt_complex(v: Optional[complex]) -> Tuple[str, str]:
    """(re, im) as strings; ("nan", "nan") for a value not computed."""
    if v is None:
        return "nan", "nan"
    return _fmt(v.real), _fmt(v.imag)


def _emit(args, params: Dict[str, object], columns: Sequence[str],
          rows: Sequence[Sequence[object]],
          trailer: Optional[Dict[str, object]] = None) -> None:
    """Write `rows` to args.out in args.format, headed by the subcommand and
    `params`; `trailer` follows the rows (CSV) or joins the meta (JSON)."""
    if args.format == "json":
        payload = {"meta": {"_cmd": args.command, **params, **(trailer or {})},
                   "columns": list(columns),
                   "rows": [dict(zip(columns, r)) for r in rows]}
        text = json.dumps(payload, sort_keys=True, indent=1,
                          default=lambda o: repr(o)) + "\n"
    else:
        def comments(d):
            return [f"# {k}={d[k]}" for k in sorted(d)]
        lines = [f"# twistlab {args.command}", *comments(params), ",".join(columns),
                 *(",".join(str(v) for v in r) for r in rows), *comments(trailer or {})]
        text = "\n".join(lines) + "\n"
    _write_text(args.out, text)


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _load(args) -> LSeriesInstance:
    if getattr(args, "config", None):
        try:
            return load_instance(args.config)
        except (OSError, ValueError) as exc:
            raise UsageError(f"bad config {args.config!r}: {exc}")
    if getattr(args, "preset", None):
        return get_preset(args.preset)
    raise UsageError("one of --preset or --config is required")


def _smoothing(args) -> SmoothingParams:
    """SmoothingParams from whichever of --p, --rho, --X, --epsilon are set."""
    kw = {k: getattr(args, k, None) for k in ("p", "rho", "X", "epsilon")}
    return SmoothingParams(**{k: v for k, v in kw.items() if v is not None})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_describe(args) -> int:
    L = _load(args)
    inv = L.invariants()
    rows = [
        ("name", L.name),
        ("d", _fmt(inv.d)),
        ("A", _fmt(inv.A)),
        ("B", _fmt(inv.B)),
        ("C", _fmt(inv.C)),
        ("Q", _fmt(L.fe.Q)),
        ("omega_re", _fmt(L.fe.omega.real)),
        ("omega_im", _fmt(L.fe.omega.imag)),
        ("sigma_a", _fmt(L.sigma_a)),
    ]
    for i, pole in enumerate(L.fe.poles, start=1):
        rows.append((f"pole_{i}",
                     f"{_fmt(pole.location.real)}+{_fmt(pole.location.imag)}i"
                     f" order={pole.order}"))
    try:
        rows.append(("resonance_alpha_m1", _fmt(L.resonance_alpha(1))))
    except TwistlabError:
        pass
    if args.format == "json":
        text = json.dumps(dict(rows), sort_keys=True, indent=1) + "\n"
    else:
        text = "".join(f"{k}={v}\n" for k, v in rows)
    _write_text(args.out, text)
    return 0


def _cmd_coeffs(args) -> int:
    L = _load(args)
    params = {"preset": L.name}
    if args.bulk is not None:
        if args.bulk < 1:
            raise UsageError(f"--bulk must be >= 1, got {args.bulk}")
        table = L.coefficients.bulk(args.bulk).values
        params["bulk"] = args.bulk
        rows = [(n, *_fmt_complex(table[n - 1])) for n in range(1, args.bulk + 1)]
    elif args.n is not None:
        params["n"] = args.n
        rows = [(args.n, *_fmt_complex(L.coefficients.coefficient(args.n)))]
    else:
        raise UsageError("coeffs needs --n or --bulk")
    _emit(args, params, ("n", "re", "im"), rows)
    return 0


def _cmd_eval(args) -> int:
    L = _load(args)
    sp = _smoothing(args)
    rows = []
    for t in parse_grid(args.t):
        ev = smoothed_value(L, args.sigma, t, sp)
        rows.append((_fmt(t), *_fmt_complex(ev.value), ev.terms_used,
                     _fmt(ev.tail_bound)))
    params = {"preset": L.name, "sigma": args.sigma, "t": args.t, "p": sp.p,
              "X": sp.X if sp.X is not None else "auto", "epsilon": sp.epsilon}
    _emit(args, params, ("t", "re", "im", "terms_used", "tail_bound"), rows)
    return 0


def _cmd_gamma_check(args) -> int:
    L = _load(args)
    rows = []
    for t in parse_grid(args.t_grid):
        r = gamma_ratio_compare(L.fe.gamma, args.x, t)
        rows.append((_fmt(t), *_fmt_complex(r.exact), *_fmt_complex(r.asymptotic),
                     _fmt(r.relative_error)))
    params = {"preset": L.name, "x": args.x, "t_grid": args.t_grid}
    _emit(args, params, ("t", "exact_re", "exact_im", "asym_re", "asym_im", "rel_err"),
          rows)
    return 0


def _cmd_osc(args) -> int:
    rows = []
    for n in parse_int_range(args.n):
        pf = PhaseFamily(alpha=args.alpha, n=n, d=args.d)
        quad = sp_val = None
        if args.mode in ("quad", "both"):
            quad = I_n_quadrature(pf, args.T, args.tol)
        if args.mode in ("sp", "both") and in_stationary_range(pf, args.T):
            sp_val = I_n_stationary_phase(pf, args.T)
        diff = abs(quad - sp_val) if quad is not None and sp_val is not None else math.nan
        rows.append((n, *_fmt_complex(quad), *_fmt_complex(sp_val), _fmt(diff)))
    params = {"d": args.d, "alpha": args.alpha, "T": args.T, "n": args.n,
              "mode": args.mode, "tol": args.tol}
    _emit(args, params, ("n", "quad_re", "quad_im", "sp_re", "sp_im", "abs_diff"), rows)
    return 0


def _cmd_transform(args) -> int:
    if args.ledger:
        sys.stdout.write(constant_conventions())
        return 0
    L = _load(args)
    requested = tuple(r.strip() for r in args.routes.split(","))
    routes = [r for r in ROUTES if r in requested]
    pairs = list(itertools.combinations(routes, 2))
    sp = _smoothing(args)
    # a_m builds the table a_1..a_m: read it once, not once per T (an
    # m < 1 is left to run_transform, which refuses it)
    a_m = (L.coefficients.coefficient(args.m)
           if "fe" in requested and args.m >= 1 else None)
    rows = []
    for T in parse_grid(args.T_grid):
        rep = run_transform(L, args.m, T, sp, routes=requested, a_m=a_m)
        value = dict(zip(ROUTES, (rep.direct, rep.sum_side, rep.fe_side)))
        rows.append((_fmt(T), *(x for r in routes for x in _fmt_complex(value[r])),
                     *(_fmt(rep.deviations[f"{a}-{b}"]) for a, b in pairs)))
    columns = ["T", *(f"{r}_{part}" for r in routes for part in ("re", "im")),
               *(f"dev_{a}_{b}" for a, b in pairs)]
    params = {"preset": L.name, "m": args.m, "T_grid": args.T_grid,
              "routes": args.routes, "p": sp.p, "rho": sp.rho}
    _emit(args, params, columns, rows)
    return 0


def _cmd_twist_scan(args) -> int:
    L = _load(args)
    if args.alpha == "auto":
        alpha = L.resonance_alpha(args.m)
    else:
        try:
            alpha = float(args.alpha)
        except ValueError:
            raise UsageError(f"--alpha must be 'auto' or a number, got {args.alpha!r}")
    sp = _smoothing(args)
    report = run_twist_scan(L, alpha, parse_grid(args.T_grid), sp)
    rows = [(_fmt(T), *_fmt_complex(tw), _fmt(nm))
            for T, tw, nm in zip(report.grid, report.twist_values, report.normalized)]
    params = {"preset": L.name, "alpha": alpha, "T_grid": args.T_grid,
              "p": sp.p, "rho": sp.rho, "m": args.m}
    _emit(args, params, ("T", "tw_re", "tw_im", "normalized"), rows,
          trailer={"slope": _fmt(report.slope),
                   "slope_stderr": _fmt(report.slope_stderr)})
    return 0


def _cmd_summatory(args) -> int:
    L = _load(args)
    report = run_growth_scan(L, parse_grid(args.X_grid))
    rows = [(_fmt(X), _fmt(s)) for X, s in zip(report.grid, report.sums)]
    params = {"preset": L.name, "X_grid": args.X_grid}
    _emit(args, params, ("X", "sum"), rows,
          trailer={"slope": _fmt(report.slope),
                   "slope_stderr": _fmt(report.slope_stderr)})
    return 0


def _cmd_certify(args) -> int:
    L = _load(args)
    alpha = L.resonance_alpha(args.m)
    kap = kappa(L, alpha, args.m)
    sp = _smoothing(args)
    report = omega_certificate(L, alpha, args.m, kap, parse_grid(args.T_grid), sp)
    rows = [(_fmt(r.T), _fmt(r.twist_abs), _fmt(r.bound),
             int(r.passed), _fmt(r.margin)) for r in report.rows]
    params = {"preset": L.name, "m": args.m, "alpha": alpha, "T_grid": args.T_grid,
              "p": sp.p, "rho": sp.rho, "constant": _fmt(report.constant)}
    _emit(args, params, ("T", "lhs", "rhs", "pass", "margin"), rows)
    if args.strict and not report.all_passed():
        return 3
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    top = _Parser(prog="twistlab", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, func, help, preset=True, resonance=False, rho=None):
        """The parser of subcommand `name`, which runs `func`: --out and
        --format; --preset or --config unless preset=False; with
        resonance=True, --m, --p and --rho (default `rho`)."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if preset:
            instance = p.add_mutually_exclusive_group()
            instance.add_argument("--preset", choices=PRESET_NAMES)
            instance.add_argument("--config", help="JSON config for a custom instance")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if resonance:
            p.add_argument("--m", type=int, default=1)
            p.add_argument("--p", type=float)
            p.add_argument("--rho", type=float, default=rho)
        return p

    command("describe", _cmd_describe, "derived invariants of an instance")

    p = command("coeffs", _cmd_coeffs, "coefficient values")
    p.add_argument("--n", type=int)
    p.add_argument("--bulk", type=int)

    p = command("eval", _cmd_eval, "smoothed evaluation of F(sigma + it)")
    p.add_argument("--sigma", type=finite, required=True)
    p.add_argument("--t", required=True, help="value or grid a:b:n")
    p.add_argument("--X", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--epsilon", type=float)

    p = command("gamma-check", _cmd_gamma_check, "exact vs asymptotic gamma ratio")
    p.add_argument("--x", type=finite, required=True)
    p.add_argument("--t-grid", dest="t_grid", required=True)

    p = command("osc", _cmd_osc, "resonance-kernel integrals I_n", preset=False)
    p.add_argument("--d", type=finite, required=True)
    p.add_argument("--alpha", type=finite, required=True)
    p.add_argument("--T", type=finite, required=True)
    p.add_argument("--n", required=True, help="N1:N2[:step]")
    p.add_argument("--mode", choices=("quad", "sp", "both"), default="both")
    p.add_argument("--tol", type=float, default=1e-4)

    p = command("transform", _cmd_transform, "three-route resonance transform",
                resonance=True)
    p.add_argument("--T-grid", dest="T_grid", default="50:200:geom2")
    p.add_argument("--routes", default=",".join(ROUTES))
    p.add_argument("--ledger", action="store_true",
                   help="print the constant-convention notes and exit")

    p = command("twist-scan", _cmd_twist_scan, "additive twist over a T grid",
                resonance=True, rho=TWIST_RHO)
    p.add_argument("--alpha", default="auto")
    p.add_argument("--T-grid", dest="T_grid", required=True)

    p = command("summatory", _cmd_summatory, "|a_n| partial sums over an X grid")
    p.add_argument("--X-grid", dest="X_grid", required=True)

    p = command("certify", _cmd_certify, "lower-bound certificate per dyadic T",
                resonance=True, rho=TWIST_RHO)
    p.add_argument("--T-grid", dest="T_grid", required=True)
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if any grid point fails")

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError) as exc:  # ValueError: argument out of range
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except TwistlabError as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
