"""Command-line front end: every figure/table as deterministic CSV.

Subcommands: v2, spectrum, unitarity, paths, commutator, casimir, oracle.
Exit codes: 0 ok, 1 usage/validation error, 2 numerical convergence
failure — so CI can gate on numerical health.  Output is byte-identical
for identical flags + seed; each CSV starts with a '#' metadata block
sufficient to re-run the command.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import Optional

import numpy as np

from . import casimir as casimir_mod
from . import mc as mc_mod
from . import oscillator as osc_mod
from . import paths as paths_mod
from . import velocity as vel_mod
from .paths import ModelParams
from .special import ConvergenceError

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONVERGENCE = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; our contract reserves 2 for
    # convergence failures, so route usage problems through exit 1.
    def error(self, message):
        raise UsageError(message)


def _add_param_flags(p: argparse.ArgumentParser, omega_default: Optional[float] = None):
    p.add_argument("--m", type=float, default=1.0, help="mass (default 1)")
    p.add_argument("--hbar", type=float, default=1.0, help="hbar (default 1)")
    p.add_argument("--T", type=float, default=1.0, help="total time (default 1)")
    p.add_argument("--alpha", type=float, default=2.1, help="differentiability exponent")
    amp = p.add_mutually_exclusive_group()
    amp.add_argument("--A", type=float, default=None, help="amplitude bound (length)")
    amp.add_argument("--epsilon-D", type=float, default=None, help="differentiable time scale")
    p.add_argument("--omega", type=float, default=omega_default, help="oscillator frequency")
    p.add_argument("--tol", type=float, default=1e-9, help="series tolerance")
    p.add_argument("--out", type=str, default=None, help="output file (default stdout)")


def _add_grid_flags(p: argparse.ArgumentParser, name: str, lo: float, hi: float, n: int):
    p.add_argument(f"--{name}-min", type=float, default=lo)
    p.add_argument(f"--{name}-max", type=float, default=hi)
    p.add_argument("--points", type=int, default=n)
    spacing = p.add_mutually_exclusive_group()
    spacing.add_argument("--log", dest="log_spacing", action="store_true")
    spacing.add_argument("--linear", dest="log_spacing", action="store_false")
    p.set_defaults(log_spacing=False)


def _params_from_args(args, default_A: Optional[float] = 10.0) -> ModelParams:
    a, eps_d = args.A, args.epsilon_D
    if a is None and eps_d is None:
        a = default_A
    omega = getattr(args, "omega", None)
    return ModelParams(
        m=args.m,
        hbar=args.hbar,
        T=args.T,
        alpha=args.alpha,
        A=a,
        epsilon_D=eps_d,
        omega=0.0 if omega is None else omega,
    )


def _grid(args, name: str) -> np.ndarray:
    lo = getattr(args, f"{name}_min")
    hi = getattr(args, f"{name}_max")
    if not lo > 0 or not hi > lo:
        raise UsageError(f"need 0 < --{name}-min < --{name}-max")
    if args.points < 1:
        raise UsageError("--points must be >= 1")
    if args.log_spacing:
        return np.geomspace(lo, hi, args.points)
    return np.linspace(lo, hi, args.points)


def _metadata(args, extra: Optional[dict] = None) -> dict:
    skip = {"func", "out"}
    meta = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    if extra:
        meta.update(extra)
    return meta


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_v2(args) -> int:
    params = _params_from_args(args)
    grid = _grid(args, "eps")
    if grid[-1] >= params.T:
        raise UsageError("eps grid must lie inside (0, T)")
    rows = []
    for model in ("feynman", "differentiable"):
        rows.extend(vel_mod.scan_v2(grid, params, model, args.tol))
    buf = io.StringIO()
    vel_mod.scan_rows_to_csv(rows, buf, _metadata(args))
    _emit(args, buf.getvalue())
    return EXIT_OK if all(r.converged for r in rows) else EXIT_CONVERGENCE


def cmd_spectrum(args) -> int:
    params = _params_from_args(args, default_A=None)
    if params.omega <= 0:
        raise UsageError("spectrum requires --omega > 0")
    grid = _grid(args, "T_grid")
    results = [osc_mod.log_pi(t, params, args.tol, args.n_terms) for t in grid]
    buf = io.StringIO()
    osc_mod.shift_rows_to_csv(results, buf, _metadata(args))
    _emit(args, buf.getvalue())
    return EXIT_OK if all(r.converged for r in results) else EXIT_CONVERGENCE


def cmd_unitarity(args) -> int:
    params = _params_from_args(args, default_A=None)
    if params.omega <= 0:
        raise UsageError("unitarity requires --omega > 0")
    grid = _grid(args, "T_grid")
    rep = osc_mod.unitarity_diagnostic(grid, params, args.tol, args.n_terms, args.threshold)
    verdict = "unitary-compatible" if rep.max_rel_deviation <= args.threshold else "non-exponential"
    payload = {"verdict": verdict, "threshold": args.threshold, **rep.as_dict()}
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_paths(args) -> int:
    params = _params_from_args(args)
    p = paths_mod.sample_brownian(params, args.modes, args.seed)
    twin = paths_mod.differentiable_twin(p, params)
    grid = np.linspace(0.0, params.T, args.grid_points)
    buf = io.StringIO()
    meta = _metadata(args, {"rng": paths_mod.RNG_ALGORITHM, "j_D": twin["j_D"]})
    if args.export == "coeffs":
        paths_mod.coeffs_to_csv(p, buf, {**meta, "which": "brownian"})
        paths_mod.coeffs_to_csv(twin["twin"], buf, {"which": "twin"})
    else:
        paths_mod.trajectory_to_csv(p, grid, buf, {**meta, "which": "brownian"})
        paths_mod.trajectory_to_csv(twin["twin"], grid, buf, {"which": "twin"})
    _emit(args, buf.getvalue())
    return EXIT_OK


def cmd_commutator(args) -> int:
    from .commutator import commutator_expectation, commutator_rows_to_csv

    params = _params_from_args(args)
    grid = _grid(args, "eps")
    if grid[-1] >= params.T:
        raise UsageError("eps grid must lie inside (0, T)")
    rows = [commutator_expectation(e, params, args.model, args.tol) for e in grid]
    buf = io.StringIO()
    commutator_rows_to_csv(rows, buf, _metadata(args))
    _emit(args, buf.getvalue())
    return EXIT_OK


def cmd_casimir(args) -> int:
    if args.bound:
        res = casimir_mod.epsilon_d_bound(args.L_exp, args.rel_error, args.c)
        _emit(args, json.dumps(res.as_dict(), indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    grid = _grid(args, "L")
    rows = []
    delta = None
    for L in grid:
        cfg = casimir_mod.CasimirConfig(
            L=float(L), omega_D=args.omega_D, c=args.c, hbar=args.hbar, n_c=args.n_c,
            regulator=args.regulator,
        )
        if args.model == "standard" and delta is not None:
            # f(n) = n does not depend on L, so delta is the first point's;
            # the energy is casimir_energy's expression, operation for operation
            energy = 0.5 * cfg.hbar * cfg.c * math.pi / cfg.L * delta
        else:
            res = casimir_mod.casimir_energy(cfg, args.model)
            energy, delta = res.energy, res.delta
        rows.append((float(L), energy, args.model, cfg.x))
    buf = io.StringIO()
    paths_mod._write_metadata(buf, _metadata(args))
    buf.write("L,delta_E,model,x\n")
    for L, e, model, x in rows:
        buf.write(f"{L!r},{e!r},{model},{x!r}\n")
    _emit(args, buf.getvalue())
    return EXIT_OK


def cmd_oracle(args) -> int:
    params = _params_from_args(args)
    est = mc_mod.estimate_v2(
        params, args.eps, args.t0, args.modes, args.samples, args.seed
    )
    analytic = vel_mod.v2_diff(args.eps, params, args.tol)
    buf = io.StringIO()
    mc_mod.estimates_to_csv(
        [est, mc_mod.McEstimate(analytic, 0.0, 0, args.seed, "v2_analytic")],
        buf,
        _metadata(args),
    )
    _emit(args, buf.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diffpath", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("v2", help="mean-square velocity scan, both models")
    _add_param_flags(p)
    _add_grid_flags(p, "eps", 1e-4, 0.5, 60)
    p.set_defaults(func=cmd_v2, log_spacing=True)

    p = sub.add_parser("spectrum", help="oscillator shift scan over T")
    _add_param_flags(p, omega_default=1.0)
    _add_grid_flags(p, "T-grid", 0.2, 5.0, 25)
    p.add_argument("--n-terms", type=int, default=None)
    p.set_defaults(func=cmd_spectrum, tol=1e-6)

    p = sub.add_parser("unitarity", help="is ln Pi linear in T?")
    _add_param_flags(p, omega_default=1.0)
    _add_grid_flags(p, "T-grid", 0.2, 5.0, 12)
    p.add_argument("--n-terms", type=int, default=None)
    p.add_argument("--threshold", type=float, default=0.1)
    p.set_defaults(func=cmd_unitarity, tol=1e-4)

    p = sub.add_parser("paths", help="Brownian path and differentiable twin export")
    _add_param_flags(p)
    p.add_argument("--modes", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-points", type=int, default=401)
    p.add_argument("--export", choices=("coeffs", "trajectory"), default="trajectory")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("commutator", help="<[x,p]> vs resolution scan")
    _add_param_flags(p)
    _add_grid_flags(p, "eps", 1e-4, 0.5, 40)
    p.add_argument("--model", choices=("feynman", "differentiable"), default="differentiable")
    p.set_defaults(func=cmd_commutator, log_spacing=True)

    p = sub.add_parser("casimir", help="Casimir toy model scan or eps_D bound")
    p.add_argument("--model", choices=("standard", "tanh"), default="standard")
    p.add_argument("--omega-D", type=float, default=100.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--n-c", type=int, default=10_000)
    p.add_argument("--regulator", choices=tuple(casimir_mod.REGULATORS), default="exp")
    _add_grid_flags(p, "L", 0.5, 2.0, 4)
    p.add_argument("--bound", action="store_true", help="emit the eps_D bound as JSON")
    p.add_argument("--L-exp", type=float, default=1e-7)
    p.add_argument("--rel-error", type=float, default=0.01)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_casimir)

    p = sub.add_parser("oracle", help="Monte-Carlo vs analytic <v^2>")
    _add_param_flags(p)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--modes", type=int, default=1000)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
