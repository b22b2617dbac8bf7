"""Command-line front end: every figure/table as deterministic CSV or JSON.

Subcommands: v2, spectrum, unitarity, paths, commutator, casimir, oracle.
Exit codes: 0 ok, 1 usage/validation error, 2 numerical convergence
failure — so CI can gate on numerical health.  Output is byte-identical
for identical flags + seed.

The library modules only compute; this module alone decides the output
format.  A CSV is a '# key = value' metadata block sufficient to re-run
the command, a header line and one comma-separated line per row, every
line ending in '\\n'; floats are written as repr(float(x)).  JSON is
indented by 2 with sorted keys.  Each subcommand returns its text and
whether every value converged, and ``main`` writes it once, to --out or
stdout.  Each subcommand imports the library modules it uses, and none
loads scipy: the erf/erfc, Si and Hurwitz-zeta kernels of the series are
numpy and ``math``.  scipy.integrate is imported only where the tail of
the restricted velocity series takes one of its two QUADPACK integrals
(velocity._z_integral, _w_cosine_integral), which no README example reaches.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

import numpy as np

from .paths import RNG_ALGORITHM, ModelParams, differentiable_twin, eval_path, sample_brownian
from .special import ConvergenceError, _check_tol

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


def _add_param_flags(p: argparse.ArgumentParser, omega_default: Optional[float] = None, tol: bool = True):
    """Model flags; --omega and --n-terms only where ln Pi is summed, --tol only where a series is."""
    p.add_argument("--m", type=float, default=1.0, help="mass (default 1)")
    p.add_argument("--hbar", type=float, default=1.0, help="hbar (default 1)")
    p.add_argument("--T", type=float, default=1.0, help="total time (default 1)")
    p.add_argument("--alpha", type=float, default=2.1, help="differentiability exponent")
    amp = p.add_mutually_exclusive_group()
    amp.add_argument("--A", type=float, default=None, help="amplitude bound (length)")
    amp.add_argument("--epsilon-D", type=float, default=None, help="differentiable time scale")
    if omega_default is not None:
        p.add_argument("--omega", type=float, default=omega_default, help="oscillator frequency")
        p.add_argument("--n-terms", type=int, default=None, metavar="N",
                       help="sum the first N factors of Pi, at most 2^24 directly (default: the adaptive route)")
    if tol:
        p.add_argument("--tol", type=float, default=1e-9,
                       help="series tolerance: tail bound <= tol * max(1, |value|), absolute below |value| = 1")
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


def _metadata(args) -> dict:
    skip = {"func", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _csv(meta: dict, header: str, rows) -> str:
    """'# key = value' lines, the header, then one comma-separated line per row."""
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    lines.append(header)
    lines.extend(",".join(_cell(x) for x in row) for row in rows)
    return "".join(line + "\n" for line in lines)


def _json(payload: dict) -> str:
    # strict JSON: a NaN or infinity raises ValueError (exit 1) instead of being written
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns (output text, every value converged)
# ---------------------------------------------------------------------------


def cmd_v2(args) -> tuple[str, bool]:
    from .velocity import scan_v2
    params = _params_from_args(args)
    grid = _grid(args, "eps")
    if grid[-1] >= params.T:
        raise UsageError("eps grid must lie inside (0, T)")
    rows = []
    for model in ("feynman", "differentiable"):
        rows.extend(scan_v2(grid, params, model, args.tol))
    text = _csv(
        _metadata(args),
        "eps,v2,n_terms,tail_bound,model",
        [(r.eps, r.v2, r.n_terms, r.tail_bound, r.model) for r in rows],
    )
    return text, all(r.converged for r in rows)


def cmd_spectrum(args) -> tuple[str, bool]:
    from .oscillator import log_pi_grid
    params = _params_from_args(args, default_A=None)
    if params.omega <= 0:
        raise UsageError("spectrum requires --omega > 0")
    grid = _grid(args, "T_grid")
    results = log_pi_grid(grid, params, args.tol, args.n_terms)
    text = _csv(
        _metadata(args),
        "T,delta_omega,log_pi,n_terms",
        [(r.T, r.log_pi / r.T, r.log_pi, r.n_terms) for r in results],
    )
    return text, all(r.converged for r in results)


def cmd_unitarity(args) -> tuple[str, bool]:
    from .oscillator import unitarity_diagnostic
    params = _params_from_args(args, default_A=None)
    if params.omega <= 0:
        raise UsageError("unitarity requires --omega > 0")
    grid = _grid(args, "T_grid")
    rep = unitarity_diagnostic(grid, params, args.tol, args.n_terms, args.threshold)
    payload = {
        "verdict": rep.verdict,
        "threshold": args.threshold,
        "mean_delta_omega": rep.mean_delta_omega,
        "max_rel_deviation": rep.max_rel_deviation,
        "sub_eps_mean": rep.sub_eps_mean,
        "sub_eps_max_rel_deviation": rep.sub_eps_max_rel_deviation,
        "rows": [
            {"T": t, "delta_omega": dw, "verdict": v}
            for t, dw, v in zip(rep.t_grid, rep.delta_omega, rep.verdicts)
        ],
    }
    return _json(payload), rep.converged


def cmd_paths(args) -> tuple[str, bool]:
    params = _params_from_args(args)
    p = sample_brownian(params, args.modes, args.seed)
    twin = differentiable_twin(p, params)
    grid = np.linspace(0.0, params.T, args.grid_points)

    def block(meta, path):
        if args.export == "coeffs":
            return _csv(meta, "n,a_n", enumerate(path.coeffs, start=1))
        return _csv(meta, "t,x", zip(grid, eval_path(path, grid)))

    meta = {**_metadata(args), "rng": RNG_ALGORITHM, "j_D": twin["j_D"], "which": "brownian"}
    return block(meta, p) + block({"which": "twin"}, twin["twin"]), True


def cmd_commutator(args) -> tuple[str, bool]:
    from .commutator import commutator_expectation
    params = _params_from_args(args)
    grid = _grid(args, "eps")
    if grid[-1] >= params.T:
        raise UsageError("eps grid must lie inside (0, T)")
    rows = [commutator_expectation(e, params, args.model, args.tol) for e in grid]
    return _csv(_metadata(args), "eps,commutator,regime", [(r.eps, r.value, r.regime) for r in rows]), True


def cmd_casimir(args) -> tuple[str, bool]:
    from .casimir import CasimirConfig, casimir_energy, epsilon_d_bound
    if args.bound:
        return _json(dataclasses.asdict(epsilon_d_bound(args.L_exp, args.rel_error, args.c))), True
    rows = []
    for L in _grid(args, "L"):
        cfg = CasimirConfig(L=float(L), omega_D=args.omega_D, c=args.c, hbar=args.hbar)
        rows.append((cfg.L, casimir_energy(cfg, args.model).energy, args.model, cfg.x))
    return _csv(_metadata(args), "L,delta_E,model,x", rows), True


def cmd_oracle(args) -> tuple[str, bool]:
    from .mc import estimate_v2
    from .velocity import v2_diff
    params = _params_from_args(args)
    _check_tol(args.tol)  # before the sampling, whose cost a refused tol would waste
    est = estimate_v2(params, args.eps, N_modes=args.modes, n_samples=args.samples, seed=args.seed)
    analytic = v2_diff(args.eps, params, args.tol)
    rows = [
        (est.quantity, est.mean, est.stderr, est.n_samples, est.seed),
        ("v2_analytic", analytic, 0.0, 0, args.seed),
    ]
    meta = {"rng": RNG_ALGORITHM, **_metadata(args)}
    return _csv(meta, "quantity,mean,stderr,n_samples,seed", rows), True


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
    p.set_defaults(func=cmd_spectrum, tol=1e-6)

    p = sub.add_parser("unitarity", help="is ln Pi linear in T?")
    _add_param_flags(p, omega_default=1.0)
    _add_grid_flags(p, "T-grid", 0.2, 5.0, 12)
    p.add_argument("--threshold", type=float, default=0.1)
    p.set_defaults(func=cmd_unitarity, tol=1e-4)

    p = sub.add_parser("paths", help="Brownian path and differentiable twin export")
    _add_param_flags(p, tol=False)
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
    _add_grid_flags(p, "L", 0.5, 2.0, 4)
    p.add_argument("--bound", action="store_true", help="emit the eps_D bound as JSON")
    p.add_argument("--L-exp", type=float, default=1e-7)
    p.add_argument("--rel-error", type=float, default=0.01)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_casimir)

    p = sub.add_parser("oracle", help="Monte-Carlo vs analytic <v^2>")
    _add_param_flags(p)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--modes", type=int, default=1000)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text, ok = args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
