"""CLI contract: subcommands, metadata, determinism, exit codes."""

import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from diffpath import velocity
from diffpath.cli import EXIT_CONVERGENCE, EXIT_OK, EXIT_USAGE, main
from diffpath.special import SeriesValue

README = Path(__file__).resolve().parents[1] / "README.md"


def strict_json(text):
    """json.loads that rejects NaN and +-Infinity, which are not JSON."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_v2_scan_and_determinism(capsys):
    argv = ["v2", "--A", "10", "--eps-min", "0.01", "--eps-max", "0.4", "--points", "3"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2  # byte-identical
    assert out1.startswith("#")
    assert "eps,v2,n_terms,tail_bound,model" in out1
    assert "feynman" in out1 and "differentiable" in out1


def test_v2_unrestricted_limit_columns_agree(capsys):
    code, out = run(
        capsys,
        ["v2", "--A", "1e12", "--eps-min", "0.05", "--eps-max", "0.2", "--points", "2",
         "--tol", "1e-8"],
    )
    assert code == EXIT_OK
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
    fey = {r[0]: float(r[1]) for r in rows if r[4] == "feynman"}
    dif = {r[0]: float(r[1]) for r in rows if r[4] == "differentiable"}
    for eps, v in fey.items():
        assert abs(dif[eps] - v) / v < 1e-6


def test_v2_near_alpha_one_exits_cleanly(capsys):
    # alpha = 1.001 puts scales of the Z-form tail past the float range; the
    # W-form decides, with no traceback
    code, out = run(capsys, ["v2", "--A", "0.01", "--alpha", "1.001", "--points", "1"])
    assert code in (EXIT_OK, EXIT_CONVERGENCE)
    assert out.rstrip("\n").endswith(",differentiable")


def test_v2_usage_error(capsys):
    code = main(["v2", "--eps-min", "0.5", "--eps-max", "2", "--points", "3"])
    assert code == EXIT_USAGE


def test_unknown_flag_exits_one():
    assert main(["v2", "--bogus"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["v2", "--A", "10", "--points", "3", "--omega", "5"],
        ["paths", "--omega", "5"],
        ["commutator", "--points", "2", "--omega", "5"],
        ["oracle", "--samples", "100", "--omega", "5"],
        ["paths", "--tol", "1e-3"],
    ],
)
def test_unused_flags_are_not_accepted(capsys, argv):
    # these subcommands never read --omega (nor paths --tol), so passing one is a usage error
    assert main(argv) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["v2", "--A", "inf", "--points", "3"], "A must be finite"),
        (["v2", "--A", "nan", "--points", "3"], "A must be finite"),
        (["v2", "--epsilon-D", "inf", "--points", "2"], "epsilon_D must be finite"),
        (["v2", "--alpha", "inf", "--points", "2"], "alpha must be finite"),
        (["commutator", "--A", "inf", "--points", "2"], "A must be finite"),
        (["spectrum", "--A", "inf", "--points", "2"], "A must be finite"),
        (["spectrum", "--epsilon-D", "0.1", "--omega", "inf", "--points", "2"], "omega must be finite"),
        # Abar^2 overflows from A ~ 8.5e153 at T = m = hbar = 1
        (["v2", "--A", "1e154", "--points", "2"], "finite Abar^2"),
        (["v2", "--A", "1e160", "--points", "2"], "finite Abar^2"),
        # ln Pi needs Abar(T)^2 too: it overflows at T = 0.2, the first grid point
        (["spectrum", "--A", "1e154", "--points", "2"],
         "finite Abar(T)^2 = m pi^2 A(T)^2 / (4 hbar T) at T=0.2"),
        (["unitarity", "--A", "1e154", "--points", "2"],
         "finite Abar(T)^2 = m pi^2 A(T)^2 / (4 hbar T) at T=0.2"),
        # (T / epsilon_D)^(alpha - 1) = 1e400 is past the float range
        (["v2", "--epsilon-D", "1e-200", "--alpha", "3", "--points", "2"],
         "overflows at m=1.0, hbar=1.0, T=1.0, epsilon_D=1e-200, alpha=3.0"),
        (["commutator", "--epsilon-D", "1e-200", "--alpha", "3", "--points", "2"],
         "overflows at m=1.0, hbar=1.0, T=1.0, epsilon_D=1e-200, alpha=3.0"),
        # a subnormal mass puts Abar^2 = 2.5e-318 below the normal floats
        (["v2", "--m", "1e-320", "--points", "2"], "underflows at m=1e-320, hbar=1.0, T=1.0, A=10.0"),
        # the <v^2> prefactor (2 hbar / m T)(T / pi eps)^2 is 2e312 at eps = 1e-4
        (["v2", "--m", "1e-305", "--points", "2"], "prefactor 2 hbar / (m T) (T / (pi eps))^2 "
         "overflows at m=1e-305, hbar=1.0, T=1.0, eps=0.0001"),
        # (T / pi eps)^2 alone is past the float range
        (["v2", "--eps-min", "1e-200", "--points", "2"], "overflows at m=1.0, hbar=1.0, T=1.0, eps=1e-200"),
        # (omega T)^2 = 1e400 at the first grid point: refused before any sum, with no numpy warning
        (["spectrum", "--A", "10", "--T-grid-min", "1e200", "--T-grid-max", "1e300", "--points", "2"],
         "finite (omega T)^2 and (omega T Abar(T) / pi)^2 at T=1e+200 (omega T = 1e+200)"),
        # (A / sigma)^(1 / (alpha - 1)) = 1e1000: no j_D for the twin
        (["paths", "--A", "1e10", "--alpha", "1.01", "--modes", "10"], "j_D overflows at A=10000000000.0, alpha=1.01"),
    ],
)
def test_non_finite_scales_exit_one(capsys, argv, message):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err and captured.err.count("\n") == 1


def test_spectrum(capsys):
    code, out = run(
        capsys,
        ["spectrum", "--epsilon-D", "0.1", "--omega", "1", "--T-grid-min", "0.5",
         "--T-grid-max", "2", "--points", "3", "--n-terms", "5000", "--tol", "1e-3"],
    )
    assert code == EXIT_OK
    assert "T,delta_omega,log_pi,n_terms" in out


def test_spectrum_readme_example_adaptive(capsys):
    # the README example runs the adaptive route by default
    code, out = run(
        capsys,
        ["spectrum", "--epsilon-D", "0.1", "--omega", "1", "--T-grid-min", "0.5",
         "--T-grid-max", "5", "--points", "20"],
    )
    assert code == EXIT_OK
    assert "# n_terms" not in out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "T,delta_omega,log_pi,n_terms"
    n_terms = [int(l.split(",")[3]) for l in lines[1:]]
    assert len(n_terms) == 20
    assert all(1 <= n <= 2000 for n in n_terms)


def test_spectrum_reports_convergence_failure(capsys):
    # a fixed truncation too short for the requested tolerance exits 2
    code, _ = run(
        capsys,
        ["spectrum", "--epsilon-D", "0.1", "--omega", "1", "--T-grid-min", "0.5",
         "--T-grid-max", "2", "--points", "2", "--n-terms", "5000", "--tol", "1e-9"],
    )
    assert code == EXIT_CONVERGENCE


def test_unitarity_verdict_json(capsys):
    # N = 20000 meets the default tol 1e-4 at T = 5: w^2 T^2 / (2 pi^2 N) = 6.3e-5
    code, out = run(
        capsys,
        ["unitarity", "--epsilon-D", "0.1", "--omega", "1", "--points", "4",
         "--n-terms", "20000"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"] == "unitary-compatible"
    assert payload["max_rel_deviation"] <= 0.1
    assert len(payload["rows"]) == 4


def test_unitarity_with_no_grid_point_above_eps_d(capsys):
    # every T of the grid lies below eps_D = 10: no above-eps_D statistics
    code, out = run(capsys, ["unitarity", "--epsilon-D", "10", "--omega", "1", "--points", "3"])
    assert code == EXIT_OK
    payload = strict_json(out)
    assert payload["verdict"] == "sub-epsilon-D"
    assert payload["mean_delta_omega"] is None and payload["max_rel_deviation"] is None
    assert [row["verdict"] for row in payload["rows"]] == ["sub-epsilon-D"] * 3


def test_vanishing_amplitude_puts_every_point_below_eps_d(capsys):
    # (A / sigma)^(-1 / (alpha - 1)) = 1e2000 overflows: eps_D is infinite
    argv = ["--A", "1e-100", "--alpha", "1.05", "--points", "2"]
    code, out = run(capsys, ["unitarity"] + argv)
    assert code == EXIT_OK
    payload = strict_json(out)
    assert payload["verdict"] == "sub-epsilon-D"
    assert [row["verdict"] for row in payload["rows"]] == ["sub-epsilon-D"] * 2
    code, out = run(capsys, ["commutator"] + argv)
    assert code == EXIT_OK
    assert [line.rsplit(",", 1)[1] for line in out.splitlines()[-2:]] == ["sub_eps_D"] * 2


def test_unitarity_ignores_deviations_within_tail_bounds(capsys):
    # ln Pi is about 0 here and each value lies within its tail bound
    # (about tol = 1e-4) of it, so the spread of delta_omega is no deviation
    code, out = run(capsys, ["unitarity", "--A", "1e12", "--alpha", "3", "--omega", "1", "--points", "3"])
    assert code == EXIT_OK
    payload = strict_json(out)
    assert payload["verdict"] == "unitary-compatible"
    assert payload["max_rel_deviation"] == 0.0
    assert [row["verdict"] for row in payload["rows"]] == ["unitary-compatible"] * 3


def test_json_output_refuses_nan(capsys, monkeypatch):
    from diffpath import oscillator

    real = oscillator.unitarity_diagnostic

    def nan_mean(*args):
        return dataclasses.replace(real(*args), mean_delta_omega=math.nan)

    monkeypatch.setattr(oscillator, "unitarity_diagnostic", nan_mean)
    code = main(["unitarity", "--epsilon-D", "0.1", "--omega", "1", "--points", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_unitarity_reports_convergence_failure(capsys):
    # N = 1000 misses tol 1e-4 once w^2 T^2 / (2 pi^2 N) > 1e-4 (T > 1.4);
    # the JSON is still written
    argv = ["unitarity", "--epsilon-D", "0.1", "--omega", "1", "--points", "12"]
    code, out = run(capsys, argv + ["--n-terms", "1000"])
    assert code == EXIT_CONVERGENCE
    assert len(json.loads(out)["rows"]) == 12
    code, out = run(capsys, argv + ["--n-terms", "1000", "--T-grid-max", "0.8"])
    assert code == EXIT_OK


def test_paths_export(capsys):
    argv = ["paths", "--A", "10", "--modes", "30", "--seed", "5", "--grid-points", "11"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == EXIT_OK and out1 == out2
    assert "# rng = " in out1 and "t,x" in out1
    code, out = run(capsys, argv + ["--export", "coeffs"])
    assert code == EXIT_OK and "n,a_n" in out


def test_commutator_scan(capsys):
    code, out = run(
        capsys,
        ["commutator", "--A", "10", "--eps-min", "0.01", "--eps-max", "0.3",
         "--points", "3"],
    )
    assert code == EXIT_OK
    assert "eps,commutator,regime" in out


def test_casimir_scan_and_bound(capsys):
    code, out = run(
        capsys,
        ["casimir", "--model", "standard", "--points", "2"],
    )
    assert code == EXIT_OK
    assert "L,delta_E,model,x" in out
    # standard model: delta_E = (pi hbar c / 2 L)(-1/12)
    row = [l for l in out.splitlines() if l and not l.startswith(("#", "L,"))][0]
    l_val, de = float(row.split(",")[0]), float(row.split(",")[1])
    import math

    assert de == pytest.approx(0.5 * math.pi / l_val * (-1.0 / 12.0), rel=1e-3)

    code, out = run(
        capsys,
        ["casimir", "--bound", "--L-exp", "1e-7", "--rel-error", "0.01", "--c", "3e8"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert 1e-16 <= payload["epsilon_d"] <= 1e-14


@pytest.mark.parametrize(
    "argv, code, message",
    [
        # Abar^2 = inf: the omitted-mode bound is the free sum, and s_diff names the overflow
        (["oracle", "--A", "1e160"], EXIT_USAGE, "s_diff requires a finite Abar^2"),
        (["oracle", "--epsilon-D", "1e-200"], EXIT_USAGE, "s_diff requires a finite Abar^2"),
        # Abar^2 = 2.5e300 is finite, A^2 = 1e310 is not: the bound never forms A^2
        (["oracle", "--A", "1e155", "--T", "1e10", "--eps", "1"], EXIT_OK, None),
        # omega_D,min = pi c / (L_exp x_max) underflows to 0, or overflows
        (["casimir", "--bound", "--L-exp", "1e300", "--rel-error", "1e-300", "--c", "1e-300"], EXIT_USAGE,
         "omega_D,min = pi c / (L_exp sqrt(40 rel_error / 12)) = 0.0 is not a positive finite float"
         " at L_exp=1e+300, rel_error=1e-300, c=1e-300"),
        (["casimir", "--bound", "--L-exp", "1e-300", "--rel-error", "0.5", "--c", "1e300"], EXIT_USAGE,
         "= inf is not a positive finite float at L_exp=1e-300, rel_error=0.5, c=1e+300"),
        # omega_D,min is finite, the headline epsilon_d = L_exp / c is not
        (["casimir", "--bound", "--L-exp", "1e300", "--rel-error", "1e-300", "--c", "1e-20"], EXIT_USAGE,
         "epsilon_d = L_exp / c = inf is not a positive finite float at L_exp=1e+300, rel_error=1e-300, c=1e-20"),
        # alpha = 3000: W_j and B_j = A / j^alpha are 0.0 in floats from j = 2 on, weight 0.0 and a_j = 0
        (["v2", "--A", "10", "--alpha", "3000", "--points", "2"], EXIT_OK, None),
        (["commutator", "--A", "10", "--alpha", "3000", "--points", "2"], EXIT_OK, None),
        (["oracle", "--A", "10", "--alpha", "3000"], EXIT_OK, None),
        (["paths", "--A", "10", "--alpha", "3000", "--modes", "5", "--grid-points", "3"], EXIT_OK, None),
        # (B_j sqrt(b_j))^2 underflows to 0.0 from j = 22 on: the sampler's x -> 0 limit
        (["oracle", "--A", "1e-150", "--alpha", "10", "--modes", "100"], EXIT_OK, None),
        # a grid T is a numpy float; Abar(T) ~ 1e186 at T = 5 is finite and its square is not,
        # which is named (a numpy Abar would warn on the square, an error under pytest's filters)
        (["spectrum", "--epsilon-D", "0.00286", "--alpha", "58.4", "--T", "0.0204", "--points", "2",
          "--omega", "1"], EXIT_USAGE, "log_pi requires a finite Abar(T)^2 = m pi^2 A(T)^2 / (4 hbar T) at T=5.0"),
    ],
)
@pytest.mark.filterwarnings("ignore::diffpath.mc.ModeTruncationWarning")
def test_extreme_scales_exit_with_a_reason(capsys, argv, code, message):
    # an exception other than ValueError or ConvergenceError would leave main
    # as a traceback and fail here
    flags = []
    if argv[0] == "oracle":
        flags = ["--samples", "100"] if "--modes" in argv else ["--modes", "5", "--samples", "100"]
    assert main(argv + flags) == code
    err = capsys.readouterr().err
    if message is None:
        assert "error" not in err
    else:
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_casimir_rejects_small_cutoff(capsys):
    # delta is the n_c -> infinity limit: the cutoff and regulator flags are gone
    for flags in (["--n-c", "5"], ["--regulator", "gauss"]):
        assert main(["casimir", *flags]) == EXIT_USAGE
        assert flags[0] in capsys.readouterr().err


def _python(code):
    """Run ``code`` in a fresh interpreter that imports diffpath from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.special and scipy.integrate are imported by the functions that
    # call them, not at start-up, so start-up and the casimir and paths
    # modules load no scipy module (nor mpmath or hypothesis, test extras)
    code = ("import sys, diffpath, diffpath.cli, diffpath.casimir, diffpath.paths\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath', 'hypothesis')))")
    out = _python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_casimir_em_table_not_built_at_import():
    code = "import diffpath.casimir as c\nprint(c._EM_TABLE)"
    out = _python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "None"


def _readme_commands():
    lines, in_bash = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_bash = line.strip() == "```bash"
        elif in_bash and line.startswith("diffpath "):
            lines.append(line)
    return lines


def _readme_argvs():
    """The argv of every README example, --out dropped so that stdout carries the output."""
    argvs = []
    for line in _readme_commands():
        argv = shlex.split(line)[1:]
        if "--out" in argv:
            del argv[argv.index("--out") : argv.index("--out") + 2]
        argvs.append(argv)
    return argvs


@pytest.mark.parametrize("argv", [
    ["casimir", "--model", "tanh", "--points", "10"],
    ["casimir", "--bound", "--L-exp", "1e-7", "--rel-error", "0.01", "--c", "3e8"],
    ["paths", "--A", "10", "--modes", "200", "--seed", "7", "--grid-points", "500", "--export", "coeffs"],
] + _readme_argvs())
def test_casimir_and_paths_run_without_scipy(capsys, argv):
    # every README example, and the casimir and paths ones again: no command
    # needs scipy; sys.modules["scipy"] = None makes every scipy import raise ImportError
    code, expected = run(capsys, argv)
    assert code == EXIT_OK
    out = _python(f"import sys; sys.modules['scipy'] = None\nfrom diffpath.cli import main\nsys.exit(main({argv!r}))")
    assert out.returncode == EXIT_OK, out.stderr
    assert out.stdout == expected


def _mc_runs():
    from diffpath.mc import estimate_pi_factor, estimate_v2
    from diffpath.paths import ModelParams

    runs = (estimate_v2(ModelParams(A=10.0), 0.05, N_modes=100, n_samples=2000, seed=0),
            estimate_pi_factor(ModelParams(A=10.0, omega=1.0), N_modes=100, n_samples=2000, seed=0))
    return [x.hex() for r in runs for x in (r.mean, r.stderr, r.truncation_bias_bound)]


def test_mc_estimators_run_without_scipy():
    # with every scipy import raising ImportError both estimators give the
    # same bits as in this process, and without the block they load no scipy
    import inspect

    code = "import diffpath.cli\n" + inspect.getsource(_mc_runs) + "print(*_mc_runs())\n"
    blocked = _python("import sys; sys.modules['scipy'] = None\n" + code)
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout.split() == _mc_runs()
    loaded = _python(code + "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout.splitlines()[-1] == "[]"


def test_oracle(capsys):
    argv = ["oracle", "--A", "10", "--eps", "0.05", "--modes", "200",
            "--samples", "2000", "--seed", "1"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == EXIT_OK and out1 == out2
    lines = [l for l in out1.splitlines() if l.startswith("v2")]
    mc = float(lines[0].split(",")[1])
    analytic = float(lines[1].split(",")[1])
    stderr = float(lines[0].split(",")[2])
    assert abs(mc - analytic) < 4.0 * stderr


def test_oracle_readme_example_pinned(capsys):
    # the sampled digits are part of the version: a change to how the one
    # stream is consumed must show here
    code, out = run(capsys, ["oracle", "--A", "10", "--eps", "0.05", "--modes", "500",
                             "--samples", "20000", "--seed", "1"])
    assert code == EXIT_OK
    row = next(l for l in out.splitlines() if l.startswith("v2,")).split(",")
    assert float(row[1]).hex() == "0x1.e232132b1248bp+3"  # 15.06861265575778
    assert float(row[2]).hex() == "0x1.33e2e5ad7b190p-3"  # 0.15033511577292957


def test_oracle_keeps_stderr_at_tiny_amplitude(capsys):
    # <v^2> ~ 4e-300: the spread of v^2 about its mean underflows unless
    # the moments are taken on a scaled v
    code, out = run(capsys, ["oracle", "--A", "1e-150", "--alpha", "4", "--modes", "10",
                             "--samples", "100"])
    assert code == EXIT_OK
    mc, analytic = (l.split(",") for l in out.splitlines() if l.startswith("v2"))
    mean, stderr = float(mc[1]), float(mc[2])
    assert stderr > 0.0
    assert abs(mean - float(analytic[1])) < 4.0 * stderr


def test_oracle_rejects_t0(capsys):
    # the analytic <v^2> is the t0 = 0 value, so a Monte-Carlo v2 at another
    # t0 would be compared with a different quantity
    code = main(["oracle", "--A", "10", "--eps", "0.05", "--modes", "20", "--samples", "20",
                 "--seed", "1", "--t0", "0.3"])
    assert code == EXIT_USAGE
    assert "--t0" in capsys.readouterr().err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code = main(["v2", "--A", "10", "--eps-min", "0.01", "--eps-max", "0.1",
                 "--points", "2", "--out", str(target)])
    assert code == EXIT_OK
    assert target.read_text().startswith("#")
    assert capsys.readouterr().out == ""


def test_out_file_unwritable(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code = main(["v2", "--A", "10", "--points", "2", "--out", str(target)])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {target}") and "Traceback" not in err
    assert not target.exists()


def test_exit_codes_exported():
    assert (EXIT_OK, EXIT_USAGE, EXIT_CONVERGENCE) == (0, 1, 2)


@pytest.mark.parametrize("subcommand", ["v2", "commutator"])
def test_large_amplitude_scans_converge(capsys, subcommand):
    # A = 1e9 puts j* near 2e8, deep in the Feynman limit of the restricted series
    code, out = run(capsys, [subcommand, "--A", "1e9", "--points", "20"])
    assert code == EXIT_OK
    assert len([l for l in out.splitlines() if not l.startswith("#")]) == 1 + 20 * (
        2 if subcommand == "v2" else 1
    )


def _csv_blocks(text):
    """[(metadata keys, header, data rows)] for each '#' block of a CSV."""
    blocks = []
    for line in text.split("\n")[:-1]:
        if line.startswith("# "):
            if not blocks or blocks[-1][1] is not None:
                blocks.append([[], None, []])
            blocks[-1][0].append(line[2:].split(" = ")[0])
        elif blocks[-1][1] is None:
            blocks[-1][1] = line
        else:
            blocks[-1][2].append(line.split(","))
    return blocks


def _cell_round_trips(cell):
    if cell.lstrip("-").isdigit():
        return True  # an integer column
    try:
        return repr(float(cell)) == cell
    except ValueError:
        return cell.isidentifier()  # a label: model, regime or quantity


_FLAGS = "A T alpha"
_PATHS_KEYS = f"{_FLAGS} export grid_points hbar m modes seed subcommand rng j_D which"


@pytest.mark.parametrize(
    "argv, keys, header, n_rows",
    [
        pytest.param(
            ["v2", "--A", "10", "--eps-min", "0.01", "--eps-max", "0.4", "--points", "3"],
            f"{_FLAGS} eps_max eps_min hbar log_spacing m points subcommand tol",
            "eps,v2,n_terms,tail_bound,model", 6, id="v2",
        ),
        pytest.param(
            ["spectrum", "--epsilon-D", "0.1", "--omega", "1", "--T-grid-min", "0.5",
             "--T-grid-max", "2", "--points", "3"],
            "T T_grid_max T_grid_min alpha epsilon_D hbar log_spacing m omega points subcommand tol",
            "T,delta_omega,log_pi,n_terms", 3, id="spectrum",
        ),
        pytest.param(
            ["commutator", "--A", "10", "--eps-min", "0.01", "--eps-max", "0.2", "--points", "2"],
            f"{_FLAGS} eps_max eps_min hbar log_spacing m model points subcommand tol",
            "eps,commutator,regime", 2, id="commutator",
        ),
        pytest.param(
            ["paths", "--A", "10", "--modes", "20", "--seed", "5", "--grid-points", "3"],
            _PATHS_KEYS, "t,x", 3, id="paths-trajectory",
        ),
        pytest.param(
            ["paths", "--A", "10", "--modes", "20", "--seed", "5", "--export", "coeffs"],
            _PATHS_KEYS, "n,a_n", 20, id="paths-coeffs",
        ),
        pytest.param(
            ["oracle", "--A", "10", "--eps", "0.05", "--modes", "200", "--samples", "200",
             "--seed", "7"],
            f"rng {_FLAGS} eps hbar m modes samples seed subcommand tol",
            "quantity,mean,stderr,n_samples,seed", 2, id="oracle",
        ),
        pytest.param(
            ["casimir", "--model", "standard", "--points", "2"],
            "L_exp L_max L_min bound c hbar log_spacing model omega_D points rel_error subcommand",
            "L,delta_E,model,x", 2, id="casimir",
        ),
    ],
)
def test_csv_format(tmp_path, capsys, argv, keys, header, n_rows):
    # '#' metadata in a fixed order, the header, then rows of exact floats,
    # every line ending in '\n'; --out writes the same bytes as stdout
    code, out = run(capsys, argv)
    assert code == EXIT_OK
    assert "\r" not in out and out.endswith("\n")
    blocks = _csv_blocks(out)
    # paths writes the twin as a second block that carries only its name
    assert len(blocks) == (2 if argv[0] == "paths" else 1)
    for i, (meta, head, rows) in enumerate(blocks):
        assert " ".join(meta) == (keys if i == 0 else "which")
        assert head == header
        assert len(rows) == n_rows
        assert all(len(r) == header.count(",") + 1 for r in rows)
        assert all(_cell_round_trips(c) for c in rows[0]), rows[0]
    rows = blocks[0][2]
    if argv[0] == "commutator":
        assert [r[2] for r in rows] == ["sub_eps_D", "super_eps_D"]
    if argv[0] == "oracle":
        assert [r[0] for r in rows] == ["v2", "v2_analytic"]
        assert rows[0][3:] == ["200", "7"] and rows[1][2:] == ["0.0", "0", "7"]
    if "coeffs" in argv:
        assert [r[0] for r in rows] == [str(n) for n in range(1, 21)]
    target = tmp_path / "out.csv"
    assert main(argv + ["--out", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv, keys",
    [
        pytest.param(
            ["unitarity", "--epsilon-D", "0.1", "--omega", "1", "--points", "3"],
            {"verdict", "threshold", "mean_delta_omega", "max_rel_deviation", "sub_eps_mean",
             "sub_eps_max_rel_deviation", "rows"},
            id="unitarity",
        ),
        pytest.param(
            ["casimir", "--bound"],
            {"epsilon_d", "epsilon_d_exact", "omega_d_min", "omega_d_min_order"},
            id="casimir-bound",
        ),
    ],
)
def test_json_keys(tmp_path, capsys, argv, keys):
    code, out = run(capsys, argv)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == keys
    if "rows" in payload:
        assert all(set(r) == {"T", "delta_omega", "verdict"} for r in payload["rows"])
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    target = tmp_path / "out.json"
    assert main(argv + ["--out", str(target)]) == EXIT_OK
    assert target.read_bytes() == out.encode()

def test_commutator_reports_convergence_failure(capsys, monkeypatch):
    def unconverged(tau, params, tol=1e-10):
        return SeriesValue(0.1, 4096, 1.0, False)

    monkeypatch.setattr(velocity, "s_diff", unconverged)
    code = main(["commutator", "--A", "10", "--points", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_CONVERGENCE
    assert captured.out == ""
    assert captured.err.startswith("convergence failure: ")


def test_readme_examples_exit_zero(tmp_path, capsys):
    commands = _readme_commands()
    assert len(commands) >= 7
    for i, line in enumerate(commands):
        argv = shlex.split(line)[1:]
        if "--out" in argv:
            del argv[argv.index("--out") : argv.index("--out") + 2]
        target = tmp_path / f"example{i}.out"
        assert main(argv + ["--out", str(target)]) == EXIT_OK, line
        data = target.read_bytes()
        assert data and b"\r" not in data, line
        if data.startswith(b"{"):
            strict_json(data)
    assert capsys.readouterr().out == ""
