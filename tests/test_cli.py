import contextlib
import json
import math
import signal
import time
import warnings

import numpy as np
import pytest

from keplersym import fields
from keplersym.cli import main
from test_flow import _kepler_propagate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_conserved_ell(capsys):
    code, out, _ = run_cli(capsys, "conserved", "--r", "1,0,0", "--v", "0,1.2,0", "--kappa", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["E"] == pytest.approx(-0.28)
    assert doc["eccentricity"] == pytest.approx(0.44)
    for key in ("L", "A", "A_mag", "Theta", "M", "orbit_class", "period", "semi_major"):
        assert key in doc


def test_conserved_parse_error(capsys):
    code, _, err = run_cli(capsys, "conserved", "--r", "1,0", "--v", "0,1,0")
    assert code == 2
    assert "three comma-separated" in err


def test_conserved_singular_origin(capsys):
    code, _, err = run_cli(capsys, "conserved", "--r", "0,0,0", "--v", "0,1,0")
    assert code == 3
    assert "singular" in err.lower()


def test_transform_direction(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform", "--kind", "lrl-direction",
        "--eps", "0,0.3,0", "--r", "1,0,0", "--v", "0,1.2,0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["admissible"] is True
    assert doc["state"]["r"][0] == pytest.approx(-0.2570, abs=1e-4)
    assert doc["state"]["r"][1] == pytest.approx(0.9664, abs=1e-4)
    assert "delta_t" in doc and "diagnostics" in doc


def test_transform_identity(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform", "--kind", "lrl-direction",
        "--eps", "0,0,0", "--r", "1,0,0", "--v", "0,1.2,0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["delta_t"] == 0.0


def test_transform_inadmissible_exit4(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform", "--kind", "lrl-direction",
        "--eps", "0,0,0.2", "--r", "1,0,0", "--v", "0,1.2,0",
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["admissible"] is False
    assert doc["diagnostics"]["root_argument"] == pytest.approx(-0.04, abs=1e-10)


# a state and parameter whose time-shift quadrature has not converged after six
# doublings from one panel (last difference 1.1e-10 > 1e-10), but does from 64
UNCONVERGED = (
    "transform", "--kind", "lrl-direction",
    "--r=-1.131145133394567,-0.2502189859576224,-0.7405036157430636",
    "--v=-0.06099881689935715,-0.32703986481662173,0.002820250844952747",
    "--eps=0.05011218594610109,0.24526524279994805,-0.21144456544658605",
)


def test_transform_unconverged_quadrature_exit4(capsys):
    code, out, _ = run_cli(capsys, *UNCONVERGED, "--quad-panels", "1")
    assert code == 4
    doc = json.loads(out)
    assert doc["admissible"] is False
    assert doc["diagnostics"]["quadrature_panels"] == 64
    assert doc["diagnostics"]["quadrature_difference"] > 1e-10
    code, out, _ = run_cli(capsys, *UNCONVERGED)
    assert code == 0
    doc = json.loads(out)
    assert doc["admissible"] is True
    assert doc["diagnostics"]["quadrature_difference"] <= 1e-10


@pytest.mark.parametrize(
    "r, v", [("1e155,0,0", "0,1e-160,0"), ("1e150,0,0", "0,1e150,0"), ("1e154,0,0", "0,100,0")]
)
def test_conserved_overflowing_state_exit3(capsys, r, v):
    # E and |A| used to come out as +5e-321 and 0, as Infinity and NaN, or |A| = 1e158 as Infinity
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "conserved", "--r", r, "--v", v)
    assert code == 3
    assert out == "" and "overflows" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_sweep_inadmissible_point_writes_nothing(capsys):
    # every eps along z from this periapsis is inadmissible but eps = 0
    code, out, _ = run_cli(
        capsys,
        "sweep", "--kind", "lrl-direction", "--eps-axis", "0,0,1", "--eps-max", "0.3",
        "--grid", "4", "--r", "1,0,0", "--v", "0,1.2,0", "--tmax", "1.0", "--dt-out", "0.5",
    )
    assert code == 4
    assert out == ""


def test_sweep_unconverged_point_exit4(capsys):
    # at one panel this point's time shift has not converged after six doublings
    state = (
        "--r=-1.0093184832806594,1.2447164078090283,-0.6161104459654111",
        "--v=0.6306985324958218,0.14969561470428835,-1.6572877132678252",
    )
    eps = "-0.06234535838063827,0.02981075528078348,-0.15623586312404178"
    code, out, _ = run_cli(capsys, "transform", "--kind", "lrl", f"--eps={eps}", *state, "--quad-panels", "1")
    assert code == 4 and json.loads(out)["admissible"] is False
    code, out, err = run_cli(
        capsys,
        "sweep", "--kind", "lrl", f"--eps-axis={eps}", f"--eps-max={math.hypot(*map(float, eps.split(',')))!r}",
        "--grid", "2", "--tmax", "0.05", "--quad-panels", "1", *state,
    )
    assert code == 4
    assert out == "" and "grid point 1" in err


def test_orbit_request_evaluates_values_once(capsys, monkeypatch):
    # the CSV columns are the values the drift is taken from
    calls = []
    values = fields.values
    monkeypatch.setattr(fields, "values", lambda *args: calls.append(args) or values(*args))
    code, out, _ = run_cli(capsys, "orbit", "--r", "1,0,0.1", "--v", "0,1.2,0", "--tmax", "2", "--dt-out", "0.25")
    assert code == 0 and len(calls) == 1
    again = values(*calls[0])
    rows = [[float(x) for x in line.split(",")[7:]] for line in out.splitlines()[1:]]
    assert rows == np.column_stack([again["E"], again["L"], again["A"]]).tolist()


def test_transform_rotation_and_time(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform", "--kind", "rotation",
        "--eps", "0,0,1.5707963267948966", "--r", "1,0,0", "--v", "0,1.2,0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["state"]["r"][1] == pytest.approx(1.0)
    code, out, _ = run_cli(
        capsys, "transform", "--kind", "time", "--eps", "0.5", "--r", "1,0,0", "--v", "0,1.2,0"
    )
    assert code == 0
    # a time translation does not keep |r|, and every time parameter is admissible
    assert json.loads(out)["admissible"] is True


def test_brackets_command(capsys):
    code, out, _ = run_cli(capsys, "brackets", "--r", "1,0,0", "--v", "0,1.2,0", "--fd-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_residual"] <= 1e-10
    assert doc["max_fd_residual"] <= 1e-5
    assert any("fd_residual" in e for e in doc["entries"])


def test_brackets_degenerate_exit3(capsys):
    code, _, err = run_cli(capsys, "brackets", "--r", "1,0,0", "--v", "0,1,0")
    assert code == 3


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "algebra", "--samples", "40", "--seed", "7")
    assert code == 0
    assert "PASS" in out


def test_verify_forced_failure(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "algebra", "--samples", "30", "--seed", "7", "--tol", "1e-30"
    )
    assert code == 1
    assert "FAIL" in out


def test_orbit_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "orbit", "--r", "1,0,0", "--v", "0,1.2,0", "--tmax", "2.0", "--dt-out", "0.01",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("t,rx,ry,rz,vx,vy,vz,E,")
    assert len(lines) == 2 + 200  # header + t=0 sample + 200 grid points


def test_sweep_families(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--kind", "lrl-direction", "--eps-axis", "0,1,0", "--eps-max", "0.3",
        "--grid", "5", "--r", "1,0,0", "--v", "0,1.2,0", "--tmax", "1.0", "--dt-out", "0.5",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("family,t,")
    families = {line.split(",")[0] for line in lines[1:]}
    assert len(families) == 5


def test_sweep_empty_grid_exit2(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep", "--kind", "lrl-direction", "--eps-axis", "0,1,0", "--eps-max", "0.3",
        "--grid", "0", "--r", "1,0,0", "--v", "0,1.2,0", "--tmax", "1.0",
    )
    assert code == 2


def test_determinism(capsys):
    _, out1, _ = run_cli(capsys, "conserved", "--r", "1,0,0", "--v", "0,1.2,0")
    _, out2, _ = run_cli(capsys, "conserved", "--r", "1,0,0", "--v", "0,1.2,0")
    assert out1 == out2
    _, v1, _ = run_cli(capsys, "verify", "--suite", "algebra", "--samples", "25", "--seed", "3")
    _, v2, _ = run_cli(capsys, "verify", "--suite", "algebra", "--samples", "25", "--seed", "3")
    # strip the timing column before comparing
    strip = lambda text: [line.split("  n=")[0] for line in text.splitlines()]
    assert strip(v1) == strip(v2)


def test_config_file_and_env(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kappa": 2.0}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "conserved", "--r", "3,4,0", "--v", "0,1,0")
    assert code == 0
    assert json.loads(out)["kappa"] == 2.0
    monkeypatch.setenv("KEPLERSYM_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "conserved", "--r", "3,4,0", "--v", "0,1,0")
    assert json.loads(out)["kappa"] == 2.0
    # explicit flag wins over the file
    code, out, _ = run_cli(capsys, "conserved", "--r", "3,4,0", "--v", "0,1,0", "--kappa", "1")
    assert json.loads(out)["kappa"] == 1.0


def test_transform_time_nan_exit2(capsys):
    code, _, err = run_cli(
        capsys, "transform", "--kind", "time", "--eps", "nan", "--r", "1,0,0", "--v", "0,1.2,0"
    )
    assert code == 2
    assert "finite" in err


def test_orbit_nan_tmax_exit2(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--tmax", "nan", "--r", "1,0,0", "--v", "0,1.2,0")
    assert code == 2
    assert out == ""


def test_orbit_inf_tmax_exit2(capsys):
    code, _, _ = run_cli(
        capsys, "orbit", "--tmax", "inf", "--dt-out", "1", "--r", "1,0,0", "--v", "0,1.2,0"
    )
    assert code == 2


def test_orbit_huge_grid_exit2(capsys):
    # 10^12 grid points: refused before any sample is made
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "orbit", "--r", "1,0,0", "--v", "0,1.2,0", "--tmax", "1e9", "--dt-out", "1e-3"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "dt_out grid" in err


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body after `seconds`, so that a hang fails the test."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "argv, code",
    [
        (("orbit", "--r", "1e200,0,0", "--v", "0,1e200,0", "--tmax", "3"), 3),
        (("orbit", "--r", "1,0,0", "--v", "0,1e300,0", "--tmax", "3"), 3),
        (("orbit", "--r", "1e-7,0,0", "--v", "0,1e5,0", "--tmax", "3"), 3),
        (("orbit", "--r", "1e-300,0,0", "--v", "0,1.2,0", "--tmax", "3"), 3),
        (("orbit", "--r", "0.05,0,0", "--v=-0.5,0,0", "--tmax", "5"), 3),  # radial infall
        (("orbit", "--r", "1e155,0,0", "--v", "0,1e-160,0", "--tmax", "3"), 3),  # |r|^2 overflows
        (("transform", "--kind", "time", "--eps", "1e3", "--r", "1,0,0", "--v", "0,1.2,0"), 0),
        (("transform", "--kind", "time", "--eps", "5", "--r", "0.05,0,0", "--v=-0.5,0,0"), 3),  # radial infall
        (("transform", "--kind", "time", "--eps", "0.01", "--r", "0.05,0,0", "--v=-0.5,0,0"), 0),  # ends short of it
        (("transform", "--kind", "time", "--eps", "3", "--r", "1e155,0,0", "--v", "0,1e-160,0"), 3),
        # periapsis at 1e-7, above the collision floor
        (("transform", "--kind", "time", "--eps", "3", "--r", "1e-7,0,0", "--v", "0,1e5,0"), 0),
        (("transform", "--kind", "time", "--eps", "1e300", "--r", "1,0,0", "--v", "0,2,0"), 3),  # |r|^2 overflows
    ],
)
def test_orbit_extreme_inputs_exit_codes(capsys, argv, code):
    # overflowing, colliding and underflowing orbits end in exit 3, never a traceback
    with deadline(10):
        assert run_cli(capsys, *argv)[0] == code


@pytest.mark.parametrize("flag, value", [("--tol", "1e-160"), ("--tol", "1e-300"), ("--tol", "nan"),
                                         ("--tol", "inf"), ("--max-step", "-1"), ("--max-step", "inf")])
def test_orbit_bad_step_control_exit2(capsys, flag, value):
    # tol below about 1e-154 overflowed the initial-step estimate into a NaN step
    # that was rejected forever, and a negative max_step stepped away from tmax
    start = time.perf_counter()
    with deadline(5):
        code, out, err = run_cli(capsys, "orbit", "--r", "1,0,0", "--v", "0,1.2,0", "--tmax", "3", flag, value)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == "" and flag[2:].replace("-", "_") in err


def test_verify_unreachable_branch_exit2(capsys):
    # at kappa = 100 the sampled states hold no E > 0.05, so the pos-branch
    # pair sampling gives up instead of looping forever; few RK4 steps keep
    # the flow properties run before it cheap
    code, _, err = run_cli(
        capsys, "verify", "--suite", "transforms", "--kappa", "100", "--samples", "5",
        "--rk-steps", "100",
    )
    assert code == 2
    assert "'pos'" in err and "kappa = 100" in err


def test_verify_unreachable_branch_fails_before_flow_work(capsys, monkeypatch):
    # every pair set is drawn before the one fused RK4 batch, so at the
    # default --rk-steps the pos branch gives up before any flow runs
    def no_flows(*args, **kwargs):
        pytest.fail("a symmetry flow ran before the unreachable branch failed")

    monkeypatch.setattr("keplersym.verify.integrate_symmetry_flows", no_flows)
    code, _, err = run_cli(capsys, "verify", "--suite", "transforms", "--kappa", "100", "--samples", "5")
    assert code == 2
    assert "'pos'" in err and "kappa = 100" in err


def test_config_value_of_wrong_type_exit2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": "abc"}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "conserved", "--r", "1,0,0", "--v", "0,1.2,0")
    assert code == 2
    assert out == "" and "abc" in err


def test_config_file_holding_a_list_exit2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"kappa": 2.0}]))
    code, out, err = run_cli(capsys, "--config", str(cfg), "conserved", "--r", "1,0,0", "--v", "0,1.2,0")
    assert code == 2
    assert out == "" and "JSON object" in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "--samples", "0"), "samples must be >= 1"),
    (("verify", "--samples", "-5"), "samples must be >= 1"),
    (("verify", "--suite", "flows", "--rk-steps", "0"), "rk_steps must be >= 1"),
    (("transform", "--kind", "lrl", "--eps", "0,0.1,0", "--r", "1,0,0", "--v", "0,1.2,0", "--quad-panels", "0"),
     "quad_panels must be >= 1"),
    (("verify", "--suite", "algebra", "--seed", "-1"), "seed must be >= 0"),
])
def test_run_config_flags_out_of_range_exit2(capsys, argv, message):
    # an explicit 0 used to fall back to the default, --samples -5 ran one state
    # and a negative seed ended in a traceback from numpy
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and message in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_verify_bad_tol_exit2(capsys, tol):
    code, out, err = run_cli(capsys, "verify", "--suite", "algebra", "--samples", "20", "--tol", tol)
    assert code == 2
    assert out == "" and "must be positive and finite" in err


def test_shared_parser_carries_nothing_between_calls(capsys):
    state = ("--r", "1,0,0.1", "--v", "0.1,1.2,0")
    _, plain, _ = run_cli(capsys, "brackets", *state)
    code, checked, _ = run_cli(capsys, "brackets", "--fd-check", *state)
    assert code == 0 and "fd_residual" in checked
    code, after, _ = run_cli(capsys, "brackets", *state)
    assert code == 0 and "fd_residual" not in after
    assert after == plain
    # failures with exit 2 in between, in the parser and after it, change no later reply
    with pytest.raises(SystemExit) as exc:
        main(["brackets", "--fd-check", "--r", "1,0,0"])
    assert exc.value.code == 2
    code, _, _ = run_cli(capsys, "brackets", "--fd-check", "--r", "1,0", "--v", "0,1,0")
    assert code == 2
    code, again, _ = run_cli(capsys, "brackets", *state)
    assert code == 0 and again == plain


def test_time_translation_over_many_periods_is_closed_form(capsys):
    # 6670 periods, which DP5 stepped through in tens of seconds; the propagator reduces
    # the span modulo the period
    r0, v0 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.2, 0.0])
    start = time.perf_counter()
    with deadline(10):
        code, out, _ = run_cli(capsys, "transform", "--kind", "time", "--eps", "1e5", "--r", "1,0,0", "--v", "0,1.2,0")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    doc = json.loads(out)
    r_ref, v_ref = _kepler_propagate(r0, v0, math.remainder(1e5, doc["constants"]["period"]), 1.0, False)
    assert np.max(np.abs(np.subtract(doc["state"]["r"], r_ref))) <= 1e-9
    assert np.max(np.abs(np.subtract(doc["state"]["v"], v_ref))) <= 1e-9


@pytest.mark.parametrize("spaced, joined", [
    (("conserved", "--r", "-1,0,0", "--v", "0,1,0"), ("conserved", "--r=-1,0,0", "--v=0,1,0")),
    (("transform", "--kind", "time", "--eps", "-1e3", "--r", "-1,0.2,0", "--v", "0,-1.2,0", "--t", "-2"),
     ("transform", "--kind", "time", "--eps=-1e3", "--r=-1,0.2,0", "--v=0,-1.2,0", "--t=-2")),
    (("transform", "--kind", "rotation", "--eps", "-.5,0,0", "--r", "1,0,0", "--v", "0,1.2,0"),
     ("transform", "--kind", "rotation", "--eps=-.5,0,0", "--r=1,0,0", "--v=0,1.2,0")),
])
def test_negative_values_read_in_both_forms(capsys, spaced, joined):
    code, out, _ = run_cli(capsys, *spaced)
    assert code == 0
    assert run_cli(capsys, *joined) == (0, out, "")


def test_negative_value_reader_still_reports_a_missing_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conserved", "--r", "--v", "0,1,0"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (("conserved", "--r", "1,0,0", "--v", "0,1.2,0"), 0),
    (("transform", "--kind", "rotation", "--eps", "0,0,1", "--r", "1,0,0", "--v", "0,1.2,0"), 0),
    (("transform", "--kind", "time", "--eps", "0.5", "--r", "1,0,0", "--v", "0,1.2,0"), 0),
    (("transform", "--kind", "lrl", "--eps", "0,0.3,0", "--r", "1,0,0", "--v", "0,1.2,0"), 0),
    (("transform", "--kind", "lrl-direction", "--eps", "0,0.3,0", "--r", "1,0,0", "--v", "0,1.2,0"), 0),
    (("transform", "--kind", "lrl-direction", "--eps", "0,0,0.2", "--r", "1,0,0", "--v", "0,1.2,0"), 4),
    (("brackets", "--r", "1,0,0.1", "--v", "0.1,1.2,0"), 0),
    (("brackets", "--fd-check", "--r", "1,0,0.1", "--v", "0.1,1.2,0"), 0),
])
def test_json_replies_are_one_line(capsys, argv, code):
    exit_code, out, _ = run_cli(capsys, *argv)
    assert exit_code == code
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["schema_version"] == 1
