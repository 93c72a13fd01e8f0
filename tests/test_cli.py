import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from duopoly_invest.cli import EXIT_DOMAIN, EXIT_NUMERIC, EXIT_USAGE, main
from duopoly_invest.mc import estimate_payoff
from duopoly_invest.model import derive_params
from duopoly_invest.outcomes import build_abstain_outcome
from duopoly_invest.boundaries import ConstantPriceBoundary

GOLDEN_BLOCK = {"r": 1.0, "mu": 0.0, "sigma": math.sqrt(2.0), "gamma": 1.5}


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity: Python writes them, but they
    are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture()
def golden_config(tmp_path):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(GOLDEN_BLOCK))
    return cfg


def test_derive_golden(golden_config, capsys):
    assert main(["derive", "--config", str(golden_config)]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["beta"] == pytest.approx(1.6180340, abs=1e-7)
    assert out["p_star"] == pytest.approx(2.6180340, abs=1e-7)


def test_derive_integrability_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**GOLDEN_BLOCK, "gamma": 1.7}))
    assert main(["derive", "--config", str(cfg)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "r > gamma*mu + gamma*(gamma-1)*sigma^2/2" in err


def test_derive_missing_field_exit_64(tmp_path, capsys):
    cfg = tmp_path / "missing.json"
    cfg.write_text(json.dumps({"r": 1.0, "mu": 0.0}))
    assert main(["derive", "--config", str(cfg)]) == EXIT_USAGE


def test_unknown_flag_exit_64(golden_config, capsys):
    assert main(["derive", "--config", str(golden_config), "--bogus"]) == EXIT_USAGE


def test_value_command(tmp_path, capsys):
    pp = derive_params(**GOLDEN_BLOCK)
    x = pp.p_star * 2.0 ** (1 / pp.gamma) / 2.0
    cfg = tmp_path / "value.json"
    cfg.write_text(json.dumps({
        "params": GOLDEN_BLOCK,
        "value": {"kind": "abstain", "p": pp.p_star},
        "states": [[x, 1.0, 1.0]],
    }))
    assert main(["value", "--config", str(cfg)]) == 0
    rows = _strict_json(capsys.readouterr().out)
    assert rows[0]["value"] == pytest.approx(0.7818953180863912, rel=1e-12)
    assert "qi" in rows[0]["partials"]


def test_verify_command_all_pass(tmp_path):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({
        "params": GOLDEN_BLOCK,
        "value": {"kind": "abstain"},
        "grid": {"nx": 8, "nq": 5},
    }))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = _strict_json(out.read_text())
    assert report["all_pass"] is True
    for entry in report["conditions"].values():
        assert set(entry) >= {"worst", "at", "pass"}


def test_simulate_command_matches_api(tmp_path, capsys):
    pp = derive_params(**GOLDEN_BLOCK)
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(GOLDEN_BLOCK))
    strat = tmp_path / "strategy.json"
    strat.write_text(json.dumps({"kind": "constant_price", "p": pp.p_star,
                                 "construction": "abstain", "abstaining_firm": 1}))
    assert main(["simulate", "--params", str(params_file), "--strategy", str(strat),
                 "--state", "2.0,1.0,1.0", "--paths", "200", "--dt", "0.01",
                 "--horizon", "5.0", "--seed", "9"]) == 0
    got = _strict_json(capsys.readouterr().out)

    cp = ConstantPriceBoundary(pp, pp.p_star)
    builder = lambda path: build_abstain_outcome((cp, cp), path, 1.0, 1.0, 1)
    ref = estimate_payoff(pp, builder, 1, 2.0, 200, 0.01, 5.0, seed=9, tail_boundary=cp)
    assert got["mean"] == ref.mean
    assert got["se"] == ref.se
    assert set(got) == {"mean", "se", "n", "dt", "T", "tail_bound"}


def test_simulate_bad_state_exit_64(tmp_path):
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(GOLDEN_BLOCK))
    strat = tmp_path / "strategy.json"
    strat.write_text(json.dumps({"kind": "constant_price", "p": 1.0}))
    assert main(["simulate", "--params", str(params_file), "--strategy", str(strat),
                 "--state", "oops"]) == EXIT_USAGE


def test_deviation_short_state_exit_64(tmp_path, capsys):
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(GOLDEN_BLOCK))
    strat = tmp_path / "strategy.json"
    strat.write_text(json.dumps({"kind": "constant_price", "p": 2.6}))
    assert main(["deviation", "--params", str(params_file), "--equilibrium", str(strat),
                 "--deviant", str(strat), "--state", "1,2"]) == EXIT_USAGE
    assert "x,q1,q2" in capsys.readouterr().err


def test_value_short_state_row_exit_64(tmp_path, capsys):
    cfg = tmp_path / "value.json"
    cfg.write_text(json.dumps({"params": GOLDEN_BLOCK, "value": {"kind": "abstain"},
                               "states": [[2.0, 1.0]]}))
    assert main(["value", "--config", str(cfg)]) == EXIT_USAGE
    assert "x,q1,q2" in capsys.readouterr().err


def test_threads_only_where_read(golden_config, capsys):
    """No command reads --threads: Monte Carlo paths run in one loop, so on
    every command, with its required arguments given, the flag is a usage
    error."""
    cfg = str(golden_config)
    argvs = {
        "derive": ["--config", cfg], "value": ["--config", cfg],
        "verify": ["--config", cfg], "sweep": ["--config", cfg],
        "npv": ["--config", cfg, "--p", "2.6"],
        "simulate": ["--params", cfg, "--strategy", cfg, "--state", "2,1,1"],
        "deviation": ["--params", cfg, "--equilibrium", cfg, "--deviant", cfg,
                      "--state", "2,1,1"],
    }
    for command, argv in argvs.items():
        assert main([command, *argv, "--threads", "2"]) == EXIT_USAGE, command
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err, command


def test_sweep_monotone_in_c(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "params": GOLDEN_BLOCK,
        "sweep": {"kind": "dynamic_c", "c_values": [0.0, 0.5, 1.0]},
        "states": [[2.0, 1.0, 1.0]],
    }))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["r", "mu", "sigma", "gamma"]
    values = [float(line.split(",")[header.index("value")]) for line in lines[1:]]
    assert len(values) == 3
    assert values[0] <= values[1] <= values[2]


def test_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "params": GOLDEN_BLOCK,
        "sweep": {"kind": "dynamic_c", "c_values": [0.0, 1.0]},
        "states": [[2.0, 1.0, 1.0]],
    }))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--config", str(cfg), "--out", str(out1)])
    main(["sweep", "--config", str(cfg), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_console_entrypoint_subprocess(golden_config):
    proc = subprocess.run(
        [sys.executable, "-m", "duopoly_invest", "derive", "--config", str(golden_config)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert _strict_json(proc.stdout)["beta"] == pytest.approx(1.6180340, abs=1e-7)


def test_npv_command(golden_config, capsys):
    pp = derive_params(**GOLDEN_BLOCK)
    assert main(["npv", "--config", str(golden_config), "--p", str(pp.p_star)]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["npv_per_unit"] == 0.0


_ABSTAIN = {"params": GOLDEN_BLOCK, "value": {"kind": "abstain"}}


@pytest.mark.parametrize("command, config", [
    ("value", {"params": GOLDEN_BLOCK, "value": {"kind": "dynamic_c", "c": "abc"},
               "states": [[2.0, 1.0, 1.0]]}),
    ("value", {"params": {**GOLDEN_BLOCK, "r": "x"}, "value": {"kind": "abstain"},
               "states": [[2.0, 1.0, 1.0]]}),
    ("verify", {**_ABSTAIN, "grid": {"nx": "z"}}),
    ("verify", [1, 2, 3]),
    ("verify", {**_ABSTAIN, "grid": [1]}),
    ("verify", {**_ABSTAIN, "boundaries": 5}),
    ("verify", {**_ABSTAIN, "grid": {"nx": 0, "nq": 3}}),
    ("verify", {**_ABSTAIN, "grid": {"nq": 0}}),
    ("verify", {**_ABSTAIN, "grid": {"nx": 1001, "nq": 3}}),
    ("verify", {**_ABSTAIN, "grid": {"nx": 4, "nq": 101}}),
    ("verify", {**_ABSTAIN, "grid": {"nx": 4, "nq": 3, "x_lo_frac": -1}}),
    ("verify", {**_ABSTAIN, "grid": {"nx": 4, "nq": 1}}),
    ("sweep", {"params": GOLDEN_BLOCK, "sweep": {"kind": "dynamic_c", "c_values": 5},
               "states": [[2.0, 1.0, 1.0]]}),
    ("sweep", {"params": GOLDEN_BLOCK, "sweep": {"kind": "abstain", "p_values": "2.6"},
               "states": [[2.0, 1.0, 1.0]]}),
], ids=["value.c-text", "params.r-text", "grid.nx-text", "root-list", "grid-list",
        "boundaries-number", "grid.nx-zero", "grid.nq-zero", "grid.nx-too-big", "grid.nq-too-big",
        "grid.x_lo_frac-negative",
        "grid-without-capital-pairs", "sweep.c_values-number", "sweep.p_values-text"])
def test_malformed_config_exit_64(tmp_path, capsys, command, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")


def test_verify_tiny_capitals_report_finite_metrics(tmp_path):
    """Capitals of 1e-311 put the inverse demand near 1e207, but the
    q-partials divide x V_x, not the price, by the capital: every metric of
    the report is finite and passes."""
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({**_ABSTAIN, "grid": {"nx": 1, "nq": 2, "q_span": 1e-311}}))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = _strict_json(out.read_text())
    assert report["all_pass"] is True
    assert all(math.isfinite(c["worst"]) for c in report["conditions"].values())


@pytest.mark.parametrize("command, config", [
    ("value", {**_ABSTAIN, "states": [[1.0, 1e308, 1e308]]}),
    ("sweep", {"params": GOLDEN_BLOCK, "sweep": {"kind": "abstain", "p_values": [2.6]},
               "states": [[1.0, 1e308, 1e308]]}),
    ("verify", {**_ABSTAIN, "grid": {"nx": 3, "nq": 3, "q_span": 1e308}}),
], ids=["value", "sweep", "verify"])
def test_capital_overflow_exit_3(tmp_path, command, config):
    """Capitals whose sum or value leaves the floating-point range are a
    numeric failure: exit 3 with a message, and no NaN on stdout and no
    numpy warning on stderr."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    proc = subprocess.run([sys.executable, "-m", "duopoly_invest", command, "--config", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_NUMERIC
    assert proc.stdout == ""
    assert proc.stderr.startswith("numeric error:") and "Warning" not in proc.stderr


@pytest.mark.parametrize("kind, q_span", [
    ("sole_investor", 1e200), ("abstain", 1e250), ("sole_investor", 1e250)])
def test_verify_huge_capitals_report_finite_metrics(tmp_path, kind, q_span):
    """At capitals near 1e200 and 1e250 every metric of the report is
    finite and passes: the branch, its q-partials and the pricing residual
    are written in the normalised price, which stays O(1), so nothing forms
    x**2 where it overflows."""
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"params": GOLDEN_BLOCK, "value": {"kind": kind},
                               "grid": {"nx": 3, "nq": 3, "q_span": q_span}}))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = _strict_json(out.read_text())
    assert report["all_pass"] is True
    assert all(math.isfinite(c["worst"]) for c in report["conditions"].values())


@pytest.mark.parametrize("command, strategy, paths", [
    ("simulate", {"kind": "constant_price", "p": 2.6, "construction": "split",
                  "weights": "ab"}, "3"),
    ("simulate", {"kind": "constant_price", "p": 2.6, "construction": "split",
                  "weights": [0.5]}, "3"),
    ("simulate", {"kind": "constant_price", "p": 2.6}, "-2"),
    ("simulate", {"kind": "constant_price", "p": 2.6}, "0"),
    ("deviation", {"kind": "constant_price", "p": 2.6}, "0"),
    ("simulate", {"kind": "constant_price", "p": 2.6}, "1"),
    ("deviation", {"kind": "constant_price", "p": 2.6}, "1"),
], ids=["weights-text", "weights-one", "simulate-paths-negative", "simulate-paths-zero",
        "deviation-paths-zero", "simulate-paths-one", "deviation-paths-one"])
def test_malformed_run_input_exit_64(tmp_path, capsys, command, strategy, paths):
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(GOLDEN_BLOCK))
    strat = tmp_path / "strategy.json"
    strat.write_text(json.dumps(strategy))
    files = ["--strategy", str(strat)] if command == "simulate" \
        else ["--equilibrium", str(strat), "--deviant", str(strat)]
    assert main([command, "--params", str(params_file), *files, "--state", "2.0,1.0,1.0",
                 "--paths", paths, "--dt", "0.1", "--horizon", "0.5"]) == EXIT_USAGE
    assert "usage error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, config", [
    # Above the opponent trigger the abstainer's annuity is
    # 1e10 / (r - mu) * (beta - 1) / beta * 1e308, about 3.8e317: out of range.
    ("value", {"params": GOLDEN_BLOCK, "value": {"kind": "abstain", "p": 1e10},
               "states": [[1e216, 1e308, 0.0]]}),
    # By homogeneity the value is 1e10 * V(1e306 / 1e10**(2/3), 1, 0), about
    # 5.7e309: out of range.
    ("sweep", {"params": GOLDEN_BLOCK, "sweep": {"kind": "sole_investor", "p_values": [1e300]},
               "states": [[1e306, 1e10, 0.0]]}),
], ids=["value-nan", "sweep-inf"])
def test_non_finite_output_row_exit_3(tmp_path, capsys, command, config):
    """A row whose value or partial is NaN or inf is a numeric failure, not
    output: NaN is not JSON, and inf is no value."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("numeric error:")


@pytest.mark.parametrize("command, flags, code", [
    ("simulate", ["--dt", "nan"], EXIT_DOMAIN),
    ("simulate", ["--horizon", "nan"], EXIT_DOMAIN),
    ("deviation", ["--dt", "nan"], EXIT_DOMAIN),
    ("deviation", ["--horizon", "nan"], EXIT_DOMAIN),
    ("simulate", ["--dump-count", "-3"], EXIT_USAGE),
    ("npv", ["--p", "nan"], EXIT_USAGE),
    ("npv", ["--p", "-1"], EXIT_USAGE),
    ("simulate", ["--seed", "-1"], EXIT_USAGE),
    ("deviation", ["--seed", "-1"], EXIT_USAGE),
], ids=["simulate-dt-nan", "simulate-horizon-nan", "deviation-dt-nan",
        "deviation-horizon-nan", "dump-count-negative", "npv-p-nan", "npv-p-negative",
        "simulate-seed-negative", "deviation-seed-negative"])
def test_numeric_flag_exit_codes(tmp_path, capsys, command, flags, code):
    """Non-finite run lengths are a domain error, like --dt 0; a negative
    dump count or seed and a price threshold that is not a positive number
    are usage errors.  Nothing reaches stdout."""
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(GOLDEN_BLOCK))
    strat = tmp_path / "strategy.json"
    strat.write_text(json.dumps({"kind": "constant_price", "p": 2.6}))
    run = ["--state", "2.0,1.0,1.0", "--paths", "2", "--dump-outcomes", str(tmp_path / "d")]
    argv = {"simulate": ["--params", str(params_file), "--strategy", str(strat), *run],
            "deviation": ["--params", str(params_file), "--equilibrium", str(strat),
                          "--deviant", str(strat), *run[:4]],
            "npv": ["--config", str(params_file)]}[command]
    assert main([command, *argv, *flags]) == code
    assert capsys.readouterr().out == ""


def test_value_state_outside_domain_exit_2(tmp_path, capsys):
    cfg = tmp_path / "value.json"
    cfg.write_text(json.dumps({"params": GOLDEN_BLOCK,
                               "value": {"kind": "dynamic_c", "c": 1.0},
                               "states": [[-2.0, 1.0, 1.0]]}))
    assert main(["value", "--config", str(cfg)]) == EXIT_DOMAIN
    assert "x > 0" in capsys.readouterr().err


_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.lists(st.integers(-3, 3), max_size=3), st.just({}))


@st.composite
def _mutated(draw, fields: dict):
    """A JSON object of plausible fields, each of which may be replaced by a
    value of any other JSON type or left out."""
    out = {}
    for key, plausible in fields.items():
        fate = draw(st.integers(0, 19))
        if fate < 19:
            out[key] = draw(_JUNK if fate == 18 else plausible)
    return out


_PARAMS = _mutated({"r": st.floats(0.2, 2.0), "mu": st.floats(-0.3, 0.3),
                    "sigma": st.floats(0.3, 1.6), "gamma": st.floats(1.05, 2.0)})
_VALUE = _mutated({"kind": st.sampled_from(["abstain", "sole_investor", "dynamic_c"]),
                   "c": st.floats(0.0, 2.0), "p": st.floats(0.5, 5.0)})
_STATE = st.one_of(st.lists(st.floats(0.01, 5.0), min_size=3, max_size=3),
                   st.lists(st.one_of(st.floats(-1.0, 5.0), _JUNK), max_size=4))
_GRID = _mutated({"nx": st.integers(1, 4), "nq": st.integers(1, 3),
                  "x_lo_frac": st.floats(0.01, 1.0), "q_span": st.floats(0.0, 3.0)})
_BOUNDARY = _mutated({"kind": st.sampled_from(["constant_price", "dynamic_c", "infinite"]),
                      "p": st.floats(0.5, 5.0), "c": st.floats(0.0, 2.0)})
_STRATEGY = _mutated({
    "kind": st.sampled_from(["constant_price", "dynamic_c", "infinite"]),
    "p": st.floats(0.5, 5.0), "c": st.floats(0.0, 2.0),
    "construction": st.sampled_from(["abstain", "symmetric", "split", "joint"]),
    "abstaining_firm": st.integers(1, 2), "firm": st.integers(1, 2),
    "weights": st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    "opponent": _BOUNDARY})
_LEVELS = st.one_of(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=2), _JUNK)
_SWEEP = _mutated({"kind": st.sampled_from(["dynamic_c", "abstain", "sole_investor",
                                            "constant_price"]),
                   "c_values": _LEVELS, "p_values": _LEVELS})
_CONFIG = {
    "derive": _PARAMS,
    "value": _mutated({"params": _PARAMS, "value": _VALUE,
                       "states": st.lists(_STATE, max_size=3)}),
    "verify": _mutated({"params": _PARAMS, "value": _VALUE, "grid": _GRID,
                        "boundaries": st.one_of(_BOUNDARY, st.lists(_BOUNDARY, min_size=2,
                                                                     max_size=2))}),
    "sweep": _mutated({"params": _PARAMS, "sweep": _SWEEP,
                       "states": st.lists(_STATE, max_size=2)}),
}
# Commands that read several files and take the state and path count as flags.
_RUN_FILES = {"simulate": {"--params": _PARAMS, "--strategy": _STRATEGY},
              "deviation": {"--params": _PARAMS, "--equilibrium": _BOUNDARY,
                            "--deviant": _BOUNDARY}}
_STATE_FLAG = st.one_of(st.sampled_from(["2.0,1.0,1.0", "0.5,0.2,0.4", "4,0,0", "-1,1,1"]),
                        st.text(max_size=6))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_fuzz_exits_with_documented_codes(tmp_path, capsys, data):
    """Random configs, field by field of any JSON type, and random run flags
    end in a documented exit code and never in a traceback."""
    command = data.draw(st.sampled_from(sorted(_CONFIG) + sorted(_RUN_FILES)))
    argv = [command, "--out", str(tmp_path / "out")]
    files = _RUN_FILES.get(command, {"--config": _CONFIG.get(command)})
    for flag, content in files.items():
        path = tmp_path / f"{flag.strip('-')}.json"
        path.write_text(json.dumps(data.draw(st.one_of(content, _JUNK))))
        argv += [flag, str(path)]
    if command in _RUN_FILES:
        argv += ["--state", data.draw(_STATE_FLAG),
                 "--paths", str(data.draw(st.integers(-2, 3))),
                 "--dt", "0.05", "--horizon", "0.2"]
    code = main(argv)
    assert code in (0, 2, 3, 64)
    assert "Traceback" not in capsys.readouterr().err
    if code == 0 and command != "sweep":
        _strict_json((tmp_path / "out").read_text())
