"""Command-line surface: parsing, output formats, exit codes."""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import umbralwalk
from umbralwalk import cli
from umbralwalk.cli import main, parse_args
from umbralwalk.identities import (
    IdentityId, IdentityParams, TruncationPolicy, verify,
)
from umbralwalk.loopcalc import PhiMove


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# --- parsing ------------------------------------------------------------------


def test_parse_poly_command():
    ns = parse_args(["poly", "--family", "euler", "--n", "3", "--order", "2"])
    assert (ns.command, ns.family, ns.n, ns.order) == ("poly", "euler", 3, 2)


def test_parse_verify_command():
    ns = parse_args(["verify", "--id", "N3_UNIFORM", "--n", "5", "--x", "1/2"])
    assert ns.command == "verify"
    assert str(ns.x) == "1/2"


def test_unknown_identity_exits_2():
    with pytest.raises(SystemExit) as err:
        parse_args(["verify", "--id", "NOPE"])
    assert err.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        parse_args(["numbers", "--bernoulli", "--upto", "3", "--bogus"])
    assert err.value.code == 2


def test_bad_rational_exits_2():
    with pytest.raises(SystemExit) as err:
        parse_args(["verify", "--id", "N3_UNIFORM", "--x", "half"])
    assert err.value.code == 2


_SERIES = ["series", "--walk", "1d", "--levels", "0,1,2"]


@pytest.mark.parametrize("move", ["1", "0,1,2,3", "a,b"])
def test_malformed_move_exits_2(capsys, move):
    with pytest.raises(SystemExit) as err:
        main(_SERIES + ["--move", move])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert (
        f"argument --move: move must be from,to or from,to,taboo: {move!r}"
        in message
    )
    assert "Traceback" not in message


def test_parse_args_calls_share_no_state():
    chain = parse_args(_SERIES + ["--chain"])
    move = parse_args(_SERIES + ["--move", "0,1"])
    assert (chain.chain, chain.direct, chain.move) == (True, False, None)
    assert (move.chain, move.direct, move.move) == (False, False, PhiMove(0, 1))
    assert chain.order == move.order == 48
    assert parse_args(_SERIES + ["--chain"]) == chain


def test_main_builds_no_parser(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built an ArgumentParser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", never)
    for _ in range(3):
        assert main(["numbers", "--euler", "--upto", "4"]) == 0
        with pytest.raises(SystemExit):
            main(["numbers", "--euler", "--upto", "ten"])


# every subcommand once with valid arguments, then the lines that end in
# help or a usage error
_COMMAND_LINES = [
    ["poly", "--family", "euler", "--n", "3", "--order", "2", "--x", "1/2"],
    ["numbers", "--bernoulli", "--upto", "6"],
    ["weights", "--N", "3", "--count", "5"],
    ["series", "--walk", "1d", "--levels", "0,1,2", "--chain", "--order", "6"],
    ["verify", "--id", "N3_GENERAL", "--n", "3", "--x=1", "--levels=1,2,4"],
    ["verify", "--id", "N3_UNIFORM", "--n", "2", "--x=-1/3"],
    ["verify-all"],
    ["simulate", "--walk", "1d", "--start", "0", "--target", "0.5",
     "--z", "0.5", "--dt", "1e-2", "--paths", "8", "--seed", "1",
     "--tmax", "2"],
    ["quadrature", "--family", "euler", "--n", "2", "--x", "1/2"],
    ["catalog"],
    [],
    ["-h"],
    ["verify", "-h"],
    ["bogus"],
    ["verify"],
    ["verify", "--id", "N3_UNIFORM", "--bogus"],
    ["numbers", "--bernoulli", "--upto", "3", "extra", "--more"],
    ["verify", "--id", "N3_UNIFORM", "--n", "ten"],
    ["verify", "--id", "N3_UNIFORM", "--x", "-1/3"],
    ["verify", "--id", "N3_UNIFORM", "--", "--n", "2"],
]


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of one command line run by `main`."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    # the one field of `verify-all` that changes from run to run
    return code, re.sub(r'"generated_at": "[^"]*"', "", out), err


@pytest.mark.parametrize("argv", _COMMAND_LINES, ids=" ".join)
def test_subcommand_parser_matches_the_full_parser(capsys, monkeypatch, argv):
    fast = _outcome(capsys, argv)
    # with no subcommand parser to go to, every line takes the full parser
    monkeypatch.setattr(cli, "_COMMANDS", {})
    assert fast == _outcome(capsys, argv)


def test_subcommand_line_is_parsed_once(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("parsed by the top-level parser")

    monkeypatch.setattr(cli._PARSER, "parse_args", never)
    ns = parse_args(["verify", "--id", "N3_GENERAL", "--x=1", "--levels=1,2"])
    assert (ns.command, ns.id, ns.n, ns.levels) == (
        "verify", "N3_GENERAL", 0, (1, 2)
    )
    assert ns.handler is cli._cmd_verify


# every bounded exact-arithmetic option: a command line, the option, its limit
_BOUNDED_OPTIONS = [
    (["poly", "--family", "euler", "--order", "2"], "--n", 128),
    (["poly", "--family", "euler", "--n", "2"], "--order", 256),
    (["numbers", "--euler"], "--upto", 256),
    (["weights", "--count", "40"], "--N", 32),
    (["weights", "--N", "2"], "--count", 4096),
    (["series", "--walk", "1d", "--levels", "0,1,2", "--chain"], "--order", 512),
    (["verify", "--id", "N3_UNIFORM"], "--n", 64),
    (["verify", "--id", "N3_UNIFORM"], "--kmax", 4096),
    (["verify", "--id", "N3_UNIFORM"], "--stable-run", 4096),
    (["verify", "--id", "EULER_CHEB", "--n", "1"], "--N", 32),
    (["verify", "--id", "EVEN_BERNOULLI"], "--m", 32),
    (["verify-all"], "--kmax", 4096),
    (["simulate", "--walk", "1d", "--start", "0", "--target", "1",
      "--z", "0.5"], "--paths", 1 << 20),
]


@pytest.mark.parametrize("argv,option,limit", _BOUNDED_OPTIONS,
                         ids=[f"{a[0]}{o}" for a, o, _ in _BOUNDED_OPTIONS])
def test_exact_arithmetic_options_are_bounded(capsys, argv, option, limit):
    # parsed only: nothing is computed at or above a bound
    ns = parse_args(argv + [option, str(limit)])
    assert getattr(ns, option.lstrip("-").replace("-", "_")) == limit
    with pytest.raises(SystemExit) as err:
        main(argv + [option, str(limit + 1)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert f"argument {option}: {limit + 1} is above the limit {limit}" in message


# --levels counts the levels above the origin; `series` lists the origin too
_LEVEL_LISTS = [
    (["series", "--walk", "bessel", "--chain"], "0,"),
    (["verify", "--id", "THREE_SITES_1D_STATED"], ""),
]


@pytest.mark.parametrize("argv,origin", _LEVEL_LISTS, ids=["series", "verify"])
def test_level_count_is_bounded(capsys, argv, origin):
    # parsed only: a chain at the bound is never computed here
    at_bound = origin + ",".join(str(a) for a in range(1, 9))
    assert parse_args(argv + ["--levels", at_bound]).levels[-1] == 8
    with pytest.raises(SystemExit) as err:
        main(argv + ["--levels", at_bound + ",9"])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "argument --levels: 9 levels above the origin is above the limit 8" \
        in message


def test_bounded_option_keeps_the_invalid_int_message(capsys):
    with pytest.raises(SystemExit) as err:
        main(["numbers", "--euler", "--upto", "ten"])
    assert err.value.code == 2
    assert "argument --upto: invalid int value: 'ten'" in capsys.readouterr().err


# --- outputs -------------------------------------------------------------------


def test_numbers_bernoulli(capsys):
    code, payload = run_json(capsys, "numbers", "--bernoulli", "--upto", "8")
    assert code == 0
    assert payload["values"] == [
        "1", "-1/2", "1/6", "0", "-1/30", "0", "1/42", "0", "-1/30",
    ]


def test_weights_output(capsys):
    code, payload = run_json(capsys, "weights", "--N", "2", "--count", "8")
    assert code == 0
    assert payload["weights"] == ["0", "0", "1/2", "0", "1/4", "0", "1/8", "0"]


# sha256 of `weights --N N --count 300` as printed by the Fraction recurrence
_WEIGHTS_300_SHA256 = {
    1: "09606075b8a1a4e104d5200b6bfee195a3b4632d42142c8c9916e1263341f264",
    2: "f46ab2959629dae2c4fbe0cb9e2139df2d346f21f76230a29770de13d2412a2c",
    3: "4c0ab2b7d2df2d46557fd27b479bb0a9daaffc2b795488cfb438180c56eac09c",
    4: "392b6f5f1cb9960f698f4761f26bdd1457f39e0c17f6f9d95c09274672a4b67e",
    5: "1fd88ce0711b25800e7381bc22e69b01b4876ee9264174bb7940f90052cf2ac8",
    7: "a749ebedebbd7a834085d3500cc171e45c617012a7a0956b2952607c95a8107c",
}


@pytest.mark.parametrize("N", sorted(_WEIGHTS_300_SHA256))
@pytest.mark.pins
def test_weights_output_bytes_unchanged(capsys, N):
    code, out = run(capsys, "weights", "--N", str(N), "--count", "300")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _WEIGHTS_300_SHA256[N]


def test_poly_output_with_value(capsys):
    code, payload = run_json(
        capsys, "poly", "--family", "bernoulli", "--n", "2", "--order", "1",
        "--x", "1/2",
    )
    assert code == 0
    assert payload["coefficients"] == ["1/6", "-1", "1"]
    assert payload["value"] == "-1/12"


# sha256 of `umbralwalk poly` and `umbralwalk series` output as printed
# by the Fraction-only series layer
_POLY_SERIES_SHA256 = [
    (("poly", "--family", "euler", "--n", "20", "--order", "43"),
     "986ac30294f9157724cc303bab4eba72bd220b0ed2a1a8be908f3ead768f2db0"),
    (("series", "--walk", "1d", "--levels", "0,1/2,2,3", "--chain",
      "--order", "48"),
     "e80f3f8d44caf10d58b9f803c8aaa703cd3396520e1221ecb1527846985282f8"),
    (("series", "--walk", "bessel", "--levels", "0,1/2,2,3", "--chain",
      "--order", "48"),
     "8bdbf3383488d1eda83fe86e8176ba7cfe8cb3f996049e00551b8398e47bc433"),
    (("series", "--walk", "bessel", "--levels", "0,1,3", "--direct",
      "--order", "40"),
     "29e08cece8f2028c6da84b01372881221aadc49d6c0ebe15150992bd615160ab"),
    (("series", "--walk", "1d", "--levels", "0,1,3", "--move", "1,0,2",
      "--order", "30"),
     "dc7a7719d4d901e3a9bb820e99cd519d2dfa4f08597806fd0719946b8cab0ac3"),
]


@pytest.mark.parametrize("argv,digest", _POLY_SERIES_SHA256,
                         ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
@pytest.mark.pins
def test_poly_and_series_output_bytes_unchanged(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `umbralwalk series` output at order 192 as printed while each
# series operation still converted to and from Fractions; the chain and the
# free move agree, so each system has one digest
_SERIES_192_SHA256 = {
    ("bessel", "0,1,2,3,4"):
        "05214abe1b20a65709584545e938518d181847c9237324c566a01856165e467d",
    ("1d", "0,1/3,7/5,3,9/2"):
        "c713d66e7db09192580a714b37b00ef20695d8b526c1880ef0483d3744a01459",
}


@pytest.mark.parametrize("mode", ["--chain", "--direct"])
@pytest.mark.parametrize("walk,levels", list(_SERIES_192_SHA256))
@pytest.mark.pins
def test_series_order_192_output_bytes_unchanged(capsys, walk, levels, mode):
    code, out = run(
        capsys, "series", "--walk", walk, "--levels", levels, mode,
        "--order", "192",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _SERIES_192_SHA256[walk, levels]


def test_series_chain_csv(capsys):
    code, out = run(
        capsys, "series", "--walk", "1d", "--levels", "0,1,2", "--chain",
        "--order", "6",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,numerator,denominator"
    # sech(2w): 1, 0, -2, 0, 10/3, ...
    assert lines[1:4] == ["0,1,1", "1,0,1", "2,-2,1"]
    assert lines[5] == "4,10,3"


def test_series_move_csv(capsys):
    code, out = run(
        capsys, "series", "--walk", "bessel", "--levels", "0,1,2",
        "--move", "1,0,2", "--order", "4",
    )
    assert code == 0
    assert out.strip().splitlines()[1:] == ["0,0,1", "1,0,1", "2,0,1", "3,0,1"]


def test_verify_exit_codes(capsys):
    code, payload = run_json(
        capsys, "verify", "--id", "N3_UNIFORM", "--n", "5", "--x", "1/2"
    )
    assert code == 0
    assert payload["status"] == "VERIFIED"
    code, payload = run_json(
        capsys, "verify", "--id", "N4_UNIFORM_STATED", "--n", "1", "--x", "0"
    )
    assert code == 1
    assert payload["status"] == "RESIDUAL_NONZERO"
    code, payload = run_json(
        capsys, "verify", "--id", "THREE_SITES_1D_STATED", "--n", "1",
        "--x", "7", "--levels", "1,2",
    )
    assert code == 0
    assert payload["status"] == "DEGENERATE_TRIVIAL"


@pytest.mark.parametrize(
    "argv, K_used",
    [
        (("--id", "FOUR_GENERAL_1D", "--n", "40", "--levels", "1,2,4"), 382),
        (("--id", "FOUR_UNIFORM_1D", "--n", "43"), 249),
        (("--id", "EULER_CHEB", "--N", "2", "--n", "41"), 200),
        (("--id", "EULER_CHEB", "--N", "3", "--n", "29"), 417),
    ],
)
def test_verify_keeps_summing_while_terms_grow(capsys, argv, K_used):
    # the first terms are small next to the left side but still growing;
    # a tail estimate read from a growing window once stopped these at k = 3
    code, payload = run_json(capsys, "verify", *argv)
    assert code == 0
    assert payload["status"] == "VERIFIED"
    assert payload["K_used"] == K_used


def test_verify_invalid_params_exit_2(capsys):
    code = main(["verify", "--id", "EULER_CHEB", "--n", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Chebyshev" in err


def _exact(text):
    """A "p/q" or "p" string as a Fraction, at any number of digits."""
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


@pytest.mark.parametrize(
    "argv",
    [
        ("--id", "FOUR_GENERAL_1D", "--n", "64", "--levels", "1/997,1/991,1000"),
        ("--id", "N3_GENERAL", "--levels", "1/100,1/99,100", "--kmax", "4096"),
    ],
)
def test_verify_prints_integers_past_the_digit_limit(capsys, argv):
    # the partial sum's denominator has more digits than int-to-str allows
    code = main(["verify", *argv])
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert err == ""
    payload = json.loads(out)
    assert len(payload["rhs_partial"]) > sys.get_int_max_str_digits()
    ns = parse_args(["verify", *argv])
    report = verify(
        IdentityId(ns.id),
        IdentityParams(n=ns.n, x=ns.x, levels=ns.levels),
        TruncationPolicy(ns.tol, ns.stable_run, ns.kmax),
    )
    assert _exact(payload["lhs"]) == report.lhs_exact
    assert _exact(payload["rhs_partial"]) == report.rhs_partial_exact


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_verify_non_finite_tol_exits_2(capsys, tol):
    # the known-false stated instance would read VERIFIED under tol = inf
    code = main([
        "verify", "--id", "N4_UNIFORM_STATED", "--n", "1", "--tol", tol,
    ])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "bad truncation policy" in err


def test_verify_stable_run_beyond_any_window_exits_2(capsys):
    # no window holds 10^20 magnitudes; the bound rejects it before any sum
    with pytest.raises(SystemExit) as err:
        main([
            "verify", "--id", "EULER_CHEB", "--n", "3", "--N", "2",
            "--stable-run", "99999999999999999999",
        ])
    assert err.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert (
        "argument --stable-run: 99999999999999999999 is above the limit 4096"
        in err
    )
    assert "float range" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--id", "FOUR_UNIFORM_1D", "--n", "2", "--x=1e400"),
        ("--id", "EULER_CHEB", "--N", "1", "--n", "3", "--x=1e120"),
    ],
)
def test_verify_beyond_float_range_exits_2(capsys, argv):
    code = main(["verify", *argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "float range of the tail control" in err


def test_quadrature_command(capsys):
    code, payload = run_json(
        capsys, "quadrature", "--family", "euler", "--n", "1", "--x", "1/2"
    )
    assert code == 0
    assert payload["exact"] == "0"
    assert abs(payload["quadrature"]) < 1e-8


def test_quadrature_beyond_float_range_exits_2(capsys):
    code = main(["quadrature", "--family", "euler", "--n", "2", "--x=1e400"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "float range" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_quadrature_that_does_not_settle_exits_1(capsys):
    # x^2 overflows the double integrand, so the panels never agree
    code = main(["quadrature", "--family", "euler", "--n", "2", "--x=1e200"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_catalog_command(capsys):
    code, payload = run_json(capsys, "catalog")
    assert code == 0
    assert len(payload) == 10
    assert any(
        "three concentric spheres" in entry["reference"] for entry in payload
    )


# sha256 of `umbralwalk catalog` as printed before the spec table
_CATALOG_SHA256 = (
    "9847bc262a03d14b05a461a33051dbb99a8018645313af010784b0e15edcd29b"
)


@pytest.mark.pins
def test_catalog_output_bytes_unchanged(capsys):
    code, out = run(capsys, "catalog")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _CATALOG_SHA256


@pytest.mark.slow
def test_simulate_command_deterministic(capsys, monkeypatch):
    monkeypatch.setenv("UMBRAL_WALK_SEED", "31415")
    args = (
        "simulate", "--walk", "1d", "--start", "0", "--target", "1",
        "--z", "0.5", "--dt", "1e-3", "--paths", "2000", "--tmax", "30",
    )
    code1, payload1 = run_json(capsys, *args)
    code2, payload2 = run_json(capsys, *args)
    assert code1 == code2 == 0
    assert payload1 == payload2
    assert payload1["config"]["seed"] == 31415
    assert payload1["comparison"]["pass"] is True
    counts = payload1["estimate"]
    assert (
        counts["n_hit_target"] + counts["n_hit_taboo"] + counts["n_censored"]
        == 2000
    )


# sha256 of `simulate --walk 1d --start 0 --target 1 --z 0.5 --dt 1e-3
# --paths 64 --seed 7` as printed with the hand-built config and estimate
_SIMULATE_SHA256 = (
    "3199444630c83bcbe639981f57a2123cc9e9288af4f4c806375505755da6d06a"
)


@pytest.mark.slow
@pytest.mark.pins
def test_simulate_output_bytes_unchanged(capsys):
    code, out = run(
        capsys, "simulate", "--walk", "1d", "--start", "0", "--target", "1",
        "--z", "0.5", "--dt", "1e-3", "--paths", "64", "--seed", "7",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SIMULATE_SHA256


def test_simulate_rejects_non_finite_horizon(capsys):
    code = main([
        "simulate", "--walk", "1d", "--start", "0", "--target", "1",
        "--z", "0.5", "--tmax", "inf",
    ])
    assert code == 2
    assert "t_max must be finite" in capsys.readouterr().err


@pytest.mark.slow
def test_simulate_far_target_reports_instead_of_overflowing(capsys):
    # 1 / cosh(1000 sqrt 2) underflows to 0; every path is censored, and
    # each censored path's bound e^(-z t_max) is far below 1e-9
    code, payload = run_json(
        capsys, "simulate", "--walk", "1d", "--start", "0", "--target",
        "1000", "--z", "1", "--paths", "10",
    )
    assert code == 0
    assert payload["reference"] == 0.0
    assert payload["estimate"]["n_censored"] == 10
    assert payload["comparison"]["pass"] is True


@pytest.mark.slow
def test_simulate_without_spread_reports_no_stderr(capsys):
    # every path censored: the sample's one value with stderr 0.0, so the
    # comparator's no-spread rule, not a z-score of rounding noise, decides
    code, payload = run_json(
        capsys, "simulate", "--walk", "1d", "--start", "0", "--target", "5",
        "--z", "0.5", "--paths", "64", "--tmax", "0.01", "--dt", "1e-3",
    )
    assert code == 1
    assert payload["estimate"]["n_censored"] == 64
    assert payload["estimate"]["mean"] == math.exp(-0.5 * 0.01)
    assert payload["estimate"]["stderr"] == 0.0
    assert payload["comparison"]["z_score"] == 0.0
    assert payload["comparison"]["pass"] is False


def test_simulate_rejects_a_horizon_shorter_than_one_step(capsys):
    code = main([
        "simulate", "--walk", "1d", "--start", "0", "--target", "1",
        "--z", "0.5", "--paths", "64", "--dt", "10", "--tmax", "1",
    ])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "shorter than one step" in err


def test_simulate_step_count_is_bounded(capsys, monkeypatch):
    from umbralwalk import montecarlo

    reached = []

    def record(cfg, chunk_size=None):
        reached.append(cfg.t_max / cfg.dt)
        return montecarlo.HittingEstimate(0.5, 0.01, cfg.paths, 0, 0)

    monkeypatch.setattr(montecarlo, "_simulate", record)
    base = ["simulate", "--walk", "1d", "--start", "0", "--target", "1",
            "--z", "0.5", "--paths", "4"]
    # 5 * 10^10 steps, and just above 2^24
    for dt, tmax in (("1e-9", "50"), (str(2**-20), "16.001")):
        assert main(base + ["--dt", dt, "--tmax", tmax]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"steps is above the limit {1 << 24}" in err
    # a step so small the count is infinite
    assert main(base + ["--dt", "5e-324", "--tmax", "50"]) == 2
    assert "t_max / dt overflows" in capsys.readouterr().err
    assert reached == []
    # exactly 2^24 steps is allowed
    main(base + ["--dt", str(2**-20), "--tmax", "16"])
    assert reached == [1 << 24]


def test_simulate_rejects_zero_length_move(capsys):
    # the stepper used to credit every path at step 1 against a closed
    # form of 0, and report a failed comparison with exit 1
    code = main([
        "simulate", "--walk", "bessel", "--start", "0", "--target", "0",
        "--z", "0.5", "--paths", "4",
    ])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "target must differ from start" in err


def test_simulate_validates_the_move_before_simulating(capsys, monkeypatch):
    from umbralwalk import montecarlo

    def never(cfg):
        raise AssertionError("simulated an invalid move")

    monkeypatch.setattr(montecarlo, "simulate_hit", never)
    code = main([
        "simulate", "--walk", "1d", "--start", "2", "--target", "1",
        "--z", "0.5", "--paths", "20000",
    ])
    assert code == 2
    assert "free reflected moves go upward" in capsys.readouterr().err


def test_verify_all_roundtrip_stability(capsys):
    args = ("verify-all", "--tol", "1e-6", "--kmax", "256")
    code1, payload1 = run_json(capsys, *args)
    code2, payload2 = run_json(capsys, *args)
    assert code1 == code2 == 0
    assert payload1["all_passed"] and payload2["all_passed"]
    payload1.pop("generated_at")
    payload2.pop("generated_at")
    assert json.dumps(payload1, sort_keys=True) == json.dumps(
        payload2, sort_keys=True
    )


# sha256 of the `errata` object of `verify-all`, rendered as `_dump` does,
# as computed while each series operation still converted to and from
# Fractions
_ERRATA_SHA256 = (
    "86ae2dd00fe42a903052df4ac9773398be5b4310549a50e7b2870ffb8aca2edf"
)


# sha256 of the whole `verify-all` payload but `generated_at`, rendered as
# `_dump` does, as computed while the kernel-power memo kept one chain per
# (kind, scale)
_VERIFY_ALL_SHA256 = (
    "9de7219d0cf9f6ecbd54ed129d3c5699ace4ad10df3c5b20a9b24d4427333655"
)


@pytest.mark.pins
def test_verify_all_errata_bytes_unchanged(capsys):
    code, payload = run_json(capsys, "verify-all")
    assert code == 0
    rendered = json.dumps(payload["errata"], indent=2, sort_keys=True)
    assert hashlib.sha256(rendered.encode()).hexdigest() == _ERRATA_SHA256
    payload.pop("generated_at")
    rendered = json.dumps(payload, indent=2, sort_keys=True)
    assert hashlib.sha256(rendered.encode()).hexdigest() == _VERIFY_ALL_SHA256


class _ClosedPipe:
    """A stdout whose reader has gone away, over a file of its own."""

    def __init__(self, path):
        self.file = open(path, "w")

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.file.fileno()


def test_closed_stdout_exits_nonzero_without_traceback(
    monkeypatch, tmp_path, capsys
):
    pipe = _ClosedPipe(tmp_path / "stdout")
    monkeypatch.setattr("sys.stdout", pipe)
    try:
        assert main(["catalog"]) == 1
        # the descriptor now points at the null device, so the flush at
        # interpreter exit has nowhere to fail
        assert os.path.samestat(os.fstat(pipe.fileno()), os.stat(os.devnull))
    finally:
        pipe.file.close()
    assert capsys.readouterr().err == ""


# --- the module entry point -----------------------------------------------------


def _run_module(*argv):
    env = dict(os.environ)
    src = str(Path(umbralwalk.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "umbralwalk", *argv],
        capture_output=True, env=env, timeout=60,
    )


@pytest.mark.pins
def test_module_entry_point_catalog():
    done = _run_module("catalog")
    assert done.returncode == 0
    assert hashlib.sha256(done.stdout).hexdigest() == _CATALOG_SHA256


def test_module_entry_point_unknown_command_exits_2():
    done = _run_module("bogus")
    assert done.returncode == 2
    assert b"invalid choice: 'bogus'" in done.stderr
    assert b"Traceback" not in done.stderr


def test_quadrature_that_does_not_settle_prints_only_the_error():
    # the overflowing integrand raises no numpy warning on stderr
    done = _run_module("quadrature", "--family", "euler", "--n", "2", "--x=1e200")
    assert done.returncode == 1
    assert done.stdout == b""
    assert done.stderr == b"error: no convergence within 4096 panels (tol 1e-10)\n"
