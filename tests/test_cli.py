"""Configuration parsing and command-line behavior tests.

CLI tests drive main() in-process so exit codes and stdout can be
asserted without spawning interpreters. Every refused invocation is a row
of ``cli_refusals.REFUSALS``, run here by one test. Two checks run a
child: the import check, which needs a fresh interpreter, and the sweep
point cap, whose failure mode is a run that never ends.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qvibe
import qvibe.config
import qvibe.estimate
import qvibe.simulate
from cli_refusals import (
    QUICK_START, README, REFUSALS, SWEEP, Refusal, check, edit, matches, readme_block,
)
from qvibe.cli import _build_parser, main
from qvibe.config import (
    _SCHEMA,
    Config,
    build_channel,
    build_fringe,
    build_options,
    build_pair,
    build_signal,
    parse_config,
    parse_quantity,
    resolve_operating_delay,
)
from qvibe.core import SPEED_OF_LIGHT, quadrature_delay
from qvibe.errors import ConfigError
from qvibe.estimate import ReconstructedSignal, SpectrumEstimate
from qvibe.metrology import background_advantage_setup, loss_advantage_setup
from qvibe.simulate import SignalComponent, TimestampStream
from qvibe.streamio import write_stream_text


# ----- quantity parsing -----


def test_parse_quantity_accepts_units():
    assert parse_quantity("10 ms", "time", "t") == 0.01
    assert parse_quantity("100 ps", "time", "t") == 100e-12
    assert parse_quantity("1.55 um", "length", "l") == 1.55e-6
    # Correctly rounded: 23 * 1e-12 and 1550 * 1e-9 are each one ulp off.
    assert parse_quantity("23 ps", "time", "t") == 2.3e-11
    assert parse_quantity("1550 nm", "length", "l") == 1.55e-06
    assert parse_quantity("177 THz", "frequency", "f") == 177e12
    assert abs(parse_quantity("-90 deg", "angle", "a") + math.pi / 2) < 1e-15
    assert parse_quantity("2.5 rad", "angle", "a") == 2.5
    assert parse_quantity("0.13", "bare", "r") == 0.13
    assert parse_quantity("7", "int", "n") == 7
    assert parse_quantity("true", "bool", "b") is True
    assert parse_quantity("No", "bool", "b") is False
    assert parse_quantity("quadrature", "time_or_quadrature", "op") == "quadrature"
    assert parse_quantity("2 fs", "time_or_quadrature", "op") == 2e-15


def test_parse_quantity_components_and_lists():
    comp = parse_quantity("10 Hz | 20 nm | 0.5 rad", "component", "c")
    assert comp == SignalComponent(10.0, 20e-9, 0.5)
    comp2 = parse_quantity("1 kHz|5 nm", "component", "c")
    assert comp2.phase == 0.0
    assert parse_quantity("10000 | 59000", "int_list", "ns") == (10000, 59000)
    assert parse_quantity("0.0|0.87", "bare_list", "vals") == (0.0, 0.87)


def test_parse_quantity_rejections():
    cases = [
        ("10", "time"),  # dimensioned values need a unit
        ("0.5 Hz", "bare"),  # dimensionless values must not have one
        ("2.5", "int"),
        ("10 parsec", "length"),
        ("abc", "frequency"),
        ("", "str"),
        ("maybe", "bool"),
        ("10 Hz | 20 nm | 1 rad | extra", "component"),
    ]
    for text, kind in cases:
        with pytest.raises(ConfigError):
            parse_quantity(text, kind, "x")


def test_parse_quantity_rejects_non_finite_numbers():
    # 1e999 parses to inf, and 1e308 THz scales to inf: refused by key name,
    # never passed on as inf (int(inf) would raise OverflowError).
    cases = [
        ("1e999", "int"),
        ("-1e999", "bare"),
        ("1e999 s", "time"),
        ("1e308 THz", "frequency"),
        ("0.5|1e999", "bare_list"),
        ("1e999 Hz | 20 nm", "component"),
        ("-1e400 fs", "time_or_quadrature"),
    ]
    for text, kind in cases:
        with pytest.raises(ConfigError, match=r"\[run\] seed: .* is not a finite number"):
            parse_quantity(text, kind, "[run] seed")


# ----- INI / JSON parsing -----


def test_ini_parses_and_types_values():
    cfg = parse_config(QUICK_START, "inline")
    assert cfg.get("pair", "detuning") == 177e12
    assert cfg.get("pair", "visibility") == 0.9
    assert cfg.get("run", "seed") == 611
    assert cfg.get("run", "t_exp") == 1.0
    assert cfg.get("signal", "amplitude_pp") == 20e-9
    assert cfg.get("run", "missing", "fallback") == "fallback"
    with pytest.raises(ConfigError):
        cfg.get("run", "missing")


def test_ini_rejects_unknown_and_duplicates():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[volume]\nlevel = 11\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[pair]\ncolor = red\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[analysis]\nmethod = auto\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[analysis]\nrefine = true\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[run]\nformat = text\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[analysis]\nwindow = hann\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[analysis]\npoints_per_period = 100\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("[pair]\nvisibility = 1\nvisibility = 0.9\n")
    with pytest.raises(ConfigError, match="outside"):
        parse_config("visibility = 1\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("[pair]\nvisibility\n")


def test_json_config_equivalent_to_ini():
    doc = {
        "pair.detuning": "177 THz",
        "pair.visibility": 0.9,
        "signal.kind": "pure_tone",
        "signal.frequency": "10 Hz",
        "signal.amplitude_pp": "20 nm",
        "run.seed": 611,
    }
    cfg_json = parse_config(json.dumps(doc))
    cfg_ini = parse_config(QUICK_START)
    assert build_pair(cfg_json) == build_pair(cfg_ini)
    assert cfg_json.get("run", "seed") == 611
    # A JSON boolean reads as the INI's true or false.
    for flag in (True, False):
        assert parse_config(json.dumps({"run.binary": flag})).get("run", "binary") is flag


def test_json_config_rejections():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{broken")
    with pytest.raises(ConfigError, match="section.key"):
        parse_config(json.dumps({"seed": 1}))
    # A JSON array does not sniff as JSON (no leading brace); it falls
    # through to the INI parser and is rejected there.
    with pytest.raises(ConfigError, match=r"unknown section \[1, 2\]"):
        parse_config("[1, 2]")
    # A list value, and a key of an unknown section, are refused.
    with pytest.raises(ConfigError, match=r"run\.seed: value must be a string or number"):
        parse_config(json.dumps({"run.seed": [1, 2]}))
    with pytest.raises(ConfigError, match=r"unknown section \[volume\]"):
        parse_config(json.dumps({"volume.level": 11}))
    # Dimensioned quantities must be strings carrying their unit even in
    # JSON; a bare number is ambiguous and is refused.
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"pair.detuning": 177e12})).get("pair", "detuning")
    # Integers too long for int() and nesting deeper than the decoder's
    # recursion limit are invalid JSON, not tracebacks.
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config('{"run.seed": ' + "1" * 5000 + "}")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config('{"run.seed": ' + "[" * 100_000 + "}")
    # A repeated key is refused, as in the INI form, not overwritten by
    # its last value.
    duplicate = '{"pair.visibility": 1, "pair.visibility": 0.5}'
    with pytest.raises(ConfigError, match="duplicate key 'pair.visibility'"):
        parse_config(duplicate)


# ----- builders -----


def test_build_pair_default_and_wavelengths():
    pair = build_pair(Config({}))
    assert abs(pair.delta_omega - 2 * math.pi * 177e12) < 1e-3
    assert pair.visibility_v0 == 1.0
    # sigma is a bandwidth in Hz, kept as an angular frequency.
    assert build_pair(parse_config("[pair]\nsigma = 1 THz\n")).sigma == 2 * math.pi * 1e12
    cfg = parse_config("[pair]\nlambda_1 = 810 nm\nlambda_2 = 1550 nm\n")
    pair_wl = build_pair(cfg)
    expected = 2 * math.pi * SPEED_OF_LIGHT * abs(1 / 810e-9 - 1 / 1550e-9)
    assert abs(pair_wl.delta_omega - expected) < 1e-3 * expected
    with pytest.raises(ConfigError, match="both lambda_1 and lambda_2"):
        build_pair(parse_config("[pair]\nlambda_1 = 810 nm\n"))


WAVELENGTHS = "[pair]\nlambda_1 = 810 nm\nlambda_2 = 1550 nm\n"


def test_build_pair_wavelength_rules():
    # Round 810/1550 nm wavelengths imply a 176.70 THz beat: the detuning is
    # that beat, exactly, when no detuning is given; a detuning within 0.1%
    # of it is kept; 177 THz is 0.17% away and refused, as is one
    # wavelength without the other, each named by its key.
    pair = build_pair(parse_config(WAVELENGTHS))
    assert pair.delta_omega == abs(2 * math.pi * SPEED_OF_LIGHT * (1 / 810e-9 - 1 / 1550e-9))
    assert pair.delta_omega == pytest.approx(2 * math.pi * 176.70e12, rel=1e-3)
    agreeing = build_pair(parse_config(WAVELENGTHS + "detuning = 176.7 THz\n"))
    assert agreeing.delta_omega == 2 * math.pi * 176.7e12
    refused = (
        (
            WAVELENGTHS + "detuning = 177 THz\n",
            "detuning",
            "differs from detuning = 1.77e+14 Hz by more than 0.1%",
        ),
        ("[pair]\nlambda_1 = 810 nm\n", "lambda_1", "give both lambda_1 and lambda_2 or neither"),
        (
            "[pair]\ndetuning = 177 THz\nlambda_2 = 1550 nm\n",
            "lambda_2",
            "give both lambda_1 and lambda_2",
        ),
        ("[pair]\nlambda_1 = -810 nm\nlambda_2 = 1550 nm\n", "lambda_1", "must be positive"),
        ("[pair]\nlambda_1 = 810 nm\nlambda_2 = 0 nm\n", "lambda_2", "must be positive"),
    )
    for text, key, message in refused:
        with pytest.raises(ConfigError, match=re.escape(f"[pair] {key}: ") + ".*"
                           + re.escape(message)):
            build_pair(parse_config(text))


def test_build_fringe_defaults():
    fringe = build_fringe(Config({}))
    assert abs(fringe.omega_optical - 2 * math.pi * SPEED_OF_LIGHT / 1550e-9) < 1.0
    assert fringe.phase_offset == -math.pi / 2
    assert fringe.arm_intensity_ratio == 1.0
    custom = build_fringe(parse_config("[classical]\nwavelength = 780 nm\narm_ratio = 0.13\n"))
    assert abs(custom.omega_optical - 2 * math.pi * SPEED_OF_LIGHT / 780e-9) < 1.0
    assert custom.arm_intensity_ratio == 0.13


def test_build_channel_reads_degradations():
    ch = build_channel(parse_config("[channel]\nloss = 0.87\nbackground = 0.5\ngeometry = 1\n"))
    assert ch.loss_b == 0.87
    assert ch.background_fraction == 0.5
    assert ch.geometry.g == 1


def test_signal_component_refusal_names_the_line_and_the_key():
    text = "[signal]\nkind = multi_tone\ncomponent_1 = 0 Hz | 20 nm\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text, "tone.ini")
    assert str(exc.value) == (
        "tone.ini:3: [signal] component_1: component frequency must be positive and finite"
    )


def test_resolve_operating_delay_modes():
    pair, fringe = build_pair(Config({})), build_fringe(Config({}))
    assert resolve_operating_delay(Config({}), pair) == quadrature_delay(pair)
    assert resolve_operating_delay(Config({}), fringe) == 0.0
    cfg = parse_config("[signal]\ntau_op = 2 fs\n")
    assert resolve_operating_delay(cfg, pair) == 2e-15
    with pytest.raises(ConfigError):
        resolve_operating_delay(parse_config("[signal]\ntau_op = quadrature\n"), fringe)


def test_build_signal_kinds():
    pair = build_pair(Config({}))
    tone = build_signal(parse_config(
        "[signal]\nkind = pure_tone\nfrequency = 10 Hz\namplitude_pp = 20 nm\n"
    ), pair)
    assert len(tone.components) == 1
    assert tone.dc_offset_delay == quadrature_delay(pair)
    square = build_signal(parse_config(
        "[signal]\nkind = square_wave\nfrequency = 10 Hz\namplitude_pp = 55 nm\nharmonics = 7\n"
    ), pair)
    assert [c.frequency for c in square.components] == [10.0, 30.0, 50.0, 70.0]
    multi = build_signal(parse_config(
        "[signal]\nkind = multi_tone\ncomponent_1 = 50 Hz | 36 nm\ncomponent_2 = 100 Hz | 22 nm\n"
    ), build_fringe(Config({})))
    assert len(multi.components) == 2
    assert multi.dc_offset_delay == 0.0
    with pytest.raises(ConfigError):
        build_signal(parse_config("[signal]\nkind = chirp\n"), pair)


def test_a_flag_replaces_its_key_and_leaves_the_others():
    cfg = parse_config("[analysis]\np_fa = 0.01\nf_max = 1 kHz\n\n[run]\nseed = 3\n", "a.ini")
    opts = build_options(cfg)
    assert opts.p_fa == 0.01 and opts.f_max == 1e3
    flagged = cfg.with_flags({"analysis.p_fa": 0.001, "qcrb.trials": 50})
    opts2 = build_options(flagged)
    assert opts2.p_fa == 0.001 and opts2.f_max == 1e3
    assert flagged.get("qcrb", "trials") == 50 and flagged.get("run", "seed") == 3
    assert cfg.get("analysis", "p_fa") == 0.01 and not cfg.has("qcrb", "trials")  # unchanged
    assert str(flagged.refusal("analysis", "p_fa", "m")) == "--p-fa: m"
    assert str(flagged.refusal("analysis", "f_max", "m")) == "a.ini: [analysis] f_max: m"
    # A flag for one key leaves a bad value of another named by the file.
    cfg = parse_config("[analysis]\np_fa = 0\n").with_flags({"analysis.f_max": 10.0})
    with pytest.raises(ConfigError, match=r"^<memory>: \[analysis\] p_fa: "):
        build_options(cfg)


# ----- end-to-end CLI -----


def write_tone_config(tmp_path, seed=611):
    cfg_path = tmp_path / "tone.ini"
    cfg_path.write_text(QUICK_START.replace("seed = 611", f"seed = {seed}"))
    return cfg_path


def test_cli_simulate_then_estimate(tmp_path, capsys):
    cfg = write_tone_config(tmp_path)
    out = tmp_path / "run1"
    assert main(["simulate", "-c", str(cfg), "--out", str(out)]) == 0
    assert (out / "coincidence.txt").exists()
    assert (out / "anticoincidence.txt").exists()
    truth = json.loads((out / "ground_truth.json").read_text())
    assert truth["components"][0]["f"] == 10.0
    capsys.readouterr()

    est_dir = tmp_path / "est"
    code = main([
        "estimate",
        str(out / "coincidence.txt"),
        str(out / "anticoincidence.txt"),
        "-c", str(cfg),
        "--out", str(est_dir),
    ])
    captured = capsys.readouterr().out
    assert code == 0
    assert "displacement_pp=" in captured
    assert "component f=" in captured
    assert (est_dir / "spectrum.csv").exists()
    recon = json.loads((est_dir / "reconstruction.json").read_text())
    assert recon["mode"] == "quantum"
    assert abs(recon["displacement_pp"] - 20e-9) < 5e-9


def test_cli_simulate_is_deterministic(tmp_path):
    cfg = write_tone_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "-c", str(cfg), "--out", str(out_a)]) == 0
    assert main(["simulate", "-c", str(cfg), "--out", str(out_b)]) == 0
    for name in ("coincidence.txt", "anticoincidence.txt", "ground_truth.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_classical_run_reads_no_pair_key(tmp_path, capsys):
    # simulate --mode classical builds the classical fringe alone, as
    # estimate does: a [pair] value it never reads changes no stream.
    outputs = []
    for name, text in (("tone", QUICK_START), ("unread", edit(QUICK_START, ("0.9", "2")))):
        cfg, out = tmp_path / f"{name}.ini", tmp_path / name
        cfg.write_text(text)
        classical = ["-c", str(cfg), "--mode", "classical"]
        assert main(["simulate", *classical, "--out", str(out)]) == 0
        assert main(["estimate", str(out / "port1.txt"), str(out / "port2.txt"), *classical]) == 0
        outputs.append([(out / n).read_bytes() for n in ("port1.txt", "port2.txt")])
    assert outputs[0] == outputs[1]
    capsys.readouterr()


def test_cli_binary_streams_round_trip(tmp_path, capsys):
    cfg = write_tone_config(tmp_path, seed=612)
    out = tmp_path / "bin"
    assert main(["simulate", "-c", str(cfg), "--out", str(out), "--binary"]) == 0
    capsys.readouterr()
    code = main([
        "estimate",
        str(out / "coincidence.bin"),
        str(out / "anticoincidence.bin"),
        "-c", str(cfg),
        "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "quantum"
    assert abs(doc["components"][0]["f_hat"] - 10.0) < 0.3


def _write_uniform_streams(tmp_path, t_exps=(1.0, 1.0)):
    """Signal-free coincidence and anticoincidence text streams of 2000 events each."""
    rng = np.random.default_rng(5)
    paths = []
    for tag, t_exp in zip(("coincidence", "anticoincidence"), t_exps):
        ticks = np.sort(rng.integers(0, round(t_exp / 1e-10), 2000))
        path = tmp_path / f"{tag}.txt"
        write_stream_text(TimestampStream(tag, ticks, 1e-10, t_exp), path)
        paths.append(str(path))
    return paths


def test_cli_estimate_without_detection(tmp_path, capsys):
    # Signal-free streams: the scan reports no component, and no
    # reconstruction.json is written, in either format.
    cfg = write_tone_config(tmp_path)
    streams = _write_uniform_streams(tmp_path)
    out = tmp_path / "est"
    assert main(["estimate", *streams, "-c", str(cfg), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote {out / 'spectrum.csv'}"
    assert lines[1].startswith("scanned 334 bins up to 199.79999999999998 Hz, threshold ")
    assert lines[2:] == ["no components detected"]
    assert main(["estimate", *streams, "-c", str(cfg), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"detected": False}
    assert sorted(path.name for path in out.iterdir()) == ["spectrum.csv"]


def test_cli_estimate_takes_the_smallest_p_fa_by_flag_and_by_key(tmp_path, capsys):
    # At p_fa = 5e-324 the per-bin level underflows to 0; its log is then
    # taken in closed form, so both spellings scan to a finite threshold.
    streams = _write_uniform_streams(tmp_path)
    cfg = tmp_path / "tiny.ini"
    cfg.write_text("[analysis]\np_fa = 5e-324\nf_max = 200 Hz\n")
    outputs = []
    for extra in (["--p-fa", "5e-324", "--f-max", "200"], ["-c", str(cfg)]):
        assert main(["estimate", *streams, *extra]) == 0, extra
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "Error" not in captured.err
        lines = captured.out.splitlines()
        kappa = float(lines[0].rpartition("threshold ")[2].split()[0])
        assert math.isfinite(kappa) and kappa > 0, lines[0]
        assert lines[1:] == ["no components detected"]
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


def test_cli_trials_writes_records(tmp_path, capsys):
    cfg = write_tone_config(tmp_path)
    out = tmp_path / "trials.json"
    assert main(["trials", "-c", str(cfg), "--trials", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    records = json.loads(out.read_text())["records"]
    assert len(records) == 2
    for rec in records:
        assert isinstance(rec["unrefined"], int) and rec["unrefined"] >= 0


def test_cli_trials_prints_a_trial_that_detects_nothing(tmp_path, capsys):
    # A 6 nm tone sits at the detection floor: of seeds 611 to 613 the second misses.
    cfg = tmp_path / "tone.ini"
    cfg.write_text(edit(QUICK_START, ("amplitude_pp = 20 nm", "amplitude_pp = 6 nm")))
    assert main(["trials", "-c", str(cfg), "--trials", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" f_hat=")[0] for line in lines[:3]] == [
        "trial seed=611", "trial seed=612 no detection", "trial seed=613"
    ]
    assert lines[-1] == "detection_rate=0.6666666666666666"


def _child_env():
    """Environment for a fresh interpreter that imports this checkout's qvibe."""
    src = str(Path(qvibe.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_import_loads_numpy_but_not_scipy():
    # numpy is the only runtime dependency: importing the package and its
    # CLI in a fresh interpreter must not pull in scipy, nor numpy.polynomial
    # (the grid series table is built without it), nor build the float
    # formatter's power table, which is built on first use.
    env = _child_env()
    code = (
        "import sys, qvibe, qvibe.cli, qvibe.floatrepr; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "print('numpy' in sys.modules); "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial'))); "
        "print(qvibe.floatrepr._tables.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout.split("\n")
    assert out[:4] == ["[]", "True", "[]", "0"]


def test_cli_qcrb_reports_ratio(capsys):
    code = main(["qcrb", "--n-pairs", "10000", "--trials", "200", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n_pairs=10000" in out
    assert "ratio=" in out


def test_cli_qcrb_inverts_the_flattest_fringe_without_a_warning(tmp_path, capsys):
    # At visibility 5e-324 nearly every trial's fringe reading 1 - 2 p lies
    # past +-v0, where dividing it by v0 overflows; it is clipped to +-v0
    # first, so the inversion reads the same +-1 with no warning raised.
    cfg = tmp_path / "flat.ini"
    cfg.write_text("[pair]\nvisibility = 5e-324\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["qcrb", "-c", str(cfg), "--n-pairs", "10000", "--trials", "200"])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    sigma = float(out.out.split("mc_sigma_tau=")[1].split()[0])
    assert 0 < sigma < math.pi / (2 * math.pi * 177e12)  # tau_hat is 0 or pi / omega


def test_advantage_setup_refuses_a_draw_the_sampler_would_refuse(monkeypatch):
    # The setup applies the sampler's own candidate check to each condition's
    # four streams, and the scan's grid check to its two exposures, so a setup
    # the sampler or the scan would refuse is never built.
    def draw(*args, **kwargs):
        raise AssertionError("drew a stream")

    monkeypatch.setattr("qvibe.simulate.sample_inhomogeneous_poisson", draw)
    with pytest.raises(ConfigError, match=r"^bound \* t_exp too large to sample"):
        loss_advantage_setup(target_pairs=1e12)
    with pytest.raises(ConfigError, match=r"^bound \* t_exp too large to sample"):
        background_advantage_setup(background_values=(0.5,), target_pairs=1e11)
    # So is one whose scan grid frequency_grid would refuse: 20 GHz over 5 ms.
    with pytest.raises(ConfigError, match=r"^the scan band 20 \* fundamental = 20000000000.0 Hz"
                                          r" needs 166666667 scan bins"):
        loss_advantage_setup(target_pairs=1000, fundamental=1e9)


def test_estimate_and_qcrb_run_on_the_defaults_without_a_config(tmp_path, capsys):
    # No -c reads as an empty file: the same output, every key at its default.
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    streams = _write_uniform_streams(tmp_path)
    for command in (["estimate", *streams], ["qcrb", "--n-pairs", "100", "--trials", "10"]):
        assert main(command) == 0, command
        defaults = capsys.readouterr()
        assert main([*command, "-c", str(empty)]) == 0, command
        assert capsys.readouterr() == defaults
        assert defaults.err == ""
    assert main(["estimate", *streams]) == 0
    # The default band is 50 kHz: 83,334 bins of 0.6 Hz over a 1 s exposure.
    assert capsys.readouterr().out.startswith("scanned 83334 bins up to ")


def test_cli_advantage_prints_and_writes_each_condition(tmp_path, capsys):
    cfg = tmp_path / "loss.ini"
    cfg.write_text("[advantage]\nexperiment = loss\ntarget_pairs = 100000\n")
    out = tmp_path / "loss.json"
    assert main(["advantage", "-c", str(cfg), "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    # Each record holds its condition's fields beside the two channels' results.
    assert [r["label"] for r in records] == ["loss=0", "loss=0.87"]
    assert [r["loss_b"] for r in records] == [0.0, 0.87]
    condition = {"label", "loss_b", "background_fraction", "t_exp_quantum", "t_exp_classical"}
    for r in records:
        assert set(r) == condition | {
            "truth_pp", "quantum_pp", "classical_pp", "quantum_events", "classical_events",
            "quantum_harmonics", "classical_harmonics",
        }
        assert r["background_fraction"] == 0.0
        assert abs(r["quantum_events"] - 100_000) < 4 * math.sqrt(100_000)
    # stdout is one three-line block per condition, then the notice.
    expected = []
    for r in records:
        expected += [
            f"{r['label']}: events q={r['quantum_events']} c={r['classical_events']}"
            f" truth_pp={r['truth_pp']!r}",
            f"  quantum pp={r['quantum_pp']!r} recovery={r['quantum_pp'] / r['truth_pp']!r}"
            f" harmonics={len(r['quantum_harmonics'])}",
            f"  classical pp={r['classical_pp']!r}"
            f" recovery={r['classical_pp'] / r['truth_pp']!r}"
            f" harmonics={len(r['classical_harmonics'])}",
        ]
    assert capsys.readouterr().out.splitlines() == expected + [f"wrote {out}"]


def _limit_child_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_cli_sweep_table_and_point_cap(tmp_path, capsys):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP)
    table = tmp_path / "sweep.csv"
    assert main(["sweep", "-c", str(cfg), "--out", str(table)]) == 0
    lines = table.read_text().splitlines()
    captured = capsys.readouterr()
    assert captured.out == table.read_text()  # the notice goes to stderr, not into the table
    assert captured.err == f"wrote {table}\n"
    assert lines[0] == "f_nominal,f_true,detected,f_hat,rel_offset,pp_hat"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["10.0", "20.0", "30.0"]
    assert all(row[2] == "1" and abs(float(row[3]) - float(row[0])) < 0.05 for row in rows)

    # 10001 points, one more than the cap, and a step below the float
    # resolution at 1 MHz, where stepping f by adding step never advances
    # it and the point list grows without bound. Both must be refused
    # before any exposure. They run in a child with a deadline and a
    # memory limit, so a regression fails the test instead of hanging the
    # suite.
    over = SWEEP.replace("stop = 30 Hz", "stop = 100010 Hz")
    hang = (
        SWEEP.replace("start = 10 Hz", "start = 1 MHz")
        .replace("stop = 30 Hz", "stop = 1 MHz")
        .replace("step = 10 Hz", "step = 1e-12 Hz")
    )
    for name, text in (("over", over), ("hang", hang)):
        path = tmp_path / f"{name}.ini"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "qvibe.cli", "sweep", "-c", str(path)],
            env=_child_env(), capture_output=True, text=True, timeout=30,
            preexec_fn=_limit_child_memory,
        )
        assert proc.returncode == 2, (name, proc.stderr[-500:])
        assert "more than 10000 points" in proc.stderr, name


def test_every_override_flag_is_spelled_by_its_key():
    # A flag's dest is the "section.key" it sets, and the flag is "--" plus
    # the key with "-" for "_", the name Config.refusal gives a flagged value.
    parser = _build_parser()
    (subcommands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    keys = set()
    for command, sub in subcommands.choices.items():
        for action in sub._actions:
            if "." in action.dest:
                section, key = action.dest.split(".")
                where = (command, action.dest)
                assert key in _SCHEMA[section], where
                assert action.option_strings == ["--" + key.replace("_", "-")], where
                assert action.default is None, where  # absent, the file's key holds
                keys.add(action.dest)
    assert keys == {
        "run.mode", "run.binary", "run.seed", "run.trials", "analysis.p_fa", "analysis.f_max",
        "analysis.ratio", "qcrb.n_pairs", "qcrb.trials", "qcrb.calibration_factor",
    }


def test_cli_spectrum_csv_to_stdout(tmp_path, capsys):
    cfg = write_tone_config(tmp_path, seed=613)
    out = tmp_path / "s"
    assert main(["simulate", "-c", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    code = main([
        "estimate",
        str(out / "coincidence.txt"),
        str(out / "anticoincidence.txt"),
        "-c", str(cfg),
        "--format", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "f_hz,re_y,im_y,abs_y,kappa"
    assert len(lines) == 335  # header plus the 334-bin grid


def test_parser_built_once_carries_nothing_between_calls(tmp_path, capsys):
    cfg = write_tone_config(tmp_path, seed=615)
    out = tmp_path / "s"
    assert main(["simulate", "-c", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    streams = [str(out / "coincidence.txt"), str(out / "anticoincidence.txt")]
    assert main(["estimate", *streams, "-c", str(cfg), "--format", "csv", "--f-max", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + qvibe.estimate.frequency_grid(1.0, 100.0).size < 335
    assert main(["estimate", *streams, "-c", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("scanned 334 bins up to ")
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_machine_readable_estimate_keeps_notices_off_stdout(tmp_path, monkeypatch, capsys, fmt):
    # With --out, stdout repeats the file byte for byte, and each product is
    # built once for both: the table alone takes about a second on a large grid.
    cfg = write_tone_config(tmp_path, seed=614)
    out = tmp_path / "s"
    assert main(["simulate", "-c", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    calls = []

    def counted(method):
        def wrapper(self, *args):
            calls.append(method.__name__)
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(SpectrumEstimate, "csv_blocks", counted(SpectrumEstimate.csv_blocks))
    monkeypatch.setattr(ReconstructedSignal, "json_text", counted(ReconstructedSignal.json_text))
    code = main([
        "estimate",
        str(out / "coincidence.txt"),
        str(out / "anticoincidence.txt"),
        "-c", str(cfg),
        "--out", str(out),
        "--format", fmt,
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert sorted(calls) == ["csv_blocks", "json_text"]
    if fmt == "json":
        assert captured.out == (out / "reconstruction.json").read_text()
    else:
        assert captured.out == (out / "spectrum.csv").read_text()
        assert len(captured.out.splitlines()) == 335  # header plus the 334-bin grid
    assert captured.err == f"wrote {out / 'spectrum.csv'}\nwrote {out / 'reconstruction.json'}\n"


@pytest.mark.parametrize("mode, tick", [
    pytest.param(mode, tick, id=tick if mode == "quantum" else f"{mode} {tick}")
    for mode in ("quantum", "classical") for tick in ("23 ps", "100 ps", "1000 ps")
])
def test_cli_text_and_binary_runs_agree(tmp_path, capsys, mode, tick):
    # The quick start as text and as --binary streams gives byte-identical
    # analyses in both channel modes, at a tick whose picosecond value is not
    # a float (23 ps), at the default and at 1 ns; so does one stream of each format.
    cfg = tmp_path / "tick.ini"
    cfg.write_text(QUICK_START.replace("t_exp = 1 s", f"t_exp = 1 s\ntick = {tick}"))
    run = ["-c", str(cfg), "--mode", mode]
    names = ("coincidence", "anticoincidence") if mode == "quantum" else ("port1", "port2")
    for flags in ([], ["--binary"]):
        assert main(["simulate", *run, "--out", str(tmp_path / "sim"), *flags]) == 0
    outputs = []
    for exts in ((".txt", ".txt"), (".bin", ".bin"), (".txt", ".bin")):  # text, binary, mixed
        est = tmp_path / "".join(exts)
        streams = [str(tmp_path / "sim" / (name + ext)) for name, ext in zip(names, exts)]
        assert main(["estimate", *streams, *run, "--out", str(est)]) == 0
        outputs.append([(est / n).read_bytes() for n in ("spectrum.csv", "reconstruction.json")])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    recon = json.loads(outputs[0][1])
    assert recon["mode"] == mode
    assert any(abs(c["f_hat"] - 10.0) < 0.6 for c in recon["components"])
    capsys.readouterr()


@pytest.mark.parametrize("argv, config", [
    ("trials --trials 3", SWEEP),
    ("sweep", SWEEP),
    ("advantage", "[advantage]\nexperiment = loss\ntarget_pairs = 100000\n"),
    ("advantage", "[advantage]\nexperiment = background\ntarget_pairs = 100000\n"),
], ids=["trials", "sweep", "advantage-loss", "advantage-background"])
def test_campaign_writes_the_same_bytes_on_any_thread_count(
    tmp_path, monkeypatch, capsys, argv, config
):
    # Each exposure has its own seed, so the records do not depend on the
    # worker count. Two usable cores, so --threads 2 opens a pool on any host,
    # and --threads 64 opens no more workers than those.
    monkeypatch.setattr("qvibe.metrology._usable_cores", lambda: 2)
    cfg = tmp_path / "c.ini"
    cfg.write_text(config)
    outputs = []
    for threads in ("1", "2", "64"):
        out = tmp_path / f"out{threads}"
        assert main([*argv.split(), "-c", str(cfg), "--threads", threads, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    capsys.readouterr()


# ----- the README quick start -----


@pytest.fixture(scope="module")
def quick_start_run(tmp_path_factory):
    """The quick start's documented commands, run on its config in a fresh
    directory: that directory and the lines each command printed."""
    work = tmp_path_factory.mktemp("quick_start")
    (work / "tone.ini").write_text(QUICK_START)
    commands = readme_block("sh", "qvibe simulate ").splitlines()
    printed = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(command.split()[1:]) == 0, command
            printed.append(out.getvalue().splitlines())
    finally:
        os.chdir(cwd)
    return work, printed


# sha256 of the quick start's products, from text and from --binary streams
# alike, so a change that moves one bit of a quick-start spectrum shows here.
PINNED_PRODUCTS = {
    "spectrum.csv": "36902765ecf9ed373e911a725d02a4614ca1c83c137b1be78c5dd7c6f2f2906f",
    "reconstruction.json": "c3bb605b76ac145edda5a270bc068b123141063027010ed2215940d4394f9cec",
}


@pytest.mark.parametrize("ext", [".txt", ".bin"], ids=["text", "binary"])
def test_quick_start_products_keep_their_bytes(tmp_path, capsys, ext):
    cfg = tmp_path / "tone.ini"
    cfg.write_text(QUICK_START)
    flags = ["--binary"] if ext == ".bin" else []
    assert main(["simulate", "-c", str(cfg), "--out", str(tmp_path / "run"), *flags]) == 0
    streams = [str(tmp_path / "run" / (name + ext)) for name in ("coincidence", "anticoincidence")]
    assert main(["estimate", *streams, "-c", str(cfg), "--out", str(tmp_path / "est")]) == 0
    for name, digest in PINNED_PRODUCTS.items():
        assert hashlib.sha256((tmp_path / "est" / name).read_bytes()).hexdigest() == digest, name
    capsys.readouterr()


def test_readme_output_block_is_what_the_quick_start_prints(quick_start_run):
    # The block is the last line simulate prints, then everything estimate prints.
    _, (simulated, estimated) = quick_start_run
    assert simulated[-1:] + estimated == readme_block("", "mode=quantum t_exp=").splitlines()


def test_readme_library_snippet_runs_on_the_quick_start_run(quick_start_run, monkeypatch):
    # The documented pipeline(...) call runs against run1/ and reads the
    # displacement that the quick start's estimate printed.
    work, (_, estimated) = quick_start_run
    monkeypatch.chdir(work)
    namespace = {}
    exec(compile(readme_block("python"), str(README), "exec"), namespace)
    pp = namespace["result"].reconstruction.displacement_pp
    assert f"displacement_pp={pp!r} m" in estimated


# ----- refusals -----


@pytest.mark.parametrize("row", REFUSALS, ids=[row.name for row in REFUSALS])
def test_refusal(row):
    assert check(row) == []


def _probe(act):
    """The simulate t_exp refusal, with ``act`` run first, inside the command."""
    def build_pair(cfg):
        act()
        return qvibe.config.build_pair(cfg)

    return build_pair


PROBE = Refusal("probe", "simulate -c tone.ini --out out",
                "config error: tone.ini: [run] t_exp: t_exp must be positive, got 0.0 s",
                {"tone.ini": edit(QUICK_START, ("t_exp = 1 s", "t_exp = 0 s"))})


@pytest.mark.parametrize("fault, row, act", [
    ("exit 2, expected 3", dataclasses.replace(PROBE, code=3), None),
    ("stderr", dataclasses.replace(PROBE, err="config error: tone.ini: [run] tick: ..."), None),
    ("left out behind", PROBE, lambda: Path("out").mkdir()),
    ("on stdout", PROBE, lambda: print("drawing")),
    ("RuntimeWarning", PROBE, lambda: np.log(np.zeros(1))),
    ("DeprecationWarning", PROBE, lambda: warnings.warn("old", DeprecationWarning)),
    ("DrawAttempted", PROBE, lambda: qvibe.simulate.sample_inhomogeneous_poisson(abs, 1.0, 1.0, 0)),
    ("KeyError", PROBE, lambda: {}["x"]),
])
def test_the_runner_fails_a_row_that_breaks_the_contract(monkeypatch, fault, row, act):
    # The probe holds as it stands; each break of it must be reported, naming what broke.
    assert len({r.name for r in REFUSALS}) == len(REFUSALS)
    assert check(PROBE) == []
    if act is not None:
        monkeypatch.setattr("qvibe.cli.build_pair", _probe(act))
    faults = check(row)
    assert faults and fault in " ".join(faults), faults


def test_every_refusal_the_readme_quotes_is_a_row():
    # A quote ending in "..." is the start of a row's line; any other is a whole line.
    quotes = re.findall(r"`((?:config|io|stream|analysis) error: [^`]*)`", README.read_text())
    assert len(quotes) >= 9
    lines = [row.err for row in REFUSALS if not row.err.endswith("...")]
    for quote in (" ".join(q.split()) for q in quotes):
        assert any(matches(quote, line) for line in lines), quote
