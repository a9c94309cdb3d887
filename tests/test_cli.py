"""Configuration parsing and command-line behavior tests.

CLI tests drive main() in-process so exit codes and stdout can be
asserted without spawning interpreters. Two checks run a child: the
import check, which needs a fresh interpreter, and the sweep point cap,
whose failure mode is a run that never ends.
"""

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
from qvibe.cli import main
from qvibe.config import (
    Config,
    build_channel,
    build_fringe,
    build_options,
    build_pair,
    build_signal,
    load_config,
    parse_config,
    parse_quantity,
    resolve_operating_delay,
)
from qvibe.core import SPEED_OF_LIGHT, quadrature_delay
from qvibe.errors import ConfigError
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


INI_TEXT = """
# tone scenario
[pair]
detuning = 177 THz
visibility = 0.9

[signal]
kind = pure_tone
frequency = 10 Hz
amplitude_pp = 20 nm

[channel]
rate_c = 190 kHz
rate_a = 190 kHz

[run]
mode = quantum
t_exp = 1 s
seed = 611

[analysis]
f_max = 200 Hz
"""


def test_ini_parses_and_types_values():
    cfg = parse_config(INI_TEXT, "inline")
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
    cfg_ini = parse_config(INI_TEXT)
    assert build_pair(cfg_json) == build_pair(cfg_ini)
    assert cfg_json.get("run", "seed") == 611
    # A JSON boolean reads as the INI's true or false.
    for flag in (True, False):
        assert parse_config(json.dumps({"run.binary": flag})).get("run", "binary") is flag


@pytest.mark.parametrize("text, message", [
    ("[pair]\nvisibility = 0.9\ncolor = red\n",
     "u.ini:3: [pair] color: unknown key 'color' in section [pair]"),
    ("[volume]\nlevel = 11\n", "u.ini:1: unknown section [volume]"),
    ('{"pair.color": "red"}', "u.json: [pair] color: unknown key 'color' in section [pair]"),
    ('{"volume.level": 11}', "u.json: [volume] level: unknown section [volume]"),
])
def test_unknown_section_or_key_names_the_file_and_the_location(
    tmp_path, monkeypatch, capsys, text, message
):
    monkeypatch.chdir(tmp_path)
    name = "u.json" if text.startswith("{") else "u.ini"
    (tmp_path / name).write_text(text)
    assert main(["qcrb", "-c", name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


def test_json_config_rejections(tmp_path, capsys):
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
    cfg = tmp_path / "duplicate.json"
    cfg.write_text(duplicate)
    capsys.readouterr()
    assert main(["qcrb", "-c", str(cfg)]) == 2
    assert "duplicate key 'pair.visibility'" in capsys.readouterr().err


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


def test_build_pair_wavelength_rules(tmp_path, capsys):
    # Round 810/1550 nm wavelengths imply a 176.70 THz beat: the detuning is
    # that beat, exactly, when no detuning is given; a detuning within 0.1%
    # of it is kept; 177 THz is 0.17% away and refused, as is one
    # wavelength without the other.
    pair = build_pair(parse_config(WAVELENGTHS))
    assert pair.delta_omega == abs(2 * math.pi * SPEED_OF_LIGHT * (1 / 810e-9 - 1 / 1550e-9))
    assert pair.delta_omega == pytest.approx(2 * math.pi * 176.70e12, rel=1e-3)
    agreeing = build_pair(parse_config(WAVELENGTHS + "detuning = 176.7 THz\n"))
    assert agreeing.delta_omega == 2 * math.pi * 176.7e12
    refused = (
        (
            WAVELENGTHS + "detuning = 177 THz\n",
            "differs from detuning = 1.77e+14 Hz by more than 0.1%",
        ),
        ("[pair]\nlambda_1 = 810 nm\n", "give both lambda_1 and lambda_2 or neither"),
        ("[pair]\ndetuning = 177 THz\nlambda_2 = 1550 nm\n", "give both lambda_1 and lambda_2"),
        ("[pair]\nlambda_1 = -810 nm\nlambda_2 = 1550 nm\n", "must be positive"),
    )
    for text, message in refused:
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_pair(parse_config(text))
        cfg = tmp_path / "pair.ini"
        cfg.write_text(text)
        assert main(["qcrb", "-c", str(cfg), "--n-pairs", "100", "--trials", "10"]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: [pair] "), text
        assert message in captured.err, text


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


LIBRARY_REFUSALS = [
    ("quantum", "[channel]\ngeometry = 3\n",
     "[channel] geometry: geometry factor must be 1 or 2, got 3"),
    ("quantum", "[pair]\nvisibility = 1.5\n", "[pair] visibility: visibility_v0 must lie in (0, 1]"),
    ("quantum", "[pair]\ndetuning = 0 Hz\n", "[pair] detuning: delta_omega must be positive"),
    ("quantum", "[pair]\nsigma = -1 THz\n", "[pair] sigma: sigma must be non-negative"),
    ("quantum", "[channel]\nrate_c = 190 kHz\nloss = 1\n", "[channel] loss: loss_b must lie in [0, 1)"),
    ("classical", "[classical]\narm_ratio = 2\n",
     "[classical] arm_ratio: arm_intensity_ratio must lie in [0, 1]"),
    ("quantum", "[analysis]\np_fa = 2\n", "[analysis] p_fa: p_fa must lie in (0, 1), got 2.0"),
]


@pytest.mark.parametrize("mode, text, message", LIBRARY_REFUSALS)
def test_library_refusals_name_the_file_and_the_key(tmp_path, monkeypatch, capsys, mode, text,
                                                    message):
    # A value a library constructor refuses is reported against the file and
    # the key that set it, the library's own words after them; exit code 2.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tone.ini").write_text(text)
    assert main(["estimate", "c.txt", "a.txt", "-c", "tone.ini", "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: tone.ini: {message}\n"


def test_refused_classical_simulate_leaves_no_output_directory(tmp_path, monkeypatch, capsys):
    # The classical fringe is built before the output directory is made.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tone.ini").write_text(INI_TEXT + "\n[classical]\narm_ratio = 2\n")
    assert main(["simulate", "-c", "tone.ini", "--mode", "classical", "--out", "y"]) == 2
    assert capsys.readouterr().err == (
        "config error: tone.ini: [classical] arm_ratio: arm_intensity_ratio must lie in [0, 1]\n"
    )
    assert not (tmp_path / "y").exists()


@pytest.mark.parametrize("edit, message", [
    # 100 s at 1 as is 1e20 ticks, past what an int64 tick can count.
    ("t_exp = 100 s\ntick = 1 as",
     "t_exp / tick_duration must stay below 2^63 ticks, got 1e+20"),
    ("t_exp = 1000 s", "bound * t_exp too large to sample (1.9e+08 candidates)"),
])
def test_refused_draw_leaves_no_output_directory(tmp_path, monkeypatch, capsys, edit, message):
    # The output directory is made once both streams are drawn. A tick too
    # fine for the exposure is refused before the draw, and named by key.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tone.ini").write_text(INI_TEXT.replace("t_exp = 1 s", edit))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "-c", "tone.ini", "--out", "y"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    where = "tone.ini: [run] tick: " if "tick" in edit else ""
    assert captured.err == f"config error: {where}{message}\n"
    assert not (tmp_path / "y").exists()


@pytest.mark.parametrize("edit, refusal", [
    ("t_exp = 100 s\ntick = 1 as", "[run] tick: t_exp / tick_duration must stay below 2^63"),
    ("t_exp = 1 s\ntick = -1 ps", "[run] tick: tick_duration must be positive and finite"),
    # With no tick set, the default 100 ps counts past int64 over 1e9 s.
    ("t_exp = 1e9 s", "[run] t_exp: t_exp / tick_duration must stay below 2^63"),
])
def test_simulate_and_trials_refuse_a_tick_too_fine_before_the_draw(
    tmp_path, monkeypatch, capsys, edit, refusal
):
    def draw(*args, **kwargs):
        raise AssertionError("drew a stream")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("qvibe.simulate.sample_inhomogeneous_poisson", draw)
    (tmp_path / "tone.ini").write_text(INI_TEXT.replace("t_exp = 1 s", edit))
    for command in (["simulate", "-c", "tone.ini", "--out", "y"],
                    ["trials", "-c", "tone.ini", "--trials", "2"]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: tone.ini: {refusal}")
    assert not (tmp_path / "y").exists()


def test_signal_component_refusal_names_the_line_and_the_key():
    text = "[signal]\nkind = multi_tone\ncomponent_1 = 0 Hz | 20 nm\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text, "tone.ini")
    assert str(exc.value) == (
        "tone.ini:3: [signal] component_1: component frequency must be positive and finite"
    )


def test_refusal_of_a_command_line_override_names_no_key(tmp_path, capsys):
    # --p-fa is not in the file, so its refusal is not blamed on a key there.
    cfg = write_tone_config(tmp_path)
    assert main(["estimate", "c.txt", "a.txt", "-c", str(cfg), "--p-fa", "3"]) == 2
    assert capsys.readouterr().err == "config error: p_fa must lie in (0, 1), got 3.0\n"
    with pytest.raises(ConfigError, match=r"^<memory>: \[analysis\] p_fa: "):
        build_options(parse_config("[analysis]\np_fa = 0\n"), {"f_max": 10.0})


def test_resolve_operating_delay_modes():
    pair = build_pair(Config({}))
    assert resolve_operating_delay(Config({}), pair, "quantum") == quadrature_delay(pair)
    assert resolve_operating_delay(Config({}), pair, "classical") == 0.0
    cfg = parse_config("[signal]\ntau_op = 2 fs\n")
    assert resolve_operating_delay(cfg, pair, "quantum") == 2e-15
    with pytest.raises(ConfigError):
        resolve_operating_delay(
            parse_config("[signal]\ntau_op = quadrature\n"), pair, "classical"
        )


def test_build_signal_kinds():
    pair = build_pair(Config({}))
    tone = build_signal(parse_config(
        "[signal]\nkind = pure_tone\nfrequency = 10 Hz\namplitude_pp = 20 nm\n"
    ), pair, "quantum")
    assert len(tone.components) == 1
    assert tone.dc_offset_delay == quadrature_delay(pair)
    square = build_signal(parse_config(
        "[signal]\nkind = square_wave\nfrequency = 10 Hz\namplitude_pp = 55 nm\nharmonics = 7\n"
    ), pair, "quantum")
    assert [c.frequency for c in square.components] == [10.0, 30.0, 50.0, 70.0]
    multi = build_signal(parse_config(
        "[signal]\nkind = multi_tone\ncomponent_1 = 50 Hz | 36 nm\ncomponent_2 = 100 Hz | 22 nm\n"
    ), pair, "classical")
    assert len(multi.components) == 2
    assert multi.dc_offset_delay == 0.0
    with pytest.raises(ConfigError):
        build_signal(parse_config("[signal]\nkind = chirp\n"), pair, "quantum")


def test_build_options_overrides_win():
    cfg = parse_config("[analysis]\np_fa = 0.01\nf_max = 1 kHz\n")
    opts = build_options(cfg)
    assert opts.p_fa == 0.01 and opts.f_max == 1e3
    opts2 = build_options(cfg, {"p_fa": 0.001, "f_max": None})
    assert opts2.p_fa == 0.001 and opts2.f_max == 1e3


# ----- end-to-end CLI -----


def write_tone_config(tmp_path, seed=611):
    cfg_path = tmp_path / "tone.ini"
    cfg_path.write_text(INI_TEXT.replace("seed = 611", f"seed = {seed}"))
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


def test_cli_exit_codes(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.ini"
    bad_cfg.write_text("[pair]\nvisibility = 2 THz\n")
    assert main(["simulate", "-c", str(bad_cfg), "--out", str(tmp_path)]) == 2

    good_cfg = write_tone_config(tmp_path)
    assert main(["estimate", str(tmp_path / "nope.txt"), str(tmp_path / "nope2.txt"),
                 "-c", str(good_cfg)]) == 3

    # Two event-free streams cannot set a detection threshold.
    empty1 = tmp_path / "empty1.txt"
    empty2 = tmp_path / "empty2.txt"
    empty1.write_text("qvibe-ts v1 coincidence 100 1.0 0\n")
    empty2.write_text("qvibe-ts v1 anticoincidence 100 1.0 0\n")
    assert main(["estimate", str(empty1), str(empty2), "-c", str(good_cfg)]) == 4
    capsys.readouterr()


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


def test_cli_estimate_refuses_streams_of_different_exposures(tmp_path, capsys):
    cfg = write_tone_config(tmp_path)
    streams = _write_uniform_streams(tmp_path, t_exps=(1.0, 2.0))
    assert main(["estimate", *streams, "-c", str(cfg), "--out", str(tmp_path / "est")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: streams must share t_exp and tick_duration\n"


def test_cli_rejects_unbounded_scan_grid(tmp_path, capsys):
    # 1e12 Hz over a 1 s exposure is 1.7e12 bins: refused before any allocation.
    run = tmp_path / "run"
    assert main(["simulate", "-c", str(write_tone_config(tmp_path)), "--out", str(run)]) == 0
    huge = tmp_path / "huge.ini"
    huge.write_text(INI_TEXT.replace("f_max = 200 Hz", "f_max = 1e12 Hz"))
    streams = [str(run / "coincidence.txt"), str(run / "anticoincidence.txt")]
    capsys.readouterr()
    assert main(["estimate", *streams, "-c", str(huge)]) == 2
    err = capsys.readouterr().err
    assert "1666666666667 scan bins" in err
    assert "Traceback" not in err


def test_every_subcommand_rejects_a_malformed_key(tmp_path, capsys):
    # Values are typed when the file is loaded, so an f_max without its
    # unit fails every subcommand, not just the ones that read [analysis].
    cfg = tmp_path / "nounit.ini"
    cfg.write_text(INI_TEXT.replace("f_max = 200 Hz", "f_max = 200"))
    commands = (
        ["simulate", "--out", str(tmp_path / "sim")],
        ["estimate", str(tmp_path / "c.txt"), str(tmp_path / "a.txt")],
        ["trials"],
        ["sweep"],
        ["advantage"],
        ["qcrb"],
    )
    for command in commands:
        assert main([*command, "-c", str(cfg)]) == 2, command
        err = capsys.readouterr().err
        assert "[analysis] f_max" in err and "needs a unit" in err, command
    assert not (tmp_path / "sim").exists()


def test_threads_only_on_the_subcommands_that_use_it(capsys):
    for command in (["simulate", "-c", "x.ini"], ["estimate", "a", "b"], ["qcrb"]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--threads", "2"])
        assert exc.value.code == 2, command
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_estimate_takes_no_seed(capsys):
    # estimate draws nothing, so a seed it would ignore is refused.
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "a", "b", "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_cli_rejects_threads_below_one(tmp_path, capsys):
    # Zero or negative worker counts are refused before any exposure runs,
    # with the flag named, instead of quietly running one worker.
    tone = write_tone_config(tmp_path)
    sweep = tmp_path / "sweep.ini"
    sweep.write_text(SWEEP_INI)
    loss = tmp_path / "loss.ini"
    loss.write_text("[advantage]\nexperiment = loss\n")
    for command, cfg in (("trials", tone), ("sweep", sweep), ("advantage", loss)):
        for threads in ("0", "-2"):
            assert main([command, "-c", str(cfg), "--threads", threads]) == 2, (command, threads)
            captured = capsys.readouterr()
            assert captured.out == "", (command, threads)
            assert captured.err == (
                f"config error: --threads must be at least 1, got {threads}\n"
            ), (command, threads)


def test_cli_rejects_nonpositive_points_per_period(tmp_path, capsys):
    # Traces are fixed at 100 samples per period, so the key is refused
    # whatever its value.
    run = tmp_path / "run"
    assert main(["simulate", "-c", str(write_tone_config(tmp_path)), "--out", str(run)]) == 0
    streams = [str(run / "coincidence.txt"), str(run / "anticoincidence.txt")]
    for value in ("0", "-3"):
        cfg = tmp_path / f"ppp{value}.ini"
        cfg.write_text(INI_TEXT + f"points_per_period = {value}\n")
        capsys.readouterr()
        assert main(["estimate", *streams, "-c", str(cfg)]) == 2
        assert "points_per_period" in capsys.readouterr().err


def test_cli_trials_writes_records(tmp_path, capsys):
    cfg = write_tone_config(tmp_path)
    out = tmp_path / "trials.json"
    assert main(["trials", "-c", str(cfg), "--trials", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    records = json.loads(out.read_text())["records"]
    assert len(records) == 2
    for rec in records:
        assert isinstance(rec["unrefined"], int) and rec["unrefined"] >= 0


def test_cli_rejects_negative_and_non_finite_seeds(tmp_path, capsys):
    cfg = write_tone_config(tmp_path)
    assert main(["simulate", "-c", str(cfg), "--out", str(tmp_path / "a"), "--seed", "-3"]) == 2
    assert "seed must be non-negative, got -3" in capsys.readouterr().err
    negative = write_tone_config(tmp_path, seed=-1)
    assert main(["trials", "-c", str(negative), "--trials", "2"]) == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    infinite = write_tone_config(tmp_path, seed="1e999")
    assert main(["simulate", "-c", str(infinite), "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert "[run] seed" in err and "not a finite number" in err
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def _child_env():
    """Environment for a fresh interpreter that imports this checkout's qvibe."""
    src = str(Path(qvibe.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_import_loads_numpy_but_not_scipy():
    # numpy is the only runtime dependency: importing the package and its
    # CLI in a fresh interpreter must not pull in scipy, nor numpy.polynomial
    # (the grid series table is built without it).
    env = _child_env()
    code = (
        "import sys, qvibe, qvibe.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "print('numpy' in sys.modules); "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout.split("\n")
    assert out[:3] == ["[]", "True", "[]"]


def test_cli_qcrb_reports_ratio(capsys):
    code = main(["qcrb", "--n-pairs", "10000", "--trials", "200", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n_pairs=10000" in out
    assert "ratio=" in out


def test_cli_qcrb_rejects_bad_counts_before_drawing(capsys):
    # Drawn first, these would give a numpy traceback (negative or
    # oversized pair count, non-finite calibration factor), a
    # RuntimeWarning (zero pairs) or a 745 GiB allocation (1e11 trials).
    # A negative calibration factor is no multiple of n_pairs (0 means a
    # known ratio); 1e308 or 1e15 of the 10000 default pairs is no int64
    # count. Each must be a config error, raised before any draw.
    cases = (
        ["--n-pairs", "-5"],
        ["--n-pairs", "0"],
        ["--n-pairs", str(10**30)],
        ["--trials", "100000000000"],
        ["--calibration-factor", "inf"],
        ["--calibration-factor", "-1"],
        ["--calibration-factor", "1e308"],
        ["--calibration-factor", "1e15"],
    )
    for args in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["qcrb", *args]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("config error"), args
        if args[0] == "--calibration-factor":
            assert "calibration_factor" in err, args


def test_cli_estimate_rejects_non_finite_ratio(tmp_path, capsys):
    run = tmp_path / "run"
    cfg = write_tone_config(tmp_path)
    assert main(["simulate", "-c", str(cfg), "--out", str(run)]) == 0
    streams = [str(run / "coincidence.txt"), str(run / "anticoincidence.txt")]
    capsys.readouterr()
    for ratio in ("inf", "nan", "0", "-1"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", *streams, "-c", str(cfg), "--ratio", ratio]) == 2, ratio
        captured = capsys.readouterr()
        assert captured.out == "", ratio
        assert captured.err.startswith("config error: ratio must be positive and finite"), ratio


SQUARE_WAVE = "[signal]\nkind = square_wave\nfrequency = 10 Hz\namplitude_pp = 20 nm\n"
ZERO_HZ = "frequency must be positive, got 0.0 Hz"
ZERO_NM = "amplitude_pp must be positive, got 0.0 m"


@pytest.mark.parametrize("command, text, message", [
    ("advantage", "[advantage]\nexperiment = loss\nfundamental = 0 Hz\n", ZERO_HZ),
    ("advantage", "[advantage]\nexperiment = background\nfundamental = 0 Hz\n", ZERO_HZ),
    ("advantage", "[advantage]\nexperiment = loss\nfundamental = -10 Hz\n",
     "frequency must be positive, got -10.0 Hz"),
    ("advantage", "[advantage]\nexperiment = loss\namplitude_pp = 0 nm\n", ZERO_NM),
    ("advantage", "[advantage]\nexperiment = background\namplitude_pp = 0 nm\n", ZERO_NM),
    ("simulate", SQUARE_WAVE.replace("10 Hz", "0 Hz"), ZERO_HZ),
    ("simulate", SQUARE_WAVE.replace("20 nm", "0 nm"), ZERO_NM),
])
def test_cli_rejects_empty_square_wave(tmp_path, capsys, command, text, message):
    # A zero fundamental or amplitude leaves the square wave without a
    # component; it is refused before any exposure runs. The value is named
    # by file and key, as every config builder names it.
    cfg = tmp_path / "square.ini"
    cfg.write_text(text)
    assert main([command, "-c", str(cfg), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    key = message.split()[0]
    where = f"[signal] {key}" if command == "simulate" else (
        f"[advantage] {key.replace('frequency', 'fundamental')}"
    )
    assert captured.err == f"config error: {cfg}: {where}: square wave {message}\n"
    assert not (tmp_path / "out").exists()


ALTERNATING_TONES = """
[signal]
kind = alternating_tones
switch_frequency = {switch}
frequency_a = 10 Hz
amplitude_pp_a = 20 nm
frequency_b = 10 Hz
amplitude_pp_b = 20 nm
"""


@pytest.mark.parametrize("switch, shown", [("0 Hz", "0.0"), ("-5 Hz", "-5.0")])
def test_cli_rejects_nonpositive_switch_frequency(tmp_path, capsys, switch, shown):
    # 0 Hz would play one steady line and a negative rate would swap the
    # gate's halves; both are refused before any exposure runs.
    cfg = tmp_path / "alternating.ini"
    cfg.write_text(ALTERNATING_TONES.format(switch=switch))
    assert main(["simulate", "-c", str(cfg), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: {cfg}: [signal] switch_frequency:"
        f" switch_frequency must be positive, got {shown} Hz\n"
    )
    assert not (tmp_path / "out").exists()


TONES = "frequency_a = 10 Hz\namplitude_pp_a = 20 nm\nfrequency_b = 10 Hz\namplitude_pp_b = 20 nm"


@pytest.mark.parametrize("kind, keys, key, message", [
    ("square_wave", "frequency = 10 Hz\namplitude_pp = 20 nm\nharmonics = 0",
     "harmonics", "n_harmonics must be >= 1"),
    ("square_wave", "frequency = 10 Hz\namplitude_pp = 20 nm\nharmonics = -1\nphase = 10 deg",
     "harmonics", "n_harmonics must be >= 1"),
    ("alternating_tones", f"switch_frequency = 2 Hz\n{TONES}\ngate_harmonics = 0",
     "gate_harmonics", "n_gate_harmonics must be >= 1"),
    ("alternating_tones", "switch_frequency = 2 Hz\n" + TONES.replace("a = 10 Hz", "a = 0 Hz"),
     "frequency_a", "component frequency must be positive and finite"),
    ("pure_tone", "frequency = 0 Hz\namplitude_pp = 20 nm",
     "frequency", "component frequency must be positive and finite"),
    ("pure_tone", "frequency = 10 Hz\namplitude_pp = -20 nm",
     "amplitude_pp", "component amplitude_pp must be non-negative"),
])
def test_signal_refusals_name_the_file_and_the_key(tmp_path, monkeypatch, capsys, kind, keys,
                                                   key, message):
    # The waveform constructors' own words, after the file and the key that
    # set the refused value; exit 2, and no output directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "signal.ini").write_text(f"[signal]\nkind = {kind}\n{keys}\n")
    assert main(["simulate", "-c", "signal.ini", "--out", "out"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: signal.ini: [signal] {key}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_advantage_rejects_full_loss(tmp_path, capsys):
    # At 100% loss no pair arrives, so no exposure matches the budget.
    for values in ("0 | 1", "0 | 1.5"):
        cfg = tmp_path / "loss.ini"
        cfg.write_text(f"[advantage]\nexperiment = loss\nvalues = {values}\n")
        assert main(["advantage", "-c", str(cfg)]) == 2, values
        err = capsys.readouterr().err
        prefix = f"config error: {cfg}: [advantage] values: loss must lie in [0, 1)"
        assert err.startswith(prefix), (values, err)


@pytest.mark.parametrize("text, message", [
    ("experiment = background\nvalues = 0 | 1",
     "values: background_fraction must lie in [0, 1), got 1.0"),
    ("experiment = loss\ntarget_pairs = 0",
     "target_pairs: t_exp_quantum must be positive and finite, got 0.0"),
])
def test_advantage_refusals_name_the_file_and_the_key(tmp_path, monkeypatch, capsys, text,
                                                      message):
    # Refused before any exposure is drawn, as every other builder's values are.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adv.ini").write_text(f"[advantage]\n{text}\n")
    assert main(["advantage", "-c", "adv.ini", "--out", "adv.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: adv.ini: [advantage] {message}\n"
    assert not (tmp_path / "adv.json").exists()


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


SWEEP_INI = INI_TEXT + """
[sweep]
start = 10 Hz
stop = 30 Hz
step = 10 Hz
amplitude_pp = 20 nm
exposure = 1 s
"""


def _limit_child_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_cli_sweep_table_and_point_cap(tmp_path, capsys):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_INI)
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
    over = SWEEP_INI.replace("stop = 30 Hz", "stop = 100010 Hz")
    hang = (
        SWEEP_INI.replace("start = 10 Hz", "start = 1 MHz")
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


def test_cli_sweep_refuses_tick(tmp_path, capsys):
    # Every sweep point samples at the default tick, so a [run] tick that
    # sweep would not honour is refused instead of ignored.
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_INI.replace("t_exp = 1 s", "t_exp = 1 s\ntick = 23 ps"))
    assert main(["sweep", "-c", str(cfg), "--out", str(tmp_path / "sweep.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {cfg}: [run] tick is not read by sweep")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("edit, message", [
    (("stop = 30 Hz", "stop = 5 Hz"), "[sweep] needs stop >= start and step > 0"),
    (("step = 10 Hz", "step = 0 Hz"), "[sweep] needs stop >= start and step > 0"),
    (("stop = 30 Hz", "stop = 100010 Hz"),
     "[sweep] start, stop and step give more than 10000 points"),
])
def test_cli_sweep_refuses_bad_ranges(tmp_path, capsys, edit, message):
    # Refused before any exposure, naming the file as every section does.
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_INI.replace(*edit))
    assert main(["sweep", "-c", str(cfg), "--out", str(tmp_path / "sweep.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {cfg}: {message}\n"
    assert not (tmp_path / "sweep.csv").exists()


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_machine_readable_estimate_keeps_notices_off_stdout(tmp_path, capsys, fmt):
    cfg = write_tone_config(tmp_path, seed=614)
    out = tmp_path / "s"
    assert main(["simulate", "-c", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
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
    if fmt == "json":
        assert json.loads(captured.out) == json.loads((out / "reconstruction.json").read_text())
    else:
        assert captured.out == (out / "spectrum.csv").read_text()
        assert len(captured.out.splitlines()) == 335  # header plus the 334-bin grid
    assert captured.err == f"wrote {out / 'spectrum.csv'}\nwrote {out / 'reconstruction.json'}\n"


@pytest.mark.parametrize("name, content", [
    ("over_int64.txt", b"qvibe-ts v1 coincidence 100.0 1.0 1\n9223372036854775808\n"),
    ("negative_count.txt", b"qvibe-ts v1 coincidence 100.0 1.0 -5\n"),
    ("huge_count.txt", b"qvibe-ts v1 coincidence 100.0 1.0 100000000000000\n1\n"),
    ("bad_byte_header.txt", b"qvibe-ts v1 coincidence 100.0\xff 1.0 1\n1\n"),
    ("bad_byte_tick.txt", b"qvibe-ts v1 coincidence 100.0 1.0 1\n1\xff\n"),
    ("late_junk.txt", b"qvibe-ts v1 coincidence 100.0 1.0 1\n10\n\nfrog\n"),
])
def test_cli_malformed_text_stream_exits_3(tmp_path, capsys, name, content):
    good = tmp_path / "good.txt"
    good.write_text("qvibe-ts v1 anticoincidence 100.0 1.0 1\n5\n")
    bad = tmp_path / name
    bad.write_bytes(content)
    for streams in ([bad, good], [good, bad]):
        assert main(["estimate", *map(str, streams)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"stream error: {bad}: ") and "Traceback" not in err


def test_cli_classical_mode_text_and_binary(tmp_path, capsys):
    cfg = write_tone_config(tmp_path)
    outputs = {}
    for ext, flags in ((".txt", []), (".bin", ["--binary"])):
        sim, est = tmp_path / f"sim{ext}", tmp_path / f"est{ext}"
        classical = ["-c", str(cfg), "--mode", "classical"]
        assert main(["simulate", *classical, "--out", str(sim), *flags]) == 0
        streams = [str(sim / ("port1" + ext)), str(sim / ("port2" + ext))]
        assert main(["estimate", *streams, *classical, "--out", str(est)]) == 0
        recon = json.loads((est / "reconstruction.json").read_text())
        assert recon["mode"] == "classical"
        assert any(abs(c["f_hat"] - 10.0) < 0.6 for c in recon["components"])
        outputs[ext] = [(est / n).read_bytes() for n in ("spectrum.csv", "reconstruction.json")]
    assert outputs[".txt"] == outputs[".bin"]
    capsys.readouterr()


@pytest.mark.parametrize("tick", ["23 ps", "100 ps", "1000 ps"])
def test_cli_text_and_binary_runs_agree(tmp_path, capsys, tick):
    cfg = tmp_path / "tick.ini"
    cfg.write_text(INI_TEXT.replace("t_exp = 1 s", f"t_exp = 1 s\ntick = {tick}"))
    outputs = {}
    for ext, flags in ((".txt", []), (".bin", ["--binary"])):
        sim, est = tmp_path / f"sim{ext}", tmp_path / f"est{ext}"
        assert main(["simulate", "-c", str(cfg), "--out", str(sim), *flags]) == 0
        streams = [str(sim / ("coincidence" + ext)), str(sim / ("anticoincidence" + ext))]
        assert main(["estimate", *streams, "-c", str(cfg), "--out", str(est)]) == 0
        outputs[ext] = [(est / n).read_bytes() for n in ("spectrum.csv", "reconstruction.json")]
    assert outputs[".txt"] == outputs[".bin"]
    # One stream of each format: they share tick_duration and t_exp.
    mixed = [str(tmp_path / "sim.txt" / "coincidence.txt"),
             str(tmp_path / "sim.bin" / "anticoincidence.bin")]
    assert main(["estimate", *mixed, "-c", str(cfg), "--out", str(tmp_path / "mixed")]) == 0
    assert (tmp_path / "mixed" / "spectrum.csv").read_bytes() == outputs[".txt"][0]
    capsys.readouterr()


def _stream_file(path, tag):
    path.write_text(f"qvibe-ts v1 {tag} 100 1.0 1\n5\n")
    return str(path)


@pytest.mark.parametrize("mode, tags", [
    ("quantum", ("anticoincidence", "coincidence")),
    ("quantum", ("singles1", "singles2")),
    ("quantum", ("coincidence", "singles2")),
    ("classical", ("singles2", "singles1")),
    ("classical", ("coincidence", "anticoincidence")),
])
def test_cli_estimate_refuses_streams_of_another_mode(tmp_path, capsys, mode, tags):
    # Quantum mode reads coincidence then anticoincidence streams, classical
    # mode singles1 then singles2; swapped or cross-mode streams would be
    # analysed as the wrong fringe.
    streams = [_stream_file(tmp_path / f"s{i}.txt", tag) for i, tag in enumerate(tags)]
    assert main(["estimate", *streams, "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = ("coincidence", "anticoincidence") if mode == "quantum" else ("singles1", "singles2")
    assert captured.err == (
        f"config error: mode {mode} reads streams tagged {expected[0]} then {expected[1]},"
        f" got {tags[0]} then {tags[1]}\n"
    )


# Valid for every subcommand: a tone scenario, a sweep and an advantage run.
ALL_COMMANDS_INI = SWEEP_INI + "\n[advantage]\nexperiment = loss\n"


def _all_commands(tmp_path):
    streams = [
        _stream_file(tmp_path / "c.txt", "coincidence"),
        _stream_file(tmp_path / "a.txt", "anticoincidence"),
    ]
    return {
        "simulate": ["simulate", "--out", str(tmp_path / "sim")],
        "estimate": ["estimate", *streams],
        "trials": ["trials", "--trials", "2"],
        "sweep": ["sweep"],
        "advantage": ["advantage"],
        "qcrb": ["qcrb", "--n-pairs", "100", "--trials", "10"],
    }


# Each bad value, the edit of ALL_COMMANDS_INI that makes it and the end
# of its error line. [channel] geometry is range-checked by GeometryFactor;
# the text keys are checked against their allowed values at load.
BAD_VALUES = {
    "geometry": (
        ("[run]", "[channel]\ngeometry = 3\n\n[run]"),
        "geometry factor must be 1 or 2, got 3",
    ),
    "mode": (
        ("mode = quantum", "mode = sideways"),
        "[run] mode: expected one of quantum, classical, got 'sideways'",
    ),
    "kind": (
        ("kind = pure_tone", "kind = chirp"),
        "[signal] kind: expected one of pure_tone, multi_tone, square_wave,"
        " alternating_tones, got 'chirp'",
    ),
    "experiment": (
        ("experiment = loss", "experiment = wind"),
        "[advantage] experiment: expected one of loss, background, got 'wind'",
    ),
}
ALL_COMMANDS = ("simulate", "estimate", "trials", "sweep", "advantage", "qcrb")


@pytest.mark.parametrize("bad, command", [
    *(("geometry", c) for c in ALL_COMMANDS if c != "advantage"),  # advantage reads no [channel]
    *((bad, c) for bad in ("mode", "kind", "experiment") for c in ALL_COMMANDS),
])
def test_every_reader_rejects_a_bad_value(tmp_path, capsys, bad, command):
    # Exit 2 with one config error line, no traceback and no output, on every
    # command that loads the value, not only the one that uses it.
    (old, new), message = BAD_VALUES[bad]
    cfg = tmp_path / "bad.ini"
    assert ALL_COMMANDS_INI.count(old) == 1
    cfg.write_text(ALL_COMMANDS_INI.replace(old, new))
    assert main([*_all_commands(tmp_path)[command], "-c", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.endswith(message + "\n")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "sim").exists()
