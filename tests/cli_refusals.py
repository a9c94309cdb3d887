"""The command line's refusal contract, one row per refused invocation.

Each row runs ``qvibe <argv>`` in process, through ``qvibe.cli.main``, in an
empty temporary directory holding only the row's files. It holds when:

* the exit code is the row's (2 config, 3 stream or file, 4 analysis; an
  argparse refusal exits 2 too);
* stderr is one line equal to the row's ``err``, or starting with it where
  ``err`` ends in "...". An argparse refusal prints its usage first and its
  error line last, and ``err`` is that last line;
* nothing is printed on stdout;
* no exception escapes and no warning of any category is issued (every
  warning is an error while the row runs);
* no stream and no Monte Carlo trial is drawn: ``sample_inhomogeneous_poisson``
  and ``monte_carlo_delay_std`` are replaced by stand-ins that raise;
* the directory holds the row's files and nothing else afterwards, so no
  output the argv names is left behind.

``tests/test_cli.py`` runs every row under pytest. Run as a script, this
module needs only the standard library and ``qvibe``, runs every row and
exits 1 naming each row that fails:

    python3 -W error::RuntimeWarning tests/cli_refusals.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import qvibe.cli
import qvibe.simulate

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(fence: str, start: str = "") -> str:
    """The text of the first README block fenced as ```fence that begins with ``start``."""
    pattern = rf"^```{fence}\n({re.escape(start)}.*?)^```$"
    return re.search(pattern, README.read_text(), re.S | re.M).group(1)


# The README quick-start config, which most rows edit.
QUICK_START = readme_block("ini")


@dataclass(frozen=True)
class Refusal:
    """``qvibe <argv>``, run with ``files`` ({name: text or bytes}) written
    first, exits ``code`` and prints ``err`` on stderr."""

    name: str
    argv: str
    err: str
    files: dict = field(default_factory=dict)
    code: int = 2


def edit(text: str, *changes: tuple[str, str]) -> str:
    """``text`` with each (old, new) made; each old must occur exactly once."""
    for old, new in changes:
        if text.count(old) != 1:
            raise ValueError(f"{old!r} occurs {text.count(old)} times, not once")
        text = text.replace(old, new)
    return text


def ini(values: dict) -> str:
    """``values`` ({"section.key": text}) as an INI file."""
    sections = {}
    for flat, value in values.items():
        section, key = flat.split(".")
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    return "".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items())


SWEEP = QUICK_START + (
    "\n[sweep]\nstart = 10 Hz\nstop = 30 Hz\nstep = 10 Hz\namplitude_pp = 20 nm\nexposure = 1 s\n"
)
ALL_COMMANDS = SWEEP + "\n[advantage]\nexperiment = loss\n"  # valid for every subcommand
# One invocation of each subcommand, cheap wherever a refusal came too late.
COMMANDS = {
    "simulate": "simulate --out out",
    "estimate": "estimate c.txt a.txt",
    "trials": "trials --trials 2",
    "sweep": "sweep",
    "advantage": "advantage",
    "qcrb": "qcrb --n-pairs 100 --trials 10",
}
QCRB = COMMANDS["qcrb"]


def stream(tag: str, t_exp: str = "1.0", tick: int = 5) -> str:
    """A one-event text stream of 100 ps ticks."""
    return f"qvibe-ts v1 {tag} 100 {t_exp} 1\n{tick}\n"


TONE = {"signal.frequency": "10 Hz", "signal.amplitude_pp": "20 nm"}
SQUARE_WAVE = "[signal]\nkind = square_wave\nfrequency = 10 Hz\namplitude_pp = 20 nm\n"
ZERO_HZ = "square wave frequency must be positive, got 0.0 Hz"
ZERO_NM = "square wave amplitude_pp must be positive, got 0.0 m"
TONES = "frequency_a = 10 Hz\namplitude_pp_a = 20 nm\nfrequency_b = 10 Hz\namplitude_pp_b = 20 nm"
ALTERNATING = f"[signal]\nkind = alternating_tones\nswitch_frequency = {{}}\n{TONES}\n"
N_PAIRS = "n_pairs must each lie in [1, 9223372036854775807], got"
FACTOR = ("calibration_factor must be 0 (a known ratio) or times each n_pairs lie in"
          " [4, 9223372036854775807], got")
F_MAX = "f_max must be positive and finite, got"
WAVELENGTHS = "[pair]\nlambda_1 = 810 nm\nlambda_2 = 1550 nm\n"
TOO_MANY = "bound * t_exp too large to sample ("
GRID_1E12 = ("f_max = 1000000000000.0 Hz needs 1666666666667 scan bins at t_exp = 1.0 s;"
             " at most 2097152 are allowed")

# Every override flag that can carry a bad value, by flag and by the key it
# sets: (command, flag, value, key value, refusal after "<where>: "). The
# mode is a choice and binary a switch, so argparse leaves neither a bad value.
OVERRIDE_BASE = {**TONE, "run.t_exp": "1 s", "run.trials": "2", "qcrb.n_pairs": "100",
                 "qcrb.trials": "10"}
OVERRIDES = [
    ("trials --out out", "--seed", "-2", {"run.seed": "-2"}, "seed must be non-negative, got -2"),
    ("trials --out out", "--trials", "0", {"run.trials": "0"}, "trials must be at least 2, got 0"),
    ("trials --out out", "--p-fa", "3", {"analysis.p_fa": "3"}, "p_fa must lie in (0, 1), got 3.0"),
    ("trials --out out", "--f-max", "-1", {"analysis.f_max": "-1 Hz"}, f"{F_MAX} -1.0"),
    # Neither stream exists: exit 2, not 3, shows the ratio is refused before either read.
    ("estimate c.txt a.txt --out out", "--ratio", "0", {"analysis.ratio": "0"},
     "ratio must be positive and finite, got 0.0"),
    ("qcrb", "--trials", "1", {"qcrb.trials": "1"}, "trials must lie in [2, 16777216], got 1"),
    ("qcrb", "--n-pairs", "0", {"qcrb.n_pairs": "0"}, f"{N_PAIRS} {{}}"),
    ("qcrb", "--calibration-factor", "0.01", {"qcrb.calibration_factor": "0.01"}, f"{FACTOR} 0.01"),
]

# Refusals named by file and key, read from INI and from JSON alike:
# (name, command, {"section.key": value}, where, refusal).
KEYED = [
    ("lambda_1-alone", QCRB, {"pair.lambda_1": "810 nm"}, "[pair] lambda_1",
     "give both lambda_1 and lambda_2 or neither"),
    ("lambda_2-alone", QCRB, {"pair.lambda_2": "1550 nm"}, "[pair] lambda_2",
     "give both lambda_1 and lambda_2 or neither"),
    ("negative-lambda_2", QCRB, {"pair.lambda_1": "810 nm", "pair.lambda_2": "-1550 nm"},
     "[pair] lambda_2",
     "lambda_1 and lambda_2 must be positive"),
    ("detuning-disagrees", QCRB,
     {"pair.detuning": "177 THz", "pair.lambda_1": "810 nm", "pair.lambda_2": "1550 nm"},
     "[pair] detuning", "lambda_1 and lambda_2 imply a detuning of 1.767e+14 Hz, which differs"
     " from detuning = 1.77e+14 Hz by more than 0.1%"),
    ("zero-wavelength", "simulate --out out --mode classical",
     {**TONE, "classical.wavelength": "0 nm"},
     "[classical] wavelength", "wavelength must be positive"),
    ("classical-quadrature", "simulate --out out --mode classical",
     {**TONE, "signal.tau_op": "quadrature"},
     "[signal] tau_op", "quadrature only applies to quantum mode"),
    ("multi_tone-without-components", "simulate --out out", {"signal.kind": "multi_tone"},
     "[signal] kind",
     "multi_tone needs component_<n> entries"),
    ("qcrb-seed-key-1", QCRB, {"run.seed": "-1"}, "[run] seed",
     "seed must be non-negative, got -1"),
    ("loss-target_pairs-1e12", "advantage", {"advantage.target_pairs": "1e12"},
     "[advantage] target_pairs",
     f"{TOO_MANY}1e+12 candidates)"),
    ("background-target_pairs-1e12", "advantage",
     {"advantage.experiment": "background", "advantage.target_pairs": "1e12"},
     "[advantage] target_pairs", f"{TOO_MANY}9.75e+11 candidates)"),
]

# Each bad value of ALL_COMMANDS, the edit that makes it and its error line,
# refused by every subcommand that loads it, not only the one that uses it.
BAD_VALUES = [
    ("geometry", ("[run]", "[channel]\ngeometry = 3\n\n[run]"),
     "bad.ini: [channel] geometry: geometry factor must be 1 or 2, got 3"),
    ("mode", ("[run]", "[run]\nmode = sideways"),
     "bad.ini:15: [run] mode: expected one of quantum, classical, got 'sideways'"),
    ("kind", ("kind = pure_tone", "kind = chirp"),
     "bad.ini:6: [signal] kind: expected one of pure_tone, multi_tone, square_wave,"
     " alternating_tones, got 'chirp'"),
    ("experiment", ("experiment = loss", "experiment = wind"),
     "bad.ini:29: [advantage] experiment: expected one of loss, background, got 'wind'"),
]

# Malformed text streams, each refused whichever of the two it is.
BAD_STREAMS = {
    "over_int64.txt": b"qvibe-ts v1 coincidence 100.0 1.0 1\n9223372036854775808\n",
    "negative_count.txt": b"qvibe-ts v1 coincidence 100.0 1.0 -5\n",
    "huge_count.txt": b"qvibe-ts v1 coincidence 100.0 1.0 100000000000000\n1\n",
    "bad_byte_header.txt": b"qvibe-ts v1 coincidence 100.0\xff 1.0 1\n1\n",
    "bad_byte_tick.txt": b"qvibe-ts v1 coincidence 100.0 1.0 1\n1\xff\n",
    "late_junk.txt": b"qvibe-ts v1 coincidence 100.0 1.0 1\n10\n\nfrog\n",
}


def _rows():
    """Every row of the table, grouped by what it refuses."""
    R = Refusal
    tone, sweep = "config error: tone.ini: ", "config error: sweep.ini: "

    # ----- config files: loading, keys and values -----
    yield R("unknown-key-ini", "qcrb -c u.ini",
            "config error: u.ini:3: [pair] color: unknown key 'color' in section [pair]",
            {"u.ini": "[pair]\nvisibility = 0.9\ncolor = red\n"})
    yield R("unknown-section-ini", "qcrb -c u.ini",
            "config error: u.ini:1: unknown section [volume]", {"u.ini": "[volume]\nlevel = 11\n"})
    yield R("unknown-key-json", "qcrb -c u.json",
            "config error: u.json: [pair] color: unknown key 'color' in section [pair]",
            {"u.json": '{"pair.color": "red"}'})
    yield R("unknown-section-json", "qcrb -c u.json",
            "config error: u.json: [volume] level: unknown section [volume]",
            {"u.json": '{"volume.level": 11}'})
    yield R("duplicate-json-key", "qcrb -c d.json",
            "config error: d.json: duplicate key 'pair.visibility'...",
            {"d.json": '{"pair.visibility": 1, "pair.visibility": 0.5}'})
    yield R("unit-on-bare-value", "simulate -c bad.ini --out out",
            "config error: bad.ini:2: [pair] visibility: dimensionless value must not carry"
            " a unit...",
            {"bad.ini": "[pair]\nvisibility = 2 THz\n"})
    for command, argv in COMMANDS.items():
        yield R(f"missing-config-{command}", f"{argv} -c missing.ini",
                "io error: [Errno 2] No such file or directory: 'missing.ini'...", code=3)
        # Values are typed at load, so an f_max without its unit fails every subcommand.
        yield R(f"f_max-without-unit-{command}", f"{argv} -c nounit.ini",
                "config error: nounit.ini:19: [analysis] f_max: frequency value needs a unit...",
                {"nounit.ini": edit(QUICK_START, ("f_max = 200 Hz", "f_max = 200"))})
        for bad, change, err in BAD_VALUES:
            if (bad, command) != ("geometry", "advantage"):  # advantage reads no [channel]
                yield R(f"{bad}-{command}", f"{argv} -c bad.ini", f"config error: {err}",
                        {"bad.ini": edit(ALL_COMMANDS, change)})
    for suffix in (".ini", ".json"):
        for row, argv, values, where, message in KEYED:
            name = f"bad{suffix}"
            text = json.dumps(values) if suffix == ".json" else ini(values)
            yield R(f"{row}-{suffix[1:]}", f"{argv} -c {name}",
                    f"config error: {name}: {where}: {message}", {name: text})
    # Round 810/1550 nm wavelengths with a lone or non-positive wavelength.
    yield R("lambda_2-without-lambda_1", f"{QCRB} -c pair.ini",
            "config error: pair.ini: [pair] lambda_2: give both lambda_1 and lambda_2...",
            {"pair.ini": "[pair]\ndetuning = 177 THz\nlambda_2 = 1550 nm\n"})
    yield R("negative-lambda_1", f"{QCRB} -c pair.ini",
            "config error: pair.ini: [pair] lambda_1: lambda_1 and lambda_2 must be positive...",
            {"pair.ini": WAVELENGTHS.replace("810", "-810")})
    yield R("zero-lambda_2", f"{QCRB} -c pair.ini",
            "config error: pair.ini: [pair] lambda_2: lambda_1 and lambda_2 must be positive...",
            {"pair.ini": WAVELENGTHS.replace("1550 nm", "0 nm")})
    for by_flag in (True, False):
        for argv, flag, value, values, message in OVERRIDES:
            ((flat, _),) = values.items()
            section, key = flat.split(".")
            config = {"tone.ini": ini(OVERRIDE_BASE if by_flag else {**OVERRIDE_BASE, **values})}
            if by_flag:  # an --n-pairs list, an n_pairs tuple
                yield R(f"{argv.split()[0]}{flag}", f"{argv} -c tone.ini {flag} {value}",
                        f"config error: {flag}: {message.format(f'[{value}]')}", config)
            else:
                yield R(f"{argv.split()[0]}-{flat}-key", f"{argv} -c tone.ini",
                        f"{tone}[{section}] {key}: {message.format('(0,)')}", config)

    # ----- library constructors, named by file and key -----
    for mode, text, message in [
        ("quantum", "[channel]\ngeometry = 3\n",
         "[channel] geometry: geometry factor must be 1 or 2, got 3"),
        ("quantum", "[pair]\nvisibility = 1.5\n",
         "[pair] visibility: visibility_v0 must lie in (0, 1]"),
        ("quantum", "[pair]\ndetuning = 0 Hz\n", "[pair] detuning: delta_omega must be positive"),
        ("quantum", "[pair]\nsigma = -1 THz\n", "[pair] sigma: sigma must be non-negative"),
        ("quantum", "[channel]\nrate_c = 190 kHz\nloss = 1\n",
         "[channel] loss: loss_b must lie in [0, 1)"),
        ("classical", "[classical]\narm_ratio = 2\n",
         "[classical] arm_ratio: arm_intensity_ratio must lie in [0, 1]"),
        ("quantum", "[analysis]\np_fa = 2\n", "[analysis] p_fa: p_fa must lie in (0, 1), got 2.0"),
    ]:
        key = message.split(":")[0][1:].replace("] ", ".")
        yield R(f"estimate-{key}", f"estimate c.txt a.txt -c tone.ini --mode {mode}",
                tone + message, {"tone.ini": text})
    # The classical fringe is built before the output directory is made.
    yield R("simulate-classical-arm_ratio", "simulate -c tone.ini --mode classical --out y",
            f"{tone}[classical] arm_ratio: arm_intensity_ratio must lie in [0, 1]",
            {"tone.ini": QUICK_START + "\n[classical]\narm_ratio = 2\n"})

    # ----- [signal] -----
    # Two silent tones build a signal with no component: trials has none to
    # score, while simulate and estimate accept it.
    yield R("trials-no-component", "trials -c alternating.ini --trials 2",
            "config error: alternating.ini: [signal] kind: trials need a signal with a component"
            " to score",
            {"alternating.ini": ALTERNATING.format("2 Hz").replace("20 nm", "0 nm")})
    for switch, shown in (("0 Hz", "0.0"), ("-5 Hz", "-5.0")):
        yield R(f"switch_frequency-{shown}", "simulate -c alternating.ini --out out",
                "config error: alternating.ini: [signal] switch_frequency:"
                f" switch_frequency must be positive, got {shown} Hz",
                {"alternating.ini": ALTERNATING.format(switch)})
    for name, kind, keys, key, message in [
        ("harmonics-0", "square_wave", "frequency = 10 Hz\namplitude_pp = 20 nm\nharmonics = 0",
         "harmonics", "n_harmonics must be >= 1"),
        ("harmonics-negative", "square_wave",
         "frequency = 10 Hz\namplitude_pp = 20 nm\nharmonics = -1\nphase = 10 deg",
         "harmonics", "n_harmonics must be >= 1"),
        ("gate_harmonics-0", "alternating_tones",
         f"switch_frequency = 2 Hz\n{TONES}\ngate_harmonics = 0",
         "gate_harmonics", "n_gate_harmonics must be >= 1"),
        ("frequency_a-0", "alternating_tones",
         "switch_frequency = 2 Hz\n" + TONES.replace("a = 10 Hz", "a = 0 Hz"),
         "frequency_a", "component frequency must be positive and finite"),
        ("frequency-0", "pure_tone", "frequency = 0 Hz\namplitude_pp = 20 nm",
         "frequency", "component frequency must be positive and finite"),
        ("amplitude_pp-negative", "pure_tone", "frequency = 10 Hz\namplitude_pp = -20 nm",
         "amplitude_pp", "component amplitude_pp must be non-negative"),
    ]:
        yield R(f"{kind}-{name}", "simulate -c tone.ini --out out",
                f"{tone}[signal] {key}: {message}",
                {"tone.ini": f"[signal]\nkind = {kind}\n{keys}\n"})
    for key, change, message in (("frequency", ("10 Hz", "0 Hz"), ZERO_HZ),
                                 ("amplitude_pp", ("20 nm", "0 nm"), ZERO_NM)):
        yield R(f"simulate-square-{key}", "simulate -c square.ini --out out",
                f"config error: square.ini: [signal] {key}: {message}",
                {"square.ini": edit(SQUARE_WAVE, change)})
    # A waveform that reaches such a delay is refused by its largest
    # amplitude's key: the envelope overflows at 1e160 m and 1e300 m, the
    # classical fringe's phase at 1e307 m.
    amplitude = "must keep the fringe phase and envelope finite at the delays the waveform reaches"
    tone_phase = "must keep each tone's phase 2 pi f (1 + playback_scale) exposure finite"
    for name, mode, value in [("quantum-1e300", "quantum", "1e+300"),
                              ("quantum-1e160", "quantum", "1e+160"),
                              ("classical-1e307", "classical", "1e+307")]:
        yield R(f"amplitude_pp-overflow-{name}", f"simulate -c tone.ini --mode {mode} --out out",
                f"{tone}[signal] amplitude_pp: amplitude_pp {amplitude}, got {value} m",
                {"tone.ini": edit(QUICK_START, ("20 nm", f"{value} m"))})
    yield R("trials-amplitude_pp-overflow", "trials -c tone.ini --trials 2",
            f"{tone}[signal] amplitude_pp: amplitude_pp {amplitude}, got 1e+160 m",
            {"tone.ini": edit(QUICK_START, ("20 nm", "1e160 m"))})
    yield R("multi_tone-component-overflow", "simulate -c multi.ini --out out",
            f"config error: multi.ini: [signal] component_1: component_1 {amplitude},"
            " got 1e+160 m",
            {"multi.ini": "[signal]\nkind = multi_tone\ncomponent_1 = 10 Hz | 1e160 m\n"
                          "component_2 = 20 Hz | 1 nm\n"})
    yield R("alternating_tones-amplitude_pp_b-overflow", "simulate -c alternating.ini --out out",
            f"config error: alternating.ini: [signal] amplitude_pp_b: amplitude_pp_b {amplitude},"
            " got 1e+200 m",
            {"alternating.ini": ALTERNATING.format("2 Hz").replace(
                "amplitude_pp_b = 20 nm", "amplitude_pp_b = 1e200 m")})
    # A component whose phase 2 pi f t_exp overflows over the exposure would
    # read a NaN cosine at the draw; the largest frequency key is named.
    phase = "must keep each component's phase 2 pi f t_exp finite"
    for command in ("simulate --out out", "trials --trials 2"):
        yield R(f"{command.split()[0]}-frequency-phase-overflow", f"{command} -c tone.ini",
                f"{tone}[signal] frequency: frequency {phase}, got 1e+308 Hz over t_exp = 1.0 s",
                {"tone.ini": edit(QUICK_START, ("10 Hz", "1e308 Hz"))})
    yield R("alternating_tones-frequency_b-phase-overflow", "simulate -c alternating.ini --out out",
            f"config error: alternating.ini: [signal] frequency_b: frequency_b {phase},"
            " got 1e+308 Hz over t_exp = 1.0 s",
            {"alternating.ini": ALTERNATING.format("2 Hz").replace(
                "frequency_b = 10 Hz", "frequency_b = 1e308 Hz")})
    # A delay whose fringe phase or envelope overflows would give a NaN or
    # overflowing flux at the draw; the classical fringe has no envelope.
    for name, mode, tau in [("overflow-quantum", "quantum", "1e+300"),
                            ("overflow-classical", "classical", "1e+300"),
                            ("envelope-overflow", "quantum", "1e+200"),
                            ("envelope-overflow-negative", "quantum", "-1e+290")]:
        yield R(f"tau_op-{name}", f"simulate -c tone.ini --mode {mode} --out out",
                f"{tone}[signal] tau_op: tau_op must keep the fringe phase and envelope finite,"
                f" got {tau} s",
                {"tone.ini": edit(QUICK_START, ("[signal]", f"[signal]\ntau_op = {tau} s"))})

    # ----- [run]: exposure, tick and seed, refused before the draw -----
    for name, change, err in [
        # 100 s at 1 as is 1e20 ticks, past what an int64 tick can count.
        ("tick-too-fine", "t_exp = 100 s\ntick = 1 as",
         "[run] tick: t_exp / tick_duration must stay below 2^63 ticks, got 1e+20"),
        ("negative-tick", "t_exp = 1 s\ntick = -1 ps",
         "[run] tick: tick_duration must be positive and finite, got -1e-12"),
        # With no tick set, the default 100 ps counts past int64 over 1e9 s.
        ("t_exp-past-int64", "t_exp = 1e9 s",
         "[run] t_exp: t_exp / tick_duration must stay below 2^63 ticks, got 1e+19"),
        # 1000 s of the 190 kHz streams is 1.9e8 candidates, past the 2.2e7 cap.
        ("t_exp-too-long", "t_exp = 1000 s", f"[run] t_exp: {TOO_MANY}1.9e+08 candidates)"),
        ("zero-t_exp", "t_exp = 0 s", "[run] t_exp: t_exp must be positive, got 0.0 s"),
        ("negative-t_exp", "t_exp = -1 s", "[run] t_exp: t_exp must be positive, got -1.0 s"),
        # 0.6 / 5e-324 overflows: the scan grid of such streams would read 0 * inf.
        ("t_exp-subnormal", "t_exp = 5e-324 s",
         "[run] t_exp: t_exp must leave the scan grid spacing 0.6 / t_exp finite, got 5e-324 s"),
    ]:
        for command in ("simulate --out y", "trials --trials 2"):
            yield R(f"{command.split()[0]}-{name}", f"{command} -c tone.ini", tone + err,
                    {"tone.ini": edit(QUICK_START, ("t_exp = 1 s", change))})
    # The classical ports: 1e8 candidates each.
    yield R("simulate-classical-t_exp-too-long", "simulate -c tone.ini --mode classical --out y",
            f"{tone}[run] t_exp: {TOO_MANY}1e+08 candidates)",
            {"tone.ini": edit(QUICK_START, ("t_exp = 1 s", "t_exp = 1000 s"))})
    for command, seed in (("simulate --out a", "-3"), ("simulate --out out", "-2"), ("qcrb", "-2")):
        yield R(f"{command.split()[0]}-seed-flag{seed}", f"{command} -c tone.ini --seed {seed}",
                f"config error: --seed: seed must be non-negative, got {seed}",
                {"tone.ini": QUICK_START})
    # A spread needs two detections, so one trial is refused before its draw.
    yield R("trials--trials-1", "trials -c tone.ini --trials 1",
            "config error: --trials: trials must be at least 2, got 1", {"tone.ini": QUICK_START})
    yield R("trials-trials-key-1", "trials -c tone.ini",
            f"{tone}[run] trials: trials must be at least 2, got 1",
            {"tone.ini": edit(QUICK_START, ("seed = 611", "seed = 611\ntrials = 1"))})
    yield R("trials-seed-key-1", "trials -c tone.ini --trials 2",
            f"{tone}[run] seed: seed must be non-negative, got -1",
            {"tone.ini": edit(QUICK_START, ("seed = 611", "seed = -1"))})
    yield R("simulate-seed-key-inf", "simulate -c tone.ini --out b",
            "config error: tone.ini:16: [run] seed: '1e999' is not a finite number",
            {"tone.ini": edit(QUICK_START, ("seed = 611", "seed = 1e999"))})
    yield R("trials-f_max-zero", "trials -c tone.ini --trials 2 --out out",
            f"{tone}[analysis] f_max: {F_MAX} 0.0",
            {"tone.ini": edit(QUICK_START, ("f_max = 200 Hz", "f_max = 0 Hz"))})
    # A scan grid past the cap is refused before the first exposure is drawn,
    # by flag or by key, and the pair channel is the one that trials and sweep run.
    for command, config, text in (("trials --trials 2", "tone.ini", QUICK_START),
                                  ("sweep", "sweep.ini", SWEEP)):
        name, where = command.split()[0], f"config error: {config}: "
        yield R(f"{name}--f-max-1e12", f"{command} -c {config} --f-max 1e12 --out out",
                f"config error: --f-max: {GRID_1E12}", {config: text})
        yield R(f"{name}-f_max-key-1e12", f"{command} -c {config} --out out",
                f"{where}[analysis] f_max: {GRID_1E12}",
                {config: edit(text, ("f_max = 200 Hz", "f_max = 1e12 Hz"))})
        yield R(f"{name}-mode-classical", f"{command} -c {config} --out out",
                f"{where}[run] mode: mode must be quantum, the one channel {name} runs,"
                " got 'classical'",
                {config: edit(text, ("[run]", "[run]\nmode = classical"))})
    # qcrb prints the pair channel's bound, so it refuses the other mode too.
    yield R("qcrb-mode-classical", "qcrb -c tone.ini",
            f"{tone}[run] mode: mode must be quantum, the one channel qcrb runs, got 'classical'",
            {"tone.ini": edit(QUICK_START, ("[run]", "[run]\nmode = classical"))})

    # ----- --threads -----
    for command, text in (("trials", QUICK_START), ("sweep", SWEEP),
                          ("advantage", "[advantage]\nexperiment = loss\n")):
        for threads in ("0", "-2"):
            yield R(f"{command}-threads-{threads}",
                    f"{command} -c c.ini --threads {threads} --out out",
                    f"config error: --threads: threads must be at least 1, got {threads}",
                    {"c.ini": text})
    for command in ("simulate -c x.ini", "estimate a b", "qcrb"):
        yield R(f"{command.split()[0]}-takes-no-threads", f"{command} --threads 2",
                "qvibe: error: unrecognized arguments: --threads 2")
    # estimate draws nothing, so a seed it would ignore is refused.
    yield R("estimate-takes-no-seed", "estimate c.txt a.txt -c tone.ini --seed 1",
            "qvibe: error: unrecognized arguments: --seed 1")

    # ----- qcrb: pair counts, trials and calibration, before the first line -----
    for args in ("--n-pairs -5", f"--n-pairs {10**30}", "--trials 100000000000",
                 "--calibration-factor inf", "--calibration-factor -1",
                 "--calibration-factor 1e308", "--calibration-factor 1e15"):
        flag = args.split()[0]
        need = {"--n-pairs": N_PAIRS, "--trials": "trials must lie in [2, 16777216], got",
                "--calibration-factor": FACTOR}[flag]
        yield R(f"qcrb{args.replace(' ', '-')}", f"qcrb {args}", f"config error: {flag}: {need}...")
    yield R("qcrb--n-pairs-100-0", "qcrb --n-pairs 100 0 -c tone.ini",
            f"config error: --n-pairs: {N_PAIRS} [100, 0]", {"tone.ini": QUICK_START})
    yield R("qcrb-n_pairs-key-100-0", "qcrb -c tone.ini",
            f"{tone}[qcrb] n_pairs: {N_PAIRS} (100, 0)",
            {"tone.ini": QUICK_START + "\n[qcrb]\nn_pairs = 100 | 0\n"})
    # 0.01 of 100000 pairs is 1000 calibration pairs, of 100 only 1: the
    # second line is refused before the first is drawn or printed.
    yield R("qcrb--calibration-factor-0.01-100",
            "qcrb --n-pairs 100000 100 --calibration-factor 0.01",
            f"config error: --calibration-factor: {FACTOR} 0.01")
    yield R("qcrb-calibration_factor-key--1", "qcrb -c cf.ini",
            f"config error: cf.ini: [qcrb] calibration_factor: {FACTOR} -1.0",
            {"cf.ini": "[qcrb]\ncalibration_factor = -1\n"})

    # ----- estimate: settings and streams -----
    yield R("estimate--p-fa-3", "estimate c.txt a.txt -c tone.ini --p-fa 3",
            "config error: --p-fa: p_fa must lie in (0, 1), got 3.0", {"tone.ini": QUICK_START})
    for ratio in ("inf", "nan", "-1"):
        yield R(f"estimate--ratio-{ratio}", f"estimate c.txt a.txt -c tone.ini --ratio {ratio}",
                "config error: --ratio: ratio must be positive and finite...",
                {"tone.ini": QUICK_START})
    # A ratio whose noise power sum w^2(C) + ratio^2 sum w^2(A) overflows
    # sets no threshold; the streams' one event sits mid-exposure at weight 1.
    mid = {"c.txt": stream("coincidence", tick=5 * 10**9),
           "a.txt": stream("anticoincidence", tick=5 * 10**9)}
    power = "ratio makes the noise power sum w^2(C) + ratio^2 sum w^2(A) overflow"
    for ratio in ("1e300", "1e160"):
        yield R(f"estimate--ratio-{ratio}", f"estimate c.txt a.txt -c tone.ini --ratio {ratio}",
                f"config error: --ratio: {power}", {"tone.ini": QUICK_START, **mid})
    yield R("estimate-ratio-key-1e300", "estimate c.txt a.txt -c tone.ini --out out",
            f"{tone}[analysis] ratio: {power}",
            {"tone.ini": QUICK_START + "ratio = 1e300\n", **mid})
    # Traces are fixed at 100 samples per period, so the key is refused whatever its value.
    for value in ("0", "-3"):
        yield R(f"estimate-points_per_period-{value}", "estimate c.txt a.txt -c ppp.ini",
                "config error: ppp.ini:20: [analysis] points_per_period: unknown key...",
                {"ppp.ini": QUICK_START + f"points_per_period = {value}\n"})
    # 1e12 Hz over a 1 s exposure is 1.7e12 bins: refused before any allocation.
    yield R("estimate-unbounded-scan-grid", "estimate c.txt a.txt -c tone.ini",
            f"{tone}[analysis] f_max: {GRID_1E12}",
            {"tone.ini": edit(QUICK_START, ("f_max = 200 Hz", "f_max = 1e12 Hz")),
             "c.txt": stream("coincidence"), "a.txt": stream("anticoincidence")})
    # Streams can hold an exposure that simulate refuses by key; it is refused
    # once their headers are read, before the scan.
    yield R("estimate-streams-of-a-subnormal-exposure", "estimate c.txt a.txt -c tone.ini",
            "config error: t_exp must leave the scan grid spacing 0.6 / t_exp finite,"
            " got 5e-324 s",
            {"tone.ini": QUICK_START, "c.txt": "qvibe-ts v1 coincidence 100 5e-324 0\n",
             "a.txt": "qvibe-ts v1 anticoincidence 100 5e-324 0\n"})
    yield R("estimate-streams-of-different-exposures", "estimate c.txt a.txt -c tone.ini --out est",
            "config error: streams must share t_exp and tick_duration",
            {"tone.ini": QUICK_START, "c.txt": stream("coincidence"),
             "a.txt": stream("anticoincidence", "2.0")})
    # Quantum mode reads coincidence then anticoincidence streams, classical
    # mode singles1 then singles2; any other pair would be analysed as the wrong fringe.
    for mode, tags in [("quantum", ("anticoincidence", "coincidence")),
                       ("quantum", ("singles1", "singles2")),
                       ("quantum", ("coincidence", "singles2")),
                       ("classical", ("singles2", "singles1")),
                       ("classical", ("coincidence", "anticoincidence"))]:
        wanted = "coincidence then anticoincidence" if mode == "quantum" else (
            "singles1 then singles2")
        yield R(f"estimate-{mode}-reads-{tags[0]}-{tags[1]}",
                f"estimate s0.txt s1.txt --mode {mode}",
                f"config error: mode {mode} reads streams tagged {wanted},"
                f" got {tags[0]} then {tags[1]}",
                {"s0.txt": stream(tags[0]), "s1.txt": stream(tags[1])})
    yield R("estimate-missing-streams", "estimate nope.txt nope2.txt -c tone.ini",
            "io error: [Errno 2] No such file or directory: 'nope.txt'...",
            {"tone.ini": QUICK_START}, code=3)
    for name, content in BAD_STREAMS.items():
        good = {"good.txt": "qvibe-ts v1 anticoincidence 100.0 1.0 1\n5\n", name: content}
        for first, second in ((name, "good.txt"), ("good.txt", name)):
            yield R(f"estimate-{first}-{second}", f"estimate {first} {second}",
                    f"stream error: {name}: ...", good, code=3)
    # Two event-free streams cannot set a detection threshold.
    yield R("estimate-empty-streams", "estimate e1.txt e2.txt -c tone.ini",
            "analysis error: cannot set a threshold from two empty streams...",
            {"tone.ini": QUICK_START, "e1.txt": "qvibe-ts v1 coincidence 100 1.0 0\n",
             "e2.txt": "qvibe-ts v1 anticoincidence 100 1.0 0\n"}, code=4)

    # ----- sweep: range, tick and draw, before any point -----
    for name, change, err in [
        # Every point samples at the default tick, so a tick it would not honour is refused.
        ("tick", ("t_exp = 1 s", "t_exp = 1 s\ntick = 23 ps"),
         "[run] tick: is not read by sweep,..."),
        ("stop-below-start", ("stop = 30 Hz", "stop = 5 Hz"),
         "[sweep] stop: stop must be at least start (10.0 Hz), got 5.0 Hz"),
        ("zero-step", ("step = 10 Hz", "step = 0 Hz"),
         "[sweep] step: step must be positive, got 0.0 Hz"),
        ("points-over-cap", ("stop = 30 Hz", "stop = 100010 Hz"),
         "[sweep] start, stop and step give more than 10000 points"),
        ("negative-step", ("step = 10 Hz", "step = -10 Hz"),
         "[sweep] step: step must be positive, got -10.0 Hz"),
        ("missing-start", ("start = 10 Hz\n", ""), "[sweep] start: missing required key"),
        ("missing-amplitude_pp", ("amplitude_pp = 20 nm\nexposure", "exposure"),
         "[sweep] amplitude_pp: missing required key"),
        ("exposure-too-long", ("exposure = 1 s", "exposure = 1000 s"),
         f"[sweep] exposure: {TOO_MANY}1.9e+08 candidates)"),
        ("zero-exposure", ("exposure = 1 s", "exposure = 0 s"),
         "[sweep] exposure: exposure must be positive, got 0.0 s"),
        ("negative-exposure", ("exposure = 1 s", "exposure = -2 s"),
         "[sweep] exposure: exposure must be positive, got -2.0 s"),
        ("negative-amplitude_pp",
         ("amplitude_pp = 20 nm\nexposure", "amplitude_pp = -20 nm\nexposure"),
         "[sweep] amplitude_pp: amplitude_pp must be non-negative, got -2e-08 m"),
        ("playback_scale--1", ("exposure = 1 s", "exposure = 1 s\nplayback_scale = -1"),
         "[sweep] playback_scale: playback_scale must exceed -1, got -1.0"),
        ("playback_scale--1.5", ("exposure = 1 s", "exposure = 1 s\nplayback_scale = -1.5"),
         "[sweep] playback_scale: playback_scale must exceed -1, got -1.5"),
        ("zero-start", ("start = 10 Hz", "start = 0 Hz"),
         "[sweep] start: start must be positive, got 0.0 Hz"),
        ("f_max-zero", ("f_max = 200 Hz", "f_max = 0 Hz"), f"[analysis] f_max: {F_MAX} 0.0"),
        # The tone's delays overflow the pair fringe's envelope, as in simulate.
        ("amplitude_pp-overflow",
         ("amplitude_pp = 20 nm\nexposure", "amplitude_pp = 1e160 m\nexposure"),
         f"[sweep] amplitude_pp: amplitude_pp {amplitude}, got 1e+160 m"),
        # A tone whose phase 2 pi f t overflows over the exposure would read a
        # NaN flux; the true tone is f (1 + playback_scale).
        ("stop-phase-overflow",
         ("start = 10 Hz\nstop = 30 Hz\nstep = 10 Hz\namplitude_pp = 20 nm\nexposure = 1 s",
          "start = 1e308 Hz\nstop = 1e308 Hz\nstep = 1e300 Hz\namplitude_pp = 20 nm\n"
          "exposure = 0.01 s"),
         f"[sweep] stop: stop {tone_phase}, got 1e+308 Hz over exposure = 0.01 s"),
        ("stop-phase-overflow-by-playback_scale",
         ("start = 10 Hz\nstop = 30 Hz\nstep = 10 Hz\namplitude_pp = 20 nm\nexposure = 1 s",
          "start = 1e307 Hz\nstop = 1e307 Hz\nstep = 1e300 Hz\namplitude_pp = 20 nm\n"
          "exposure = 0.01 s\nplayback_scale = 9"),
         f"[sweep] stop: stop {tone_phase}, got 1e+307 Hz over exposure = 0.01 s"),
    ]:
        yield R(f"sweep-{name}", "sweep -c sweep.ini --out out", sweep + err,
                {"sweep.ini": edit(SWEEP, change)})

    # ----- advantage -----
    # At 100% loss no pair arrives, so no exposure matches the budget.
    for name, text, message in [
        ("loss-1", "experiment = loss\nvalues = 1", "values: loss must lie in [0, 1), got 1.0"),
        ("loss-0-1", "experiment = loss\nvalues = 0 | 1",
         "values: loss must lie in [0, 1), got 1.0"),
        ("loss-0-1.5", "experiment = loss\nvalues = 0 | 1.5",
         "values: loss must lie in [0, 1), got 1.5"),
        ("background-0-1", "experiment = background\nvalues = 0 | 1",
         "values: background_fraction must lie in [0, 1), got 1.0"),
        ("target_pairs-0", "experiment = loss\ntarget_pairs = 0",
         "target_pairs: t_exp_quantum must be positive and finite, got 0.0"),
        # A zero fundamental or amplitude leaves the square wave without a component.
        ("loss-fundamental-0", "experiment = loss\nfundamental = 0 Hz", f"fundamental: {ZERO_HZ}"),
        ("background-fundamental-0", "experiment = background\nfundamental = 0 Hz",
         f"fundamental: {ZERO_HZ}"),
        ("loss-fundamental-negative", "experiment = loss\nfundamental = -10 Hz",
         "fundamental: square wave frequency must be positive, got -10.0 Hz"),
        ("loss-amplitude_pp-0", "experiment = loss\namplitude_pp = 0 nm",
         f"amplitude_pp: {ZERO_NM}"),
        ("background-amplitude_pp-0", "experiment = background\namplitude_pp = 0 nm",
         f"amplitude_pp: {ZERO_NM}"),
        # The band reaches the 19th harmonic: 20 GHz over the 5 ms quantum exposure.
        # 20 times the fundamental, the band's top, overflows a double.
        ("loss-fundamental-1e307", "experiment = loss\nfundamental = 1e307 Hz",
         "fundamental: fundamental must keep the scan band 20 * fundamental finite,"
         " got 1e+307 Hz"),
        ("loss-fundamental-1GHz", "experiment = loss\nfundamental = 1 GHz\ntarget_pairs = 1000",
         "fundamental: f_max = 20000000000.0 Hz needs 166666667 scan bins at t_exp = 0.005 s;"
         " at most 2097152 are allowed"),
        # The square wave's delays overflow the pair fringe's envelope.
        ("loss-amplitude_pp-overflow", "experiment = loss\namplitude_pp = 1e160 m",
         f"amplitude_pp: amplitude_pp {amplitude}, got 1e+160 m"),
    ]:
        yield R(f"advantage-{name}", "advantage -c adv.ini --out adv.json",
                f"config error: adv.ini: [advantage] {message}",
                {"adv.ini": f"[advantage]\n{text}\n"})


REFUSALS = list(_rows())


class DrawAttempted(Exception):
    """Raised by the stand-ins for the draws, which a refusal must come before."""


def _draw(*args, **kwargs):
    raise DrawAttempted("drew a stream or Monte Carlo trials before refusing")


def matches(err: str, line: str) -> bool:
    """Whether ``line`` is ``err``, or starts with it where ``err`` ends in "..."."""
    return line.startswith(err[:-3]) if err.endswith("...") else line == err


@contextlib.contextmanager
def _stand_ins():
    """Replace the stream sampler and the Monte Carlo driver by ``_draw``."""
    saved = qvibe.simulate.sample_inhomogeneous_poisson, qvibe.cli.monte_carlo_delay_std
    qvibe.simulate.sample_inhomogeneous_poisson = qvibe.cli.monte_carlo_delay_std = _draw
    try:
        yield
    finally:
        qvibe.simulate.sample_inhomogeneous_poisson, qvibe.cli.monte_carlo_delay_std = saved


def check(row: Refusal) -> list[str]:
    """Run ``row`` as the module docstring says; return what it got wrong, empty when it holds."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in row.files.items():
            path = Path(tmp, name)
            path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
        os.chdir(tmp)
        usage = False
        try:
            with _stand_ins(), warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                try:
                    code = qvibe.cli.main(row.argv.split())
                except SystemExit as exc:  # an argparse refusal
                    code, usage = exc.code, True
        except Exception:
            return [f"raised {traceback.format_exc()}"]
        finally:
            os.chdir(cwd)
        left = sorted(set(os.listdir(tmp)) - set(row.files))
    faults = []
    if code != row.code:
        faults.append(f"exit {code}, expected {row.code}")
    text = err.getvalue()
    lines = text.splitlines()
    shape = len(lines) == 1 or usage and len(lines) > 1 and lines[0].startswith("usage: qvibe")
    if not (shape and text.endswith("\n") and matches(row.err, lines[-1])):
        faults.append(f"stderr {text!r}, expected {row.err!r}")
    if out.getvalue():
        faults.append(f"printed {out.getvalue()!r} on stdout")
    if left:
        faults.append(f"left {', '.join(left)} behind")
    return faults


def main() -> int:
    failed = 0
    for row in REFUSALS:
        faults = check(row)
        if faults:
            failed += 1
            print(f"FAIL {row.name}: qvibe {row.argv}", *faults, sep="\n  ")
    print(f"{len(REFUSALS) - failed} of {len(REFUSALS)} refusal rows hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
