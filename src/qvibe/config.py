"""Typed configuration files for the command-line tools.

Two on-disk shapes share one parser:

* an INI-like text file with ``[section]`` headers and ``key = value``
  lines, comments starting with ``#``,
* a JSON object whose keys are flattened ``"section.key"`` strings.

Every value is typed by a fixed schema when the file is loaded, so a
malformed value is rejected whichever command loads the file. Physical
quantities must carry a unit suffix from the tables below (``t_exp = 5 s``,
``f_max = 22 kHz``, ``amplitude_pp = 20 nm``, ``phase_offset = -90 deg``);
dimensionless numbers must not carry one. Unknown sections, unknown keys, duplicate
keys, missing or wrong units, and a text key outside its allowed values are
configuration errors.

The command line is a third source: each override flag is spelled ``--`` plus
its key (``--p-fa`` for ``[analysis] p_fa``), and ``Config.with_flags`` lays
the flags given over the loaded values. A refused value is named by its
source, as ``--flag: <message>`` or ``<file>: [section] key: <message>``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

from .core import (
    ClassicalFringeSpec,
    GeometryFactor,
    PhotonPairSpec,
    SPEED_OF_LIGHT,
    quadrature_delay,
)
from .errors import ConfigError
from .estimate import AnalysisOptions
from .metrology import AdvantageSetup, background_advantage_setup, loss_advantage_setup
from .simulate import (
    DEFAULT_TICK,
    ChannelModel,
    SignalComponent,
    VibrationSignal,
    _check_draws,
    _check_tick,
    _fluxes,
)
from .streamio import _EXACT

# Time, frequency and length units are decimal exponents: the number is
# shifted by them exactly, then rounded once, so "23 ps" reads as the double
# nearest 23e-12. Angle units are float factors, deg being no power of ten.
_TIME_UNITS = {"s": 0, "ms": -3, "us": -6, "ns": -9, "ps": -12, "fs": -15, "as": -18}
_FREQUENCY_UNITS = {"Hz": 0, "kHz": 3, "MHz": 6, "GHz": 9, "THz": 12}
_LENGTH_UNITS = {"m": 0, "mm": -3, "um": -6, "nm": -9, "pm": -12}
_ANGLE_UNITS = {"rad": 1.0, "deg": math.pi / 180.0}

_UNIT_TABLES = {
    "time": _TIME_UNITS,
    "frequency": _FREQUENCY_UNITS,
    "length": _LENGTH_UNITS,
    "angle": _ANGLE_UNITS,
}

_NUMBER_RE = re.compile(
    r"(?P<num>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(?P<unit>[A-Za-z]*)"
)

# (section, key) -> value kind. component_<n> keys in [signal] are
# matched by prefix and hold "frequency | length [| angle]" triples.
_SCHEMA: dict[str, dict[str, str]] = {
    "pair": {
        "detuning": "frequency",
        "sigma": "frequency",
        "visibility": "bare",
        "lambda_1": "length",
        "lambda_2": "length",
    },
    "classical": {
        "wavelength": "length",
        "arm_ratio": "bare",
        "phase_offset": "angle",
    },
    "channel": {
        "loss": "bare",
        "background": "bare",
        "coincidence_window": "time",
        "rate_c": "frequency",
        "rate_a": "frequency",
        "singles_rate": "frequency",
        "geometry": "int",
    },
    "signal": {
        "kind": "str",
        "frequency": "frequency",
        "amplitude_pp": "length",
        "phase": "angle",
        "harmonics": "int",
        "tau_op": "time_or_quadrature",
        "switch_frequency": "frequency",
        "frequency_a": "frequency",
        "frequency_b": "frequency",
        "amplitude_pp_a": "length",
        "amplitude_pp_b": "length",
        "phase_a": "angle",
        "phase_b": "angle",
        "gate_harmonics": "int",
    },
    "run": {
        "mode": "str",
        "t_exp": "time",
        "seed": "int",
        "trials": "int",
        "tick": "time",
        "binary": "bool",
    },
    "analysis": {
        "p_fa": "bare",
        "f_max": "frequency",
        "ratio": "bare",
    },
    "sweep": {
        "start": "frequency",
        "stop": "frequency",
        "step": "frequency",
        "amplitude_pp": "length",
        "exposure": "time",
        "playback_scale": "bare",
    },
    "advantage": {
        "experiment": "str",
        "values": "bare_list",
        "target_pairs": "bare",
        "fundamental": "frequency",
        "amplitude_pp": "length",
    },
    "qcrb": {
        "n_pairs": "int_list",
        "trials": "int",
        "calibration_factor": "bare",
    },
}

MODES = ("quantum", "classical")

# The values each text ("str") key accepts, checked when the file is parsed.
_CHOICES = {
    ("run", "mode"): MODES,
    ("signal", "kind"): ("pure_tone", "multi_tone", "square_wave", "alternating_tones"),
    ("advantage", "experiment"): ("loss", "background"),
}

_MISSING = object()


def _kind_of(section: str, key: str, where: str) -> str:
    try:
        keys = _SCHEMA[section]
    except KeyError:
        raise ConfigError(f"{where}: unknown section [{section}]") from None
    if section == "signal" and re.fullmatch(r"component_\d+", key):
        return "component"
    try:
        return keys[key]
    except KeyError:
        raise ConfigError(f"{where}: unknown key {key!r} in section [{section}]") from None


def parse_quantity(text: str, kind: str, where: str):
    """Parse one schema-typed value; ``where`` names it in error messages."""
    text = text.strip()
    if kind == "str":
        if not text:
            raise ConfigError(f"{where}: empty value")
        return text
    if kind == "bool":
        low = text.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigError(f"{where}: expected true/false, got {text!r}")
    if kind == "time_or_quadrature":
        if text.lower() == "quadrature":
            return "quadrature"
        return parse_quantity(text, "time", where)
    if kind == "component":
        parts = text.split("|")
        if len(parts) not in (2, 3):
            raise ConfigError(f"{where}: expected 'freq | amplitude [| phase]'")
        freq = parse_quantity(parts[0], "frequency", where)
        amp = parse_quantity(parts[1], "length", where)
        phase = parse_quantity(parts[2], "angle", where) if len(parts) == 3 else 0.0
        try:
            return SignalComponent(freq, amp, phase)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if kind.endswith("_list"):
        element = kind[: -len("_list")]
        return tuple(parse_quantity(p, element, where) for p in text.split("|"))

    m = _NUMBER_RE.fullmatch(text)
    if m is None:
        raise ConfigError(f"{where}: cannot parse number {text!r}")
    num = float(m.group("num"))
    unit = m.group("unit")
    if kind in ("bare", "int"):
        if unit:
            raise ConfigError(f"{where}: dimensionless value must not carry a unit, got {unit!r}")
        value = num
    else:
        table = _UNIT_TABLES[kind]
        if unit not in table:
            raise ConfigError(
                f"{where}: {kind} value needs a unit in {sorted(table)}, got {text!r}"
            )
        if kind == "angle":
            value = num * table[unit]
        else:
            try:
                value = float(Decimal(m.group("num")).scaleb(table[unit], _EXACT))
            except ArithmeticError:  # an exponent beyond the context's +-10^18
                raise ConfigError(f"{where}: {text!r} is out of range") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {text!r} is not a finite number")
    if kind == "int":
        if value != int(value):
            raise ConfigError(f"{where}: expected an integer, got {text!r}")
        return int(value)
    return value


def _parse_value(section: str, key: str, text: str, where: str):
    """Type one value by the schema; a text key must hold one of its choices."""
    value = parse_quantity(text, _kind_of(section, key, where), where)
    choices = _CHOICES.get((section, key))
    if choices is not None and value not in choices:
        raise ConfigError(f"{where}: expected one of {', '.join(choices)}, got {value!r}")
    return value


@dataclass(frozen=True)
class Config:
    """Parsed configuration: every value already typed by the schema.

    ``flagged`` holds each (section, key) that a command-line flag set.
    """

    values: dict[str, dict[str, object]]
    source: str = "<memory>"
    flagged: frozenset[tuple[str, str]] = frozenset()

    def with_flags(self, flags: dict[str, object]) -> Config:
        """This config with each ``"section.key"`` value of ``flags`` replacing its key."""
        values = {section: dict(keys) for section, keys in self.values.items()}
        for flat, value in flags.items():
            section, key = flat.split(".")
            values.setdefault(section, {})[key] = value
        return Config(values, self.source, self.flagged | {tuple(k.split(".")) for k in flags})

    def get(self, section: str, key: str, default=_MISSING):
        value = self.values.get(section, {}).get(key, default)
        if value is _MISSING:
            raise self.refusal(section, key, "missing required key")
        return value

    def has(self, section: str, key: str) -> bool:
        return key in self.values.get(section, {})

    def refusal(self, section: str, key: str, message) -> ConfigError:
        """The error ``<file>: [section] key: message``, or ``--key: message``
        (``_`` spelled ``-``) for a value a flag set."""
        if (section, key) in self.flagged:
            return ConfigError(f"--{key.replace('_', '-')}: {message}")
        return ConfigError(f"{self.source}: [{section}] {key}: {message}")

    def checked(self, section: str, key: str, default=_MISSING, *, ok, need: str, unit: str = ""):
        """``get(section, key, default)``, refused where ``ok`` rejects it, as
        ``<source>: <key> <need>, got <value><unit>`` (see ``refusal``)."""
        value = self.get(section, key, default)
        if not ok(value):
            raise self.refusal(section, key, f"{key} {need}, got {value!r}{unit}")
        return value

    def signal_components(self) -> tuple[SignalComponent, ...]:
        signal = self.values.get("signal", {})
        return tuple(
            signal[key] for key in sorted(signal) if re.fullmatch(r"component_\d+", key)
        )


def _parse_ini(text: str, source: str) -> dict[str, dict[str, object]]:
    sections: dict[str, dict[str, object]] = {}
    current: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigError(f"{source}:{lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in sections[current]:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} in [{current}]")
        where = f"{source}:{lineno}: [{current}] {key}"
        sections[current][key] = _parse_value(current, key, value, where)
    return sections


def _parse_json(text: str, source: str) -> dict[str, dict[str, object]]:
    try:
        # Objects decode to tuples of their (key, value) pairs, so a repeated
        # key reaches the duplicate check below instead of overwriting the first.
        doc = json.loads(text, object_pairs_hook=tuple)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise ConfigError(f"{source}: invalid JSON: {exc}") from None
    sections: dict[str, dict[str, object]] = {}
    for flat_key, value in doc:
        if "." not in flat_key:
            raise ConfigError(f"{source}: key {flat_key!r} must look like 'section.key'")
        section, key = flat_key.split(".", 1)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (int, float)):
            value = repr(value)
        elif not isinstance(value, str):
            raise ConfigError(f"{source}: {flat_key}: value must be a string or number")
        sections.setdefault(section, {})
        if key in sections[section]:
            raise ConfigError(f"{source}: duplicate key {flat_key!r}")
        sections[section][key] = _parse_value(section, key, value, f"{source}: [{section}] {key}")
    return sections


def parse_config(text: str, source: str = "<memory>") -> Config:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return Config(_parse_json(text, source), source)
    return Config(_parse_ini(text, source), source)


def load_config(path: str | Path) -> Config:
    path = Path(path)
    return parse_config(path.read_text(), str(path))


# ----- builders -----


def _set_keys(cfg: Config, section: str, names: dict[str, str]) -> dict[str, tuple[str, object]]:
    """(library name, value) for each key of ``section`` in ``names`` that the config sets."""
    return {
        key: (name, cfg.get(section, key)) for key, name in names.items() if cfg.has(section, key)
    }


def _refuses(build, kwargs: dict) -> bool:
    try:
        build(**kwargs)
    except ConfigError:
        return True
    return False


def _construct(cfg: Config, section: str, build, base: dict, fields: dict):
    """``build`` called with ``base`` updated by ``fields``, its refusals named by key.

    ``fields`` maps each key of ``section`` the config sets to its (library
    name, value); ``base`` holds the library values that stand for keys it
    leaves unset. A ConfigError from ``build`` is raised again, as
    ``Config.refusal`` names it, for the first key whose value
    ``build`` refuses on ``base`` alone; a refusal no single key explains
    (a bad ``base``) is raised unchanged.
    """
    try:
        return build(**{**base, **dict(fields.values())})
    except ConfigError as exc:
        if not _refuses(build, base):
            for key, (name, value) in fields.items():
                if _refuses(build, {**base, name: value}):
                    raise cfg.refusal(section, key, exc) from None
        raise


def build_pair(cfg: Config) -> PhotonPairSpec:
    """The pair spec. Its detuning is ``detuning`` (default 177 THz) or the
    beat of ``lambda_1`` and ``lambda_2``; given both ways, they must agree
    within 0.1%."""
    fields = _set_keys(cfg, "pair", {"visibility": "visibility_v0"})
    if cfg.has("pair", "sigma"):
        fields["sigma"] = ("sigma", 2.0 * math.pi * cfg.get("pair", "sigma"))
    if cfg.has("pair", "detuning"):
        fields["detuning"] = ("delta_omega", 2.0 * math.pi * cfg.get("pair", "detuning"))
    given = [key for key in ("lambda_1", "lambda_2") if cfg.has("pair", key)]
    if len(given) == 1:
        raise cfg.refusal("pair", given[0], "give both lambda_1 and lambda_2 or neither")
    if given:
        for key in given:
            if not cfg.get("pair", key) > 0:
                raise cfg.refusal("pair", key, "lambda_1 and lambda_2 must be positive")
        lambda_1, lambda_2 = (cfg.get("pair", key) for key in given)
        implied = abs(2 * math.pi * SPEED_OF_LIGHT * (1 / lambda_1 - 1 / lambda_2))
        if "detuning" not in fields:
            fields["lambda_1 and lambda_2"] = ("delta_omega", implied)
        elif abs(implied - fields["detuning"][1]) > 1e-3 * fields["detuning"][1]:
            raise cfg.refusal(
                "pair", "detuning",
                "lambda_1 and lambda_2 imply a detuning of %.6g Hz, which differs"
                " from detuning = %.6g Hz by more than 0.1%%"
                % (implied / (2.0 * math.pi), fields["detuning"][1] / (2.0 * math.pi)),
            )
    return _construct(cfg, "pair", PhotonPairSpec, {"delta_omega": 2.0 * math.pi * 177e12}, fields)


def build_fringe(cfg: Config) -> ClassicalFringeSpec:
    fields = _set_keys(
        cfg, "classical", {"arm_ratio": "arm_intensity_ratio", "phase_offset": "phase_offset"}
    )
    if cfg.has("classical", "wavelength"):
        wavelength = cfg.get("classical", "wavelength")
        if not wavelength > 0:
            raise cfg.refusal("classical", "wavelength", "wavelength must be positive")
        fields["wavelength"] = ("omega_optical", 2.0 * math.pi * SPEED_OF_LIGHT / wavelength)
    base = {
        "omega_optical": 2.0 * math.pi * SPEED_OF_LIGHT / 1550e-9,
        "phase_offset": -math.pi / 2.0,
    }
    return _construct(cfg, "classical", ClassicalFringeSpec, base, fields)


_CHANNEL_FIELDS = {
    "loss": "loss_b",
    "background": "background_fraction",
    "coincidence_window": "coincidence_window",
    "rate_c": "rate_c",
    "rate_a": "rate_a",
    "singles_rate": "singles_rate",
}


def build_geometry(cfg: Config, default: int = 2) -> GeometryFactor:
    """The [channel] geometry factor, ``default`` where the file sets none."""
    g = _set_keys(cfg, "channel", {"geometry": "g"})
    return _construct(cfg, "channel", GeometryFactor, {"g": default}, g)


def build_channel(cfg: Config) -> ChannelModel:
    fields = _set_keys(cfg, "channel", _CHANNEL_FIELDS)
    return _construct(cfg, "channel", ChannelModel, {"geometry": build_geometry(cfg)}, fields)


def build_exposure(
    cfg: Config, fringe: PhotonPairSpec | ClassicalFringeSpec, channel: ChannelModel,
    section: str = "run", key: str = "t_exp", default=_MISSING,
) -> tuple[float, float]:
    """The exposure ``[section] key`` and the [run] tick (default 100 ps), refused
    by key before any draw.

    Refused are an exposure that is not positive, a tick with no int64 count
    of the exposure (named ``[run] tick``, or the exposure's key when the file
    sets no tick) and a run either of whose streams, those of the fringe's
    channel, the sampler's candidate cap would refuse. The flux bounds the cap
    reads do not depend on the waveform, so no signal is taken.
    """
    t_exp = cfg.checked(section, key, default, ok=lambda t: t > 0, need="must be positive",
                        unit=" s")
    tick = cfg.get("run", "tick", DEFAULT_TICK)
    try:
        _check_tick(tick, t_exp)
    except ConfigError as exc:
        where = ("run", "tick") if cfg.has("run", "tick") else (section, key)
        raise cfg.refusal(*where, exc) from None
    try:
        _check_draws(_fluxes(fringe, VibrationSignal(()), channel), t_exp)
    except ConfigError as exc:
        raise cfg.refusal(section, key, exc) from None
    return t_exp, tick


def resolve_operating_delay(cfg: Config, fringe: PhotonPairSpec | ClassicalFringeSpec) -> float:
    """Static delay the signal rides on; 'quadrature' resolves per fringe mode.

    An explicit delay is refused where the fringe's phase omega * tau_op +
    phase_offset or its envelope exponent 2 (sigma * tau_op)^2 overflows: the
    flux would read a NaN cosine or overflow there.
    """
    tau_op = cfg.get("signal", "tau_op", "quadrature" if fringe.mode == "quantum" else 0.0)
    if tau_op == "quadrature":
        if fringe.mode != "quantum":
            raise cfg.refusal("signal", "tau_op", "quadrature only applies to quantum mode")
        return quadrature_delay(fringe)

    def finite(t):
        envelope = fringe.sigma * t
        return (math.isfinite(fringe.omega * t + fringe.phase_offset)
                and math.isfinite(2.0 * (envelope * envelope)))

    return cfg.checked("signal", "tau_op", 0.0, ok=finite, unit=" s",
                       need="must keep the fringe phase and envelope finite")


# Per signal kind: its constructor, the [signal] keys it reads with their
# library names, and how many of those keys, from the first, it requires.
_SIGNAL_KINDS = {
    "pure_tone": (
        VibrationSignal.pure_tone,
        {"frequency": "frequency", "amplitude_pp": "amplitude_pp", "phase": "phase"},
        2,
    ),
    "square_wave": (
        VibrationSignal.square_wave,
        {"frequency": "frequency", "amplitude_pp": "amplitude_pp", "harmonics": "n_harmonics",
         "phase": "phase"},
        2,
    ),
    "alternating_tones": (
        VibrationSignal.alternating_tones,
        {"switch_frequency": "switch_frequency", "frequency_a": "freq_a",
         "amplitude_pp_a": "amplitude_pp_a", "frequency_b": "freq_b",
         "amplitude_pp_b": "amplitude_pp_b", "phase_a": "phase_a", "phase_b": "phase_b",
         "gate_harmonics": "n_gate_harmonics"},
        5,
    ),
}


def build_signal(cfg: Config, fringe: PhotonPairSpec | ClassicalFringeSpec) -> VibrationSignal:
    """The [signal] waveform on ``fringe``; a value its constructor refuses is named by key."""
    kind = cfg.get("signal", "kind", "pure_tone")
    tau_op = resolve_operating_delay(cfg, fringe)
    if kind == "multi_tone":
        comps = cfg.signal_components()
        if not comps:
            raise cfg.refusal("signal", "kind", "multi_tone needs component_<n> entries")
        return VibrationSignal.multi_tone(comps, dc_offset_delay=tau_op)
    build, names, required = _SIGNAL_KINDS[kind]
    base = {"dc_offset_delay": tau_op}
    for key in list(names)[:required]:
        cfg.get("signal", key)  # a missing required key is an error here
        base[names[key]] = 1.0  # 1 Hz or 1 m: a value every constructor accepts
    return _construct(cfg, "signal", build, base, _set_keys(cfg, "signal", names))


def build_options(cfg: Config) -> AnalysisOptions:
    """Options from [analysis] ``p_fa`` and ``f_max``."""
    fields = _set_keys(cfg, "analysis", {"p_fa": "p_fa", "f_max": "f_max"})
    return _construct(cfg, "analysis", AnalysisOptions, {}, fields)


def build_advantage(cfg: Config) -> AdvantageSetup:
    """The [advantage] setup of its ``experiment``; ``values`` lists its losses or backgrounds."""
    experiment = cfg.get("advantage", "experiment", "loss")
    names = {
        "values": f"{experiment}_values",
        "target_pairs": "target_pairs",
        "fundamental": "fundamental",
        "amplitude_pp": "amplitude_pp",
    }
    build = loss_advantage_setup if experiment == "loss" else background_advantage_setup
    return _construct(cfg, "advantage", build, {}, _set_keys(cfg, "advantage", names))
