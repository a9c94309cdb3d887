"""Command-line front end.

Subcommands map one-to-one onto the library drivers:

* ``simulate``   one exposure -> timestamp stream files + ground truth
* ``estimate``   two stream files -> spectrum table + reconstruction
* ``trials``     repeated exposures of one scenario -> spread statistics
* ``sweep``      tone stepped across frequencies -> per-point table
* ``advantage``  paired quantum/classical runs under channel degradation
* ``qcrb``       closed-form precision bound vs Monte Carlo estimator

Each override flag is one more config value: its argparse ``dest`` is the
``section.key`` it sets, and ``main`` lays the flags given over the loaded
config, so a command reads every setting from the config alone. Only
``--config``, ``--out``, ``--format`` and ``--threads`` set no key.

Exit codes: 0 success, 2 configuration problem, 3 file/stream problem,
4 analysis could not proceed. A refused setting exits 2 before any draw,
naming its flag (``--trials: trials must lie in [2, 16777216], got 1``) or
its file and key (``tone.ini: [run] t_exp: t_exp must be positive, got 0.0 s``).
All output is deterministic for a fixed configuration and seed: floats
print via repr and JSON keys are sorted.
``estimate --format json|csv`` and ``sweep`` print only the record or the
table on stdout; their ``wrote ...`` notices go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .config import (
    MODES,
    Config,
    build_advantage,
    build_channel,
    build_exposure,
    build_fringe,
    build_geometry,
    build_options,
    build_pair,
    build_signal,
    check_ratio,
    check_reach,
    check_scan,
    load_config,
)
from .core import ClassicalFringeSpec, PhotonPairSpec, quadrature_delay
from .errors import AnalysisError, ConfigError, StreamFormatError
from .estimate import pipeline
from .metrology import (
    _MAX_PAIRS,
    _MAX_TRIALS,
    TrialScenario,
    monte_carlo_delay_std,
    qcrb_displacement_std,
    run_advantage_experiment,
    run_amplitude_trials,
    run_frequency_sweep,
)
from .simulate import DEFAULT_TICK, VibrationSignal, _simulate
from .streamio import (
    read_stream,
    write_ground_truth,
    write_stream_binary,
    write_stream_text,
)


def _fmt(x: float) -> str:
    return repr(float(x))


def _seed_of(cfg: Config) -> int:
    return cfg.checked("run", "seed", 0, ok=lambda n: n >= 0, need="must be non-negative")


def _threads_of(args) -> int | None:
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"--threads: threads must be at least 1, got {args.threads}")
    return args.threads


def _fringe_of(cfg: Config) -> PhotonPairSpec | ClassicalFringeSpec:
    """The fringe of ``[run] mode``: the pair spec, or the classical reference fringe."""
    return build_pair(cfg) if cfg.get("run", "mode", "quantum") == "quantum" else build_fringe(cfg)


def _pair_of(cfg: Config, command: str) -> PhotonPairSpec:
    """The pair spec of a command that runs the pair channel only, so refuses another mode."""
    cfg.checked("run", "mode", "quantum", ok=lambda mode: mode == "quantum",
                need=f"must be quantum, the one channel {command} runs")
    return build_pair(cfg)


def _outdir(args) -> Path:
    out = Path(args.out if args.out else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args, cfg: Config) -> int:
    fringe = _fringe_of(cfg)
    channel = build_channel(cfg)
    signal = build_signal(cfg, fringe)
    seed = _seed_of(cfg)
    t_exp, tick = build_exposure(cfg, fringe, channel, default=1.0, signal=signal)  # before the draw
    binary = cfg.get("run", "binary", False)
    run = _simulate(fringe, signal, channel, t_exp, seed, tick)
    names = ("coincidence", "anticoincidence") if fringe.mode == "quantum" else ("port1", "port2")
    out = _outdir(args)  # only once both streams are drawn, so a refusal leaves none
    write = write_stream_binary if binary else write_stream_text
    ext = ".bin" if binary else ".txt"
    for stream, name in zip(run, names):
        path = out / (name + ext)
        write(stream, path)
        print(f"wrote {path} ({len(stream)} events)")
    truth_path = out / "ground_truth.json"
    write_ground_truth(signal, channel.geometry, truth_path)
    print(f"wrote {truth_path}")
    print(f"mode={fringe.mode} t_exp={_fmt(t_exp)} seed={seed}")
    return 0


def cmd_estimate(args, cfg: Config) -> int:
    fringe = _fringe_of(cfg)
    geometry = build_channel(cfg).geometry
    options = build_options(cfg)
    ratio = cfg.checked("analysis", "ratio", 1.0, ok=lambda r: 0 < r < math.inf,
                        need="must be positive and finite")  # refused before either read
    stream_1 = read_stream(args.stream1)
    stream_2 = read_stream(args.stream2)
    tags = fringe.stream_tags
    if (stream_1.tag, stream_2.tag) != tags:
        raise ConfigError(
            f"mode {fringe.mode} reads streams tagged {tags[0]} then {tags[1]},"
            f" got {stream_1.tag} then {stream_2.tag}"
        )
    check_scan(cfg, options, stream_1.t_exp)
    check_ratio(cfg, ratio, stream_1, stream_2)
    result = pipeline(
        stream_1, stream_2, fringe=fringe, geometry=geometry, ratio=ratio, options=options
    )
    spectrum, recon = result.spectrum, result.reconstruction
    # Each product is built once, for its file and for stdout alike; the
    # table is written a block at a time as it is built.
    record = None
    if recon is not None and (args.out or args.format == "json"):
        record = recon.json_text()
    echo = sys.stdout if args.format == "csv" else None
    if args.out:
        # A json or csv stdout carries only the record or the table.
        notices = sys.stdout if args.format == "human" else sys.stderr
        out = _outdir(args)
        with (out / "spectrum.csv").open("wb") as fh:
            _write_table(spectrum, fh, echo)
        print(f"wrote {out / 'spectrum.csv'}", file=notices)
        if recon is not None:
            (out / "reconstruction.json").write_text(record)
            print(f"wrote {out / 'reconstruction.json'}", file=notices)
    elif echo:
        _write_table(spectrum, None, echo)
    if args.format == "json":
        sys.stdout.write(record or json.dumps({"detected": False}, indent=2, sort_keys=True) + "\n")
    if args.format != "human":
        return 0
    print(
        f"scanned {spectrum.frequencies.size} bins up to {_fmt(float(spectrum.frequencies[-1]))} Hz,"
        f" threshold {_fmt(spectrum.threshold_kappa)}"
    )
    if recon is None:
        print("no components detected")
        return 0
    for comp in recon.components:
        note = "" if comp.refined else " (unrefined)"
        print(
            f"component f={_fmt(comp.f_hat)} Hz theta={_fmt(comp.theta_hat)} rad"
            f" a_c={_fmt(comp.a_hat_c)} a_a={_fmt(comp.a_hat_a)}{note}"
        )
    print(f"displacement_pp={_fmt(recon.displacement_pp)} m")
    print(
        f"clamp_fractions flux={_fmt(recon.flux_clamp_fraction)}"
        f" arccos={_fmt(recon.arccos_clamp_fraction)}"
    )
    return 0


def _write_table(spectrum, fh, echo) -> None:
    """Write the table's blocks to the binary file ``fh`` and the text stream ``echo``, if given."""
    for block in spectrum.csv_blocks():
        if fh is not None:
            fh.write(block)
        if echo is not None:
            echo.write(block.decode())


def cmd_trials(args, cfg: Config) -> int:
    pair = _pair_of(cfg, "trials")
    channel = build_channel(cfg)
    signal = build_signal(cfg, pair)
    if not signal.components:  # TrialScenario refuses it too, but not by key
        raise cfg.refusal("signal", "kind", "trials need a signal with a component to score")
    options = build_options(cfg)
    t_exp, tick = build_exposure(cfg, pair, channel, default=1.0, signal=signal)  # before the draw
    check_scan(cfg, options, t_exp)
    scenario = TrialScenario(pair, signal, channel, t_exp, options, tick)
    n_trials = cfg.checked("run", "trials", 10, ok=lambda n: n >= 2, need="must be at least 2")
    stats = run_amplitude_trials(scenario, n_trials, _seed_of(cfg), _threads_of(args))
    for rec in stats.records:
        if rec.detected:
            print(f"trial seed={rec.seed} f_hat={_fmt(rec.f_hat)} pp_hat={_fmt(rec.pp_hat)}")
        else:
            print(f"trial seed={rec.seed} no detection")
    print(f"truth f={_fmt(stats.truth_f)} Hz pp={_fmt(stats.truth_pp)} m")
    print(f"f_mean={_fmt(stats.f_mean)} f_std={_fmt(stats.f_std)}")
    print(f"pp_mean={_fmt(stats.pp_mean)} pp_std={_fmt(stats.pp_std)}")
    print(f"detection_rate={_fmt(stats.detection_rate)}")
    if args.out:
        doc = {
            "truth": {"f": stats.truth_f, "pp": stats.truth_pp},
            "f_mean": stats.f_mean,
            "f_std": stats.f_std,
            "pp_mean": stats.pp_mean,
            "pp_std": stats.pp_std,
            "detection_rate": stats.detection_rate,
            "records": [asdict(rec) for rec in stats.records],
        }
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


_MAX_SWEEP_POINTS = 10_000  # each point is one simulated exposure


def cmd_sweep(args, cfg: Config) -> int:
    if cfg.has("run", "tick"):
        raise cfg.refusal(
            "run", "tick", f"is not read by sweep, which samples at the {_fmt(DEFAULT_TICK)} s tick"
        )
    # A point's tone, f * (1 + playback_scale), and its draw are refused by key before any point.
    start = cfg.checked("sweep", "start", ok=lambda f: f > 0, need="must be positive", unit=" Hz")
    stop = cfg.checked("sweep", "stop", ok=lambda f: f >= start,
                       need=f"must be at least start ({_fmt(start)} Hz)", unit=" Hz")
    step = cfg.checked("sweep", "step", ok=lambda f: f > 0, need="must be positive", unit=" Hz")
    span = (stop * (1.0 + 1e-12) - start) / step
    if not span < _MAX_SWEEP_POINTS:
        raise ConfigError(
            f"{cfg.source}: [sweep] start, stop and step give more than {_MAX_SWEEP_POINTS} points"
        )
    freqs = [start + i * step for i in range(math.floor(span) + 1)]
    pair, channel = _pair_of(cfg, "sweep"), build_channel(cfg)
    amplitude_pp = cfg.checked(
        "sweep", "amplitude_pp", ok=lambda a: a >= 0, need="must be non-negative", unit=" m"
    )
    tone = VibrationSignal.pure_tone(start, amplitude_pp, dc_offset_delay=quadrature_delay(pair))
    check_reach(cfg, "sweep", "amplitude_pp", amplitude_pp, pair, tone, channel.geometry)
    playback_scale = cfg.checked(
        "sweep", "playback_scale", 0.0, ok=lambda s: s > -1, need="must exceed -1"
    )
    exposure, _ = build_exposure(cfg, pair, channel, "sweep", "exposure")
    options = build_options(cfg)
    check_scan(cfg, options, exposure)
    points = run_frequency_sweep(
        freqs,
        pair,
        channel,
        amplitude_pp,
        exposure,
        options,
        playback_scale=playback_scale,
        base_seed=_seed_of(cfg),
        max_workers=_threads_of(args),
    )
    header = "f_nominal,f_true,detected,f_hat,rel_offset,pp_hat"
    lines = [header]
    for p in points:
        lines.append(
            f"{_fmt(p.f_nominal)},{_fmt(p.f_true)},{int(p.detected)},"
            f"{_fmt(p.f_hat)},{_fmt(p.rel_offset)},{_fmt(p.pp_hat)}"
        )
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.out:
        Path(args.out).write_text(table)
        print(f"wrote {args.out}", file=sys.stderr)  # stdout carries only the table
    return 0


def cmd_advantage(args, cfg: Config) -> int:
    setup = build_advantage(cfg)
    amplitude = cfg.get("advantage", "amplitude_pp", None)  # only a set one can overflow
    for cond in setup.conditions:
        for fringe, signal, channel, _, _ in setup._halves(cond):
            geometry = channel.geometry
            check_reach(cfg, "advantage", "amplitude_pp", amplitude, fringe, signal, geometry)
    outcomes = run_advantage_experiment(setup, _seed_of(cfg), _threads_of(args))
    doc = []
    for o in outcomes:
        print(
            f"{o.condition.label}: events q={o.quantum_events} c={o.classical_events}"
            f" truth_pp={_fmt(o.truth_pp)}"
        )
        print(
            f"  quantum pp={_fmt(o.quantum_pp)} recovery={_fmt(o.quantum_recovery)}"
            f" harmonics={len(o.quantum_harmonics)}"
        )
        print(
            f"  classical pp={_fmt(o.classical_pp)} recovery={_fmt(o.classical_recovery)}"
            f" harmonics={len(o.classical_harmonics)}"
        )
        record = asdict(o)
        record.update(record.pop("condition"))  # condition fields sit beside the results
        doc.append(record)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_qcrb(args, cfg: Config) -> int:
    pair = _pair_of(cfg, "qcrb")
    geometry = build_geometry(cfg, default=1)
    n_list = cfg.checked("qcrb", "n_pairs", (10_000,),
                         ok=lambda ns: all(1 <= n <= _MAX_PAIRS for n in ns),
                         need=f"must each lie in [1, {_MAX_PAIRS}]")
    trials = cfg.checked("qcrb", "trials", 1000, ok=lambda n: 2 <= n <= _MAX_TRIALS,
                         need=f"must lie in [2, {_MAX_TRIALS}]")
    # Line n draws int(factor * n) calibration pairs, all checked before the first line.
    factor = cfg.checked(
        "qcrb", "calibration_factor", 0.0,
        ok=lambda f: f == 0 or 0 < f < math.inf and all(4 <= f * n < _MAX_PAIRS for n in n_list),
        need=f"must be 0 (a known ratio) or times each n_pairs lie in [4, {_MAX_PAIRS}]",
    )
    seed = _seed_of(cfg)
    for i, n in enumerate(n_list):
        cal = int(factor * n) if factor > 0 else None
        mc = monte_carlo_delay_std(
            int(n), trials, seed + i, pair, calibration_pairs=cal
        )
        print(
            f"n_pairs={int(n)} bound_tau={_fmt(mc.bound)} s"
            f" bound_x={_fmt(qcrb_displacement_std(int(n), pair, geometry))} m"
            f" mc_sigma_tau={_fmt(mc.sigma_tau)} s ratio={_fmt(mc.ratio_to_bound)}"
        )
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once a process: parse_args leaves the parser as it was.
    parser = argparse.ArgumentParser(
        prog="qvibe",
        description="Two-colour interferometric vibrometry: simulation and estimation tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True, threads=False):
        p.add_argument("--config", "-c", required=config_required, help="configuration file")
        p.add_argument("--seed", dest="run.seed", type=int, help="override [run] seed")
        if threads:
            p.add_argument("--threads", type=int, default=None, help="worker threads (default 1)")

    def analysis(p):
        p.add_argument("--p-fa", dest="analysis.p_fa", type=float, help="override [analysis] p_fa")
        p.add_argument("--f-max", dest="analysis.f_max", type=float,
                       help="override [analysis] f_max in Hz")

    p = sub.add_parser("simulate", help="generate timestamp streams for one exposure")
    common(p)
    p.add_argument("--out", "-o", default=".", help="output directory")
    p.add_argument("--mode", dest="run.mode", choices=MODES)
    p.add_argument("--binary", dest="run.binary", action="store_true", default=None,
                   help="write binary streams")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="run the estimation pipeline on two stream files")
    p.add_argument("stream1", help="coincidence (or port-1) stream file")
    p.add_argument("stream2", help="anti-coincidence (or port-2) stream file")
    p.add_argument("--config", "-c", help="configuration file")
    p.add_argument("--out", "-o", default=None, help="output directory")
    p.add_argument("--mode", dest="run.mode", choices=MODES)
    analysis(p)
    p.add_argument("--ratio", dest="analysis.ratio", type=float, help="override [analysis] ratio")
    p.add_argument("--format", choices=("human", "json", "csv"), default="human")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("trials", help="repeat one scenario and report spread statistics")
    common(p, threads=True)
    p.add_argument("--out", "-o", default=None, help="write statistics JSON here")
    p.add_argument("--trials", dest="run.trials", type=int, help="override [run] trials")
    analysis(p)
    p.set_defaults(func=cmd_trials)

    p = sub.add_parser("sweep", help="step a tone across frequencies")
    common(p, threads=True)
    p.add_argument("--out", "-o", default=None, help="write the sweep table here")
    analysis(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("advantage", help="compare channels under loss or background")
    common(p, threads=True)
    p.add_argument("--out", "-o", default=None, help="write outcome JSON here")
    p.set_defaults(func=cmd_advantage)

    p = sub.add_parser("qcrb", help="precision bound and Monte Carlo saturation")
    common(p, config_required=False)
    p.add_argument("--n-pairs", dest="qcrb.n_pairs", type=int, nargs="+")
    p.add_argument("--trials", dest="qcrb.trials", type=int)
    p.add_argument(
        "--calibration-factor", dest="qcrb.calibration_factor", type=float,
        help="calibration pairs as a multiple of n_pairs (0 = known ratio)",
    )
    p.set_defaults(func=cmd_qcrb)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # An override flag's dest is its "section.key"; each one given replaces that key.
    flags = {dest: value for dest, value in vars(args).items() if "." in dest and value is not None}
    try:
        cfg = load_config(args.config) if args.config else Config({}, "<defaults>")
        return args.func(args, cfg.with_flags(flags))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StreamFormatError as exc:
        print(f"stream error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
