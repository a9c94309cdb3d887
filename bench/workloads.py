"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed and drives qvibe
only through stable public entry points, looked up on their module at
call time so that the traced run can wrap them. An exposure is one
simulated measurement analysed to its result. Exposures come in cycles
(a fixed set of tones, both loss conditions, both stream formats); a run
times whole cycles and each timing sample is one cycle's mean exposure
time, so the median does not fall in the gap between two clusters of
unlike exposures.

The workload interface:

* ``labels`` one name per position in the cycle,
* ``inputs(k)`` per-exposure inputs, built outside the timed region,
* ``expose(inp)`` the timed call into qvibe,
* ``record(k, inp, outcome)`` what the correctness check needs, taken
  outside the timed region before the next exposure overwrites it,
* ``failures(records)`` one flag per exposure, True where it failed,
* ``projection_cases()`` streams for the exact-projection check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from qvibe import cli, core, estimate, metrology, simulate, streamio


@dataclass(frozen=True)
class ProjectionCase:
    stream_c: object
    stream_a: object
    ratio: float
    f_max: float
    p_fa: float


class Failed:
    """Outcome of an exposure that raised."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"


def _root_seed(seed: int) -> int:
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


class SweepHF:
    """One ``run_frequency_sweep([f])`` call per exposure (test_02 settings)."""

    name = "sweep_hf"
    why = (
        "1M events x 183k bins per exposure: the chirp-z grid projection and the"
        " 10.5M-sample reconstruction trace dominate time and memory"
    )
    cycle = 3
    PLAYBACK = 0.00142
    REL_TOL = 1e-4

    # Top, middle and bottom points of the test_02 sweep: the trace length
    # follows the tone while the scan grid stays fixed. The top tone goes
    # first so that the peak memory is reached on the same heap every run.
    tones = (21e3, 11e3, 1e3)
    labels = ("21 kHz", "11 kHz", "1 kHz")

    def __init__(self, seed: int, workdir: Path):
        self.seed0 = _root_seed(seed)
        self.pair = core.PhotonPairSpec(delta_omega=2 * math.pi * 177e12, visibility_v0=0.9)
        self.channel = simulate.ChannelModel(rate_c=200e3, rate_a=200e3)
        self.options = estimate.AnalysisOptions(f_max=22e3)

    def inputs(self, k: int):
        return self.tones[k % self.cycle], self.seed0 + k

    def expose(self, inp):
        f_nominal, sim_seed = inp
        return metrology.run_frequency_sweep(
            [f_nominal], self.pair, self.channel, amplitude_pp=20e-9, t_exp=5.0,
            options=self.options, playback_scale=self.PLAYBACK, base_seed=sim_seed,
            max_workers=1,
        )[0]

    def record(self, k, inp, outcome):
        return outcome

    def failures(self, records):
        return [not sweep_point_ok(r, self.REL_TOL) for r in records]

    def projection_cases(self):
        f_true = 21e3 * (1.0 + self.PLAYBACK)
        signal = simulate.VibrationSignal.pure_tone(
            f_true, 20e-9, dc_offset_delay=core.quadrature_delay(self.pair)
        )
        run = simulate.simulate_quantum_run(self.pair, signal, self.channel, 5.0, self.seed0)
        return [ProjectionCase(run.coincidences, run.anticoincidences, 1.0, 22e3, 1e-3)]


def sweep_point_ok(point, rel_tol: float) -> bool:
    if isinstance(point, Failed) or not point.detected:
        return False
    return abs(point.f_hat - point.f_true) <= rel_tol * point.f_true


class FalseAlarm:
    """Signal-free 1 s exposures through ``simulate_quantum_run`` + ``scan_spectrum``."""

    name = "false_alarm"
    why = (
        "2k events x 334 bins per exposure: the small-grid phasor-recursion path and"
        " per-call costs; refinement, reconstruction and I/O never run"
    )
    cycle = 1
    labels = ("signal-free",)

    def __init__(self, seed: int, workdir: Path):
        self.pair = core.PhotonPairSpec(delta_omega=2 * math.pi * 177e12)
        self.channel = simulate.ChannelModel(rate_c=2000.0, rate_a=2000.0)
        self.signal = simulate.VibrationSignal(
            components=(), dc_offset_delay=core.quadrature_delay(self.pair)
        )
        # Run seeds are drawn as in test_06, from spawned children of one root.
        self.seeds = np.random.SeedSequence(seed)
        self.first_seed = int(np.random.SeedSequence(seed).spawn(1)[0].generate_state(1)[0])

    def inputs(self, k: int):
        return int(self.seeds.spawn(1)[0].generate_state(1)[0])

    def _run(self, sim_seed: int):
        return simulate.simulate_quantum_run(
            self.pair, self.signal, self.channel, t_exp=1.0, seed=sim_seed
        )

    def expose(self, sim_seed):
        run = self._run(sim_seed)
        return estimate.scan_spectrum(
            run.coincidences, run.anticoincidences, ratio=1.0, f_max=200.0, p_fa=1e-3
        )

    def record(self, k, inp, outcome):
        # A detection is an outcome of a signal-free run, not a failure.
        return outcome if isinstance(outcome, Failed) else len(outcome.detected)

    def failures(self, records):
        return [isinstance(r, Failed) for r in records]

    def projection_cases(self):
        run = self._run(self.first_seed)
        return [ProjectionCase(run.coincidences, run.anticoincidences, 1.0, 200.0, 1e-3)]


class AdvantageLoss:
    """``run_advantage_experiment`` on one loss condition per exposure (test_03)."""

    name = "advantage_loss"
    why = (
        "10 Hz square wave, 0.6M quantum and 1.2M classical events: four odd-harmonic"
        " seeds per pipeline make refinement dominate; the only classical_pipeline user"
    )
    cycle = 2

    def __init__(self, seed: int, workdir: Path):
        self.setup = metrology.loss_advantage_setup()
        self.labels = tuple(c.label for c in self.setup.conditions)
        self.seed0 = _root_seed(seed) % 2**31

    def inputs(self, k: int):
        # Condition i of one experiment runs at base_seed + 2i, as in
        # run_advantage_experiment; each cycle is a fresh experiment.
        cond = self.setup.conditions[k % 2]
        return replace(self.setup, conditions=(cond,)), self.seed0 + 10 * (k // 2) + 2 * (k % 2)

    def expose(self, inp):
        setup, base_seed = inp
        return metrology.run_advantage_experiment(setup, base_seed, max_workers=1)[0]

    def record(self, k, inp, outcome):
        return outcome

    def failures(self, records):
        flags = []
        for clean, lossy in zip(records[::2], records[1::2]):
            bad = not advantage_pair_ok(clean, lossy)
            flags += [bad, bad]
        return flags

    def projection_cases(self):
        s = self.setup
        cond = s.conditions[0]
        ch_q = replace(s.channel_quantum, loss_b=cond.loss_b)
        ch_c = replace(s.channel_classical, loss_b=cond.loss_b)
        run_q = simulate.simulate_quantum_run(
            s.pair, replace(s.signal, dc_offset_delay=core.quadrature_delay(s.pair)),
            ch_q, cond.t_exp_quantum, self.seed0,
        )
        run_c = simulate.simulate_classical_run(
            s.fringe, replace(s.signal, dc_offset_delay=0.0), ch_c,
            cond.t_exp_classical, self.seed0 + 1,
        )
        f_max, p_fa = s.options.f_max, s.options.p_fa
        return [
            ProjectionCase(run_q.coincidences, run_q.anticoincidences,
                           ch_q.rate_c / ch_q.rate_a, f_max, p_fa),
            ProjectionCase(run_c.port1, run_c.port2, 1.0, f_max, p_fa),
        ]


def advantage_pair_ok(clean, lossy) -> bool:
    """The test_03 budgets on one (lossless, lossy) pair of outcomes."""
    if isinstance(clean, Failed) or isinstance(lossy, Failed):
        return False
    if clean.quantum_pp <= 0 or clean.truth_pp <= 0:
        return False
    truth = clean.truth_pp
    q_agree = abs(lossy.quantum_pp / clean.quantum_pp - 1.0)
    q_truth = max(abs(clean.quantum_pp / truth - 1.0), abs(lossy.quantum_pp / truth - 1.0))
    return q_agree <= 0.05 and q_truth <= 0.15 and lossy.classical_pp / truth <= 0.80


QUICKSTART_INI = """\
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
t_exp = 1 s
seed = 611

[analysis]
f_max = 200 Hz
"""

CLI_PRODUCTS = ("spectrum.csv", "reconstruction.json")


class CliRoundtrip:
    """README quick-start through in-process ``qvibe.cli.main``: simulate, then estimate."""

    name = "cli_roundtrip"
    why = (
        "README quick-start, 190k events per exposure, alternating text and binary"
        " streams: the only workload that runs streamio, config and cli"
    )
    cycle = 2
    labels = ("text", "binary")
    F_TONE = 10.0
    F_TOL = 0.6  # one scan-grid step for a 1 s exposure

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "tone.ini"
        self.config.write_text(QUICKSTART_INI)
        # One fixed simulation seed per run, so repetitions must agree byte for byte.
        self.sim_seed = _root_seed(seed) % 2**31

    def inputs(self, k: int):
        binary = k % 2 == 1
        out = self.dir / ("bin" if binary else "txt")
        shutil.rmtree(out, ignore_errors=True)
        return binary, out

    def expose(self, inp):
        binary, out = inp
        ext = ".bin" if binary else ".txt"
        with contextlib.redirect_stdout(io.StringIO()):
            rc_sim = cli.main(
                ["simulate", "-c", str(self.config), "--out", str(out),
                 "--seed", str(self.sim_seed)] + (["--binary"] if binary else [])
            )
            rc_est = cli.main(
                ["estimate", str(out / ("coincidence" + ext)),
                 str(out / ("anticoincidence" + ext)),
                 "-c", str(self.config), "--out", str(out)]
            )
        return rc_sim, rc_est

    def record(self, k, inp, outcome):
        if isinstance(outcome, Failed):
            return outcome
        binary, out = inp
        files = {n: (out / n).read_bytes() if (out / n).exists() else None for n in CLI_PRODUCTS}
        return {"binary": binary, "rc": outcome, "files": files}

    def failures(self, records):
        first = {}
        flags = []
        for r in records:
            if isinstance(r, Failed):
                flags.append(True)
                continue
            ref = first.setdefault(r["binary"], r)
            flags.append(not cli_record_ok(r, ref, self.F_TONE, self.F_TOL))
        return flags

    def projection_cases(self):
        out = self.dir / "txt"
        return [ProjectionCase(
            streamio.read_stream(out / "coincidence.txt"),
            streamio.read_stream(out / "anticoincidence.txt"),
            1.0, 200.0, 1e-3,
        )]


def cli_record_ok(rec, ref, f_tone: float, f_tol: float) -> bool:
    """Exit codes 0, the tone found, and outputs identical to the reference repetition."""
    if rec["rc"] != (0, 0) or any(v is None for v in rec["files"].values()):
        return False
    if rec["files"] != ref["files"]:
        return False
    doc = json.loads(rec["files"]["reconstruction.json"])
    return any(abs(c["f_hat"] - f_tone) <= f_tol for c in doc["components"])


WORKLOADS = {w.name: w for w in (SweepHF, FalseAlarm, AdvantageLoss, CliRoundtrip)}
