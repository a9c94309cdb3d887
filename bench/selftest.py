"""Self-tests for the benchmark's own checks.

Run from the root of a source checkout:

    python3 bench/selftest.py

Each check prints one PASS/FAIL line; the exit code is the number of
failures. It shows that the exact-projection oracle agrees with qvibe's
exact projection, that the inexactness test catches a perturbed spectrum,
and that each workload's correctness check counts a deliberately wrong
result as a failure.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from types import SimpleNamespace

import run

ROOT = run._source_root()
run._import_qvibe(ROOT)

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from qvibe import estimate, metrology, simulate  # noqa: E402


def _stream(n_events: int, seed: int, t_exp: float = 1.0, tick: float = 100e-12):
    rng = np.random.default_rng(seed)
    ticks = np.sort(rng.integers(0, int(t_exp / tick), size=n_events))
    return simulate.TimestampStream("coincidence", ticks, tick, t_exp)


def check_oracle_matches_program():
    """On a non-uniform grid qvibe sums events directly; both must agree to 1e-9."""
    stream = _stream(3000, 1)
    freqs = np.sort(np.random.default_rng(2).uniform(0.0, 5e3, size=40))
    got = estimate.project_timestamps(stream, freqs, "hann")
    exact = oracle.exact_projection(stream, freqs)
    rel = float(np.max(np.abs(got - exact) / (np.abs(got) + np.abs(exact))))
    return rel <= 1e-9, f"max relative deviation {rel:.1e} (<=1e-9) on 40 non-uniform bins"


def check_perturbation_counts_as_inexact():
    stream_c, stream_a = _stream(2000, 3), _stream(2000, 4)
    freqs = np.linspace(0.0, 300.0, 64)
    exact = oracle.exact_combined(stream_c, stream_a, 1.0, freqs)
    kappa = float(np.sqrt(np.mean(np.abs(exact) ** 2)))
    bumped = exact.copy()
    bumped[::4] += 2e-6 * kappa
    small = exact + 0.5e-6 * kappa
    n_bumped = int(np.count_nonzero(oracle.inexact_mask(bumped, exact, kappa)))
    n_small = int(np.count_nonzero(oracle.inexact_mask(small, exact, kappa)))
    ok = n_bumped == 16 and n_small == 0
    return ok, f"{n_bumped}/16 bins off by 2e-6 kappa flagged, {n_small}/64 off by 5e-7 kappa"


def check_sweep_rejects_shifted_f_hat():
    f_true = 21e3 * 1.00142
    good = metrology.SweepPoint(21e3, f_true, True, f_true * (1 + 5e-5), 0.0, 2e-8, 1)
    shifted = metrology.SweepPoint(21e3, f_true, True, f_true * (1 + 2e-4), 0.0, 2e-8, 1)
    missed = metrology.SweepPoint(21e3, f_true, False, math.nan, math.nan, math.nan, 0)
    flags = workloads.SweepHF(0, ROOT).failures([good, shifted, missed])
    return flags == [False, True, True], f"flags for good/shifted/undetected: {flags}"


def check_false_alarm_counts_exceptions_only():
    flags = workloads.FalseAlarm(0, ROOT).failures([0, 1, workloads.Failed(ValueError("x"))])
    return flags == [False, False, True], f"flags for quiet/detection/raised: {flags}"


def check_advantage_budgets():
    def outcome(q_pp, c_pp):
        return SimpleNamespace(truth_pp=1.0, quantum_pp=q_pp, classical_pp=c_pp)

    good = workloads.advantage_pair_ok(outcome(1.02, 1.08), outcome(1.04, 0.69))
    drift = workloads.advantage_pair_ok(outcome(1.02, 1.08), outcome(1.10, 0.69))
    classical = workloads.advantage_pair_ok(outcome(1.02, 1.08), outcome(1.04, 0.85))
    ok = good and not drift and not classical
    return ok, f"pass/quantum-disagree/classical-too-good: {good}/{drift}/{classical}"


def check_cli_rejects_changed_byte():
    workdir = ROOT / ".bench_work" / "selftest"
    try:
        wl = workloads.CliRoundtrip(0, workdir)
        inp = wl.inputs(0)
        rec = wl.record(0, inp, wl.expose(inp))
        spectrum = bytearray(rec["files"]["spectrum.csv"])
        spectrum[len(spectrum) // 2] ^= 0x01
        tampered = {**rec, "files": {**rec["files"], "spectrum.csv": bytes(spectrum)}}
        failed_exit = {**rec, "rc": (0, 4)}
        flags = wl.failures([rec, rec, tampered, failed_exit])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    ok = flags == [False, False, True, True]
    return ok, f"flags for reference/repeat/changed byte/exit 4: {flags}"


def check_benchmark_json_matches_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    names = {w["name"] for w in doc["workloads"]}
    ok = e2e == run.END_TO_END and layers == run.PER_LAYER and names <= set(run.WORKLOAD_NAMES)
    return ok, "metric names and units, and workload names, match bench/run.py"


CHECKS = (
    check_oracle_matches_program,
    check_perturbation_counts_as_inexact,
    check_sweep_rejects_shifted_f_hat,
    check_false_alarm_counts_exceptions_only,
    check_advantage_budgets,
    check_cli_rejects_changed_byte,
    check_benchmark_json_matches_harness,
)


def main() -> int:
    failures = 0
    for check in CHECKS:
        ok, detail = check()
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {check.__name__}: {detail}")
    return failures


if __name__ == "__main__":
    sys.exit(main())
