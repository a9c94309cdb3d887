"""qvibe benchmark: seeded workloads through the public entry points.

Run from the root of a source checkout:

    python3 bench/run.py                                  # all workloads
    python3 bench/run.py --workload sweep_hf --seed 3 --seconds 12 --trace 0
    python3 bench/run.py --workload cli_roundtrip --trace 1   # per-layer run

Each workload runs in its own process, single-threaded (``max_workers=1``,
``QVIBE_THREADS`` must be unset). ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` times half the run untraced and half with every
layer wrapped, and reports per-layer metrics and the tracing overhead.
The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("sweep_hf", "false_alarm", "advantage_loss", "cli_roundtrip")
SETUP_PROBES = 5
P90_MIN_SAMPLES = 100

# name -> unit, for the end-to-end and per-layer metrics in BENCHMARK.json.
END_TO_END = {
    "exposure_s_p50": "s",
    "exposures_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "simulate.self_s": "s",
    "simulate.events": "count",
    "simulate.events_per_s": "1/s",
    "simulate.keep_ratio": "ratio",
    "estimate.project.self_s": "s",
    "estimate.project.event_bins": "count",
    "estimate.project.event_bins_per_s": "1/s",
    "estimate.project.inexact_fraction": "ratio",
    "estimate.threshold.self_s": "s",
    "estimate.scan.self_s": "s",
    "estimate.scan.seeds": "count",
    "estimate.refine.self_s": "s",
    "estimate.refine.calls": "count",
    "estimate.refine.unconverged": "count",
    "estimate.refine.dc_skipped": "count",
    "estimate.phase_amp.self_s": "s",
    "estimate.phase_amp.calls": "count",
    "estimate.reconstruct.self_s": "s",
    "estimate.reconstruct.trace_samples": "count",
    "estimate.pipeline.self_s": "s",
    "estimate.components_per_seed": "ratio",
    "streamio.write.self_s": "s",
    "streamio.read.self_s": "s",
    "streamio.bytes_written": "B",
    "streamio.bytes_read": "B",
    "streamio.text.read_mb_per_s": "MB/s",
    "streamio.binary.read_mb_per_s": "MB/s",
    "config.self_s": "s",
    "cli.self_s": "s",
    "metrology.self_s": "s",
    "qvibe.import_s": "s",
    "simulate.import_s": "s",
    "estimate.import_s": "s",
    "streamio.import_s": "s",
    "config.import_s": "s",
    "cli.import_s": "s",
    "metrology.import_s": "s",
    "trace.exposure_s_mean": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "QVIBE_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _source_root() -> Path:
    """The checkout being measured: the working directory, holding src/qvibe."""
    root = Path.cwd().resolve()
    if not (root / "src" / "qvibe" / "__init__.py").is_file():
        raise BenchError(f"no qvibe source tree at {root / 'src' / 'qvibe'}; run from a checkout root")
    return root


def _import_qvibe(root: Path):
    sys.path.insert(0, str(root / "src"))
    import qvibe

    if Path(qvibe.__file__).resolve().parent != root / "src" / "qvibe":
        raise BenchError(f"imported qvibe from {qvibe.__file__}, not from {root / 'src'}")
    return qvibe


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment_record(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(root),
    }


# ----- measurement -----


@dataclass
class Loop:
    """One timed loop, with each exposure's speed factor.

    ``times`` are the raw exposure times; ``slots`` add the harness work
    around each exposure (inputs and record), so their sum is the loop's
    wall time without the reference bursts. ``factors`` take each
    exposure to nominal speed, from the two bursts around it.
    """

    cycle: int
    times: list = field(default_factory=list)
    slots: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    bursts: list = field(default_factory=list)

    def scaled(self) -> list:
        return [t * f for t, f in zip(self.times, self.factors)]

    def cycle_means(self) -> list:
        c, scaled = self.cycle, self.scaled()
        return [statistics.fmean(scaled[i:i + c]) for i in range(0, len(scaled), c)]

    def p50(self) -> float:
        return statistics.median(self.cycle_means())

    def per_s(self) -> float:
        """Closed-loop throughput at nominal speed."""
        return len(self.slots) / sum(s * f for s, f in zip(self.slots, self.factors))


def timed_loop(wl, seconds: float, k0: int, records: list, tracer=None) -> Loop:
    """Closed loop of whole cycles until ``seconds`` have passed.

    Reference bursts run before the first exposure, after the last, and
    between exposures at least every ``REF_INTERVAL_S``. Exposure i of
    the loop has label ``wl.labels[(k0 + i) % wl.cycle]``.
    """
    from workloads import Failed

    loop = Loop(wl.cycle)
    ref = speed.Reference()
    before = []  # index of the last burst before each exposure
    k = k0
    start = time.perf_counter()
    loop.bursts.append(ref.burst())
    last_ref = time.perf_counter()
    while True:
        for _ in range(wl.cycle):
            s0 = time.perf_counter()
            inp = wl.inputs(k)
            if tracer is not None:
                tracer.label = wl.labels[k % wl.cycle]
            t0 = time.perf_counter()
            try:
                out = wl.expose(inp)
            except Exception as exc:  # a raising exposure is a counted failure
                out = Failed(exc)
            t1 = time.perf_counter()
            records.append(wl.record(k, inp, out))
            loop.times.append(t1 - t0)
            loop.slots.append(time.perf_counter() - s0)
            before.append(len(loop.bursts) - 1)
            k += 1
            if t1 - last_ref >= speed.REF_INTERVAL_S:
                loop.bursts.append(ref.burst())
                last_ref = time.perf_counter()
        if time.perf_counter() - start >= seconds:
            break
    if before[-1] == len(loop.bursts) - 1:
        loop.bursts.append(ref.burst())
    loop.factors = [speed.factor(loop.bursts[b], loop.bursts[b + 1]) for b in before]
    return loop


def setup_seconds(args) -> list[float]:
    """Fresh-process time to the first exposure being ready, at nominal speed.

    Each probe is a new interpreter that imports qvibe, builds the
    workload's inputs and says "ready"; reference bursts bracket it.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    ref = speed.Reference()
    before = ref.burst()
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if line.strip() != "ready" or rc != 0:
            raise BenchError(f"setup probe failed (exit {rc}, said {line.strip()!r})")
        after = ref.burst()
        times.append(elapsed * speed.factor(before, after))
        before = after
    return times


def projection_inexact(wl) -> tuple[int, int]:
    import oracle
    from qvibe import estimate

    bad = total = 0
    for case in wl.projection_cases():
        b, n = oracle.projection_check(estimate, case)
        bad, total = bad + b, total + n
    return bad, total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, loop: Loop, untraced: Loop, inexact: float):
    """Per-exposure layer metrics of the traced loop; self times are raw seconds."""
    from spans import IMPORT_LAYERS, LAYERS

    n = len(loop.times)
    s, c = tracer.self_s, tracer.counts
    m = {f"{layer}.self_s": s[layer] / n for layer in LAYERS}
    m.update({
        "simulate.events": c["simulate.events"] / n,
        "simulate.events_per_s": _ratio(c["simulate.events"], s["simulate"]),
        "simulate.keep_ratio": _ratio(c["simulate.events"], c["simulate.candidates"]),
        "estimate.project.event_bins": c["estimate.project.event_bins"] / n,
        "estimate.project.event_bins_per_s": _ratio(
            c["estimate.project.event_bins"], s["estimate.project"]),
        "estimate.project.inexact_fraction": inexact,
        "estimate.scan.seeds": c["estimate.scan.seeds"] / n,
        "estimate.refine.calls": c["estimate.refine.calls"] / n,
        "estimate.refine.unconverged": c["estimate.refine.unconverged"] / n,
        # refine_frequency raises for a seed within one grid step of DC, which
        # the pipeline then keeps unrefined.
        "estimate.refine.dc_skipped": c["estimate.refine.raised"] / n,
        "estimate.phase_amp.calls": c["estimate.phase_amp.calls"] / n,
        "estimate.reconstruct.trace_samples": c["estimate.reconstruct.trace_samples"] / n,
        "estimate.components_per_seed": _ratio(
            c["estimate.pipeline.components"], c["estimate.pipeline.seeds"]),
        "streamio.bytes_written": c["streamio.bytes_written"] / n,
        "streamio.bytes_read": c["streamio.bytes_read"] / n,
        "streamio.text.read_mb_per_s": _ratio(
            c["streamio.text.bytes_read"] / 1e6, c["streamio.text.read_s"]),
        "streamio.binary.read_mb_per_s": _ratio(
            c["streamio.binary.bytes_read"] / 1e6, c["streamio.binary.read_s"]),
        "trace.exposure_s_mean": statistics.fmean(loop.times),
        "trace.overhead_s": loop.p50() - untraced.p50(),
        "trace.self_sum_s": sum(s[layer] for layer in LAYERS) / n,
    })
    for module in IMPORT_LAYERS:
        short = module.split(".")[-1]
        m[f"{short}.import_s"] = s[f"{short}.import"]
    return m


def report_layers(tag, tracer, metrics, times, by_label):
    from spans import LAYERS

    mean = statistics.fmean(times)
    print(f"{tag} traced {len(times)} exposures, mean {mean:.6g} s; counter hooks"
          f" {tracer.hook_s / len(times):.3g} s per exposure")
    for name, unit in PER_LAYER.items():
        share = ""
        if name.endswith(".self_s"):
            share = f"  ({100 * metrics[name] / mean:.1f}% of exposure)"
        print(f"{tag} {name} = {metrics[name]:.6g} {unit}{share}")
    for label, ts in by_label.items():
        shares = sorted(
            ((tracer.by_label[label, layer] / sum(ts), layer) for layer in LAYERS), reverse=True)
        top = ", ".join(f"{layer} {100 * share:.1f}%" for share, layer in shares[:4])
        print(f"{tag} {label}: largest self-time shares: {top}")


def _result_line(failed_flags, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": not any(failed_flags),
        "attempted": len(failed_flags),
        "failed": int(sum(failed_flags)),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def run_workload(args, root: Path) -> int:
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.trace_imports()
    _import_qvibe(root)
    import workloads

    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        tag = f"[{wl.name}]"
        print(f"{tag} env {json.dumps(environment_record(root), sort_keys=True)}")
        print(f"{tag} why: {wl.why}")
        records: list = []
        if tracer is None:
            loop = timed_loop(wl, args.seconds, 0, records)
            rss = peak_rss_mb()
            setups = setup_seconds(args)
        else:
            untraced = timed_loop(wl, args.seconds / 2, 0, records)
            tracer.install()
            try:
                loop = timed_loop(wl, args.seconds / 2, len(records), records, tracer)
            finally:
                tracer.uninstall()
        bad, checked = projection_inexact(wl)
        flags = wl.failures(records)
        by_label = {label: loop.times[i::wl.cycle] for i, label in enumerate(wl.labels)}
        for label, ts in by_label.items():
            print(f"{tag} {label}: raw exposure_s_p50 = {statistics.median(ts):.6g} s"
                  f" ({len(ts)} exposures)")
        print(f"{tag} failed_fraction = {sum(flags) / len(flags):.6g} ratio"
              f" ({sum(flags)} of {len(flags)})")
        print(f"{tag} projection_inexact_fraction = {bad / checked:.6g} ratio"
              f" ({bad} of {checked} sampled bins off the exact sum by > 1e-6 kappa)")
        if tracer is not None:
            metrics = layer_metrics(tracer, loop, untraced, bad / checked)
            report_layers(tag, tracer, metrics, loop.times, by_label)
            print(_result_line(flags, metrics, PER_LAYER))
            return 0
        metrics = {
            "exposure_s_p50": loop.p50(),
            "exposures_per_s": loop.per_s(),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }
        samples = loop.cycle_means()
        n = len(loop.times)
        print(f"{tag} reference bursts: median {statistics.median(loop.bursts):.6g} s of"
              f" {len(loop.bursts)}, nominal {speed.REF_NOMINAL_S} s; times below are at"
              f" nominal speed")
        print(f"{tag} exposure_s_p50 = {metrics['exposure_s_p50']:.6g} s ({len(samples)}"
              f" samples, each the mean of a {wl.cycle}-exposure cycle; {n} exposures;"
              f" raw {statistics.median(loop.times):.6g} s)")
        if len(samples) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(samples, n=10)[-1]
            print(f"{tag} exposure_s_p90 = {p90:.6g} s ({len(samples)} samples)")
        else:
            print(f"{tag} exposure_s_p90 = n/a ({len(samples)} samples < {P90_MIN_SAMPLES})")
        print(f"{tag} exposures_per_s = {metrics['exposures_per_s']:.6g} 1/s ({n} exposures"
              f" in {sum(loop.slots):.3f} s raw, reference bursts excluded; closed loop,"
              f" one worker)")
        print(f"{tag} setup_s = {metrics['setup_s']:.6g} s (median of {len(setups)} fresh"
              f" processes: {', '.join(f'{t:.3f}' for t in setups)})")
        print(f"{tag} peak_rss_mb = {rss:.6g} MB")
        print(_result_line(flags, metrics, END_TO_END))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()


def run_all(args) -> int:
    """Every workload, each in its own process, then one status line each."""
    status, summary = 0, []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode or result is None or not result["correct"]:
            status = 1
        summary.append(f"{name}: exit {proc.returncode}, " + (
            "no result" if result is None else
            f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"))
    print("\n".join(summary))
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if os.environ.get("QVIBE_THREADS") is not None:
            raise BenchError("QVIBE_THREADS is set; the benchmark measures one worker, unset it")
        root = _source_root()
        if args.workload == "all":
            return run_all(args)
        return run_workload(args, root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
