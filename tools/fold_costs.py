"""Time the grid transform's series terms at every fold the fold rule weighs,
and fit the cost model that rule ranks the folds by.

For each benchmark grid, two streams of uniform event times with Hann
weights (the second times -1) are folded once per fold of
``_fold_table(m)``, and serial ``_grid_terms`` is timed there, best of
``--repeat`` runs after one that builds the series table. The transform
consumes its folded parts, so each run folds fresh copies, untimed, and
each timed run's output must equal the first run's bit for bit. The
model is

    time / terms = _TERM_S + _TERM_EVENT_S * events + c(n) * n log2 n,

with c(n) one constant up to 2^15 and one per fold from 2^16 to 2^19
(``_TERM_FFT_S`` by log2 n). It is fitted by relative least squares over
every timed fold. Each timed fold's row gives the terms ``_grid_terms``
transforms per rfft call there (``group``: several on a small grid, one
where a spectrum outgrows ``_GROUP_BYTES``), since the model charges each
term the same fixed cost however its calls are grouped. For each grid it
prints the fastest timed fold, the fold the package's rule picks, and
the one it would pick with the fit;
then the fit as the package's two lines of constants, which
``qvibe.estimate`` holds as one sitting printed them. A constant no
timed fold reaches prints as the package's. The per-term and per-event
costs separate only across grids of different event counts, so one grid
alone gives no usable fit, only the timings. Last, one term's rfft and
the zeroing of its n-bin row of moments are timed alone at each fold from
2^16 to 2^20, per n log2 n, for comparison with c(n):

    python3 tools/fold_costs.py                          # all three grids
    python3 tools/fold_costs.py --grid false_alarm --repeat 3
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from qvibe import estimate

# name: (t_exp in s, f_max in Hz, events), as the benchmark's workloads scan.
GRIDS = {
    "false_alarm": (1.0, 200.0, 2_000),
    "cli_roundtrip": (1.0, 200.0, 190_000),
    "sweep_hf": (5.0, 22e3, 1_000_000),
}
_SMALL_LOG = 15  # c(n) is one constant up to 2^15, then one per fold
_LARGE_LOGS = range(16, len(estimate._TERM_FFT_S))


def _column(n: int) -> int:
    """The c(n) unknown of fold n: 0 up to 2^15, then 1, 2, ... from 2^16."""
    log = n.bit_length() - 1
    return 0 if log <= _SMALL_LOG else min(log, _LARGE_LOGS[-1]) - _SMALL_LOG


def time_grid(t_exp: float, f_max: float, events: int, repeat: int, seed: int = 0):
    """Rows (m, events, n, terms, best seconds) of serial ``_grid_terms`` at each weighed fold."""
    rng = np.random.default_rng(seed)
    m = estimate.frequency_grid(t_exp, f_max).size
    df = estimate.grid_spacing(t_exp)
    parts = []
    for size, scale in ((events // 2, 1.0), (events - events // 2, -1.0)):
        t = np.sort(rng.uniform(-t_exp / 2, t_exp / 2, size))
        parts.append((t, scale * estimate.window_weights(t, t_exp, "hann")))
    rows = []
    for n, terms, _ in estimate._fold_table(m):

        def folded(n=n):  # _grid_terms takes the folded parts, so each call gets a fresh fold
            return [estimate._fold(t.copy(), w.copy(), df * n, n) for t, w in parts]

        first = estimate._grid_terms(folded(), m, n, t_exp, None)  # builds the series table
        best = math.inf
        for _ in range(repeat):
            fresh = folded()
            start = time.perf_counter()
            y = estimate._grid_terms(fresh, m, n, t_exp, None)
            best = min(best, time.perf_counter() - start)
            if y.tobytes() != first.tobytes():
                raise AssertionError(f"{m} bins, fold {n}: a timed run differs from the first")
        rows.append((m, events, n, terms, best))
    return rows


def rfft_costs(repeat: int, logs=range(16, 21)):
    """{log2 n: seconds per n log2 n} of one rfft and one n-bin row zeroed, best of ``repeat``."""
    costs = {}
    for log in logs:
        n = 1 << log
        x, head = np.random.default_rng(log).standard_normal(n), np.empty(n // 2 + 1, complex)
        row = np.empty(n)
        best = math.inf
        for _ in range(repeat + 1):  # the first run pages the buffers in
            start = time.perf_counter()
            np.fft.rfft(x, out=head)
            row.fill(0.0)
            best = min(best, time.perf_counter() - start)
        costs[log] = best / (n * log)
    return costs


def fit(rows):
    """(_TERM_S, _TERM_EVENT_S, _TERM_FFT_S) by relative least squares over ``rows``."""
    unknowns = 3 + len(_LARGE_LOGS)
    design, target = [], []
    for _, events, n, terms, seconds in rows:
        per_term = seconds / terms
        row = np.zeros(unknowns)
        row[0], row[1] = 1.0, events
        row[2 + _column(n)] = n * math.log2(n)
        design.append(row / per_term)
        target.append(1.0)
    design = np.array(design)
    solution = np.linalg.lstsq(design, np.array(target), rcond=None)[0]
    fft = list(estimate._TERM_FFT_S)
    reached = design.any(axis=0)
    if reached[2]:
        fft[: _SMALL_LOG + 1] = [solution[2]] * (_SMALL_LOG + 1)
    for j, log in enumerate(_LARGE_LOGS, start=3):
        if reached[j]:
            fft[log] = solution[j]
    return solution[0], solution[1], tuple(fft)


def _model(term_s, event_s, fft, events, n, terms):
    log = n.bit_length() - 1
    return terms * (term_s + event_s * events + fft[min(log, len(fft) - 1)] * n * log)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", choices=sorted(GRIDS), action="append",
                        help="a benchmark grid to time (repeatable; default all three)")
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per fold (best kept)")
    args = parser.parse_args(argv)
    names = args.grid or list(GRIDS)
    rows = []
    for name in names:
        rows += time_grid(*GRIDS[name], max(1, args.repeat))
    term_s, event_s, fft = fit(rows)
    print(f"{'m':>8} {'events':>9} {'n':>8} {'terms':>5} {'group':>5} {'ms':>9}"
          f" {'ms/term':>8} {'fitted':>8}")
    for m, events, n, terms, seconds in rows:
        model = _model(term_s, event_s, fft, events, n, terms)
        group = min(terms, estimate._term_group(m, n))
        print(f"{m:8d} {events:9d} {n:8d} {terms:5d} {group:5d} {seconds * 1e3:9.3f}"
              f" {seconds * 1e3 / terms:8.4f} {model * 1e3:8.3f}")
    for m, events in dict.fromkeys((m, events) for m, events, *_ in rows):
        timed = [(seconds, n) for m_, e_, n, terms, seconds in rows if (m_, e_) == (m, events)]
        fitted = min((_model(term_s, event_s, fft, events, n, terms), n)
                     for m_, e_, n, terms, _ in rows if (m_, e_) == (m, events))
        print(f"{m} bins, {events} events: fastest fold {min(timed)[1]},"
              f" the rule picks {estimate._fold_size(m, events)}, and {fitted[1]} with the fit")
    if len({events for _, events, *_ in rows}) < 2:
        print("one event count: the per-term and per-event costs are not separable")
    large = ", ".join(f"{c:.3g}" for c in fft[_SMALL_LOG + 1:])
    print(f"_TERM_S, _TERM_EVENT_S = {term_s:.3g}, {event_s:.3g}")
    print(f"_TERM_FFT_S = ({fft[0]:.3g},) * {_SMALL_LOG + 1} + ({large})  # by log2 n")
    alone = rfft_costs(max(1, args.repeat))
    print("rfft and row zeroing alone, ns per n log2 n: "
          + ", ".join(f"2^{log} {c * 1e9:.3f}" for log, c in alone.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
