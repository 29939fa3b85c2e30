"""waferforge benchmark: commissioning and calibration, timed from outside.

    python3 bench/run.py --workload commission_golden --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy. Workloads
(the wafer of repetition ``r`` has master seed ``seed + 1000 * r``):

  commission_golden  commission() + exclusion_report() on golden-scenario wafers
  commission_dense   the same on a write-heavy random defect set
  calibrate_hicann   calibrate_hicann() of hicann 0 over circuits 0, 8, ..., 504

Repetitions run one after another in this single-threaded process until
``--seconds`` have passed (at least one). Every op's output is checked;
an op that raises or fails its check counts as failed.

With ``--trace 0`` the last line carries the end-to-end metrics (all host
time, never the modelled hardware time of the memory test):

  setup_s      median over 5 fresh interpreters of one set-up from scratch:
               importing waferforge, warming the topology caches, generating
               the defect set, building the wafer and its hidden truth and,
               for calibration, the commission() that supplies availability
  op_ref       median over ops of the op time (wafer_s on commission_*,
               calibrate_s on calibrate_hicann) divided by the mean time of a
               fixed reference kernel that a timer signal runs every 0.1 s,
               over the ticks within 0.2 s of the op: op time in kernel units
  peak_rss_mb  peak resident memory of this process

On a shared machine, co-tenants slow every core by up to 1.5x for seconds
at a time (measured on a 2-vCPU VM), which moves raw medians by up to 30 %
between runs; the reference kernel slows with them, so op_ref stays within
a few percent. The kernel's time is taken out of every timing (about 1 %).

With ``--trace 1`` the first half of the time runs untraced and the second
half traced; the last line carries the per-layer metrics of the traced ops
(see layers.py) and the tracing overhead, traced over untraced op_ref.

Earlier lines print every metric by name and unit, including the raw
wafer_s / calibrate_s, wafer_tail_s, failed_frac and the calibration
accuracy, plus the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUPS = 5
REF_INTERVAL_S = 0.1
REF_PAD_S = 0.2  # ticks this close to an op also describe the machine's speed during it


class RefClock:
    """Times a fixed reference kernel (~1 ms) on every SIGALRM tick.

    The kernel, 150 small numpy expressions, is interpreter and dispatch
    bound like the simulator's inner loops; of the kernels tried (a pure
    Python loop, set churn, random list reads) it tracked the machine's
    speed swings best. ``spent`` is the total time the ticks took, to be
    taken out of any interval measured while the clock runs.
    """

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (start, duration)
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        x = self._x
        for _ in range(150):
            x = self._np.exp(-x / 3.0) + x * 0.5
        self.ticks.append((t0, time.perf_counter() - t0))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        import numpy

        self._np, self._x = numpy, numpy.arange(64.0)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args):
        """``fn(*args)``, its start, and its duration without the ticks inside it."""
        spent, t0 = self.spent, time.perf_counter()
        result = fn(*args)
        return result, t0, time.perf_counter() - t0 - (self.spent - spent)

    def kernel_s(self, t0: float, t1: float) -> float:
        """Mean kernel time of the ticks within REF_PAD_S of [t0, t1].

        A mean, not a median: the kernel's times are bimodal (a fast and a
        contended mode) and the mean follows their mix.
        """
        near = [d for t, d in self.ticks if t0 - REF_PAD_S <= t <= t1 + REF_PAD_S]
        return statistics.fmean(near) if near else math.nan


CLOCK = RefClock()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("commission_golden", "commission_dense", "calibrate_hicann"))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: 0, 0 and 3 respectively)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "waferforge" / "__init__.py").is_file():
        print(f"error: no waferforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    setup_s = [time_setup_in_child(args.workload, seed) for _ in range(SETUPS)]
    wl = workloads.WORKLOADS[args.workload](seed)
    warm_topology(wl.cfg)
    print("# env " + json.dumps(environment()))
    print(f"# workload {wl.name} seed {seed}: {wl.why}")
    CLOCK.start()
    try:
        if args.trace:
            runs, metrics = traced_runs(wl, args.seconds)
        else:
            runs, metrics = [measure(wl, args.seconds)], {}
    finally:
        CLOCK.stop()

    report = end_to_end(wl, runs[0], setup_s)
    for name, (value, unit, note) in report.items():
        print(f"{name:<20} {value:>14.6g} {unit:<6} {note}")
    print("# detail " + json.dumps(runs[0].quality or {}, sort_keys=True))
    problems = [p for run in runs for p in run.problems]
    for problem in problems[:10]:
        print(f"# FAILED {problem}")
    if len(problems) > 10:
        print(f"# FAILED ... {len(problems) - 10} more")
    if not args.trace:
        metrics = {k: {"value": report[k][0], "unit": report[k][1]}
                   for k in ("setup_s", "op_ref", "peak_rss_mb")}
    metrics = {k: v for k, v in metrics.items() if math.isfinite(v["value"])}
    attempted = sum(len(r.op_s) + r.raised for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_runs(wl, seconds: float):
    """Untraced, then traced; per-layer metrics of the traced half."""
    from tracer import Stats, Tracer
    import layers

    plain = measure(wl, seconds / 2)
    tracer = Tracer(layers.PROBES)
    tracer.install()
    op_stats, setup_stats = Stats(), Stats()
    try:
        traced = measure(wl, seconds / 2, tracer, op_stats, setup_stats)
    finally:
        tracer.uninstall()
    metrics, gone = layers.layer_metrics(op_stats, len(traced.op_s), setup_stats,
                                         traced.setups, tracer.missing, tracer.absent)
    if gone:
        print("# absent " + json.dumps(sorted(gone)))
    quality = traced.quality or {}
    metrics["calibration.valid_frac"] = {"value": quality.get("calib_valid_frac", 0.0),
                                         "unit": "ratio"}
    metrics["calibration.target_err"] = {"value": quality.get("calib_target_err", 0.0),
                                         "unit": "ratio"}
    # compared in reference-kernel units, so that a change of machine speed
    # between the halves does not read as overhead
    overhead = traced.op_ref() / plain.op_ref() - 1.0
    metrics["trace.overhead_s"] = {"value": overhead * median(plain.op_s), "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return [plain, traced], metrics


def time_setup_in_child(workload: str, seed: int) -> float:
    """Seconds of one set-up from scratch, timed inside a fresh interpreter."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
            f"print(run.setup_once({workload!r}, {seed}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    return float(out.split()[-1])


def setup_once(workload: str, seed: int) -> float:
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    warm_topology(wl.cfg)
    wl.setup(0)
    return time.perf_counter() - t0


class Measurement:
    def __init__(self):
        self.setups = 0
        self.op_s: list[float] = []
        self.op_spans: list[tuple[float, float]] = []  # (start, end) of each timed op
        self.raised = 0  # ops that raised (no time recorded)
        self.failed = 0  # ops that raised or failed their check
        self.problems: list[str] = []
        self.quality: dict | None = None

    def op_ref(self) -> float:
        """Median over ops of op time / reference kernel time around it."""
        rel = [dt / CLOCK.kernel_s(t0, t1) for dt, (t0, t1) in zip(self.op_s, self.op_spans)]
        return median([r for r in rel if math.isfinite(r)])


def measure(wl, seconds: float, tracer=None, op_stats=None, setup_stats=None) -> Measurement:
    """Repeat set-up + op until ``seconds`` have passed (at least once)."""
    def call(fn, arg, stats):
        return fn(arg) if tracer is None else tracer.run(stats, fn, arg)

    m = Measurement()
    start = time.perf_counter()
    rep = 0
    while rep == 0 or time.perf_counter() - start < seconds:
        ctx = call(wl.setup, rep, setup_stats)
        m.setups += 1
        try:
            result, t0, dt = CLOCK.timed(call, wl.op, ctx, op_stats)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            m.raised += 1
            m.failed += 1
            m.problems.append(f"rep {rep}: {type(exc).__name__}: {exc}")
        else:
            m.op_s.append(dt)
            m.op_spans.append((t0, time.perf_counter()))
            try:
                problems = wl.check(ctx, result)
                if m.quality is None and hasattr(wl, "quality"):
                    m.quality = wl.quality(ctx, result)
            except Exception as exc:  # output the check cannot read is not verified
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                m.failed += 1
                m.problems += [f"rep {rep}: {p}" for p in problems]
            del result  # the next op must not run beside this one's output
        del ctx
        rep += 1
    return m


def end_to_end(wl, m: Measurement, setup_s: list[float]) -> dict:
    """name -> (value, unit, note) for every end-to-end metric of the run."""
    attempted = len(m.op_s) + m.raised
    spread = ""
    if len(m.op_s) >= 4:
        q1, _, q3 = statistics.quantiles(m.op_s, n=4)
        spread = f", quartiles {q1:.4g}/{q3:.4g}"
    out = {
        "setup_s": (median(setup_s), "s", f"median of {len(setup_s)} fresh set-ups"),
        wl.op_metric: (median(m.op_s), "s", f"median of {len(m.op_s)} ops{spread}"),
        "op_ref": (m.op_ref(), "ref", f"median of {wl.op_metric} / reference kernel time "
                                      f"({len(CLOCK.ticks)} ticks)"),
    }
    tail = tail_percentile(m.op_s)
    if wl.op_metric == "wafer_s" and tail:
        pct, value, beyond = tail
        out["wafer_tail_s"] = (value, "s", f"p{pct} of {len(m.op_s)} wafers, "
                                            f"{beyond} beyond it")
    if m.quality:
        out["calib_valid_frac"] = (m.quality["calib_valid_frac"], "ratio",
                                   "valid / attempted (circuit, op) entries")
        out["calib_target_err"] = (m.quality["calib_target_err"], "rel_rms",
                                   "vs the simulator's hidden truth; unvalidated "
                                   "against real hardware")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = (rss_kb / 1024.0, "MB", "whole process")
    out["failed_frac"] = (m.failed / attempted, "ratio", f"{m.failed} of {attempted} ops")
    return out


def tail_percentile(samples: list[float]):
    """Highest of p50/p75/p90/p95/p99 with >= 10 samples beyond it."""
    if len(samples) < 2:
        return None
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    for pct in (99, 95, 90, 75, 50):
        value = cuts[pct - 1]
        beyond = sum(1 for s in samples if s > value)
        if beyond >= 10:
            return pct, value, beyond
    return None


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def warm_topology(cfg) -> None:
    """Build the topology's lazily cached grid and switch fabric."""
    for h in range(cfg.n_hicanns):
        cfg.neighbors(h)
    cfg.drivers_on_bus(0)


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + str(deps[k].get("version", ""))
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


if __name__ == "__main__":
    sys.exit(main())
