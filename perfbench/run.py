"""drfs benchmark: one workload, one closed loop, one JSON result line.

    python3 perfbench/run.py --workload verify_gate --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One client in one process runs one op after another for ``--seconds``
seconds, after set-up and one warm-up op.  Every op is checked (see
``workloads.py``); a failed op is counted, never timed.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced and traced ops: the traced ops give the
per-layer metrics from spans, and the two medians give the tracing
overhead.  Earlier stdout lines carry the environment, the run summary
and (traced) the full per-layer table; the last line is the result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = 1  # fixed before numpy loads; at most nproc on any machine
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_TARGET_S = 1.0  # cheap set-ups repeat until they have used this much time
TAIL_BEYOND = 10

# op_s_p50 is reported on the summary line only: on a host that switches
# between a fast, erratic state and a slow, steady one, the median follows
# the share of time spent in each and moved 13-31 % between runs of the same
# code, while the tail (the slow state) moved 6-13 %
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_tail": "s",
    "fits_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metrics measured on every workload; these form the result line
PER_LAYER_UNITS = {
    "solver.fit_s": "s",
    "solver.fit_calls": "count",
    "solver.fit_iterations": "count",
    "solver.s_per_iteration": "s",
    "solver.x_gb_per_s_computed": "GB/s",
    "losses.calls": "count",
    "losses.s": "s",
    "uncertainty.s": "s",
    "bench.self_s": "s",
    "trace.overhead_s": "s",
}


class RssSampler:
    """Highest resident set size seen while active, sampled from /proc/self/statm.

    The process-wide high-water mark would report set-up's peak, which at
    these sizes exceeds any op's.
    """

    def __init__(self, interval_s: float = 0.005):
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _sample(self, handle) -> None:
        handle.seek(0)
        self.peak_bytes = max(self.peak_bytes, int(handle.read().split()[1]) * self._page)

    def _run(self) -> None:
        with open("/proc/self/statm", "rb", buffering=0) as handle:
            self._sample(handle)
            while not self._stop.wait(self.interval_s):
                self._sample(handle)
            self._sample(handle)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            raise RuntimeError("RSS sampler thread did not stop")


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  Below 2 * TAIL_BEYOND + 1
    samples that percentile would lie at or below the median, so the
    maximum is returned instead, with its true count beyond (0).
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > 2 * TAIL_BEYOND else n - 1
    percentile = 100.0 * k / (n - 1) if n > 1 else 100.0
    return ordered[k], percentile, n - 1 - k


def llc_info() -> dict:
    """Last-level cache as reported under /sys for the CPUs this process may use."""
    instances: dict[str, int] = {}
    level = 0
    for cpu in sorted(os.sched_getaffinity(0)):
        base = Path(f"/sys/devices/system/cpu/cpu{cpu}/cache")
        best = None
        for index in sorted(base.glob("index*")):
            try:
                lvl = int((index / "level").read_text())
                kind = (index / "type").read_text().strip()
                size = (index / "size").read_text().strip()
                shared = (index / "shared_cpu_list").read_text().strip()
            except OSError:
                continue
            if kind != "Instruction" and (best is None or lvl > best[0]):
                best = (lvl, size, shared)
        if best is not None:
            level = best[0]
            units = {"K": 1024, "M": 1024 ** 2}
            size = best[1]
            nbytes = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
            instances[best[2]] = nbytes
    return {"level": level, "bytes_per_instance": max(instances.values(), default=None),
            "instances": len(instances), "bytes_total": sum(instances.values()) or None}


def blas_info(np) -> dict:
    info = {"threads_requested": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["threads"] = fn()
                return info
    return info


def environment(np, seed: int, workload: str, shape: dict) -> dict:
    import scipy

    llc = llc_info()
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_info(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "llc": llc,
        "seed": seed,
        "workload": workload,
        "inputs": shape,
    }
    if llc["bytes_total"]:
        sizes = [p["x_bytes"] for p in shape.get("problems", shape.get("files", []))]
        env["largest_x_over_llc"] = max(sizes) / llc["bytes_total"]
    return env


class Runner:
    """Set-up, warm-up and the closed loop of checked ops for one workload."""

    def __init__(self, workload, state, calls, tracer=None):
        self.workload = workload
        self.state = state
        self.calls = calls
        self.tracer = tracer
        self.reference: bytes | None = None
        self.untraced_s: list[float] = []
        self.traced_s: list[float] = []
        self.traced_ops: list[int] = []
        self.fits: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.warmup_s: float | None = None

    def op(self, index: int, traced: bool) -> None:
        from workloads import CheckFailed  # imports numpy: only after main() fixed BLAS threads

        self.attempted += 1
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.op(index):
                    digest, fits = self.workload.op(self.state, self.calls)
            else:
                digest, fits = self.workload.op(self.state, self.calls)
            elapsed = time.perf_counter() - start
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                raise CheckFailed("output bytes differ from an earlier op of this run")
        except Exception as exc:  # the loop must go on; the failure is counted
            self.failures.append(f"op {index}: {type(exc).__name__}: {exc}")
            return
        if index == 0:
            self.warmup_s = elapsed
        elif traced:
            self.traced_s.append(elapsed)
            self.traced_ops.append(index)
        else:
            self.untraced_s.append(elapsed)
            self.fits.append(fits)

    def run(self, seconds: float) -> None:
        self.op(0, traced=False)
        index = 1
        deadline = time.perf_counter() + seconds
        while index < 2 or time.perf_counter() < deadline or (self.tracer and index < 3):
            self.op(index, traced=self.tracer is not None and index % 2 == 0)
            index += 1


def timed_setups(workload, seed: int, sizes, workdir: Path):
    times = []
    state = None
    while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_TARGET_S and len(times) < SETUP_MAX_REPEATS):
        state = None  # release the previous inputs before building the next
        start = time.perf_counter()
        state = workload.setup(seed, sizes, workdir)
        times.append(time.perf_counter() - start)
    return state, times


def layer_table(table, runner: Runner, shape: dict) -> dict:
    """Every per-layer metric, as the median over traced ops (None = never called)."""
    import numpy as np

    def med(names=(), layer=None, parent_layer=None, values=None):
        mask = table.mask(names, layer, parent_layer)
        return table.per_op_median(mask, table.duration if values is None else values(mask))

    def count(names=(), layer=None, parent_layer=None):
        return med(names, layer, parent_layer, lambda m: np.ones(table.duration.size))

    def attr_sum(names, key, parent_layer=None):
        return med(names, None, parent_layer, lambda m: table.attr(m, key))

    fit = ("solver.fit_weighted_erm",)
    parse = ("data.parse_libsvm", "data.parse_csv")
    m = {
        "data.parse_s": med(parse),
        "data.standardize_s": med(("data.standardize",)),
        "solver.lambda_max_s": med(("solver.lambda_max",)),
        "solver.fit_s": med(fit),
        "solver.fit_calls": count(fit),
        "solver.fit_iterations": attr_sum(fit, "iterations"),
        "screening.build_reference_s": med(("screening.build_reference",)),
        "screening.screen_s": med(("screening.screen",)),
        "screening.screen_calls": count(("screening.screen",)),
        "uncertainty.max_linear_s": med(("uncertainty.max_linear",)),
        "uncertainty.sample_s": med(("uncertainty.sample_feasible",)),
        "uncertainty.s": med(layer="uncertainty"),
        "losses.calls": count(layer="losses", parent_layer="solver"),
        "losses.s": med(layer="losses", parent_layer="solver"),
        "oracle.verify_s": med(("oracle.verify_no_false_elimination",)),
        "oracle.resolves": count(fit, parent_layer="oracle"),
        "oracle.resolve_iterations": attr_sum(fit, "iterations", parent_layer="oracle"),
        "oracle.inconclusive": attr_sum(("oracle.verify_no_false_elimination",), "inconclusive"),
    }
    file_bytes = sum(f["file_bytes"] for f in shape.get("files", []))
    m["data.parse_mb_per_s"] = (file_bytes / 1e6 / m["data.parse_s"]
                                if m["data.parse_s"] and file_bytes else None)
    fit_mask = table.mask(fit)
    resolve_mask = table.mask(fit, parent_layer="oracle")
    m["oracle.resolve_s_p50"] = (float(np.median(table.duration[resolve_mask]))
                                 if resolve_mask is not None else None)
    if fit_mask is not None:
        fit_total = float(table.duration[fit_mask].sum())
        iterations = table.attr(fit_mask, "iterations")
        x_bytes = table.attr(fit_mask, "x_bytes")
        total_it = float(iterations.sum())
        m["solver.s_per_iteration"] = fit_total / total_it if total_it else None
        m["solver.x_gb_per_s_computed"] = (float((2.0 * x_bytes * iterations).sum())
                                           / fit_total / 1e9)
    else:
        m["solver.s_per_iteration"] = m["solver.x_gb_per_s_computed"] = None
    screen_mask = table.mask(("screening.screen",))
    m["screening.removed_ratio"] = (
        float(table.attr(screen_mask, "removed_ratio")[screen_mask].mean())
        if screen_mask is not None else None)
    for layer in ("bench", "cli", "oracle", "screening", "solver", "losses", "uncertainty",
                  "data"):
        mask = (table.layer == layer) & table.valid
        m[f"{layer}.self_s"] = (table.per_op_median(mask, table.self_time)
                                if np.any(mask) else None)
    op_wall = sum(runner.traced_s)
    m["trace.accounted_share"] = (float(table.self_time[table.valid].sum()) / op_wall
                                  if op_wall else None)
    m["trace.op_s_p50"] = statistics.median(runner.traced_s)
    m["trace.untraced_op_s_p50"] = statistics.median(runner.untraced_s)
    m["trace.overhead_s"] = m["trace.op_s_p50"] - m["trace.untraced_op_s_p50"]
    return dict(sorted(m.items()))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_gate", "screen_wide", "grid_cli"))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 keeps the acceptance gate's data (default 0)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "drfs" / "__init__.py").is_file():
        sys.stderr.write(f"error: no drfs sources under {src}\n")
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import numpy as np

    import drfs
    if Path(drfs.__file__).resolve().parent != (src / "drfs").resolve():
        sys.stderr.write(f"error: imported drfs from {drfs.__file__}, not {src}\n")
        return 2
    from spans import SpanTable, Tracer
    from workloads import FULL, TINY, WORKLOADS, bench_calls, trace_sites

    workload = WORKLOADS[args.workload]
    sizes = TINY if args.tiny else FULL
    workdir = OUT_DIR / args.workload
    state, setup_times = timed_setups(workload, args.seed, sizes, workdir)
    shape = workload.shape(state)
    print(json.dumps({"environment": environment(np, args.seed, args.workload, shape)}))

    calls = bench_calls()
    tracer = Tracer(trace_sites(calls)) if args.trace else None
    runner = Runner(workload, state, calls, tracer)
    with RssSampler() as rss:
        runner.run(args.seconds)

    failed = len(runner.failures)
    measured = runner.untraced_s
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "attempted": runner.attempted, "failed": failed,
        "op_fail_ratio": failed / runner.attempted, "failures": runner.failures[:5],
        "setup_s_each": setup_times, "warmup_op_s": runner.warmup_s,
        "ops_timed": len(measured), "ops_traced": len(runner.traced_s),
        "op_s_each": measured,
    }
    metrics: dict[str, float | None]
    if args.trace:
        table = SpanTable(tracer, runner.traced_ops)
        full = layer_table(table, runner, shape) if runner.traced_s and measured else {}
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.npz"
        tracer.save(spans_path)
        print(json.dumps({"per_layer_all": full, "missing_wrappers": tracer.missing,
                          "spans": len(tracer.start),
                          "spans_file": str(spans_path.relative_to(ROOT))}))
        metrics = {name: full.get(name) for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        value, percentile, beyond = tail(measured) if measured else (None, None, None)
        summary.update(
            op_s_p50={"value": statistics.median(measured) if measured else None, "unit": "s"},
            op_s_tail_percentile=percentile, op_s_tail_samples=len(measured),
            op_s_tail_beyond=beyond)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s_tail": value,
            "fits_per_s": statistics.median(runner.fits) / value if measured else None,
            "peak_rss_mb": rss.peak_bytes / 1e6,
        }
        units = END_TO_END_UNITS
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
