"""qeckit benchmark: one closed-loop client driving the CLI and library in-process.

    python3 perfbench/run.py --workload verify|fidelity_memory --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/``; without
it the benchmark exits with code 1 and prints no result. One process runs
one client that issues the next operation only when the previous one has
returned; workloads run one after another, never concurrently.

``--trace 0`` sets the workload up three times (``setup_s`` is the median),
then repeats full passes for ``--seconds`` seconds, at least two, and
reports the end-to-end metrics: medians over passes. ``--trace 1`` sets up
once and repeats, until ``--seconds`` have passed and at least once, a pass
traced for time, an untraced pass and a pass traced for memory; it reports
the per-layer metrics (medians) and both tracing overheads. The first pass
after set-up tends to run slowest, so it is a traced one: the reported
overhead errs high rather than negative. Every
output is checked against the benchmark's own oracles and against the first
pass byte for byte; a mismatch counts as a failed operation.

The last line of standard output is the JSON result; a readable summary,
the environment record and any failures go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
MIN_PASSES = 2
# On a shared two-core machine a second BLAS thread made the phase7 memory run
# about 4% faster but tripled its pass-to-pass spread.
BLAS_THREADS = 1

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mib", "MiB"))


def load_program():
    """Import qeckit from the checkout's ``src/``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "qeckit" / "__init__.py").is_file():
        sys.exit(f"error: no program at {src / 'qeckit'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import qeckit
    import qeckit.cli  # noqa: F401  (the workloads call qeckit.cli.main)

    if Path(qeckit.__file__).resolve().parent != (src / "qeckit").resolve():
        sys.exit(f"error: imported qeckit from {qeckit.__file__}, not from {src}")
    return qeckit


def declared_metrics(trace: bool) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _blas_threads(numpy) -> tuple[int | None, str | None]:
    """(thread count, library file) of numpy's bundled OpenBLAS, if it has one."""
    libs = sorted(glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(handle, name, None)
            if get is not None:
                return int(get()), os.path.basename(lib)
    return None, None


def pin_mmap_threshold() -> bool:
    """Hold glibc's mmap threshold at its 128 KiB default for this process.

    glibc raises the threshold after the first large block is freed, so later
    passes would reuse warm heap pages that a fresh CLI process never has
    (phase7's first ``fidelity`` pass was 37% slower than the rest). Pinned,
    every pass allocates its large arrays the way the first one does.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    return libc.mallopt(-3, 128 * 1024) == 1  # -3 is M_MMAP_THRESHOLD


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads, lib = _blas_threads(numpy)
    available = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    available = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": lib,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_available_mib_at_start": available,
    }


@contextlib.contextmanager
def scratch_dir(name: str):
    """A directory in the checkout for generated inputs and outputs, removed afterwards."""
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


class Ledger:
    """Attempted and failed operations; a failure is any checker problem or a changed output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] = {}
        self.problems: list[tuple[str, list[str]]] = []

    def record(self, name: str, problems: list[str], fingerprint: str | None) -> None:
        self.attempted += 1
        if fingerprint is not None and self.first.setdefault(name, fingerprint) != fingerprint:
            problems = problems + ["output differs from the first pass"]
        if problems:
            self.failed += 1
            self.problems.append((name, problems))


def run_pass(ops, ledger: Ledger) -> dict[str, float]:
    """Run every operation once; returns seconds per command group.

    Each operation is timed alone; reading its output files and checking
    its output happen outside the timed interval.
    """
    gc.collect()
    groups: dict[str, float] = {}
    for op in ops:
        for path in op.outputs:
            if os.path.exists(path):
                os.remove(path)
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception:
            groups[op.group] = groups.get(op.group, 0.0) + time.perf_counter() - start
            sys.stderr.write(f"{op.name} raised:\n{traceback.format_exc()}")
            ledger.record(op.name, ["raised an exception"], None)
            continue
        groups[op.group] = groups.get(op.group, 0.0) + time.perf_counter() - start
        for path in op.outputs:
            result.files[path] = Path(path).read_bytes() if os.path.exists(path) else None
        ledger.record(op.name, op.check(result), op.fingerprint(result))
    return groups


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, when there are that many."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10  # samples at or below the percentile
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def summarize(name: str, unit: str, samples: list[float]) -> str:
    line = f"  {name:<14} median {statistics.median(samples):.6g} {unit}  (n={len(samples)})"
    tail = tail_percentile(samples)
    if tail is not None:
        line += f"  p{tail[0]:.0f} {tail[1]:.6g} {unit}"
    return line


def measure(qk, setup, work: Path, seed: int, seconds: float, ledger: Ledger) -> dict:
    setups = []
    for _ in range(SETUPS):
        ops = None  # free the previous set-up's inputs before making new ones
        gc.collect()
        start = time.perf_counter()
        ops = setup(qk, work, seed)
        setups.append(time.perf_counter() - start)

    passes: list[dict[str, float]] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, ledger))

    totals = [sum(p.values()) for p in passes]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stderr.write("end-to-end:\n" + summarize("setup_s", "s", setups) + "\n")
    for group in sorted(passes[0]):
        sys.stderr.write(summarize(f"{group}_s", "s", [p.get(group, 0.0) for p in passes]) + "\n")
    sys.stderr.write(summarize("pass_s", "s", totals) + "\n")
    sys.stderr.write(f"  peak_rss_mib   {peak:.6g} MiB\n")
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(totals),
        "peak_rss_mib": peak,
    }


def measure_traced(qk, setup, work: Path, seed: int, seconds: float, ledger: Ledger) -> dict:
    def traced_pass(memory: bool):
        tracer = Tracer(memory)
        tracer.install(modules, targets)
        try:
            return tracer.spans, run_pass(ops, ledger)
        finally:
            tracer.uninstall()

    ops = setup(qk, work, seed)
    modules, targets = layers.targets(qk)
    rows = []
    start = time.perf_counter()
    while not rows or time.perf_counter() - start < seconds:
        spans, groups = traced_pass(memory=False)
        untraced = sum(run_pass(ops, ledger).values())
        memory_spans, memory_groups = traced_pass(memory=True)
        passes = {"untraced": untraced, "traced": sum(groups.values()), "memory": sum(memory_groups.values())}
        rows.append(layers.layer_metrics(spans, memory_spans, groups, passes))
    metrics = {name: statistics.median(row[name] for row in rows) for name, _ in layers.PER_LAYER}
    sys.stderr.write(f"per-layer ({len(rows)} traced passes):\n")
    for name, unit in layers.PER_LAYER:
        sys.stderr.write(f"  {name:<38} {metrics[name]:.6g} {unit}\n")
    sys.stderr.write("self time by command, last traced pass:\n")
    for command, by_layer in layers.self_by_command(spans).items():
        parts = ", ".join(f"{layer} {own:.4g}" for layer, own in sorted(by_layer.items()))
        sys.stderr.write(f"  {command:<11} {sum(by_layer.values()):.6g} s = {parts}\n")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # read once, when numpy loads
    qk = load_program()
    import workloads  # after the thread variables: it loads numpy

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    units = dict(layers.PER_LAYER if trace else END_TO_END)
    if declared_metrics(trace) != list(units):
        sys.exit("error: the metrics this harness reports do not match BENCHMARK.json")
    os.environ.pop("QEC_TOL", None)  # the workloads run at the CLI's default tolerance

    env = environment()
    env["mmap_threshold_pinned"] = pin_mmap_threshold()
    sys.stderr.write(f"environment: {json.dumps(env, sort_keys=True)}\n")
    ledger = Ledger()
    with scratch_dir(args.workload) as work:
        run = measure_traced if trace else measure
        metrics = run(qk, workloads.WORKLOADS[args.workload], work, args.seed, args.seconds, ledger)

    for name, problems in ledger.problems[:20]:
        sys.stderr.write(f"FAILED {name}: {'; '.join(problems)}\n")
    rate = ledger.failed / ledger.attempted
    sys.stderr.write(f"  error_rate     {rate:.6g} ({ledger.failed} failed of {ledger.attempted} attempted)\n")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
