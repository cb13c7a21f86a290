"""Shared plumbing for the workload processes: the work directory, Ray
start-up, the stage marker the hang guard reads, the host record and
small statistics helpers."""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_BASE = os.path.join(ROOT, ".perfbench")

# Ray logical CPUs.  The host may have a single core; 4 logical CPUs
# keeps the engine's (min, max) actor pools from starving the read
# tasks that feed them (see README.md, known engine defects).
RAY_CPUS = 4
# Ray's object store.  Set, not left to Ray's default (30 % of the
# host's memory): the runs move a few MB through it, and on a host with
# much memory and a small /dev/shm Ray refuses to start with the default.
OBJECT_STORE_BYTES = 256 << 20


def pin_one_cpu() -> int:
    """Pin this process, and so everything it starts later, to one CPU.

    Used for the serving phase: on the VM this benchmark was written on
    (4 vCPUs, about one core of capacity) a closed-loop client and a
    server on two vCPUs pay a vCPU wake-up on every request, and the
    run-to-run spread of request latency was several times larger."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Run:
    """One workload process: its work dir, stage marker and result."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = os.path.join(WORK_BASE, "work", f"{workload}-{seed}-{trace:d}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.stage_file = os.environ.get("PERFBENCH_STAGE_FILE")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.record: dict = {}
        self.t0 = time.perf_counter()

    def stage(self, name: str) -> None:
        """Name the current stage; the hang guard reports it on timeout."""
        print(f"perfbench: {time.perf_counter() - self.t0:7.2f}s stage {name}",
              file=sys.stderr, flush=True)
        if self.stage_file:
            with open(self.stage_file, "w") as f:
                f.write(name)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def ray_start() -> tuple[float, str]:
    """Start a local Ray instance; returns (seconds, temp dir used).

    ``run.py`` picks the temp dir (``PERFBENCH_RAY_DIR``): Ray puts its
    Unix sockets there, and their paths must fit in 107 bytes."""
    import ray

    tmp = os.environ.get("PERFBENCH_RAY_DIR") or os.path.join(WORK_BASE, "ray")
    os.makedirs(tmp, exist_ok=True)
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=RAY_CPUS, object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR", log_to_driver=False,
             _temp_dir=tmp)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    return time.perf_counter() - t0, tmp


def host_record(run: Run, extra: dict) -> dict:
    import numpy
    import pyarrow
    import ray

    mem_kb = None
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
    except OSError:
        pass
    rec = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": run.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "mem_gib": round(mem_kb / 2**20, 2) if mem_kb else None,
        "ray_logical_cpus": RAY_CPUS, "ray_object_store_bytes": OBJECT_STORE_BYTES,
        "python": sys.version.split()[0],
        "platform": platform.platform(), "ray": ray.__version__,
        "pyarrow": pyarrow.__version__, "numpy": numpy.__version__,
    }
    rec.update(extra)
    return rec


def dir_bytes(path: str) -> int:
    total = 0
    for dp, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dp, f))
    return total


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def pct(xs, p: float) -> float:
    """Nearest-rank percentile (p in 0..100) of a non-empty sample."""
    s = sorted(xs)
    if not s:
        return 0.0
    k = max(0, min(len(s) - 1, int(-(-p * len(s) // 100)) - 1))
    return float(s[k])


def write_result(run: Run, result: dict, details: dict) -> str:
    out_dir = os.path.join(WORK_BASE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{run.workload}-seed{run.seed}-trace{run.trace:d}.json")
    with open(path, "w") as f:
        json.dump({"result": result, "host": run.record, "problems": run.problems,
                   **details}, f, indent=1, default=str)
    return path


E2E_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "rss_mb": "MB"}


def emit_e2e(run: Run, setup_s: float, throughput: float, lat_ms: list, rss_mb: float,
             checks_ok: bool, named: dict, details: dict) -> None:
    """End-to-end result.  ``named`` holds the workload's own headline
    figures (name → (value, unit)), printed to stderr and kept in the
    result file next to the five shared metrics."""
    for k, (v, u) in named.items():
        print(f"perfbench: {run.workload}: {k} = {v:.6g} {u}", file=sys.stderr)
    metrics = {"setup_s": setup_s, "throughput_per_s": throughput,
               "latency_p50_ms": median(lat_ms), "latency_p90_ms": pct(lat_ms, 90),
               "rss_mb": rss_mb}
    for k, v in metrics.items():
        print(f"perfbench: {run.workload}: {k} = {v:.6g} {E2E_UNITS[k]}", file=sys.stderr)
    emit(run, metrics, E2E_UNITS, checks_ok,
         {"named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}, **details})


def emit(run: Run, metrics: dict, units: dict, checks_ok: bool, details: dict) -> None:
    """Print the one-line result (last line of stdout) and write the
    result file next to it."""
    result = {
        "correct": bool(checks_ok and run.failed == 0),
        "attempted": int(max(run.attempted, 1)),
        "failed": int(run.failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    write_result(run, result, details)
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
