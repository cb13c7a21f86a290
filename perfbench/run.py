"""Benchmark entry point.

    python3 perfbench/run.py --workload {search,ingest} \
        --seed N --seconds S --trace {0,1}

Runs the workload in a child process of its own session under a
wall-clock limit (the hang guard), relays the child's output to stderr
and prints the child's one-line JSON result as the last line of
stdout.  A child that runs past the limit is killed with its whole
process group (Ray's daemons included); the run then counts as failed
and the stage it was in is named.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("search", "ingest")
LIMIT_S = 165.0  # every run must end within 180 s
# Ray's Unix socket paths are its temp dir plus up to 64 bytes (session
# name with a 7-digit pid, socket file) and must fit in 107 bytes.
MAX_RAY_DIR = 40


def _kill_group(pgid: int) -> None:
    """SIGKILL the process group and wait (bounded) until it is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _ray_dir(work: str) -> tuple[str, bool]:
    """Ray's temp dir and whether this run made it.  Inside the checkout
    when its path is short enough for Ray's sockets; otherwise a private
    dir under a short system temp dir, removed when the run ends (never
    Ray's shared default, which another user may own)."""
    inside = os.path.join(work, "ray")
    if len(inside) <= MAX_RAY_DIR:
        return inside, False
    for base in ("/tmp", "/var/tmp", "/dev/shm"):
        try:
            return tempfile.mkdtemp(prefix="perfbench-", dir=base), True
        except OSError:
            continue
    return inside, False  # Ray then fails in stage ray_init, which is named


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "refimage_ray")):
        print("perfbench: the engine package refimage_ray/ is not next to "
              "perfbench/", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench")
    os.makedirs(work, exist_ok=True)
    stage_file = os.path.join(work, f"stage-{os.getpid()}")
    env = dict(os.environ)
    # Ray worker processes import the engine from the checkout root
    env["PYTHONPATH"] = ROOT + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PERFBENCH_STAGE_FILE"] = stage_file
    env.setdefault("RAY_DEDUP_LOGS", "0")
    # the run must not reach outside the machine (Ray's usage reporting)
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    # Ray's memory monitor kills workers when the whole host runs short,
    # which on a shared host says nothing about this program
    env["RAY_memory_monitor_refresh_ms"] = "0"
    ray_dir, made_ray_dir = _ray_dir(work)
    env["PERFBENCH_RAY_DIR"] = ray_dir
    # temp files (Ray's fallback object store among them) stay in it too
    tmp = os.path.join(ray_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = env["RAY_TMPDIR"] = tmp
    env.pop("RAY_ADDRESS", None)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace)]
    # a terminated benchmark still takes its process group down with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             start_new_session=True, text=True)
    out: dict = {"last": None}

    def relay() -> None:
        for line in child.stdout:
            if line.startswith("{") and '"correct"' in line:
                out["last"] = line.strip()
            else:
                sys.stderr.write(line)

    reader = threading.Thread(target=relay, daemon=True)
    reader.start()
    timed_out = False
    try:
        child.wait(timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        _kill_group(child.pid)
        child.wait()
        reader.join(timeout=5)
        if made_ray_dir:
            shutil.rmtree(ray_dir, ignore_errors=True)
    last = out["last"]
    stage = "?"
    if os.path.exists(stage_file):
        with open(stage_file) as f:
            stage = f.read().strip() or "?"
        os.remove(stage_file)
    if timed_out:
        print(f"perfbench: hang guard: run exceeded {LIMIT_S:.0f} s in stage "
              f"{stage!r}; counted as failed", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 3
    if child.returncode != 0 or last is None:
        print(f"perfbench: workload process failed (exit {child.returncode}) "
              f"in stage {stage!r}", file=sys.stderr)
        return 1
    print(last)
    return 0


if __name__ == "__main__":
    sys.exit(main())
