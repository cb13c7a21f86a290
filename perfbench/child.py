"""Workload process: ``child.py WORKLOAD SEED SECONDS TRACE`` (started
by ``run.py``, which enforces the wall-clock limit)."""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def main() -> None:
    workload, seconds, trace = sys.argv[1], int(sys.argv[3]), sys.argv[4] == "1"
    # numpy seeds must not be negative, and the seed's digits go into the
    # terms planted in added documents
    seed = int(sys.argv[2]) % (1 << 63)
    run = common.Run(workload, seed, seconds, trace)
    try:
        import wl_serve

        wl_serve.run_workload(run, ingest=workload == "ingest")
    finally:
        try:
            import ray

            if ray.is_initialized():
                ray.shutdown()
        except ImportError:
            pass
        run.cleanup()


if __name__ == "__main__":
    main()
