"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload catalog|explore|ingest \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line carries every end-to-end metric
of BENCHMARK.json, with ``--trace 1`` every per-layer metric.  The line
before it is the run record (seed, host, flush policy, archive sizes,
request mix).  See NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("catalog", "explore", "ingest")

E2E_UNITS = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "server_cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "ingest_points_per_s": "points/s",
    "ingest_cpu_ms_per_kpoint": "ms",
    "cold_read_p50_ms": "ms",
    "reopen_s": "s",
    "wal_bytes_per_point": "bytes",
    "archive_bytes_per_point": "bytes",
}


def source_id(root: str) -> str:
    """The git SHA when the checkout is a repository, else a hash of the
    program's source tree."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return "src-sha1:" + digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    workdir = os.path.join(
        root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.workload == "ingest":
            import ingest

            result = ingest.run(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            import served

            result = served.run(
                args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Exception:
        traceback.print_exc()
        print(f"perfbench: run failed; logs kept in {workdir}", file=sys.stderr)
        return 1
    finally:
        from measure import Child

        Child.kill_all()
    shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        from layers import PER_LAYER_UNITS as units
    else:
        units = E2E_UNITS
    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(f"perfbench: metric set mismatch: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "source": source_id(root),
        **result["record"],
        "failed_frac": result["failed"] / result["attempted"],
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
