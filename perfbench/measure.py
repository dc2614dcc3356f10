"""Measurement helpers shared by the workloads: percentiles, /proc
readers, child-process control, the host-speed probe and the
reopen-and-verify step."""

from __future__ import annotations

import bisect
import json
import math
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
CLK_TCK = os.sysconf("SC_CLK_TCK")

#: A percentile needs at least this many samples above it to be reported.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    pass


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation, refused
    unless at least :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(samples)
    if n == 0 or n * (1.0 - q) < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{100 * q:g} of {n} samples has fewer than {MIN_BEYOND} beyond it"
        )
    return fixed_work_quantile(samples, q)


def fixed_work_quantile(samples: list[float], q: float) -> float:
    """Linear-interpolation quantile without the tail-sample rule.  Used
    only where a run is a fixed list of operations whose cost trends
    with archive size (ingest), so the value summarises that fixed work
    rather than estimating a tail."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q
    lo = math.floor(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of ``pid`` from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


class Child:
    """One child process speaking the line protocol of ``child.py``.

    Every child started is tracked so :meth:`kill_all` can reap the ones
    an error path left running."""

    started_children: list["Child"] = []

    def __init__(self, args: list[str], log_path: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
        self._log = open(log_path, "wb")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, CHILD] + args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, env=env,
        )
        self.pid = self.proc.pid
        Child.started_children.append(self)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for raw in self.proc.stdout:
            self._lines.put(raw.decode("utf-8", "replace").rstrip("\n"))
        self._lines.put(None)

    def expect(self, tag: str, timeout: float = 120.0) -> dict:
        """Wait for the next message; it must carry ``tag``."""
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"child {self.pid}: no {tag} within {timeout}s")
        if line is None:
            raise RuntimeError(
                f"child {self.pid} exited before {tag} (see {self._log.name})")
        got, _, payload = line.partition(" ")
        if got != tag:
            raise RuntimeError(f"child {self.pid}: expected {tag}, got {line[:200]}")
        return json.loads(payload)

    def next_message(self, timeout: float = 120.0) -> tuple[str, dict]:
        line = self._lines.get(timeout=timeout)
        if line is None:
            raise RuntimeError(f"child {self.pid} exited (see {self._log.name})")
        tag, _, payload = line.partition(" ")
        return tag, json.loads(payload)

    def send(self, command: str) -> None:
        self.proc.stdin.write((command + "\n").encode())
        self.proc.stdin.flush()

    def close_stdin(self) -> None:
        self.proc.stdin.close()

    def kill(self) -> None:
        """SIGKILL and reap."""
        if self.proc.poll() is None:
            os.kill(self.pid, signal.SIGKILL)
        self.proc.wait(timeout=30)
        self._close()

    @classmethod
    def kill_all(cls) -> None:
        for child in cls.started_children:
            if child.proc.returncode is None:
                child.kill()

    def wait(self, timeout: float = 60.0) -> None:
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        self._close()

    def _close(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except (OSError, ValueError):
                pass
        self._reader.join(timeout=5)
        self._log.close()


#: CPU seconds ``child.reference_slice`` takes at the host's nominal
#: speed (its typical time on an idle reference box).
REF_NOMINAL_S = 0.001
#: Probe samples within this many seconds of an interval count for it.
PROBE_PAD_S = 0.5


class HostSpeed:
    """Samples of the host-speed probe.

    The reference box is a virtual machine whose CPU speed swings between
    1.0x and 1.9x of its best with other tenants' load, in phases of
    seconds to a minute, and CPU time swings with it.  A time measured
    over ``[start, end]`` is multiplied by :meth:`scale` to express it at
    nominal host speed: the ratio of the probe slice's nominal time to
    its median time around that interval.  The probe runs the
    benchmark's own code, never the program's, so a change to the
    program cannot move the scale."""

    def __init__(self, samples: list[tuple[float, float]]):
        self.times = [t for t, _ in samples]
        self.slices = [d for _, d in samples]

    def scale(self, start: float, end: float, pad: float = PROBE_PAD_S) -> float:
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        if lo == hi:
            raise RuntimeError(f"no host-speed samples near [{start}, {end}]")
        return REF_NOMINAL_S / statistics.median(self.slices[lo:hi])

    def seconds(self, interval: list[float]) -> float:
        """Length of ``interval`` at nominal host speed."""
        return (interval[1] - interval[0]) * self.scale(*interval)


class HostProbe:
    """The probe process (``child.py probe``), running for a whole run."""

    def __init__(self, workdir: str):
        self.child = Child(["probe"], os.path.join(workdir, "probe.log"))

    def stop(self) -> HostSpeed:
        self.child.close_stdin()
        samples = self.child.expect("SAMPLES", timeout=60)["samples"]
        self.child.wait()
        return HostSpeed(samples)


@dataclass
class SetUp:
    child: "Child"
    ready: dict
    url: str
    archive_dir: str
    #: [spawn, READY] per set-up, monotonic seconds
    intervals: list[list[float]]
    builds: list[dict]


def set_up(mode: str, plan_path: str, workdir: str, spans_path: Optional[str],
           setups: int) -> SetUp:
    """Spawn ``setups`` children one after another, each building a fresh
    archive, and time each from spawn to READY.  All but the last are
    SIGKILLed; the last one is returned running."""
    intervals, builds, child = [], [], None
    for attempt in range(setups):
        if child is not None:
            child.kill()
        archive_dir = os.path.join(workdir, f"archive{attempt}")
        os.makedirs(archive_dir)
        url = "minisql:///" + os.path.join(archive_dir, "perfdmf.mdb")
        args = [mode, plan_path, url] + (["--trace", spans_path] if spans_path else [])
        child = Child(args, os.path.join(workdir, f"{mode}{attempt}.log"))
        ready = child.expect("READY", timeout=300)
        intervals.append([child.started, time.monotonic()])
        builds.append(ready["build"])
    return SetUp(child, ready, url, archive_dir, intervals, builds)


def reopen_and_verify(url: str, trials: dict[str, object], analyses: list[int],
                      cold_reads: list[str], workdir: str, copies: int = 1) -> dict:
    """Reopen the archive after its writer was SIGKILLed, each time in a
    fresh process, and check every acknowledged trial and saved analysis
    (see ``child.verify``), then time the first ``load_datasource`` of
    each trial named in ``cold_reads``.  With ``copies`` > 1 the crashed
    archive is first copied byte for byte and every copy is reopened.

    Returns the failures found in the original, its row count, and per
    copy the [start, end] of its reopen and of each cold read."""
    archive_dir, archive_name = os.path.split(url[len("minisql:///"):])
    dirs = [archive_dir]
    for index in range(1, copies):
        dirs.append(shutil.copytree(archive_dir, f"{archive_dir}_copy{index}"))
    plan_path = os.path.join(workdir, "verify.json")
    with open(plan_path, "w") as fh:
        json.dump({
            "trials": {name: [t.points, t.exclusive_sum] for name, t in trials.items()},
            "analyses": analyses,
            "cold_reads": cold_reads,
        }, fh)
    results = []
    for index, directory in enumerate(dirs):
        child = Child(
            ["verify", plan_path, "minisql:///" + os.path.join(directory, archive_name)],
            os.path.join(workdir, f"verify{index}.log"))
        try:
            results.append(child.expect("RESULT", timeout=170))
        finally:
            child.wait()
    return {"copies": results, "failures": results[0]["failures"],
            "archive_rows": results[0]["archive_rows"]}
