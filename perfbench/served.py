"""The served workloads, ``catalog`` and ``explore``: a PerfExplorer server
child over a file-backed MiniSQL archive, driven by a closed loop of two
client connections from this process."""

from __future__ import annotations

import json
import os
import random
import threading
import time

import inputs
import layers
from measure import (
    Child, HostProbe, dir_bytes, median, percentile, proc_cpu_seconds,
    proc_peak_rss_mb, reopen_and_verify, set_up,
)
from oracle import Oracle
from tracing import SpanRecorder, self_times

CONNECTIONS = 2
SETUPS = 3
#: Byte copies of the crashed archive reopened, each in a fresh process:
#: explore has only 4 trials, so its cold reads need several copies.
REOPENS = 6
#: Trials read cold from each reopened copy.
COLD_READS = 8
#: A p95 needs 10 samples beyond it; a run slowed by a busy host keeps
#: going past ``--seconds`` until it has them.
MIN_SAMPLES = 220
WARMUP_S = 1.0
BIN_S = 2.0

CATALOG_MIX = (
    ("list_applications", 1), ("list_experiments", 1), ("list_trials", 2),
    ("list_metrics", 2), ("list_events", 2), ("list_analyses", 1),
    ("get_analysis", 1), ("ping", 1),
)
EXPLORE_MIX = (
    ("imbalance_chart", 30), ("describe_event", 25), ("correlate_events", 20),
    ("correlation_matrix", 15), ("cluster_trial", 10),
)


class Mix:
    """Draws (method, params) for one workload from a seeded RNG."""

    def __init__(self, workload: str, layout: dict, trials: dict, seed: int):
        self.layout = layout
        self.trial_ids = sorted(trials)
        self.events = trials[self.trial_ids[0]].events
        table = CATALOG_MIX if workload == "catalog" else EXPLORE_MIX
        self.methods = [m for m, _ in table]
        self.weights = [w for _, w in table]
        self.matrix_events = random.Random(seed).sample(
            self.events, inputs.EXPLORE_MATRIX_EVENTS)

    def draw(self, rng: random.Random) -> tuple[str, dict]:
        method = rng.choices(self.methods, self.weights)[0]
        trial = rng.choice(self.trial_ids)
        apps = self.layout["applications"]
        if method == "list_experiments":
            return method, {"application": rng.choice(apps)["id"]}
        if method == "list_trials":
            exps = [e for a in apps for e in a["experiments"]]
            return method, {"experiment": rng.choice(exps)["id"]}
        if method in ("list_metrics", "list_events", "imbalance_chart"):
            return method, {"trial": trial}
        if method == "get_analysis":
            ids = sorted(self.layout["analyses"].values())
            return method, {"settings_id": rng.choice(ids)}
        if method == "describe_event":
            return method, {"trial": trial, "event": rng.choice(self.events)}
        if method == "correlate_events":
            x, y = rng.sample(self.events, 2)
            return method, {"trial": trial, "event_x": x, "event_y": y}
        if method == "correlation_matrix":
            return method, {"trial": trial, "events": self.matrix_events}
        if method == "cluster_trial":
            return method, {"trial": trial, "k": 2, "save": True}
        return method, {}


class Sample:
    __slots__ = ("method", "params", "start", "end", "error")

    def __init__(self, method, params, start, end, error):
        self.method, self.params = method, params
        self.start, self.end, self.error = start, end, error


def closed_loop(address, mix: Mix, oracle: Oracle, seed: int, seconds: float,
                saved: list, min_samples: int = 0) -> list[Sample]:
    """``CONNECTIONS`` clients, each sending its next request only after
    the previous reply arrived, for ``seconds`` and until ``min_samples``
    requests have completed."""
    from repro.explorer.client import AnalysisError, PerfExplorerClient
    from repro.explorer.protocol import ProtocolError

    samples: list[Sample] = []
    deadline = time.monotonic() + seconds

    def worker(index: int) -> None:
        rng = random.Random(seed * 1000 + index)
        client = PerfExplorerClient(*address, retry_later_attempts=0, timeout=120)
        try:
            while time.monotonic() < deadline or len(samples) < min_samples:
                method, params = mix.draw(rng)
                start = time.monotonic()
                try:
                    reply = client.call(method, **params)
                    error = None
                except (AnalysisError, ProtocolError, OSError) as exc:
                    reply, error = None, f"{method}: {type(exc).__name__}: {exc}"
                end = time.monotonic()
                if error is None:
                    error = oracle.check(method, params, reply)
                if error is None and method == "cluster_trial":
                    saved.append(reply["settings_id"])
                samples.append(Sample(method, params, start, end, error))
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples


def _plan(workload: str, seed: int, workdir: str) -> tuple[dict, str]:
    plan = inputs.served_plan(workload, seed, workdir)
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump({
            "applications": plan["applications"],
            "analyses": plan["analyses"],
            "files": {t.name: t.path for t in plan["trials"]},
        }, fh)
    return plan, plan_path


def _repeat_share(samples: list[Sample]) -> float:
    seen, repeats = set(), 0
    for s in sorted(samples, key=lambda s: s.start):
        key = (s.method, s.params.get("trial"))
        repeats += key in seen
        seen.add(key)
    return repeats / len(samples) if samples else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    probe = HostProbe(workdir)
    spans = os.path.join(workdir, "spans.json") if trace else None
    plan, plan_path = _plan(workload, seed, workdir)
    setup = set_up("serve", plan_path, workdir, spans, 1 if trace else SETUPS)
    child, ready = setup.child, setup.ready
    address = (ready["host"], ready["port"])
    layout = ready["layout"]
    by_name = {t.name: t for t in plan["trials"]}
    trials = {tid: by_name[name] for name, tid in layout["trial_ids"].items()}
    oracle = Oracle(trials, layout)
    mix = Mix(workload, layout, trials, seed)
    saved: list[int] = []
    record = {
        "synchronous": ready["synchronous"],
        "archive_rows_start": sum(t.points for t in plan["trials"]),
        "trials": len(trials),
        "trial_rows": sum(t.points for t in plan["trials"]) // len(trials),
    }
    try:
        closed_loop(address, mix, oracle, seed + 7, WARMUP_S, saved)
        if trace:
            return _traced(child, spans, probe, address, mix, oracle, seed,
                           seconds, saved, record)
        cpu0 = proc_cpu_seconds(child.pid)
        loop = [time.monotonic()]
        samples = closed_loop(address, mix, oracle, seed, seconds, saved,
                              min_samples=MIN_SAMPLES)
        loop.append(time.monotonic())
        cpu = proc_cpu_seconds(child.pid) - cpu0
        peak_rss = proc_peak_rss_mb(child.pid)
    finally:
        child.kill()
    verified = reopen_and_verify(
        setup.url, by_name,
        sorted(set(layout["analyses"].values()) | set(saved)),
        cold_reads=[t.name for t in plan["trials"][:COLD_READS]],
        workdir=workdir, copies=REOPENS)
    speed = probe.stop()
    failures = [s.error for s in samples if s.error] + verified["failures"]
    attempted = len(samples) + len(plan["trials"]) + len(saved) + len(layout["analyses"])
    # Loop metrics scale per BIN_S window: short enough to follow the
    # host's speed swings, long enough that each window's scale rests on
    # about 20 probe samples rather than on one.
    bins = max(1, int((loop[1] - loop[0]) // BIN_S))
    width = (loop[1] - loop[0]) / bins
    scales = [speed.scale(loop[0] + b * width, loop[0] + (b + 1) * width, pad=0.0)
              for b in range(bins)]
    scale_at = lambda t: scales[min(bins - 1, int((t - loop[0]) // width))]  # noqa: E731
    loop_scale = sum(scales) / bins
    ok = [s for s in samples if s.error is None]
    rtts = [1000.0 * (s.end - s.start) * scale_at(s.start) for s in ok]
    reopens = [speed.seconds(c["reopen_at"]) for c in verified["copies"]]
    colds = [speed.seconds(r) for c in verified["copies"] for r in c["cold_reads_at"]]
    setup_scales = [speed.scale(*i) for i in setup.intervals]
    builds = list(zip(setup.builds, setup_scales))
    metrics = {
        "setup_s": median([speed.seconds(i) for i in setup.intervals]),
        "req_per_s": len(ok) / ((loop[1] - loop[0]) * loop_scale),
        "latency_p50_ms": percentile(rtts, 0.5),
        "latency_p95_ms": percentile(rtts, 0.95),
        "server_cpu_ms_per_req": 1000.0 * cpu * loop_scale / len(samples),
        "peak_rss_mb": peak_rss,
        "ok_frac": 1.0 - len(failures) / attempted,
        "ingest_points_per_s": median(
            [b["points"] / (b["wall_s"] * k) for b, k in builds]),
        "ingest_cpu_ms_per_kpoint": median(
            [1e6 * b["cpu_s"] * k / b["points"] for b, k in builds]),
        "cold_read_p50_ms": 1000.0 * median(colds),
        "reopen_s": median(reopens),
        "wal_bytes_per_point": median(
            [b["wal_bytes"] / b["points"] for b in setup.builds]),
        "archive_bytes_per_point": dir_bytes(setup.archive_dir)
        / setup.builds[-1]["points"],
    }
    record.update({
        "archive_rows_end": verified["archive_rows"],
        "latency_samples": len(rtts),
        "requests_per_method": _per_method(samples),
        "repeat_share": _repeat_share(samples),
        "saved_analyses_acknowledged": len(saved),
        "host_scale": {"setups": setup_scales, "loop": loop_scale},
        "raw": {"setup_s": [i[1] - i[0] for i in setup.intervals],
                "loop_s": loop[1] - loop[0], "server_cpu_s": cpu},
        "failures": failures[:20],
    })
    return {"metrics": metrics, "attempted": attempted,
            "failed": len(failures), "record": record}


def _per_method(samples: list[Sample]) -> dict:
    counts: dict[str, int] = {}
    for s in samples:
        counts[s.method] = counts.get(s.method, 0) + 1
    return dict(sorted(counts.items()))


def _traced(child: Child, spans_path: str, probe: HostProbe, address, mix: Mix,
            oracle: Oracle, seed: int, seconds: float, saved: list,
            record: dict) -> dict:
    """Half the run untraced, half traced: per-layer metrics come from the
    traced half, the tracing overhead from comparing the halves at
    nominal host speed."""
    from repro.explorer import protocol
    from repro.explorer.client import PerfExplorerClient

    half = seconds / 2.0
    plain = closed_loop(address, mix, oracle, seed, half, saved)
    client_spans = SpanRecorder()
    client_spans.wrap(PerfExplorerClient, "call", "client.call")
    client_spans.wrap(protocol.MessageStream, "send", "client.send")
    client_spans.wrap(protocol.MessageStream, "receive", "client.receive")
    child.send("TRACE_ON")
    child.expect("OK")
    client_spans.enabled = True
    traced = closed_loop(address, mix, oracle, seed + 1, half, saved)
    client_spans.enabled = False
    child.send("STOP")
    child.expect("BYE", timeout=120)
    child.wait()
    speed = probe.stop()
    with open(spans_path) as fh:
        dump = json.load(fh)
    spans = [tuple(s) for s in dump["spans"]]
    n = len(traced)
    out = layers.program_layers(
        spans, n, layers.stats_delta([(dump["before"], dump["after"])]))
    rtt = lambda ss: sum(s.end - s.start for s in ss) / max(1, len(ss))  # noqa: E731
    out["eventloop.outside_handler_ms"] = 1000.0 * rtt(traced) - out["server.handle_ms"]
    pings = [s for s in traced if s.method == "ping"]
    out["eventloop.ping_rtt_ms"] = 1000.0 * rtt(pings) if pings else 0.0
    calls = client_spans.take()
    selfs = self_times(calls)
    out["client.self_ms"] = 1000.0 * sum(
        selfs[s[0]] for s in calls if s[2] == "client.call") / max(1, n)
    nominal = lambda ss: rtt(ss) * speed.scale(  # noqa: E731
        min(s.start for s in ss), max(s.end for s in ss))
    out["trace.overhead_pct"] = 100.0 * (nominal(traced) / nominal(plain) - 1.0)
    failures = [s.error for s in plain + traced if s.error]
    record.update({"requests_per_method": _per_method(plain + traced),
                   "repeat_share": _repeat_share(plain + traced),
                   "traced_requests": n, "failures": failures[:20]})
    return {"metrics": out, "attempted": len(plain) + len(traced),
            "failed": len(failures), "record": record}
