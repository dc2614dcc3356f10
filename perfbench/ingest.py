"""The ``ingest`` workload: ``perfdmf load``'s path over a growing archive.

A child pre-loads a few large trials (set-up), then imports a fixed list
of TAU profile directories one trial at a time, each followed by one
cold ``load_datasource`` of the new trial.  The benchmark SIGKILLs the
child after the last acknowledged commit, reopens the archive and checks
every acknowledged trial against its source.
"""

from __future__ import annotations

import json
import os

import inputs
import layers
from measure import (
    dir_bytes, fixed_work_quantile, median, proc_peak_rss_mb,
    reopen_and_verify, set_up,
)

SETUPS = 3


def trial_count(seconds: float) -> int:
    """Fixed work: the same ``--seconds`` gives the same list of trials,
    so two commits end at the same archive size.  A multiple of 8 keeps
    the ABBA trace pattern balanced."""
    return max(8, 8 * round(seconds / 8.0))


def run(seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    plan = inputs.ingest_plan(seed, workdir, trial_count(seconds))
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump({
            "preload": [t.name for t in plan["preload"]],
            "profiles": [t.name for t in plan["profiles"]],
            "files": {t.name: t.path for t in plan["preload"] + plan["profiles"]},
        }, fh)
    spans_path = os.path.join(workdir, "spans.json") if trace else None
    setup = set_up("ingest", plan_path, workdir, spans_path, 1 if trace else SETUPS)
    child = setup.child

    acks, colds = [], []
    try:
        child.send("GO")
        while True:
            tag, payload = child.next_message(timeout=170)
            if tag == "ACK":
                acks.append(payload)
            elif tag == "COLD":
                colds.append(payload)
            elif tag == "DONE":
                break
            else:
                raise RuntimeError(f"ingest child: unexpected {tag}")
        peak_rss = proc_peak_rss_mb(child.pid)
    finally:
        child.kill()

    by_name = {t.name: t for t in plan["preload"] + plan["profiles"]}
    acknowledged = [a["name"] for a in acks]
    expected = {t.name: t for t in plan["preload"]}
    expected.update({name: by_name[name] for name in acknowledged})
    verified = reopen_and_verify(setup.url, expected, [], cold_reads=[],
                                 workdir=workdir)
    failures = verified["failures"] + [
        f"{t.name}: not acknowledged" for t in plan["profiles"]
        if t.name not in acknowledged
    ]
    points = sum(by_name[name].points for name in acknowledged)
    attempted = len(plan["profiles"]) + len(plan["preload"])
    record = {
        "synchronous": setup.ready["synchronous"],
        "archive_rows_start": sum(t.points for t in plan["preload"]),
        "archive_rows_end": verified["archive_rows"],
        "trial_rows": {t.name: t.points for t in plan["profiles"]},
        "requests_per_method": {"import_profile": len(acks),
                                "load_datasource": len(colds)},
        "repeat_share": 0.0,
        "index_rebuild_s_per_trial": [
            a["ingest_stats"].get("ingest_index_seconds", 0.0) for a in acks],
        "failures": failures[:20],
    }
    if trace:
        metrics = _layers(spans_path, acks, colds, by_name)
    else:
        latencies = [1000.0 * _seconds(a["at"]) for a in acks]
        import_s = sum(latencies) / 1000.0
        cpu_s = sum(a["cpu_s"] for a in acks)
        metrics = {
            "setup_s": median([_seconds(i) for i in setup.intervals]),
            "req_per_s": len(acks) / import_s,
            "latency_p50_ms": fixed_work_quantile(latencies, 0.5),
            "latency_p95_ms": fixed_work_quantile(latencies, 0.95),
            "server_cpu_ms_per_req": 1000.0 * cpu_s / len(acks),
            "peak_rss_mb": peak_rss,
            "ok_frac": 1.0 - len(failures) / attempted,
            "ingest_points_per_s": points / import_s,
            "ingest_cpu_ms_per_kpoint": 1e6 * cpu_s / points,
            "cold_read_p50_ms": 1000.0 * median([_seconds(c["at"]) for c in colds]),
            "reopen_s": _seconds(verified["copies"][0]["reopen_at"]),
            "wal_bytes_per_point": sum(a["wal_bytes"] for a in acks) / points,
            "archive_bytes_per_point": dir_bytes(setup.archive_dir)
            / (points + setup.builds[-1]["points"]),
        }
    return {"metrics": metrics, "attempted": attempted,
            "failed": len(failures), "record": record}


def _seconds(interval: list[float]) -> float:
    return interval[1] - interval[0]


def _layers(spans_path: str, acks: list, colds: list, by_name: dict) -> dict:
    """Per-trial layer metrics over the traced trials (import plus its
    cold read); overhead from traced against untraced trials."""
    with open(spans_path) as fh:
        dump = json.load(fh)
    spans = [tuple(s) for s in dump["spans"]]
    traced = [a for a in acks if a["traced"]]
    n = len(traced)
    out = layers.program_layers(spans, n, layers.stats_delta(dump["stats"]))
    kpoints = sum(by_name[a["name"]].points for a in traced) / 1000.0
    io_ms = sum(1000.0 * (s[4] - s[3]) for s in layers.outermost(spans, "io"))
    out["io.parse_ms_per_kpoint"] = io_ms / kpoints
    stats = [a["ingest_stats"] for a in traced]
    for metric, key in (("minisql.bulk_insert_ms", "ingest_insert_seconds"),
                        ("minisql.bulk_index_rebuild_ms", "ingest_index_seconds"),
                        ("minisql.summary_ms", "ingest_summary_seconds")):
        out[metric] = 1000.0 * sum(s.get(key, 0.0) for s in stats) / n
    rebuild = [a["ingest_stats"].get("ingest_index_seconds", 0.0) for a in acks]
    out["minisql.bulk_index_rebuild_growth"] = (
        (rebuild[-1] + rebuild[-2]) / (rebuild[0] + rebuild[1]))
    cold_end = {c["name"]: c["at"][1] for c in colds}
    unit = {a["name"]: cold_end[a["name"]] - a["at"][0] for a in acks}
    on = sum(unit[a["name"]] for a in traced)
    off = sum(unit[a["name"]] for a in acks if not a["traced"])
    out["trace.overhead_pct"] = 100.0 * (on / off - 1.0)
    return out
