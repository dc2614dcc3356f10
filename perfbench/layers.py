"""Per-layer metrics from a traced run.

Values are per request on the served workloads and per trial on
``ingest``; a layer a workload does not reach reports 0.  NOTES.md says
which end-to-end metric each one should move.
"""

from __future__ import annotations

from tracing import count, inside, outermost, self_times, total_ms

METHODS = (
    "list_applications", "list_experiments", "list_trials", "list_metrics",
    "list_events", "list_analyses", "get_analysis", "ping",
    "imbalance_chart", "describe_event", "correlate_events",
    "correlation_matrix", "cluster_trial",
)

PER_LAYER_UNITS = {
    "eventloop.outside_handler_ms": "ms",
    "eventloop.queue_wait_ms": "ms",
    "eventloop.ping_rtt_ms": "ms",
    "protocol.reply_bytes": "bytes",
    "protocol.encode_ms": "ms",
    "client.self_ms": "ms",
    "server.handle_ms": "ms",
    **{f"server.handle_ms.{m}": "ms" for m in METHODS},
    "server.self_ms": "ms",
    "analysis.ms": "ms",
    "session.load_datasource_ms": "ms",
    "session.load_datasource_calls": "count",
    "session.model_build_ms": "ms",
    "session.catalog_ms": "ms",
    "session.save_trial_ms": "ms",
    "model.generate_statistics_ms": "ms",
    "io.parse_ms_per_kpoint": "ms",
    "db.sql_ms": "ms",
    "db.statements": "count",
    "db.rows_returned": "count",
    "db.commit_ms": "ms",
    "minisql.rows_scanned_per_row_returned": "ratio",
    "minisql.full_scans": "count",
    "minisql.index_eq_probes": "count",
    "minisql.plan_cache_hit_ratio": "ratio",
    "minisql.vector_select_ratio": "ratio",
    "minisql.compile_fallbacks": "count",
    "minisql.bulk_insert_ms": "ms",
    "minisql.bulk_index_rebuild_ms": "ms",
    "minisql.bulk_index_rebuild_growth": "ratio",
    "minisql.summary_ms": "ms",
    "wal.records": "count",
    "wal.bytes": "bytes",
    "wal.fsyncs": "count",
    "wal.checkpoints": "count",
    "trace.overhead_pct": "%",
}

_STATEMENTS = ("db.execute", "db.executemany", "db.insert", "db.executescript")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _delta(before: dict, after: dict, key: str) -> float:
    return float(after.get(key, 0)) - float(before.get(key, 0))


def program_layers(spans: list, units: int, stats_deltas: dict) -> dict:
    """Layer metrics common to both kinds of workload.  ``units`` is the
    number of requests (or trials) the spans cover; ``stats_deltas`` the
    change of ``DBConnection.stats()`` counters over the same window."""
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    per = lambda value: _ratio(value, units)  # noqa: E731
    handles = [s for s in spans if s[2] == "server.handle"]
    out["server.handle_ms"] = per(total_ms(handles, "server.handle"))
    for method in METHODS:
        mine = [s for s in handles if s[5] == method]
        out[f"server.handle_ms.{method}"] = _ratio(
            total_ms(mine, "server.handle"), len(mine))
    selfs = self_times(spans)
    out["server.self_ms"] = per(1000.0 * sum(selfs[s[0]] for s in handles))
    out["analysis.ms"] = per(sum(1000.0 * (s[4] - s[3])
                                 for s in outermost(spans, "analysis")))
    encodes = [s for s in spans if s[2] == "protocol.encode"]
    out["protocol.encode_ms"] = per(total_ms(encodes, "protocol.encode"))
    out["protocol.reply_bytes"] = _ratio(sum(s[5] for s in encodes), len(encodes))
    out["eventloop.queue_wait_ms"] = per(total_ms(spans, "eventloop.queue"))

    db = outermost(spans, "db")
    out["db.sql_ms"] = per(sum(1000.0 * (s[4] - s[3]) for s in db))
    out["db.statements"] = per(sum(count(spans, n) for n in _STATEMENTS))
    rows = sum(s[5] for s in spans if s[2] in ("db.query", "db.query_one"))
    out["db.rows_returned"] = per(rows)
    out["db.commit_ms"] = per(total_ms(spans, "db.commit"))

    loads = total_ms(spans, "session.load_datasource")
    out["session.load_datasource_ms"] = per(loads)
    out["session.load_datasource_calls"] = per(count(spans, "session.load_datasource"))
    out["session.model_build_ms"] = per(
        loads - 1000.0 * inside(spans, db, "session.load_datasource"))
    out["session.catalog_ms"] = per(sum(
        1000.0 * (s[4] - s[3]) for s in outermost(spans, "session")
        if s[2] == "session.catalog"))
    out["session.save_trial_ms"] = per(total_ms(spans, "session.save_trial"))
    out["model.generate_statistics_ms"] = per(
        total_ms(spans, "model.generate_statistics"))

    d = stats_deltas
    selects = sum(s[5] for s in spans if s[2] == "db.execute")
    out["minisql.rows_scanned_per_row_returned"] = _ratio(d["rows_scanned"], rows)
    out["minisql.full_scans"] = per(d["full_scans"])
    out["minisql.index_eq_probes"] = per(d["index_eq_probes"])
    out["minisql.plan_cache_hit_ratio"] = _ratio(
        d["plan_cache_hits"], d["plan_cache_hits"] + d["plan_cache_misses"])
    out["minisql.vector_select_ratio"] = _ratio(d["vector_selects"], selects)
    out["minisql.compile_fallbacks"] = per(d["compile_fallbacks"])
    for key in ("records", "bytes", "fsyncs", "checkpoints"):
        out[f"wal.{key}"] = per(d[f"wal_{key}"])
    return out


STATS_KEYS = (
    "rows_scanned", "full_scans", "index_eq_probes", "plan_cache_hits",
    "plan_cache_misses", "vector_selects", "compile_fallbacks",
    "wal_records", "wal_bytes", "wal_fsyncs", "wal_checkpoints",
)


def stats_delta(pairs: list[tuple[dict, dict]]) -> dict:
    """Sum of counter changes over several (before, after) windows."""
    return {k: sum(_delta(b, a, k) for b, a in pairs) for k in STATS_KEYS}
