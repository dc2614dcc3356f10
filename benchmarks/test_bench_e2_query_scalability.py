"""E2 — query scalability on the stored Miranda trial (paper §5.3).

Claim reproduced: *"The 16K processor run consisted of over 1.6 million
data points, and the PerfDMF API was able to handle the data without
problems."*

Against a stored large trial we measure the paper's three access
patterns: selective queries (node slice — must not touch the full
trial), precomputed summary retrieval, and SQL aggregates over all rows.
Shape expectation: the selective paths stay in the millisecond range
regardless of trial size; full-scan aggregates complete comfortably.
"""

from __future__ import annotations

import pytest

from repro.core.session import PerfDMFSession
from repro.tau.apps import Miranda
from repro.tau.apps.miranda import NUM_EVENTS

from conftest import create_exclusive_btree, scale

RANKS = scale(4096, 16384)


@pytest.fixture(scope="module")
def loaded():
    session = PerfDMFSession("sqlite://:memory:")
    application = session.create_application("miranda")
    experiment = session.create_experiment(application, "bgl")
    trial = session.save_trial(Miranda().generate(RANKS), experiment, "big")
    session.set_trial(trial)
    yield session
    session.close()


def test_datapoint_count(benchmark, loaded, report):
    count = benchmark(loaded.count_data_points)
    assert count == RANKS * NUM_EVENTS
    full = 16384 * NUM_EVENTS
    report(
        f"E2  §5.3 '1.6M data points handled'        -> "
        f"{count:,} rows stored (full scale would be {full:,})"
    )


def test_node_slice_query(benchmark, loaded, report):
    """A one-node selective query — the 'don't load the whole trial' path."""

    def slice_query():
        loaded.set_node(RANKS // 2)
        rows = loaded.get_interval_event_data()
        loaded.set_node(None)
        return rows

    rows = benchmark(slice_query)
    assert len(rows) == NUM_EVENTS
    report(
        f"E2  node-slice selective query             -> "
        f"{benchmark.stats['mean'] * 1e3:6.2f} ms for {len(rows)} rows"
    )


def test_event_slice_query(benchmark, loaded):
    def event_query():
        loaded.set_event("fft_kernel_00")
        rows = loaded.get_interval_event_data()
        loaded.set_event(None)
        return rows

    rows = benchmark(event_query)
    assert len(rows) == RANKS


def test_summary_retrieval(benchmark, loaded, report):
    rows = benchmark(loaded.get_summary, "mean", metric_name="TIME")
    assert len(rows) == NUM_EVENTS
    report(
        f"E2  precomputed mean-summary retrieval     -> "
        f"{benchmark.stats['mean'] * 1e3:6.2f} ms for {len(rows)} events"
    )


def test_full_scan_aggregate(benchmark, loaded, report):
    value = benchmark(loaded.aggregate, "stddev", "exclusive")
    assert value is not None and value > 0
    report(
        f"E2  stddev over all {RANKS * NUM_EVENTS:,} rows        -> "
        f"{benchmark.stats['mean'] * 1e3:6.1f} ms"
    )


def test_summary_precompute_ablation(benchmark, loaded, report):
    """DESIGN.md ablation: precomputed summary tables vs computing the
    same aggregates from the location profiles at query time."""
    import time

    precomputed = loaded.get_summary("mean", metric_name="TIME")

    def on_demand():
        return loaded.connection.query(
            "SELECT e.name, avg(p.inclusive), avg(p.exclusive) "
            "FROM interval_location_profile p "
            "JOIN interval_event e ON p.interval_event = e.id "
            "GROUP BY e.name ORDER BY e.id"
        )

    t0 = time.perf_counter()
    computed = on_demand()
    on_demand_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    loaded.get_summary("mean", metric_name="TIME")
    precomputed_seconds = time.perf_counter() - t0

    # same values either way
    by_name = {row[0]: row for row in computed}
    for name, inclusive, _exc, _calls, _subrs in precomputed:
        assert by_name[name][1] == pytest.approx(inclusive, rel=1e-9)

    speedup = on_demand_seconds / precomputed_seconds
    benchmark.pedantic(
        lambda: loaded.get_summary("mean", metric_name="TIME"),
        rounds=3, iterations=1,
    )
    report(
        f"E2  summary precompute vs on-demand        -> {speedup:6.0f}x faster "
        f"({on_demand_seconds * 1e3:.0f} ms -> {precomputed_seconds * 1e3:.2f} ms)"
    )
    assert speedup > 10, "precomputed summaries must beat full aggregation"


def test_full_trial_reload(benchmark, loaded, report):
    source = benchmark.pedantic(loaded.load_datasource, rounds=1, iterations=1)
    assert source.num_threads == RANKS
    report(
        f"E2  full-trial materialisation             -> "
        f"{benchmark.stats['mean']:6.2f} s for {RANKS:,} threads"
    )


# --- MiniSQL access-path planner: range scans and top-N pushdown ------------
#
# The pure-Python engine stores the same trial; its ordered (BTREE)
# indexes on interval_location_profile (node, exclusive) must make
# selective range queries and ORDER BY ... LIMIT independent of trial
# size.  Each benchmark times the planner-served query against the same
# query rewritten so no index applies (``col + 0`` defeats the planner),
# and requires at least the 2x separation the ISSUE acceptance sets.

MINISQL_RANKS = scale(512, 2048)


@pytest.fixture(scope="module")
def mini_loaded():
    session = PerfDMFSession("minisql://:memory:")
    application = session.create_application("miranda")
    experiment = session.create_experiment(application, "bgl")
    trial = session.save_trial(
        Miranda().generate(MINISQL_RANKS), experiment, "big"
    )
    session.set_trial(trial)
    create_exclusive_btree(session)
    yield session
    session.close()


def _best_of(fn, rounds=3):
    import time

    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_minisql_range_scan(benchmark, mini_loaded, report):
    conn = mini_loaded.connection
    lo, hi = MINISQL_RANKS // 2 - 4, MINISQL_RANKS // 2
    indexed_sql = (
        "SELECT interval_event, node, exclusive "
        "FROM interval_location_profile WHERE node > ? AND node <= ?"
    )
    naive_sql = indexed_sql.replace("node >", "node + 0 >").replace(
        "node <=", "node + 0 <="
    )

    conn.reset_stats()
    rows = benchmark(conn.query, indexed_sql, (lo, hi))
    stats = conn.stats()
    assert len(rows) == 4 * NUM_EVENTS
    # the planner must serve this from the ordered node index: rows
    # scanned stays proportional to the slice, not the trial
    assert stats["index_range_scans"] >= 1
    assert stats["full_scans"] == 0
    scanned_per_query = stats["rows_scanned"] / max(stats["index_range_scans"], 1)
    assert scanned_per_query <= 2 * len(rows)

    naive_rows, naive_seconds = _best_of(lambda: conn.query(naive_sql, (lo, hi)))
    assert sorted(naive_rows) == sorted(rows)
    speedup = naive_seconds / benchmark.stats["mean"]
    report(
        f"E2  minisql node-range via ordered index   -> {speedup:6.1f}x vs "
        f"full scan ({MINISQL_RANKS * NUM_EVENTS:,} rows)"
    )
    assert speedup >= 2.0, "range scan must beat the unindexed plan 2x"


def test_minisql_top_n(benchmark, mini_loaded, report):
    conn = mini_loaded.connection
    indexed_sql = (
        "SELECT interval_event, node, exclusive "
        "FROM interval_location_profile ORDER BY exclusive DESC LIMIT 20"
    )
    naive_sql = indexed_sql.replace("ORDER BY exclusive", "ORDER BY exclusive + 0")

    conn.reset_stats()
    rows = benchmark(conn.query, indexed_sql)
    stats = conn.stats()
    assert len(rows) == 20
    assert stats["order_pushdowns"] >= 1
    # early LIMIT stop: only the result rows are read from the index
    assert stats["rows_scanned"] / max(stats["order_pushdowns"], 1) <= 40

    naive_rows, naive_seconds = _best_of(lambda: conn.query(naive_sql))
    assert [r[2] for r in naive_rows] == [r[2] for r in rows]
    speedup = naive_seconds / benchmark.stats["mean"]
    report(
        f"E2  minisql top-20 via ORDER BY pushdown   -> {speedup:6.1f}x vs "
        f"full sort ({MINISQL_RANKS * NUM_EVENTS:,} rows)"
    )
    assert speedup >= 2.0, "top-N pushdown must beat the full sort 2x"
