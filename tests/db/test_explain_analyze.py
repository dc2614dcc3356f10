"""Tests for EXPLAIN ANALYZE and the slow-query log.

The acceptance criterion: per-step actual-row counts must match the
cardinalities observable through the ordinary query interface — for an
index range scan, an ORDER BY ... LIMIT pushdown, and a full scan.
"""

import pytest

from repro.db import minisql
from repro.db.minisql.errors import ProgrammingError

N = 1000


@pytest.fixture
def conn():
    c = minisql.connect()
    c.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v REAL)")
    c.execute("CREATE INDEX idx_v ON t (v) USING BTREE")
    c.executemany(
        "INSERT INTO t (k, v) VALUES (?, ?)",
        [(i % 10, float(i)) for i in range(N)],
    )
    c.commit()
    yield c
    c.close()


def analyze(conn, sql, params=()):
    cursor = conn.execute(f"EXPLAIN ANALYZE {sql}", params)
    assert [d[0] for d in cursor.description] == [
        "id", "detail", "rows", "time_ms", "vectorized",
    ]
    return cursor.fetchall()


def step(rows, prefix):
    matches = [r for r in rows if r[1].startswith(prefix)]
    assert matches, f"no step starting with {prefix!r} in {rows}"
    return matches[0]


class TestSelectAnalyze:
    def test_index_range_rows_match_cardinality(self, conn):
        observed = len(
            conn.execute("SELECT * FROM t WHERE v >= 100 AND v < 300").fetchall()
        )
        assert observed == 200
        rows = analyze(conn, "SELECT * FROM t WHERE v >= 100 AND v < 300")
        scan = step(rows, "SEARCH t USING ORDERED INDEX idx_v")
        assert scan[2] == observed  # index produced exactly the result rows
        result = step(rows, "RESULT")
        assert result[2] == observed
        assert result[3] >= 0.0

    def test_order_by_limit_early_stop(self, conn):
        rows = analyze(conn, "SELECT * FROM t ORDER BY v LIMIT 7")
        scan = step(rows, "SEARCH t USING ORDERED INDEX idx_v")
        assert scan[2] == 7  # pushdown stopped after the limit
        assert step(rows, "ORDER BY (index order)")
        assert step(rows, "RESULT")[2] == 7

    def test_full_scan_with_where_filter(self, conn):
        observed = len(conn.execute("SELECT * FROM t WHERE k = 3").fetchall())
        assert observed == N // 10
        rows = analyze(conn, "SELECT * FROM t WHERE k = 3")
        assert step(rows, "SCAN t")[2] == N  # every row visited
        assert step(rows, "WHERE filter")[2] == observed
        assert step(rows, "RESULT")[2] == observed

    def test_where_step_absent_from_plain_explain(self, conn):
        details = [
            r[1] for r in conn.execute(
                "EXPLAIN SELECT * FROM t WHERE k = 3"
            ).fetchall()
        ]
        assert details == ["SCAN t"]

    def test_join_step_counts(self, conn):
        conn.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER)")
        conn.executemany(
            "INSERT INTO u (t_id) VALUES (?)", [(i,) for i in range(1, 30)]
        )
        rows = analyze(conn, "SELECT * FROM t JOIN u ON u.t_id = t.id")
        assert step(rows, "SCAN t")[2] == N
        assert step(rows, "HASH JOIN u")[2] == 29
        assert step(rows, "RESULT")[2] == 29

    def test_aggregation_result_cardinality(self, conn):
        rows = analyze(conn, "SELECT k, count(*) FROM t GROUP BY k")
        assert step(rows, "SCAN t")[2] == N
        assert step(rows, "RESULT")[2] == 10

    def test_probe_does_not_leak_between_statements(self, conn):
        analyze(conn, "SELECT * FROM t WHERE k = 3")
        # A later plain query runs unprobed and correct.
        assert len(conn.execute("SELECT * FROM t").fetchall()) == N


class TestDMLAnalyze:
    def test_delete_reports_rowcount_and_rolls_back(self, conn):
        rows = analyze(conn, "DELETE FROM t WHERE k = 4")
        assert step(rows, "DELETE")[2] is None  # no per-step probe for DML
        assert step(rows, "RESULT")[2] == N // 10
        conn.rollback()
        assert conn.execute("SELECT count(*) FROM t").fetchone()[0] == N

    def test_update_commit_persists(self, conn):
        rows = analyze(conn, "UPDATE t SET v = 0 WHERE k = 5")
        assert step(rows, "RESULT")[2] == N // 10
        conn.commit()
        zeroed = conn.execute(
            "SELECT count(*) FROM t WHERE v = 0 AND k = 5"
        ).fetchone()[0]
        assert zeroed == N // 10


class TestVectorizedColumn:
    def test_vectorized_flag_tracks_storage_mode(self, conn):
        sql = "SELECT count(*), sum(v) FROM t WHERE k = 3"
        rows = analyze(conn, sql)
        assert step(rows, "SCAN t")[4] == "no"
        conn.execute("PRAGMA columnar(t on)")
        rows = analyze(conn, sql)
        assert step(rows, "SCAN t")[4] == "yes"
        assert step(rows, "WHERE filter")[4] == "yes"
        assert step(rows, "RESULT")[4] is None
        # Per-step row counts still come from the probed row pipeline
        # (probes bypass vector execution), so they stay exact.
        assert step(rows, "SCAN t")[2] == N
        assert step(rows, "WHERE filter")[2] == N // 10


class TestSlowQueryLog:
    def test_pragma_round_trip(self, conn):
        assert conn.execute("PRAGMA slow_query_ms").fetchone()[0] is None
        conn.execute("PRAGMA slow_query_ms = 12.5")
        assert conn.execute("PRAGMA slow_query_ms").fetchone()[0] == 12.5
        conn.execute("PRAGMA slow_query_ms = off")
        assert conn.execute("PRAGMA slow_query_ms").fetchone()[0] is None

    def test_bad_threshold_rejected(self, conn):
        with pytest.raises(ProgrammingError):
            conn.execute("PRAGMA slow_query_ms = banana")

    def test_slow_queries_logged_with_plan(self, conn):
        conn.execute("PRAGMA slow_query_ms = 0")  # everything is slow
        conn.execute("SELECT * FROM t WHERE v >= 100 AND v < 300").fetchall()
        log = conn.execute("PRAGMA slow_query_log").fetchall()
        assert [d[0] for d in
                conn.execute("PRAGMA slow_query_log").description] == [
            "sql", "plan", "duration_ms"
        ]
        assert len(log) == 1
        sql, plan, duration = log[0]
        assert "WHERE v >= 100" in sql
        assert "SEARCH t USING ORDERED INDEX idx_v" in plan
        assert duration >= 0.0

    def test_log_clear(self, conn):
        conn.execute("PRAGMA slow_query_ms = 0")
        conn.execute("SELECT 1").fetchall()
        assert conn.execute("PRAGMA slow_query_log").fetchall()
        conn.execute("PRAGMA slow_query_log = clear")
        assert conn.execute("PRAGMA slow_query_log").fetchall() == []

    def test_threshold_filters_fast_queries(self, conn):
        conn.execute("PRAGMA slow_query_ms = 1e9")  # nothing is that slow
        conn.execute("SELECT * FROM t").fetchall()
        assert conn.execute("PRAGMA slow_query_log").fetchall() == []
