"""MiniSQL's compiled expression engine against sqlite3 and pinned values.

Every expression MiniSQL evaluates runs as a compiled closure (see
``compile.py``).  This module checks that engine on hostile strings,
NULLs and three-valued logic, on row and on columnar storage: results
must match stdlib ``sqlite3`` wherever the two engines agree, and a
pinned literal expectation where MiniSQL deliberately differs.  It also
pins name errors — a bad name raises only once a row reaches it — and
the plan cache and EXPLAIN column surface.
"""

import math
import sqlite3

import pytest

from repro.db import minisql


def _normalise(rows):
    out = []
    for row in rows:
        out.append(tuple(
            round(cell, 9) if isinstance(cell, float) and math.isfinite(cell)
            else cell
            for cell in row
        ))
    return out


class TestCorpusBothWays:
    def test_repeated_execution_hits_plan_cache(self):
        """Round two over the statement cache must serve cached plans."""
        conn = minisql.connect()
        conn.execute("CREATE TABLE warm (x INTEGER)")
        conn.execute("INSERT INTO warm VALUES (1), (2)")
        conn.execute("SELECT x FROM warm WHERE x > 0")
        before = conn.stats()["plan_cache_hits"]
        conn.execute("SELECT x FROM warm WHERE x > 0")
        assert conn.stats()["plan_cache_hits"] == before + 1
        conn.close()


ROWS = [
    (1, "O'Malley", 1),
    (2, "100%", 2),
    (3, "under_score", None),
    (4, None, 3),
    (5, "line\nbreak", 0),
    (6, "Ω≠ascii", -1),
    (7, "123", 123),   # numeric string: affinity coercion
    (8, "", 1),
]

CAST_SQL = "SELECT id, CAST(n AS TEXT), CAST(x AS INTEGER) FROM h ORDER BY id"

#: Where MiniSQL deliberately differs from sqlite3, the expected rows
#: are pinned.  CAST of a text with a numeric prefix ('100%') yields 0
#: here; sqlite3 parses the prefix and yields 100.
PINNED = {
    CAST_SQL: [
        (1, "1", 0), (2, "2", 0), (3, None, 0), (4, "3", None),
        (5, "0", 0), (6, "-1", 0), (7, "123", 123), (8, "1", 0),
    ],
}


class TestHostileExpressions:
    """Hostile strings, NULLs and three-valued logic, on row and
    columnar storage, compared with sqlite3 (or a pinned result)."""

    QUERIES = [
        "SELECT x, x = 'O''Malley' FROM h ORDER BY id",
        "SELECT x FROM h WHERE x LIKE '%\\%' ORDER BY id",
        "SELECT x FROM h WHERE x LIKE '%_%' ORDER BY id",
        "SELECT x FROM h WHERE x LIKE 'line%' ORDER BY id",
        "SELECT id, x IS NULL, x IS NOT NULL FROM h ORDER BY id",
        "SELECT id, n + 1, n - 1, n * 2, n / 0, n % 0 FROM h ORDER BY id",
        "SELECT id, NOT (n > 1), n > 1 OR x IS NULL, n > 1 AND x IS NULL "
        "FROM h ORDER BY id",
        "SELECT id FROM h WHERE n IN (1, NULL) ORDER BY id",
        "SELECT id FROM h WHERE n NOT IN (1, NULL) ORDER BY id",
        "SELECT id FROM h WHERE n BETWEEN 0 AND 2 ORDER BY id",
        "SELECT id FROM h WHERE n NOT BETWEEN 0 AND 2 ORDER BY id",
        "SELECT id, CASE n WHEN 1 THEN 'one' WHEN NULL THEN 'null' "
        "ELSE 'other' END FROM h ORDER BY id",
        "SELECT id, CASE WHEN n IS NULL THEN 'null' WHEN n > 1 THEN 'big' "
        "END FROM h ORDER BY id",
        CAST_SQL,
        "SELECT id, upper(x), length(x), coalesce(x, 'dflt') FROM h ORDER BY id",
        "SELECT id, x || '/' || x FROM h ORDER BY id",
        "SELECT count(x), count(*), count(DISTINCT n) FROM h",
        "SELECT n, count(*) c FROM h GROUP BY n HAVING c >= 1 ORDER BY c, n",
        "SELECT -n FROM h WHERE n IS NOT NULL ORDER BY id",
        "SELECT id FROM h WHERE x = 'Ω≠ascii'",
    ]

    @pytest.fixture
    def modes(self):
        """{"row": conn, "columnar": conn} over identical data."""
        conns = {}
        for mode in ("row", "columnar"):
            c = minisql.connect()
            if mode == "columnar":
                c.execute("PRAGMA columnar(on)")  # new tables are columnar
            c.execute("CREATE TABLE h (id INTEGER PRIMARY KEY, x TEXT, n INTEGER)")
            c.executemany("INSERT INTO h (id, x, n) VALUES (?, ?, ?)", ROWS)
            conns[mode] = c
        yield conns
        for c in conns.values():
            c.close()

    @staticmethod
    def _expected(sql):
        if sql in PINNED:
            return PINNED[sql]
        reference = sqlite3.connect(":memory:")
        try:
            reference.execute(
                "CREATE TABLE h (id INTEGER PRIMARY KEY, x TEXT, n INTEGER)"
            )
            reference.executemany("INSERT INTO h (id, x, n) VALUES (?, ?, ?)", ROWS)
            return _normalise(reference.execute(sql).fetchall())
        finally:
            reference.close()

    @pytest.mark.parametrize("sql", QUERIES)
    def test_same_rows_both_modes(self, modes, sql):
        expected = self._expected(sql)
        for mode, conn in modes.items():
            got = _normalise(conn.execute(sql).fetchall())
            assert got == expected, f"{mode}: {sql!r}"

    def test_error_parity_bad_column_in_order_by(self, modes):
        """An unknown ORDER BY column raises once rows exist."""
        for conn in modes.values():
            with pytest.raises(minisql.ProgrammingError, match="no such column: nope"):
                conn.execute("SELECT x FROM h ORDER BY nope").fetchall()

    def test_error_parity_empty_table_bad_where_column(self, modes):
        """A bad name only raises when a row reaches it: over an empty
        table the statement returns no rows and no error."""
        for conn in modes.values():
            conn.execute("CREATE TABLE empty_t (a INTEGER)")
            rows = conn.execute("SELECT a FROM empty_t WHERE nope = 1").fetchall()
            assert rows == []

    def test_unknown_function_over_empty_table_returns_no_rows(self, modes):
        for conn in modes.values():
            conn.execute("CREATE TABLE s (a INTEGER)")
            assert conn.execute("SELECT nosuchfn(a) FROM s").fetchall() == []
            conn.execute("INSERT INTO s VALUES (1)")
            with pytest.raises(
                minisql.ProgrammingError, match="no such function: NOSUCHFN"
            ):
                conn.execute("SELECT nosuchfn(a) FROM s")


class TestExplainColumns:
    @pytest.fixture
    def conn(self):
        c = minisql.connect()
        c.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        c.execute("CREATE TABLE u (a INTEGER, c INTEGER)")
        c.execute("INSERT INTO t VALUES (1, 2), (3, 4)")
        c.execute("INSERT INTO u VALUES (1, 10), (3, 30)")
        yield c
        c.close()

    def test_plain_explain_columns(self, conn):
        cursor = conn.execute("EXPLAIN SELECT a FROM t WHERE b > 1 ORDER BY a")
        assert [d[0] for d in cursor.description] == [
            "id", "detail", "vectorized",
        ]
        flags = {row[1]: row[2] for row in cursor.fetchall()}
        assert flags == {"SCAN t": "no", "ORDER BY (sort)": "no"}

    def test_analyze_in_subquery_where_step(self, conn):
        """The subquery runs inside the statement without hiding the
        outer WHERE step from EXPLAIN ANALYZE."""
        conn.execute("INSERT INTO t VALUES (5, 6)")
        rows = conn.execute(
            "EXPLAIN ANALYZE SELECT a FROM t WHERE a IN (SELECT a FROM u)"
        ).fetchall()
        counts = {row[1]: row[2] for row in rows}
        assert counts["SCAN t"] == 3
        assert counts["WHERE filter"] == 2
        assert counts["RESULT"] == 2
