"""Regression tests: DDL must invalidate cached compiled plans.

Compiled plans bake column offsets into closures, and the statement
cache keeps Statement objects (plans ride on them) alive across
executions of the same SQL text.  Any DDL that changes the catalog —
``CREATE INDEX``, ``ALTER TABLE ADD COLUMN``, ``DROP TABLE`` — must
therefore force a recompile, keyed on ``Database.schema_version``.
The failure mode being guarded: ADD COLUMN on the outer table of a
join shifts every inner-table offset, so a stale plan reads the wrong
cells (or walks off the row) while returning plausible-looking data.
"""

import pytest

from repro.db import minisql


@pytest.fixture
def conn():
    c = minisql.connect()
    yield c
    c.close()


class TestAddColumnInvalidation:
    def test_join_offsets_shift(self, conn):
        """ADD COLUMN on the left table shifts the right table's slots."""
        conn.execute("CREATE TABLE a (id INTEGER, x TEXT)")
        conn.execute("CREATE TABLE b (id INTEGER, y TEXT)")
        conn.execute("INSERT INTO a VALUES (1, 'ax')")
        conn.execute("INSERT INTO b VALUES (1, 'by')")
        sql = "SELECT a.x, b.y FROM a JOIN b ON a.id = b.id"
        assert conn.execute(sql).fetchall() == [("ax", "by")]
        conn.execute("ALTER TABLE a ADD COLUMN z TEXT DEFAULT 'az'")
        # Same SQL text -> same cached Statement; a stale plan would
        # read b.y from the old offset (now holding a.z or b.id).
        assert conn.execute(sql).fetchall() == [("ax", "by")]

    def test_single_table_where_and_projection(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        conn.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        sql = "SELECT b FROM t WHERE a = 2"
        assert conn.execute(sql).fetchall() == [(20,)]
        conn.execute("ALTER TABLE t ADD COLUMN c INTEGER DEFAULT 7")
        assert conn.execute(sql).fetchall() == [(20,)]
        # Star expansion must pick up the new column too.
        assert conn.execute("SELECT * FROM t WHERE a = 1").fetchall() == [(1, 10, 7)]

    def test_update_assignments_recompiled(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        conn.execute("INSERT INTO t VALUES (1, 0)")
        sql = "UPDATE t SET b = a + 1 WHERE a = 1"
        conn.execute(sql)
        assert conn.execute("SELECT b FROM t").fetchone() == (2,)
        conn.execute("DROP TABLE t")
        # Recreate with the column order swapped: a stale DML plan
        # would write the computed value into the wrong position.
        conn.execute("CREATE TABLE t (b INTEGER, a INTEGER)")
        conn.execute("INSERT INTO t (a, b) VALUES (1, 0)")
        conn.execute(sql)
        assert conn.execute("SELECT b FROM t").fetchone() == (2,)


class TestCreateIndexInvalidation:
    def test_new_index_is_used_after_recompile(self, conn):
        conn.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?)", [(i, i * 10) for i in range(50)]
        )
        sql = "SELECT v FROM t WHERE k = 7"
        assert conn.execute(sql).fetchall() == [(70,)]
        probes_before = conn.stats()["index_eq_probes"]
        conn.execute("CREATE INDEX idx_k ON t (k)")
        assert conn.execute(sql).fetchall() == [(70,)]
        assert conn.stats()["index_eq_probes"] > probes_before

    def test_drop_index_falls_back_to_scan(self, conn):
        conn.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        conn.execute("CREATE INDEX idx_k ON t (k)")
        conn.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        sql = "SELECT v FROM t WHERE k = 2"
        assert conn.execute(sql).fetchall() == [(20,)]
        conn.execute("DROP INDEX idx_k")
        assert conn.execute(sql).fetchall() == [(20,)]


class TestDropTableInvalidation:
    def test_recreated_table_with_reordered_columns(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        conn.execute("INSERT INTO t VALUES (1, 'one')")
        sql = "SELECT b FROM t WHERE a = 1"
        assert conn.execute(sql).fetchall() == [("one",)]
        conn.execute("DROP TABLE t")
        conn.execute("CREATE TABLE t (b TEXT, a INTEGER)")
        conn.execute("INSERT INTO t (a, b) VALUES (1, 'two')")
        # Stale offsets would return the integer column as b.
        assert conn.execute(sql).fetchall() == [("two",)]

    def test_rolled_back_ddl_still_invalidates(self, conn):
        """Undoing DDL changes the catalog too — version must move."""
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.commit()
        sql = "SELECT a FROM t WHERE a = 1"
        assert conn.execute(sql).fetchall() == [(1,)]
        conn.execute("BEGIN")
        conn.execute("CREATE INDEX idx_a ON t (a)")
        assert conn.execute(sql).fetchall() == [(1,)]
        conn.rollback()  # undoes the CREATE INDEX
        assert conn.execute(sql).fetchall() == [(1,)]
        misses = conn.stats()["plan_cache_misses"]
        assert misses >= 3  # initial + after-create + after-rollback


class TestColumnarConversionInvalidation:
    """Storage-mode swaps change what a valid plan looks like (vector
    sections only make sense against a column store), so they must bump
    ``schema_version`` like any other catalog change."""

    @pytest.fixture
    def data(self, conn):
        conn.execute("CREATE TABLE t (k INTEGER, v REAL)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(i % 5, float(i)) for i in range(40)],
        )
        conn.commit()
        return conn

    def test_conversion_bumps_schema_version(self, data):
        db = data._database
        v0 = db.schema_version
        data.execute("PRAGMA columnar(t on)")
        v1 = db.schema_version
        data.execute("PRAGMA columnar(t off)")
        assert v0 < v1 < db.schema_version

    def test_cached_plan_gains_and_loses_vector_section(self, data):
        sql = "SELECT sum(v), count(*) FROM t WHERE k < 3"
        oracle = data.execute(sql).fetchall()
        assert data.stats()["vector_selects"] == 0
        data.execute("PRAGMA columnar(t on)")
        # Same SQL text -> same cached Statement; a stale (row) plan
        # would scan the replaced table without vectorizing.
        assert data.execute(sql).fetchall() == oracle
        assert data.stats()["vector_selects"] == 1
        data.execute("PRAGMA columnar(t off)")
        assert data.execute(sql).fetchall() == oracle
        assert data.stats()["vector_selects"] == 1  # row path again

    def test_stale_offsets_never_served_after_conversion(self, data):
        sql = "SELECT v FROM t WHERE k = 2 ORDER BY v"
        oracle = data.execute(sql).fetchall()
        data.execute("PRAGMA columnar(t on)")
        data.execute("ALTER TABLE t ADD COLUMN w TEXT DEFAULT 'pad'")
        assert data.execute(sql).fetchall() == oracle
        assert data.execute(
            "SELECT w FROM t WHERE k = 2"
        ).fetchall() == [("pad",)] * len(oracle)


class TestSchemaVersionCounter:
    def test_every_ddl_kind_bumps(self, conn):
        db = conn._database
        v0 = db.schema_version
        conn.execute("CREATE TABLE t (a INTEGER)")
        v1 = db.schema_version
        conn.execute("CREATE INDEX i ON t (a)")
        v2 = db.schema_version
        conn.execute("ALTER TABLE t ADD COLUMN b INTEGER")
        v3 = db.schema_version
        conn.execute("ALTER TABLE t RENAME TO u")
        v4 = db.schema_version
        conn.execute("DROP INDEX i")
        v5 = db.schema_version
        conn.execute("DROP TABLE u")
        v6 = db.schema_version
        assert v0 < v1 < v2 < v3 < v4 < v5 < v6

    def test_dml_does_not_bump(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        db = conn._database
        v = db.schema_version
        conn.execute("INSERT INTO t VALUES (1)")
        conn.execute("UPDATE t SET a = 2")
        conn.execute("DELETE FROM t")
        conn.execute("SELECT * FROM t").fetchall()
        assert db.schema_version == v


class TestSubqueryPlanReuse:
    def test_repeated_in_subquery_compiles_once(self, conn):
        """An ``IN (SELECT ...)`` statement keeps its cached plan: the
        subquery's values are refilled per execution, not baked into a
        rewritten copy of the statement that misses the cache."""
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("CREATE TABLE u (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1), (2), (3)")
        conn.execute("INSERT INTO u VALUES (2), (3)")
        sql = "SELECT a FROM t WHERE a IN (SELECT a FROM u) ORDER BY a"
        assert conn.execute(sql).fetchall() == [(2,), (3,)]
        misses = conn.stats()["plan_cache_misses"]
        for _ in range(4):
            assert conn.execute(sql).fetchall() == [(2,), (3,)]
        assert conn.stats()["plan_cache_misses"] == misses
        # Still one execution's worth of fresh subquery values each time.
        conn.execute("DELETE FROM u WHERE a = 3")
        misses = conn.stats()["plan_cache_misses"]
        assert conn.execute(sql).fetchall() == [(2,)]
        assert conn.stats()["plan_cache_misses"] == misses
