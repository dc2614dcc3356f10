"""Bulk-load mode: PRAGMA forms, deferred index upkeep, rollback.

The MiniSQL bulk-load mode (``PRAGMA bulk_load``) suspends secondary
index maintenance during mass inserts and, once at the end, feeds the
indexes the rows stored since the suspension; unique indexes stay live
so constraint violations are still caught at the offending row.
``DBConnection.bulk_load()`` exposes the same surface on both backends
(sqlite silently ignores the pragma).
"""

from __future__ import annotations

import pytest

from repro.db import IntegrityError, connect
from repro.db.minisql import connect as minisql_connect

SCHEMA = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, "
    "a INTEGER, b INTEGER, label TEXT)"
)


@pytest.fixture
def mini():
    conn = minisql_connect()
    conn.execute(SCHEMA)
    conn.execute("CREATE INDEX ix_a ON t (a)")
    conn.execute("CREATE INDEX ix_b ON t (b) USING BTREE")
    conn.commit()
    yield conn
    conn.close()


def _fill(conn, n, start=0):
    conn.executemany(
        "INSERT INTO t (a, b, label) VALUES (?, ?, ?)",
        [(i % 10, i, f"row{i}") for i in range(start, start + n)],
    )


class TestPragmaForms:
    def test_paren_and_assignment_forms(self, mini):
        mini.execute("PRAGMA bulk_load(on)")
        assert mini.execute("PRAGMA bulk_load(status)").fetchall() == [(1,)]
        mini.execute("PRAGMA bulk_load = off")
        assert mini.execute("PRAGMA bulk_load(status)").fetchall() == [(0,)]
        mini.execute("PRAGMA bulk_load = 1")
        assert mini.execute("PRAGMA bulk_load(status)").fetchall() == [(1,)]
        mini.execute("PRAGMA bulk_load(0)")
        assert mini.execute("PRAGMA bulk_load(status)").fetchall() == [(0,)]

    def test_bad_argument_rejected(self, mini):
        from repro.db.minisql import ProgrammingError

        with pytest.raises(ProgrammingError):
            mini.execute("PRAGMA bulk_load(sideways)")

    def test_idempotent_on_off(self, mini):
        mini.execute("PRAGMA bulk_load(on)")
        mini.execute("PRAGMA bulk_load(on)")
        mini.execute("PRAGMA bulk_load(off)")
        mini.execute("PRAGMA bulk_load(off)")
        assert mini.stats()["bulk_loads"] == 1


class TestDeferredRebuild:
    def test_rows_visible_during_bulk(self, mini):
        with mini.bulk_load():
            _fill(mini, 500)
            got = mini.execute(
                "SELECT count(*) FROM t WHERE a = 3"
            ).fetchone()
            assert got == (50,)
        mini.commit()

    def test_index_used_after_rebuild(self, mini):
        with mini.bulk_load():
            _fill(mini, 500)
        mini.commit()
        plan = " ".join(
            " ".join(str(c) for c in row)
            for row in mini.execute("EXPLAIN SELECT * FROM t WHERE a = 3")
        )
        assert "ix_a" in plan
        assert mini.execute(
            "SELECT count(*) FROM t WHERE b BETWEEN 10 AND 19"
        ).fetchone() == (10,)

    def test_stats_counters(self, mini):
        with mini.bulk_load():
            _fill(mini, 200)
        mini.commit()
        stats = mini.stats()
        assert stats["bulk_loads"] == 1
        assert stats["bulk_rows"] == 200
        # ix_a (hash) + ix_b (btree) rebuilt; live unique pk is not.
        assert stats["bulk_index_rebuilds"] == 2

    def test_commit_keeps_mode_until_pragma_off(self, mini):
        mini.execute("PRAGMA bulk_load(on)")
        _fill(mini, 100)
        mini.commit()
        assert mini.execute("PRAGMA bulk_load(status)").fetchall() == [(1,)]
        _fill(mini, 100)
        mini.commit()
        mini.execute("PRAGMA bulk_load(off)")
        assert mini.stats()["bulk_loads"] == 1
        assert mini.stats()["bulk_rows"] == 200


class TestRollbackCorrectness:
    """Satellite 6: a violation at row k must leave table AND indexes
    exactly as they were before the failed batch."""

    def _snapshot(self, conn):
        return (
            conn.execute("SELECT * FROM t ORDER BY id").fetchall(),
            conn.execute(
                "SELECT count(*) FROM t WHERE a = 3"
            ).fetchone(),
            conn.execute(
                "SELECT count(*) FROM t WHERE b BETWEEN 0 AND 100"
            ).fetchone(),
        )

    def test_unique_violation_mid_batch_rolls_back_cleanly(self, mini):
        mini.execute("CREATE UNIQUE INDEX ux_label ON t (label)")
        with mini.bulk_load():
            _fill(mini, 300)
        mini.commit()
        before = self._snapshot(mini)

        rows = [(1, 1000 + i, f"new{i}") for i in range(50)]
        rows[37] = (1, 9999, "row7")  # duplicate label → violation at row 37
        with pytest.raises(IntegrityError):
            with mini.bulk_load():
                mini.executemany(
                    "INSERT INTO t (a, b, label) VALUES (?, ?, ?)", rows
                )
        mini.rollback()

        assert self._snapshot(mini) == before
        # indexes answer queries for the failed batch's keys correctly
        assert mini.execute(
            "SELECT count(*) FROM t WHERE b >= 1000"
        ).fetchone() == (0,)
        assert mini.execute(
            "SELECT count(*) FROM t WHERE label = 'new0'"
        ).fetchone() == (0,)
        assert mini.execute(
            "SELECT count(*) FROM t WHERE label = 'row7'"
        ).fetchone() == (1,)

    def test_rollback_spares_rows_committed_during_bulk(self, mini):
        mini.execute("PRAGMA bulk_load(on)")
        _fill(mini, 100)
        mini.commit()
        _fill(mini, 100, start=100)
        mini.rollback()
        mini.execute("PRAGMA bulk_load(off)")
        assert mini.execute("SELECT count(*) FROM t").fetchone() == (100,)
        assert mini.execute(
            "SELECT count(*) FROM t WHERE a = 3"
        ).fetchone() == (10,)

    def test_update_delete_during_bulk_rollback(self, mini):
        with mini.bulk_load():
            _fill(mini, 100)
        mini.commit()
        before = self._snapshot(mini)
        with mini.bulk_load():
            mini.execute("UPDATE t SET a = 99 WHERE b = 5")
            mini.execute("DELETE FROM t WHERE b = 6")
            _fill(mini, 10, start=100)
        mini.rollback()
        assert self._snapshot(mini) == before


class TestDBConnectionBulkLoad:
    """The backend-neutral surface behaves identically on both engines."""

    def test_bulk_load_commits_on_success(self, conn):
        conn.execute(SCHEMA)
        conn.execute("CREATE INDEX ix_a ON t (a)")
        conn.commit()
        with conn.bulk_load():
            conn.executemany(
                "INSERT INTO t (a, b, label) VALUES (?, ?, ?)",
                [(i % 5, i, f"r{i}") for i in range(100)],
            )
        assert conn.scalar("SELECT count(*) FROM t") == 100
        assert conn.scalar("SELECT count(*) FROM t WHERE a = 2") == 20

    def test_bulk_load_rolls_back_on_error(self, conn):
        conn.execute(SCHEMA)
        conn.execute("CREATE UNIQUE INDEX ux_b ON t (b)")
        conn.commit()
        with conn.bulk_load():
            conn.executemany(
                "INSERT INTO t (a, b, label) VALUES (?, ?, ?)",
                [(i, i, f"r{i}") for i in range(10)],
            )
        rows = [(0, 100 + i, "x") for i in range(20)]
        rows[13] = (0, 5, "dup")  # duplicate b
        with pytest.raises(IntegrityError):
            with conn.bulk_load():
                conn.executemany(
                    "INSERT INTO t (a, b, label) VALUES (?, ?, ?)", rows
                )
        assert conn.scalar("SELECT count(*) FROM t") == 10
        assert conn.scalar("SELECT count(*) FROM t WHERE b >= 100") == 0

    def test_begin_end_bulk_are_noops_for_reads(self, conn):
        conn.execute(SCHEMA)
        conn.commit()
        conn.begin_bulk()
        conn.execute("INSERT INTO t (a, b, label) VALUES (1, 2, 'x')")
        assert conn.scalar("SELECT count(*) FROM t") == 1
        conn.end_bulk()
        conn.commit()
        assert conn.scalar("SELECT label FROM t WHERE a = 1") == "x"


def test_bulk_stats_exposed_via_dbconnection():
    conn = connect("minisql://:memory:")
    conn.execute(SCHEMA)
    conn.execute("CREATE INDEX ix_a ON t (a)")
    conn.commit()
    with conn.bulk_load():
        conn.executemany(
            "INSERT INTO t (a, b, label) VALUES (?, ?, ?)",
            [(i % 5, i, f"r{i}") for i in range(64)],
        )
    stats = conn.stats()
    assert stats["bulk_loads"] == 1
    assert stats["bulk_rows"] == 64
    assert stats["bulk_index_rebuilds"] == 1
    conn.close()


# -- index exactness across bulk windows ---------------------------------------
#
# Every scenario below ends with two checks: PRAGMA integrity_check (each
# live index's buckets equal a rebuild from the row store) and the btree
# index's ordered walk equalling a sorted full scan.  Each runs on row and
# columnar storage.


def _database(conn):
    raw = getattr(conn, "_raw", conn)
    return raw._database


def _assert_indexes_exact(conn, table_name, btree_name):
    from repro.db.minisql.types import sort_key

    assert conn.execute("PRAGMA integrity_check").fetchall() == [("ok",)]
    table = _database(conn).table(table_name)
    index = table.indexes[btree_name]
    assert not index.stale
    position = index.column_positions[0]
    expected = [
        rowid
        for _, rowid in sorted(
            (sort_key(row[position]), rowid) for rowid, row in table.scan()
        )
    ]
    assert list(index.range_rowids(include_null=True)) == expected


@pytest.fixture(params=["row", "columnar"])
def stored(request):
    conn = minisql_connect()
    conn.execute(SCHEMA)
    conn.execute("CREATE INDEX ix_a ON t (a)")
    conn.execute("CREATE INDEX ix_b ON t (b) USING BTREE")
    if request.param == "columnar":
        conn.execute("PRAGMA columnar(t on)")
    conn.commit()
    yield conn
    conn.close()


def _fill_shuffled(conn, n, start=0):
    # b values interleave with earlier batches so the btree's new keys do
    # not simply extend its sorted tail.
    conn.executemany(
        "INSERT INTO t (a, b, label) VALUES (?, ?, ?)",
        [(i % 7, (i * 37) % 1009, f"row{i}") for i in range(start, start + n)],
    )


class TestIndexExactness:
    def test_second_bulk_save_into_nonempty_table(self, stored):
        with stored.bulk_load():
            _fill_shuffled(stored, 300)
        stored.commit()
        with stored.bulk_load():
            _fill_shuffled(stored, 200, start=300)
        stored.commit()
        _assert_indexes_exact(stored, "t", "ix_b")
        assert stored.execute(
            "SELECT count(*) FROM t WHERE a = 3"
        ).fetchone() == (sum(1 for i in range(500) if i % 7 == 3),)

    def test_window_spans_commit_then_rollback(self, stored):
        _fill_shuffled(stored, 50)
        stored.commit()
        stored.execute("PRAGMA bulk_load(on)")
        _fill_shuffled(stored, 100, start=50)
        stored.commit()
        _fill_shuffled(stored, 100, start=150)
        stored.rollback()
        stored.execute("PRAGMA bulk_load(off)")
        assert stored.execute("SELECT count(*) FROM t").fetchone() == (150,)
        _assert_indexes_exact(stored, "t", "ix_b")

    @pytest.mark.parametrize("finish", ["commit", "rollback"])
    def test_pre_watermark_update_and_delete_in_window(self, stored, finish):
        with stored.bulk_load():
            _fill_shuffled(stored, 200)
        stored.commit()
        with stored.bulk_load():
            _fill_shuffled(stored, 20, start=200)  # suspends the indexes
            stored.execute("UPDATE t SET a = 99, b = -5 WHERE label = 'row5'")
            stored.execute("DELETE FROM t WHERE label = 'row6'")
            _fill_shuffled(stored, 20, start=220)
        getattr(stored, finish)()
        _assert_indexes_exact(stored, "t", "ix_b")
        expect_update = 1 if finish == "commit" else 0
        assert stored.execute(
            "SELECT count(*) FROM t WHERE a = 99"
        ).fetchone() == (expect_update,)
        assert stored.execute(
            "SELECT count(*) FROM t WHERE b = -5"
        ).fetchone() == (expect_update,)

    @pytest.mark.parametrize("before_window", [0, 40])
    def test_delete_restored_by_rollback_in_window(self, stored, before_window):
        # Rows deleted inside the window and put back by ROLLBACK: rows
        # from before the window (already in the suspended indexes) and
        # rows committed inside it (not yet in them).
        _fill_shuffled(stored, before_window)
        stored.commit()
        stored.execute("PRAGMA bulk_load(on)")
        _fill_shuffled(stored, 40, start=before_window)
        stored.commit()
        stored.execute("DELETE FROM t WHERE a = 2")
        _fill_shuffled(stored, 40, start=before_window + 40)
        stored.rollback()
        stored.execute("PRAGMA bulk_load(off)")
        assert stored.execute("SELECT count(*) FROM t").fetchone() == (
            before_window + 40,
        )
        _assert_indexes_exact(stored, "t", "ix_b")

    def test_nulls_and_untyped_values_in_second_batch(self, stored):
        # NULLs and values a typed column cannot hold natively (a
        # non-integral float, a 70-bit int, text in an INTEGER column)
        # sit in a columnar table's NULL map and escape hatch.
        with stored.bulk_load():
            _fill_shuffled(stored, 50)
        stored.commit()
        odd = [None, 2.5, 2**70, "text", None, -3]
        with stored.bulk_load():
            stored.executemany(
                "INSERT INTO t (a, b, label) VALUES (?, ?, ?)",
                [(v, v, f"odd{i}") for i, v in enumerate(odd)],
            )
        stored.commit()
        _assert_indexes_exact(stored, "t", "ix_b")
        assert stored.execute(
            "SELECT label FROM t WHERE b IS NULL ORDER BY label"
        ).fetchall() == [("odd0",), ("odd4",)]
        assert stored.execute(
            "SELECT label FROM t WHERE a = 2.5"
        ).fetchall() == [("odd1",)]

    def test_tombstone_compaction_inside_window(self, stored):
        # Columnar tables compact tombstoned slots once they dominate; a
        # rollback inside the window triggers that, with tombstones left
        # below the window's first slot by an earlier delete.
        _fill_shuffled(stored, 20)
        stored.execute("DELETE FROM t WHERE id <= 10")
        stored.commit()
        stored.execute("PRAGMA bulk_load(on)")
        _fill_shuffled(stored, 300, start=20)
        stored.commit()
        _fill_shuffled(stored, 400, start=320)
        stored.rollback()
        stored.execute("PRAGMA bulk_load(off)")
        assert stored.execute("SELECT count(*) FROM t").fetchone() == (310,)
        _assert_indexes_exact(stored, "t", "ix_b")

    def test_unique_violation_mid_batch_then_rollback(self, stored):
        stored.execute("CREATE UNIQUE INDEX ux_label ON t (label)")
        with stored.bulk_load():
            _fill_shuffled(stored, 100)
        stored.commit()
        rows = [(1, 2000 + i, f"new{i}") for i in range(30)]
        rows[17] = (1, 3000, "row7")
        with pytest.raises(IntegrityError):
            with stored.bulk_load():
                stored.executemany(
                    "INSERT INTO t (a, b, label) VALUES (?, ?, ?)", rows
                )
        stored.rollback()
        assert stored.execute("SELECT count(*) FROM t").fetchone() == (100,)
        assert stored.execute(
            "SELECT count(*) FROM t WHERE b >= 2000"
        ).fetchone() == (0,)
        _assert_indexes_exact(stored, "t", "ix_b")


def _three_metric_trial(ranks=6, events=5):
    import numpy as np

    from repro.core.model.columnar import ColumnarTrial

    trial = ColumnarTrial.allocate(
        [f"ev{i}" for i in range(events)],
        ["TIME", "PAPI_FP_OPS", "PAPI_L2_DCM"],
        ColumnarTrial.flat_topology(ranks),
    )
    rng = np.random.default_rng(3)
    for m in range(3):
        trial.inclusive[m][:] = rng.random((ranks, events)) * 100
        trial.exclusive[m][:] = trial.inclusive[m] * 0.5
    trial.calls[:] = rng.integers(1, 20, (ranks, events)).astype(float)
    trial.subroutines[:] = rng.integers(0, 3, (ranks, events)).astype(float)
    return trial


@pytest.mark.parametrize("storage", ["row", "columnar"])
def test_save_trial_failing_mid_ilp_leaves_indexes_exact(storage, monkeypatch):
    from repro.core.session import PerfDMFSession
    from repro.core.session import dbsession

    session = PerfDMFSession("minisql://:memory:")
    conn = session.connection
    if storage == "row":
        conn.execute("PRAGMA columnar(interval_location_profile off)")
        conn.commit()
    experiment = session.create_experiment(session.create_application("a"), "e")
    source = _three_metric_trial()
    session.save_trial(source, experiment, "kept")
    ilp = "interval_location_profile"
    ordered = (
        f"SELECT * FROM {ilp} ORDER BY metric, interval_event, node, "
        "context, thread"
    )
    before = conn.query(ordered)

    real_rows = dbsession._location_rows_bulk

    def failing_rows(columnar, m, metric_id, event_ids):
        if m == 1:  # metric 0's rows are already in the table
            raise RuntimeError("parser died mid-trial")
        return real_rows(columnar, m, metric_id, event_ids)

    monkeypatch.setattr(dbsession, "_location_rows_bulk", failing_rows)
    with pytest.raises(RuntimeError, match="mid-trial"):
        session.save_trial(source, experiment, "lost")
    monkeypatch.setattr(dbsession, "_location_rows_bulk", real_rows)

    assert conn.query(ordered) == before
    # Trial.save() commits the trial row before the bulk window opens;
    # everything inside the window is rolled back.
    assert conn.scalar("SELECT count(*) FROM metric") == 3
    _assert_indexes_exact(conn, ilp, "idx_ilp_node")

    session.save_trial(source, experiment, "after")
    assert conn.scalar(f"SELECT count(*) FROM {ilp}") == 2 * len(before)
    _assert_indexes_exact(conn, ilp, "idx_ilp_node")
    session.close()


class TestBulkIndexRows:
    """``bulk_index_rows``: rows fed to suspended indexes at the finish,
    summed over indexes — the batch, unless the table fell back."""

    def test_second_save_feeds_only_its_batch(self, stored):
        with stored.bulk_load():
            _fill_shuffled(stored, 300)
        stored.commit()
        assert stored.stats()["bulk_index_rows"] == 2 * 300
        with stored.bulk_load():
            _fill_shuffled(stored, 50, start=300)
        stored.commit()
        # ix_a + ix_b, 50 rows each; the 300 earlier rows are not re-read.
        assert stored.stats()["bulk_index_rows"] == 2 * 300 + 2 * 50

    def test_rolled_back_rows_are_not_fed(self, stored):
        stored.execute("PRAGMA bulk_load(on)")
        _fill_shuffled(stored, 30)
        stored.commit()
        _fill_shuffled(stored, 70, start=30)
        stored.rollback()
        stored.execute("PRAGMA bulk_load(off)")
        assert stored.stats()["bulk_index_rows"] == 2 * 30

    def test_pre_watermark_change_counts_whole_table(self, stored):
        with stored.bulk_load():
            _fill_shuffled(stored, 100)
        stored.commit()
        stored.reset_stats()
        with stored.bulk_load():
            _fill_shuffled(stored, 10, start=100)
            stored.execute("DELETE FROM t WHERE label = 'row3'")
        stored.commit()
        assert stored.stats()["bulk_index_rows"] == 2 * 109
        _assert_indexes_exact(stored, "t", "ix_b")

    def test_counter_reaches_metrics_exposition(self):
        from repro.obs.metrics import registry

        conn = connect("minisql://:memory:")
        conn.execute(SCHEMA)
        conn.execute("CREATE INDEX ix_a ON t (a)")
        conn.commit()
        with conn.bulk_load():
            _fill(conn, 40)
        assert conn.stats()["bulk_index_rows"] == 40
        assert registry.gauge("db.bulk_index_rows").value == 40
        assert "db_bulk_index_rows 40" in registry.to_prometheus()
        conn.close()
