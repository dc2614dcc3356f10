"""Opening an archive that an earlier release left partly in shard files.

Earlier releases could move a table's rows into ``<archive>.shards/``
and record that in ``meta.json``.  Those rows are not in the archive, so
an open must refuse rather than serve a silently truncated table, and
must leave every file as it found it.
"""

from __future__ import annotations

import json

import pytest

from repro.db import minisql


def _snapshot(directory):
    return {
        path.relative_to(directory): path.read_bytes()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


@pytest.fixture
def archive(tmp_path):
    path = tmp_path / "archive.mdb"
    conn = minisql.connect(f"file:{path}")
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)")
    conn.executemany("INSERT INTO t (x) VALUES (?)", [(1.0,), (2.0,)])
    conn.commit()
    conn.close()
    minisql.reset_shared_databases()
    return path


def _write_meta(archive, text):
    sidecar = archive.parent / (archive.name + ".shards")
    sidecar.mkdir()
    (sidecar / "meta.json").write_text(text)
    return sidecar / "meta.json"


@pytest.mark.parametrize("meta", [
    {"version": 1, "nshards": 2, "parallel": "auto",
     "resident": {"t": [3, 4]}, "pending": None},
    {"version": 1, "nshards": 2, "parallel": "auto",
     "resident": {}, "pending": {"op": "ingest", "table": "t"}},
], ids=["resident", "pending"])
def test_sidecar_holding_rows_refuses_open(archive, meta):
    sidecar = _write_meta(archive, json.dumps(meta))
    before = _snapshot(archive.parent)
    with pytest.raises(minisql.DatabaseError) as err:
        minisql.connect(f"file:{archive}")
    assert str(sidecar) in str(err.value)
    assert "PRAGMA shards(off)" in str(err.value)
    assert _snapshot(archive.parent) == before


def test_unreadable_sidecar_refuses_open(archive):
    _write_meta(archive, "{not json")
    before = _snapshot(archive.parent)
    with pytest.raises(minisql.DatabaseError):
        minisql.connect(f"file:{archive}")
    assert _snapshot(archive.parent) == before


def test_inert_sidecar_is_ignored(archive):
    _write_meta(archive, json.dumps({
        "version": 1, "nshards": 2, "parallel": "auto",
        "resident": {}, "pending": None,
    }))
    conn = minisql.connect(f"file:{archive}")
    assert conn.execute("SELECT x FROM t ORDER BY id").fetchall() == [
        (1.0,), (2.0,),
    ]
    conn.close()
