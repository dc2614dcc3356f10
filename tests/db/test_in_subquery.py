"""``x IN (SELECT ...)``: three-valued answers pinned against sqlite3.

The subquery's result is probed per outer row, so these cases fix what
MiniSQL's affinity-aware equality answers (numeric text converts when
compared with a number, text compared with text stays text, NULL makes
a miss unknown) before and after any change to how the probe is built.
Cases where MiniSQL deliberately answers differently from sqlite3 carry
MiniSQL's value and the reason.
"""

import sqlite3

import pytest

from repro.db import minisql

INF = float("inf")

#: (lhs type, candidate type, lhs value, candidates, (IN, NOT IN))
AGREES = [
    ("INTEGER", "TEXT", 1, ["1.0"], (1, 0)),
    ("TEXT", "TEXT", "1", ["1.0"], (0, 1)),
    ("INTEGER", "REAL", 1, [1.0], (1, 0)),
    ("TEXT", "INTEGER", "1", [1], (1, 0)),
    ("INTEGER", "INTEGER", 2, [1, None], (None, None)),
    ("INTEGER", "INTEGER", 1, [1, None], (1, 0)),
    ("INTEGER", "INTEGER", None, [1], (None, None)),
    ("INTEGER", "INTEGER", 2, [], (0, 1)),
    ("TEXT", "TEXT", "abc", ["abc"], (1, 0)),
    ("TEXT", "TEXT", "abc", ["ABC"], (0, 1)),
    ("REAL", "TEXT", 1.5, ["1.5"], (1, 0)),
    ("TEXT", "INTEGER", " 1", [1], (1, 0)),
    ("REAL", "INTEGER", -0.0, [0], (1, 0)),
    ("INTEGER", "REAL", 2**53 + 1, [float(2**53)], (0, 1)),
    ("TEXT", "INTEGER", "1e3", [1000], (1, 0)),
    ("TEXT", "INTEGER", "x", [1, None], (None, None)),
    ("TEXT", "TEXT", "1", ["1", None], (1, 0)),
    ("INTEGER", "TEXT", 7, ["abc", "7"], (1, 0)),
    ("TEXT", "TEXT", "7", ["abc", "7.0", None], (None, None)),
    ("INTEGER", "TEXT", 7, ["7.0", "x", None], (1, 0)),
]

#: Deliberate differences: MiniSQL's value, then the reason.
DIFFERS = [
    # A NULL operand is unknown before the subquery is consulted.
    ("INTEGER", "INTEGER", None, [], (None, None)),
    # Text is converted with Python's float(), which reads inf and
    # digit-group underscores; sqlite3 keeps such text as text.
    ("REAL", "TEXT", INF, ["inf"], (1, 0)),
    ("TEXT", "REAL", "inf", [INF], (1, 0)),
    ("TEXT", "INTEGER", "1_000", [1000], (1, 0)),
]


def _answers(conn, lhs_type, rhs_type, value, candidates):
    conn.execute(f"CREATE TABLE l (v {lhs_type})")
    conn.execute(f"CREATE TABLE r (w {rhs_type})")
    conn.execute("INSERT INTO l VALUES (?)", (value,))
    for candidate in candidates:
        conn.execute("INSERT INTO r VALUES (?)", (candidate,))
    listed = conn.execute(
        "SELECT v IN (SELECT w FROM r), v NOT IN (SELECT w FROM r) FROM l"
    ).fetchall()[0]
    kept = conn.execute(
        "SELECT count(*) FROM l WHERE v IN (SELECT w FROM r)"
    ).fetchone()[0]
    dropped = conn.execute(
        "SELECT count(*) FROM l WHERE v NOT IN (SELECT w FROM r)"
    ).fetchone()[0]
    assert kept == int(listed[0] == 1)
    assert dropped == int(listed[1] == 1)
    return tuple(listed)


@pytest.fixture(params=["row", "columnar"])
def mini(request):
    conn = minisql.connect()
    if request.param == "columnar":
        conn.execute("PRAGMA columnar(on)")
    yield conn
    conn.close()


@pytest.mark.parametrize("case", AGREES, ids=repr)
def test_matches_sqlite(mini, case):
    *shape, expected = case
    assert _answers(mini, *shape) == expected
    assert _answers(sqlite3.connect(":memory:"), *shape) == expected


@pytest.mark.parametrize("case", DIFFERS, ids=repr)
def test_pinned_differences(mini, case):
    *shape, expected = case
    assert _answers(mini, *shape) == expected
    assert _answers(sqlite3.connect(":memory:"), *shape) != expected


def test_nan_never_matches_itself(mini):
    # Row storage hands out the same float object to the outer row and
    # the subquery, so a probe that checks identity first would match.
    mini.execute("CREATE TABLE t (x REAL, tag TEXT)")
    mini.execute("INSERT INTO t VALUES (?, 'nan')", (float("nan"),))
    mini.execute("INSERT INTO t VALUES (1.0, 'one')")
    mini.execute("CREATE TABLE s (y TEXT)")
    mini.execute("INSERT INTO s VALUES ('nan')")
    assert mini.execute(
        "SELECT tag, x IN (SELECT x FROM t), x NOT IN (SELECT x FROM t) "
        "FROM t ORDER BY tag"
    ).fetchall() == [("nan", 0, 1), ("one", 1, 0)]
    assert mini.execute(
        "SELECT tag FROM t WHERE x IN (SELECT x FROM t)"
    ).fetchall() == [("one",)]
    # Text 'nan' converts to a NaN float, which equals nothing either.
    assert mini.execute(
        "SELECT tag, x IN (SELECT y FROM s), tag IN (SELECT y FROM s) "
        "FROM t ORDER BY tag"
    ).fetchall() == [("nan", 0, 1), ("one", 0, 0)]


def test_subquery_refilled_per_execution(mini):
    mini.execute("CREATE TABLE a (v INTEGER)")
    mini.execute("CREATE TABLE b (w TEXT)")
    mini.execute("INSERT INTO a VALUES (1), (2), (3)")
    sql = "SELECT v FROM a WHERE v IN (SELECT w FROM b) ORDER BY v"
    assert mini.execute(sql).fetchall() == []
    mini.execute("INSERT INTO b VALUES ('2'), ('3.0')")
    assert mini.execute(sql).fetchall() == [(2,), (3,)]
    mini.execute("DELETE FROM b WHERE w = '2'")
    assert mini.execute(sql).fetchall() == [(3,)]
