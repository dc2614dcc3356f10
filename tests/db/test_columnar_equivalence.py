"""Differential harness: row storage vs columnar storage.

The vectorized executor ships results only when a whole SELECT completes
cleanly over the column vectors; anything else falls back to the row
pipeline.  That "atomic or fallback" contract is what this suite pins
down: for the full conformance corpus the two MiniSQL storage modes must
produce identical outcomes, and statements that *error* mid-execution
must raise the pinned error class and message at the pinned point in
the statement lifecycle (execute vs fetch) in both modes.  Results
themselves are checked against sqlite3 by ``test_differential_sql``.
"""

from __future__ import annotations

import pytest

from repro.db import minisql
from tests.test_differential_sql import CORPUS, Err, _normalise

#: Pragmas establishing each storage mode on a fresh connection.
MODES = {
    "row": (),
    "columnar": ("PRAGMA columnar(on)",),
}


def _connect(mode: str):
    conn = minisql.connect()
    for pragma in MODES[mode]:
        conn.execute(pragma)
    return conn


def _outcome(conn, sql, params):
    """One statement's observable behaviour, as a comparable value.

    Captures *when* an error surfaces (execute vs fetch), its class, and
    its message — not just the result rows — so a vectorized path that
    produced the right rows but raised early (or swallowed an error)
    still counts as a divergence.
    """
    try:
        cursor = conn.execute(sql, params)
    except Exception as exc:
        conn.rollback()
        return ("error@execute", type(exc).__name__, str(exc))
    if sql.lstrip().upper().startswith("SELECT"):
        try:
            rows = cursor.fetchall()
        except Exception as exc:
            conn.rollback()
            return ("error@fetch", type(exc).__name__, str(exc))
        return ("rows", _normalise(rows))
    conn.commit()
    return ("ok", cursor.rowcount)


@pytest.fixture
def modes():
    conns = {mode: _connect(mode) for mode in MODES}
    yield conns
    for conn in conns.values():
        conn.close()


class TestCorpusThreeWay:
    """Row vs columnar over the corpus (sqlite3 is the third way, in
    ``test_differential_sql``)."""

    def test_corpus_no_divergence(self, modes):
        """Replay the full conformance corpus through both modes."""
        for position, entry in enumerate(CORPUS):
            if isinstance(entry, Err):
                sql, params = entry.sql, entry.params
            else:
                sql, params = entry
            outcomes = {
                mode: _outcome(conn, sql, params)
                for mode, conn in modes.items()
            }
            distinct = set(map(repr, outcomes.values()))
            assert len(distinct) == 1, (
                f"statement #{position} diverged: {sql!r}\n"
                + "\n".join(f"  {m}: {o!r}" for m, o in outcomes.items())
            )
        # The corpus's expected-error entries must have raised (not been
        # silently skipped) — otherwise agreement is vacuous.
        errs = [e for e in CORPUS if isinstance(e, Err)]
        assert errs

    def test_final_state_identical(self, modes):
        for entry in CORPUS:
            if isinstance(entry, Err):
                sql, params = entry.sql, entry.params
            else:
                sql, params = entry
            for conn in modes.values():
                _outcome(conn, sql, params)
        states = {}
        for mode, conn in modes.items():
            tables = sorted(
                r[0] for r in conn.execute("PRAGMA table_list").fetchall()
            )
            states[mode] = {
                t: _normalise(
                    conn.execute(f"SELECT * FROM {t}").fetchall()
                )
                for t in tables
            }
            # Order-insensitive comparison: sort by repr so NULLs and
            # mixed types don't break tuple ordering.
            for t in states[mode]:
                states[mode][t] = sorted(states[mode][t], key=repr)
        assert states["row"] == states["columnar"]

    def test_columnar_mode_actually_vectorizes(self, modes):
        """Guard against a vacuous pass: the columnar connection must
        have run real vectorized selects over the corpus."""
        for entry in CORPUS:
            if isinstance(entry, Err):
                continue
            sql, params = entry
            for conn in modes.values():
                _outcome(conn, sql, params)
        stats = modes["columnar"].stats()
        assert stats["vector_selects"] > 0
        assert modes["row"].stats()["vector_selects"] == 0


#: SELECTs guaranteed to fail on the `mix` fixture table (a text value
#: in a numeric expression, an unknown function, ...), each with its
#: pinned (phase, error class, message) outcome.  Both modes must raise
#: exactly that.
ERROR_CASES = {
    "SELECT -x FROM mix": (
        "error@execute", "DataError", "non-numeric operand for unary -: 'abc'"),
    "SELECT x * 2 FROM mix": (
        "error@execute", "DataError", "non-numeric operand for *: 'abc'"),
    "SELECT x + 1 FROM mix WHERE id > 1": (
        "error@execute", "DataError", "non-numeric operand for +: 'abc'"),
    "SELECT abs(x) FROM mix": (
        "error@execute", "ProgrammingError",
        "wrong argument count for ABS(): bad operand type for abs(): 'str'"),
    "SELECT sum(x) FROM mix": (
        "error@execute", "TypeError",
        "unsupported operand type(s) for +: 'int' and 'str'"),
    "SELECT nosuch(x) FROM mix": (
        "error@execute", "ProgrammingError", "no such function: NOSUCH"),
    "SELECT id FROM mix WHERE x - 1 > 0": (
        "error@execute", "DataError", "non-numeric operand for -: 'abc'"),
    "SELECT id FROM mix WHERE x BETWEEN 1 AND 'oops' + 1": (
        "error@execute", "DataError", "non-numeric operand for +: 'oops'"),
    "SELECT max(id) FROM mix ORDER BY x / 'zero'": (
        "error@execute", "DataError", "non-numeric operand for /: 'zero'"),
}


class TestErrorTiming:
    @pytest.fixture
    def modes(self):
        conns = {}
        for mode in MODES:
            conn = _connect(mode)
            conn.execute("CREATE TABLE mix (id INTEGER, x)")
            conn.executemany(
                "INSERT INTO mix VALUES (?, ?)",
                [(1, 5), (2, 7), (3, "abc"), (4, 9)],
            )
            conn.commit()
            conns[mode] = conn
        yield conns
        for conn in conns.values():
            conn.close()

    @pytest.mark.parametrize("sql", ERROR_CASES)
    def test_error_class_message_and_phase_agree(self, modes, sql):
        expected = ERROR_CASES[sql]
        for mode, conn in modes.items():
            assert _outcome(conn, sql, ()) == expected, mode

    def test_failed_vector_attempt_counts_as_fallback(self, modes):
        conn = modes["columnar"]
        before = conn.stats()["vector_fallbacks"]
        with pytest.raises(minisql.MiniSQLError):
            conn.execute("SELECT -x FROM mix").fetchall()
        conn.rollback()
        assert conn.stats()["vector_fallbacks"] > before
