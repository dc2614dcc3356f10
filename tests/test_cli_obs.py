"""Tests for the observability CLI surface: `repro stats`, `repro sql`,
`load --stats`, and `--trace FILE` export."""

import json
import time

import pytest

from repro.cli import main
from repro.obs.metrics import registry
from repro.obs.trace import tracer
from repro.tau.apps import EVH1
from repro.tau.writers import write_tau_profiles


@pytest.fixture
def db(tmp_path):
    return f"sqlite://{tmp_path}/cli.db"


@pytest.fixture
def profiles(tmp_path):
    source = EVH1(problem_size=0.05, timesteps=1).run(4)
    target = tmp_path / "profiles"
    write_tau_profiles(source, target)
    return target


def load_args(db, profiles):
    return [
        "load", "--db", db, "--app", "evh1", "--exp", "scaling",
        "--trial", "P=4", str(profiles),
    ]


class TestStatsCommand:
    def test_text_dump(self, capsys):
        registry.counter("cli.test_counter").inc(3)
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "cli.test_counter: 3" in out

    def test_json_dump(self, capsys):
        registry.counter("cli.test_counter").inc()
        assert main(["stats", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "cli.test_counter" in doc["metrics"]

    def test_prometheus_dump(self, capsys):
        registry.counter("cli.test_counter").inc()
        assert main(["stats", "--format", "prometheus"]) == 0
        assert "# TYPE cli_test_counter counter" in capsys.readouterr().out

    def test_reset(self, capsys):
        registry.counter("cli.reset_counter").inc(9)
        assert main(["stats", "--reset"]) == 0
        captured = capsys.readouterr()
        assert "cli.reset_counter: 9" in captured.out
        assert "reset" in captured.err
        assert registry.counter("cli.reset_counter").value == 0

    def test_db_counters_absorbed(self, db, profiles, capsys):
        assert main(["configure", "--db", db]) == 0
        assert main(load_args(db, profiles)) == 0
        capsys.readouterr()
        assert main(["stats", "--db", db, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # save_trial's per-stage timings surface as db.* gauges.
        assert doc["metrics"]["db.ingest_rows"]["value"] > 0


class TestLoadStats:
    def test_load_stats_prints_stage_timings(self, db, profiles, capsys):
        assert main(["configure", "--db", db]) == 0
        assert main(load_args(db, profiles) + ["--stats"]) == 0
        out = capsys.readouterr().out
        assert "ingest stage timings:" in out
        assert "parse" in out
        assert "insert" in out
        assert "rows/second" in out


class TestTraceExport:
    def test_load_trace_writes_chrome_file(self, db, profiles, tmp_path, capsys):
        assert main(["configure", "--db", db]) == 0
        trace = tmp_path / "load.json"
        assert main(load_args(db, profiles) + ["--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"trace span(s) to {trace}" in out
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "session.save_trial" in names
        assert "db.execute" in names
        assert not tracer.enabled  # turned back off on exit

    def test_jsonl_extension_selects_jsonl(self, db, profiles, tmp_path, capsys):
        assert main(["configure", "--db", db]) == 0
        trace = tmp_path / "load.jsonl"
        assert main(load_args(db, profiles) + ["--trace", str(trace)]) == 0
        capsys.readouterr()
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert records and all("span_id" in r for r in records)


class TestSqlCommand:
    def test_select_prints_rows(self, db, capsys):
        assert main(["configure", "--db", db]) == 0
        capsys.readouterr()
        assert main(["sql", "--db", db, "SELECT 1 AS one"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "one"
        assert out[1] == "1"

    def test_explain_analyze_against_fresh_archive(self, tmp_path, capsys):
        db = f"minisql://{tmp_path.name}-sqlcmd"
        assert main(["configure", "--db", db]) == 0
        capsys.readouterr()
        assert main([
            "sql", "--db", db,
            "EXPLAIN ANALYZE SELECT * FROM trial WHERE experiment = 1",
        ]) == 0
        out = capsys.readouterr().out
        header, *rows = out.splitlines()
        assert header.split("\t") == [
            "id", "detail", "rows", "time_ms", "vectorized",
        ]
        assert any("RESULT" in row for row in rows)

    def test_dml_reports_rowcount(self, db, capsys):
        assert main(["configure", "--db", db]) == 0
        capsys.readouterr()
        assert main([
            "sql", "--db", db,
            "INSERT INTO application (name) VALUES ('from-sql')",
        ]) == 0
        assert "1 row(s) affected" in capsys.readouterr().out
        assert main(["sql", "--db", db, "SELECT name FROM application"]) == 0
        assert "from-sql" in capsys.readouterr().out

    def test_sql_error_reported(self, db, capsys):
        assert main(["configure", "--db", db]) == 0
        capsys.readouterr()
        code = main(["sql", "--db", db, "SELECT * FROM missing_table"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestStatsServer:
    """`repro stats --server HOST:PORT` reads a live server's registry
    over the get_stats RPC; --watch survives a server restart."""

    @pytest.fixture
    def server(self, db):
        from repro.explorer import AnalysisServer, SocketServer

        assert main(["configure", "--db", db]) == 0
        sock = SocketServer(AnalysisServer(db))
        host, port = sock.start()
        yield sock, host, port
        sock.stop()

    def test_single_shot_remote_snapshot(self, server, capsys):
        _sock, host, port = server
        assert main(["stats", "--server", f"{host}:{port}"]) == 0
        out = capsys.readouterr().out
        assert "server.requests" in out

    def test_remote_prometheus_format(self, server, capsys):
        _sock, host, port = server
        assert main(["stats", "--server", f"{host}:{port}",
                     "--format", "prometheus"]) == 0
        assert "# TYPE server_requests counter" in capsys.readouterr().out

    def test_bad_server_spec(self, capsys):
        assert main(["stats", "--server", "nonsense"]) == 1
        assert "HOST:PORT" in capsys.readouterr().err

    def test_histogram_percentiles_in_text(self, capsys):
        registry.histogram("cli.latency_test").observe(0.5)
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "p50=" in out and "p95=" in out and "p99=" in out

    def test_watch_survives_server_restart(self, db, capsys):
        """The satellite fix: a restarting server must not crash
        --watch; the loop reconnects with the client's backoff."""
        import threading

        from repro.explorer import AnalysisServer, SocketServer

        assert main(["configure", "--db", db]) == 0
        sock = SocketServer(AnalysisServer(db))
        host, port = sock.start()

        result = {}

        def watch() -> None:
            result["rc"] = main([
                "stats", "--server", f"{host}:{port}",
                "--watch", "0.2", "--watch-count", "12",
            ])

        thread = threading.Thread(target=watch)
        thread.start()
        try:
            time.sleep(0.5)   # a few successful ticks
            sock.stop()       # server goes away mid-watch
            # Long enough that at least one tick exhausts the client's
            # in-call reconnect backoff and reports the outage.
            time.sleep(1.5)
            sock = SocketServer(AnalysisServer(db), host=host, port=port)
            sock.start()      # same address comes back
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        finally:
            sock.stop()
        assert result["rc"] == 0
        captured = capsys.readouterr()
        # Ticks kept flowing the whole time...
        assert captured.out.count("--\n") == 12
        # ...the outage was reported, not fatal...
        assert "server unavailable" in captured.err
        # ...and snapshots flowed again after the restart.
        assert captured.out.count("server.requests") >= 2
