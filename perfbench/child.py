"""Child processes the benchmark drives: the PerfExplorer server and the
``perfdmf load`` ingest loop.

Usage (spawned by ``run.py``, never by hand)::

    python3 perfbench/child.py serve  PLAN.json ARCHIVE_URL [--trace SPANS.json]
    python3 perfbench/child.py ingest PLAN.json ARCHIVE_URL [--trace SPANS.json]
    python3 perfbench/child.py verify PLAN.json ARCHIVE_URL
    python3 perfbench/child.py probe

``serve`` and ``ingest`` build their archive through ``save_trial`` and
print one ``READY`` JSON line; the parent times spawn-to-READY as
set-up.  Commands then arrive on stdin, one per line, and every reply is
one tagged JSON line on stdout.  With ``--trace`` the program's public
functions are wrapped (see :func:`install_spans`) and the spans are
written to SPANS.json.  ``verify`` reopens an archive after a SIGKILL
and prints one ``RESULT`` line.  ``probe`` times a fixed slice of the
benchmark's own code until its stdin closes (see :func:`probe`).

Timestamps that cross processes are ``time.monotonic()`` readings.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import SpanRecorder  # noqa: E402

#: The program's default flush policy, pinned so a later default change
#: cannot silently change what the benchmark measures.
SYNCHRONOUS = "normal"

#: Period of the host-speed probe; each slice takes about 1 ms of CPU.
PROBE_PERIOD_S = 0.1

CATALOG_METHODS = (
    "get_application_list", "get_experiment_list", "get_trial_list",
    "get_metrics", "get_interval_events",
)


def emit(tag: str, payload: dict) -> None:
    sys.stdout.write(tag + " " + json.dumps(payload) + "\n")
    sys.stdout.flush()


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def install_spans(recorder: SpanRecorder) -> None:
    """Wrap the public functions each layer exposes.  Names the server
    module imported by value are wrapped where it binds them."""
    from repro.core.model import DataSource
    from repro.core.session.dbsession import PerfDMFSession
    from repro.db.api import DBConnection
    from repro.explorer import eventloop, rproxy
    from repro.explorer import server as server_module
    from repro.paraprof import manager

    wrap = recorder.wrap
    wrap(server_module.AnalysisServer, "handle_request", "server.handle",
         lambda a, k, r: a[1])
    for name in ("imbalance_chart", "correlation_matrix", "cluster_trial",
                 "event_values", "summarize_clusters"):
        wrap(server_module, name, "analysis." + name)
    for name in ("describe", "correlate"):
        wrap(rproxy.NumpyAnalysisBackend, name, "analysis." + name)
    wrap(eventloop, "encode_message", "protocol.encode",
         lambda a, k, r: len(r) if r is not None else 0)
    wrap(eventloop, "decode_message", "protocol.decode")
    wrap(PerfDMFSession, "load_datasource", "session.load_datasource")
    wrap(PerfDMFSession, "save_trial", "session.save_trial")
    for name in CATALOG_METHODS:
        wrap(PerfDMFSession, name, "session.catalog")
    wrap(DataSource, "generate_statistics", "model.generate_statistics")
    wrap(manager, "load_profile", "io.load_profile")
    wrap(DBConnection, "execute", "db.execute",
         lambda a, k, r: int(a[1].lstrip()[:6].upper() == "SELECT"))
    for name in ("executemany", "insert", "executescript", "commit",
                 "begin_bulk", "end_bulk"):
        wrap(DBConnection, name, "db." + name)
    wrap(DBConnection, "query", "db.query",
         lambda a, k, r: len(r) if r is not None else 0)
    wrap(DBConnection, "query_one", "db.query_one",
         lambda a, k, r: int(r is not None))

    # The dispatch queue: a request waits between the reactor handing it
    # to the worker pool and a worker picking it up.
    queued: dict[int, float] = {}
    ingest, execute = eventloop.SocketServer._ingest, eventloop.SocketServer._execute

    def _ingest(self, conn, request):
        if recorder.enabled:
            queued[id(request)] = time.perf_counter()
        return ingest(self, conn, request)

    def _execute(self, request):
        since = queued.pop(id(request), None)
        if since is not None:
            recorder.record("eventloop.queue", since, time.perf_counter())
        return execute(self, request)

    eventloop.SocketServer._ingest = _ingest
    eventloop.SocketServer._execute = _execute


def pin_synchronous(connection) -> str:
    connection.execute(f"PRAGMA synchronous = {SYNCHRONOUS}")
    return str(connection.scalar("PRAGMA synchronous"))


class BuildClock:
    """Times the archive build: wall and CPU from the first save to the
    last commit, points stored and WAL bytes written."""

    def __init__(self, connection):
        self.connection = connection
        self.points = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.wal_bytes = 0

    def save(self, session, source, experiment, name):
        wal0 = self.connection.stats().get("wal_bytes", 0)
        t0, c0 = time.perf_counter(), cpu_seconds()
        trial = session.save_trial(source, experiment, name)
        self.wall += time.perf_counter() - t0
        self.cpu += cpu_seconds() - c0
        self.wal_bytes += self.connection.stats().get("wal_bytes", 0) - wal0
        self.points += source.num_data_points
        return trial

    def report(self) -> dict:
        return {"points": self.points, "wall_s": self.wall, "cpu_s": self.cpu,
                "wal_bytes": self.wal_bytes}


def serve(plan: dict, url: str, spans_path: str | None) -> None:
    from inputs import read_npz
    from repro.explorer.server import AnalysisServer, SocketServer

    recorder = SpanRecorder()
    if spans_path:
        install_spans(recorder)
    analysis = AnalysisServer(url)
    session, connection = analysis.session, analysis.session.connection
    synchronous = pin_synchronous(connection)
    clock = BuildClock(connection)
    layout = {"applications": [], "trial_ids": {}, "analyses": {}}
    for app_plan in plan["applications"]:
        app = session.create_application(app_plan["name"])
        app_entry = {"id": app.id, "name": app.name, "experiments": []}
        for exp_plan in app_plan["experiments"]:
            exp = session.create_experiment(app, exp_plan["name"])
            ids = []
            for name in exp_plan["trials"]:
                trial = clock.save(
                    session, read_npz(plan["files"][name]), exp, name)
                layout["trial_ids"][name] = trial.id
                ids.append(trial.id)
            app_entry["experiments"].append(
                {"id": exp.id, "name": exp.name, "trials": ids})
        layout["applications"].append(app_entry)
    for name in plan["analyses"]:
        trial_id = layout["trial_ids"][name]
        saved = analysis.handle_request(
            "cluster_trial", {"trial": trial_id, "k": 2, "save": True})
        layout["analyses"][str(trial_id)] = saved["settings_id"]
    server = SocketServer(analysis, port=0)
    host, port = server.start()
    emit("READY", {"host": host, "port": port, "layout": layout,
                   "build": clock.report(), "synchronous": synchronous,
                   "pid": os.getpid()})
    before = None
    for line in sys.stdin:
        command = line.strip()
        if command == "TRACE_ON":
            before = connection.stats()
            recorder.enabled = True
            emit("OK", {})
        elif command == "STOP":
            recorder.enabled = False
            after = connection.stats()
            server.stop()
            with open(spans_path, "w") as fh:
                json.dump({"spans": recorder.take(), "before": before,
                           "after": after}, fh)
            emit("BYE", {})
            return


def ingest(plan: dict, url: str, spans_path: str | None) -> None:
    from inputs import read_npz
    from repro.core.session import PerfDMFSession
    from repro.paraprof.manager import ArchiveManager

    recorder = SpanRecorder()
    if spans_path:
        install_spans(recorder)
    session = PerfDMFSession(url)
    connection = session.connection
    synchronous = pin_synchronous(connection)
    clock = BuildClock(connection)
    app = session.create_application("preload")
    exp = session.create_experiment(app, "base")
    for name in plan["preload"]:
        clock.save(session, read_npz(plan["files"][name]), exp, name)
    emit("READY", {"build": clock.report(), "synchronous": synchronous,
                   "pid": os.getpid()})
    if sys.stdin.readline().strip() != "GO":
        return
    manager = ArchiveManager(session)
    traced_stats = []
    for index, name in enumerate(plan["profiles"]):
        # Traced and untraced trials alternate in pairs, ABBA, so the
        # overhead estimate cancels the growth of cost with archive size.
        traced = bool(spans_path) and (index // 2) % 4 in (1, 2)
        if traced:
            before = connection.stats()
            recorder.enabled = True
        wal0 = connection.stats().get("wal_bytes", 0)
        t0, c0 = time.monotonic(), cpu_seconds()
        trial = manager.import_profile(
            plan["files"][name], "tau_runs", "ingest", name)
        t1, c1 = time.monotonic(), cpu_seconds()
        wal1 = connection.stats().get("wal_bytes", 0)
        emit("ACK", {"name": name, "id": trial.id, "at": [t0, t1],
                     "cpu_s": c1 - c0, "wal_bytes": wal1 - wal0,
                     "ingest_stats": dict(connection.ingest_stats),
                     "traced": traced})
        t2 = time.monotonic()
        session.load_datasource(trial.id)
        t3 = time.monotonic()
        if traced:
            recorder.enabled = False
            traced_stats.append((before, connection.stats()))
        emit("COLD", {"name": name, "at": [t2, t3], "traced": traced})
    if spans_path:
        with open(spans_path, "w") as fh:
            json.dump({"spans": recorder.take(), "stats": traced_stats}, fh)
    emit("DONE", {})
    sys.stdin.readline()  # the parent SIGKILLs us here


def verify(plan: dict, url: str, spans_path: str | None) -> None:
    """Open the archive (recovery runs here) and check every expected
    trial's point count and sum of exclusive values, and that each saved
    analysis loads.  Then time the first ``load_datasource`` of each
    trial named in ``cold_reads``."""
    from repro.core.session import PerfDMFSession
    from repro.explorer.results import ResultStore

    failures: list[str] = []
    t0 = time.monotonic()
    session = PerfDMFSession(url, create=False)
    stored = {t.name: t.id for t in session.get_trial_list()}
    found = {
        row[0]: (row[1], row[2])
        for row in session.connection.query(
            "SELECT e.trial, count(*), sum(p.exclusive) "
            "FROM interval_location_profile p "
            "JOIN interval_event e ON p.interval_event = e.id "
            "GROUP BY e.trial")
    }
    for name, (points, exclusive_sum) in plan["trials"].items():
        if name not in stored:
            failures.append(f"{name}: missing after reopen")
            continue
        got_points, got_sum = found.get(stored[name], (0, 0.0))
        if got_points != points:
            failures.append(f"{name}: {got_points} points, expected {points}")
        elif not math.isclose(got_sum, exclusive_sum, rel_tol=1e-9):
            failures.append(f"{name}: exclusive sum {got_sum} != {exclusive_sum}")
    store = ResultStore(session)
    for settings_id in plan["analyses"]:
        try:
            store.load_analysis(settings_id)
        except LookupError:
            failures.append(f"analysis {settings_id}: missing after reopen")
    reopen_at = [t0, time.monotonic()]
    cold = []
    for name in plan["cold_reads"]:
        if name in stored:
            c0 = time.monotonic()
            session.load_datasource(stored[name])
            cold.append([c0, time.monotonic()])
    # No close(): its checkpoint would rewrite the archive for nothing.
    emit("RESULT", {"reopen_at": reopen_at, "cold_reads_at": cold,
                    "failures": failures,
                    "archive_rows": sum(n for n, _ in found.values())})


def reference_slice() -> None:
    """A fixed piece of interpreter work: dict, tuple, sort and JSON."""
    table = {i: (i * 1.5, str(i)) for i in range(2000)}
    ordered = sorted(table.values(), key=lambda x: -x[0])
    json.dumps(ordered[:400])


def probe() -> None:
    """Time :func:`reference_slice` in CPU seconds every
    ``PROBE_PERIOD_S`` until stdin closes, then print the samples.  The
    host's CPU speed varies with other tenants' load; the parent scales
    time metrics by how fast this fixed slice ran at the same moment."""
    import threading

    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()),
                     daemon=True).start()
    samples = []
    while not stop.is_set():
        c0 = time.thread_time()
        reference_slice()
        samples.append((time.monotonic(), time.thread_time() - c0))
        stop.wait(PROBE_PERIOD_S)
    emit("SAMPLES", {"samples": samples})


def main(argv: list[str]) -> None:
    if argv == ["probe"]:
        probe()
        return
    mode, plan_path, url = argv[:3]
    spans_path = argv[4] if len(argv) > 4 and argv[3] == "--trace" else None
    with open(plan_path) as fh:
        plan = json.load(fh)
    {"serve": serve, "ingest": ingest, "verify": verify}[mode](plan, url, spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])
