"""The PerfExplorer analysis server (Figure 3).

*"The client makes requests to an analysis server back end, which is
integrated with a performance database, using PerfDMF. ... the analysis
server selects the data of interest, gets the relevant profile data and
hands it off to an analysis application ... the results are saved to
the database, using the PerfDMF API."*

The server owns a :class:`PerfDMFSession`, an analysis backend (the R
substitute), and a :class:`ResultStore`.  Requests are dispatched by
method name; each handler touches the database only through the PerfDMF
API, never raw SQL — that separation is the Figure 3 architecture.
"""

from __future__ import annotations

import base64
import socket
import threading
import time
import traceback
from contextlib import nullcontext
from typing import Any, Optional

import numpy as np

from repro.obs.log import get_logger
from repro.obs.metrics import registry as _registry
from repro.obs.trace import tracer as _tracer

from ..core.session.dbsession import PerfDMFSession
from ..core.toolkit.stats import event_values
from .charts import (
    correlation_matrix, group_fraction_chart, imbalance_chart, speedup_chart,
)
from .clustering import cluster_trial, summarize_clusters
from .protocol import (
    READ_ONLY_METHODS, MessageStream, encode_message, extract_trace_context,
)
from .results import ResultStore
from .rproxy import AnalysisBackend, NumpyAnalysisBackend

_log = get_logger("repro.explorer.server")

#: Methods a read-only replica server will dispatch: every read-only
#: analysis method plus the replication introspection endpoint.
REPLICA_SAFE_METHODS = READ_ONLY_METHODS | {"replication_status"}


class AnalysisServer:
    """Dispatches PerfExplorer requests against one PerfDMF database.

    ``read_only=True`` turns the server into a replica front end: only
    :data:`REPLICA_SAFE_METHODS` are dispatched, everything else is
    rejected before touching the session (replicas apply writes solely
    through WAL replay, never through the RPC surface).  ``replica``
    optionally attaches the :class:`~repro.db.minisql.replica.Replica`
    feeding this server so ``replication_status`` and the health
    endpoint can report lag.
    """

    def __init__(
        self,
        database_url: str,
        backend: Optional[AnalysisBackend] = None,
        read_only: bool = False,
        replica: Optional[object] = None,
    ):
        # A read-only front end must not write — not even idempotent
        # schema DDL: a replica's schema arrives via checkpoint + WAL
        # replay, and any local write would diverge from the primary.
        self.session = PerfDMFSession(database_url, create=not read_only)
        self.backend = backend or NumpyAnalysisBackend()
        self.results = ResultStore(self.session)
        self.read_only = read_only
        self.replica = replica
        self._shipper = None
        self._handlers = {
            "ping": self._ping,
            "list_applications": self._list_applications,
            "list_experiments": self._list_experiments,
            "list_trials": self._list_trials,
            "list_metrics": self._list_metrics,
            "list_events": self._list_events,
            "cluster_trial": self._cluster_trial,
            "describe_event": self._describe_event,
            "correlate_events": self._correlate_events,
            "list_analyses": self._list_analyses,
            "get_analysis": self._get_analysis,
            "run_workflow": self._run_workflow,
            "speedup_chart": self._speedup_chart,
            "correlation_matrix": self._correlation_matrix,
            "group_fraction_chart": self._group_fraction_chart,
            "imbalance_chart": self._imbalance_chart,
            "get_stats": self._get_stats,
            "repl_snapshot": self._repl_snapshot,
            "wal_ship": self._wal_ship,
            "replication_status": self._replication_status,
            "server_load": self._server_load,
        }
        #: Set by the socket front end at start(): a zero-argument
        #: callable reporting its live dispatch load (see _server_load).
        self.load_probe = None

    # -- dispatch ----------------------------------------------------------------

    def handle_request(self, method: str, params: dict[str, Any]) -> Any:
        handler = self._handlers.get(method)
        if handler is None:
            raise ValueError(f"unknown method {method!r}")
        if self.read_only and method not in REPLICA_SAFE_METHODS:
            raise PermissionError(
                f"read-only replica: method {method!r} not allowed"
            )
        return handler(**params)

    # -- handlers -------------------------------------------------------------------

    def _ping(self) -> str:
        return "pong"

    def _list_applications(self) -> list[dict[str, Any]]:
        return [
            {"id": a.id, "name": a.name} for a in self.session.get_application_list()
        ]

    def _list_experiments(self, application: int) -> list[dict[str, Any]]:
        return [
            {"id": e.id, "name": e.name}
            for e in self.session.get_experiment_list(application)
        ]

    def _list_trials(self, experiment: int) -> list[dict[str, Any]]:
        return [
            {
                "id": t.id,
                "name": t.name,
                "node_count": t.get("node_count"),
            }
            for t in self.session.get_trial_list(experiment)
        ]

    def _list_metrics(self, trial: int) -> list[str]:
        return self.session.get_metrics(trial)

    def _list_events(self, trial: int) -> list[dict[str, Any]]:
        return self.session.get_interval_events(trial)

    def _cluster_trial(
        self,
        trial: int,
        k: Optional[int] = None,
        metric_name: Optional[str] = None,
        max_k: int = 6,
        seed: int = 0,
        save: bool = True,
        method: str = "kmeans",
    ) -> dict[str, Any]:
        """The paper's flagship operation: select data, cluster, save."""
        source = self.session.load_datasource(trial)
        metric_index = 0
        if metric_name is not None:
            names = [m.name for m in source.metrics]
            if metric_name not in names:
                raise ValueError(f"trial {trial} has no metric {metric_name!r}")
            metric_index = names.index(metric_name)
        if method == "kmeans":
            result = cluster_trial(
                source, k=k, metric=metric_index, max_k=max_k, seed=seed
            )
        elif method == "hierarchical":
            from .clustering import hierarchical_cluster

            if k is None:
                raise ValueError("hierarchical clustering requires explicit k")
            result = hierarchical_cluster(source, k=k, metric=metric_index)
        else:
            raise ValueError(
                f"unknown clustering method {method!r}; "
                "use 'kmeans' or 'hierarchical'"
            )
        settings_id = None
        if save:
            settings_id = self.results.save_cluster_result(
                trial, result,
                parameters={
                    "k": k, "metric": metric_name, "max_k": max_k,
                    "seed": seed, "method": method,
                },
            )
        return {
            "k": result.k,
            "sizes": result.sizes,
            "silhouette": result.silhouette,
            "labels": result.labels.tolist(),
            "summary": summarize_clusters(result),
            "settings_id": settings_id,
        }

    def _describe_event(
        self, trial: int, event: str, metric_name: Optional[str] = None
    ) -> dict[str, float]:
        source = self.session.load_datasource(trial)
        metric_index = 0
        if metric_name is not None:
            names = [m.name for m in source.metrics]
            metric_index = names.index(metric_name)
        values = event_values(source, event, metric_index)
        return self.backend.describe(values)

    def _correlate_events(
        self, trial: int, event_x: str, event_y: str
    ) -> dict[str, float]:
        source = self.session.load_datasource(trial)
        x = event_values(source, event_x)
        y = event_values(source, event_y)
        return self.backend.correlate(x, y)

    def _run_workflow(self, steps: list[dict[str, Any]]) -> dict[str, Any]:
        """Execute a scripted analysis workflow server-side.

        Trials held in slots stay on the server; only JSON-serialisable
        slots come back over the wire.
        """
        from .workflow import run_workflow

        slots = run_workflow(self.session, steps)
        return {
            name: value
            for name, value in slots.items()
            if not hasattr(value, "interval_events")
        }

    def _experiment_trials(self, experiment: int) -> list[tuple[int, "object"]]:
        """Load every trial of an experiment as (processors, DataSource)."""
        out = []
        for trial in self.session.get_trial_list(experiment):
            processors = trial.get("node_count") or 1
            out.append((processors, self.session.load_datasource(trial)))
        return out

    def _speedup_chart(
        self, experiment: int, events: Optional[list[str]] = None
    ) -> dict[str, Any]:
        trials = self._experiment_trials(experiment)
        if len(trials) < 2:
            raise ValueError(
                f"experiment {experiment} has {len(trials)} trial(s); "
                "speedup needs >= 2"
            )
        return speedup_chart(trials, events)

    def _correlation_matrix(
        self, trial: int, events: Optional[list[str]] = None
    ) -> dict[str, Any]:
        source = self.session.load_datasource(trial)
        return correlation_matrix(source, events)

    def _group_fraction_chart(self, experiment: int) -> dict[str, Any]:
        return group_fraction_chart(self._experiment_trials(experiment))

    def _imbalance_chart(self, trial: int, top: int = 10) -> dict[str, Any]:
        return imbalance_chart(self.session.load_datasource(trial), top=top)

    def _server_load(self) -> dict[str, Any]:
        """Lightweight load probe for client-side least-loaded routing.

        Deliberately a separate method from ``replication_status`` (whose
        payload is a stable contract) and far cheaper than ``get_stats``:
        three integers, no registry snapshot, no db counters."""
        probe = self.load_probe
        if probe is None:
            return {"in_flight": 0, "queued": 0, "connections": 0}
        return probe()

    def _get_stats(self) -> dict[str, Any]:
        """The server's live metrics registry (plus its database
        counters), for ``repro stats --server`` and remote monitoring."""
        self.session.connection.stats()  # publish db counters as gauges
        # Request accounting is incremented after dispatch; register the
        # instruments up front so even the first snapshot carries them.
        _registry.counter("server.requests")
        _registry.histogram("server.request_seconds")
        _registry.counter("server.admission_shed_total")
        return {"ts": time.time(), "metrics": _registry.snapshot()}

    def _list_analyses(self, trial: Optional[int] = None) -> list[dict[str, Any]]:
        return [
            {"id": i, "name": n, "method": m}
            for i, n, m in self.results.list_analyses(trial)
        ]

    def _get_analysis(self, settings_id: int) -> dict[str, Any]:
        return self.results.load_analysis(settings_id)

    # -- replication ----------------------------------------------------------------

    def _database(self):
        """The underlying MiniSQL Database, if this session runs on one."""
        raw = getattr(self.session.connection, "_raw", None)
        return getattr(raw, "_database", None)

    def _get_shipper(self):
        if self._shipper is None:
            from repro.db.minisql.replica import WalShipper

            database = self._database()
            if database is None or database.wal is None:
                raise ValueError(
                    "WAL shipping requires a WAL-backed MiniSQL database "
                    "(connect with minisql://...?wal=...)"
                )
            self._shipper = WalShipper(database)
        return self._shipper

    def _repl_snapshot(self) -> dict[str, Any]:
        """Bootstrap payload for a new replica: checkpoint script + LSNs."""
        return self._get_shipper().snapshot()

    def _wal_ship(
        self,
        after_lsn: int,
        replica_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> dict[str, Any]:
        """Ship WAL frames past ``after_lsn`` (base64, CRC framing intact)."""
        shipper = self._get_shipper()
        if limit is None:
            out = shipper.fetch(after_lsn, replica_id=replica_id)
        else:
            out = shipper.fetch(after_lsn, replica_id=replica_id, limit=limit)
        frames = out.pop("frames", None)
        if frames is not None:
            out["frames_b64"] = base64.b64encode(frames).decode("ascii")
        return out

    def _replication_status(self) -> dict[str, Any]:
        if self.replica is not None:
            return self.replica.status()
        database = self._database()
        if database is not None and database.wal is not None:
            return self._get_shipper().status()
        return {"role": "standalone"}


class ThreadedSocketServer:
    """TCP front end: accepts clients, one thread per connection.

    Superseded as the default by the event-loop core
    (:class:`~repro.explorer.eventloop.SocketServer`, re-exported from
    this module as ``SocketServer``), but kept fully working: the E16/
    E17 benchmarks run both cores side by side so the regression gate
    compares like-for-like, and ``perfdmf serve --core threaded``
    selects it explicitly.

    With ``telemetry_port`` set (0 = any free port), ``start()`` also
    mounts a :class:`~repro.obs.telemetry.TelemetryServer` so the
    process serves ``/metrics``, ``/healthz`` and ``/stats.json`` over
    HTTP while the RPC listener handles analysis traffic; its bound
    address lands in ``telemetry_address``.
    """

    def __init__(
        self,
        server: AnalysisServer,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry_port: Optional[int] = None,
        max_in_flight: Optional[int] = None,
    ):
        self.analysis = server
        #: Admission control: with a bound set, a request arriving while
        #: ``max_in_flight`` are already dispatched is *shed* — answered
        #: immediately with a retryable RETRY_LATER error instead of
        #: queueing behind work the server cannot keep up with.
        self.max_in_flight = max_in_flight
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(8)
        self.address = self._listener.getsockname()
        self._threads: list[threading.Thread] = []
        self._clients: set[socket.socket] = set()
        self._clients_lock = threading.Lock()
        self._running = False
        self._accept_thread: Optional[threading.Thread] = None
        self._telemetry_port = telemetry_port
        self._telemetry = None
        self.telemetry_address: Optional[tuple[str, int]] = None
        # In-flight request accounting for graceful shutdown: stop() with
        # drain=True waits on the condition until the count reaches zero.
        self._in_flight = 0
        self._idle = threading.Condition()

    def _health(self) -> dict:
        with self._idle:
            in_flight = self._in_flight
        health = {
            "serving": self._running,
            "address": f"{self.address[0]}:{self.address[1]}",
            "in_flight_requests": in_flight,
        }
        if self.max_in_flight is not None:
            health["max_in_flight"] = self.max_in_flight
        replica = getattr(self.analysis, "replica", None)
        if replica is not None:
            records, seconds = replica.replication_lag()
            health["replication"] = {
                "role": "replica",
                "state": replica.state,
                "lag_records": records,
                "lag_seconds": seconds,
            }
        return health

    def start(self) -> tuple[str, int]:
        self._running = True
        if self._telemetry_port is not None:
            from repro.obs.telemetry import TelemetryServer

            self._telemetry = TelemetryServer(
                host=self.address[0], port=self._telemetry_port,
                health=self._health,
            )
            self.telemetry_address = self._telemetry.start()
            _log.info(
                "telemetry_listening",
                host=self.telemetry_address[0],
                port=self.telemetry_address[1],
            )
        self.analysis.load_probe = self._load_snapshot
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self.address

    def _load_snapshot(self) -> dict:
        """The ``server_load`` RPC payload: how busy this front end is.

        The threaded core has no dispatch queue — a request is either
        executing on its connection thread or not admitted at all."""
        with self._idle:
            in_flight = self._in_flight
        with self._clients_lock:
            connections = len(self._clients)
        return {
            "in_flight": in_flight,
            "queued": 0,
            "connections": connections,
        }

    def _accept_loop(self) -> None:
        while self._running:
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return
            if not self._running:
                # Raced with stop(): the listener woke us with one last
                # connection; refuse it rather than serve past shutdown.
                try:
                    client.close()
                except OSError:
                    pass
                return
            with self._clients_lock:
                self._clients.add(client)
            thread = threading.Thread(
                target=self._serve_client, args=(client,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _serve_client(self, sock: socket.socket) -> None:
        from .protocol import ProtocolError

        stream = MessageStream(sock, fault_point="net.server")
        try:
            while True:
                request = stream.receive()
                if request is None:
                    return
                if not self._admit():
                    self._shed(stream, request)
                    continue
                try:
                    self._handle_one(stream, request)
                finally:
                    self._release()
        except (ProtocolError, OSError) as exc:
            # Expected transport-level endings: client went away mid-frame,
            # reset the connection, or we are shutting down.
            _registry.counter("server.client_disconnects").inc()
            _log.info("client_disconnect", error=str(exc))
        except Exception:
            # Anything else is a server bug — it must never vanish
            # silently (that hid dispatcher errors for two releases).
            _registry.counter("server.client_errors").inc()
            _log.error("client_loop_error", traceback=traceback.format_exc())
        finally:
            stream.close()
            with self._clients_lock:
                self._clients.discard(sock)

    def _admit(self) -> bool:
        """Claim an in-flight slot; False when admission control sheds."""
        with self._idle:
            if (
                self.max_in_flight is not None
                and self._in_flight >= self.max_in_flight
            ):
                return False
            self._in_flight += 1
            return True

    def _release(self) -> None:
        with self._idle:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.notify_all()

    def _shed(self, stream: MessageStream, request: dict) -> None:
        """Refuse an over-limit request with a retryable error.

        The request was never dispatched, so the client may retry it —
        even a mutating one — after backing off (``retry_later`` flags
        that distinction on the wire)."""
        _registry.counter("server.admission_shed_total").inc()
        _log.warning(
            "request_shed",
            method=request.get("method"),
            max_in_flight=self.max_in_flight,
        )
        stream.send(
            {
                "id": request.get("id"),
                "error": "RETRY_LATER: server at max in-flight requests",
                "retry_later": True,
            }
        )

    def _handle_one(self, stream: MessageStream, request: dict) -> None:
        """Dispatch one request: trace-context adoption, structured
        request log with latency and result size, metrics."""
        request_id = request.get("id")
        method = request.get("method", "")
        # A client-propagated trace context nests our server span under
        # the client's request span (one cross-process timeline).
        remote = extract_trace_context(request) if _tracer.enabled else None
        context = (
            _tracer.context(remote[0], remote[1])
            if remote is not None else nullcontext()
        )
        started = time.perf_counter()
        with context:
            with _tracer.span(f"server.{method or 'unknown'}"):
                try:
                    result = self.analysis.handle_request(
                        method, request.get("params", {}) or {}
                    )
                    response = {"id": request_id, "result": result}
                    status = "ok"
                except Exception as exc:  # deliberate: errors go to the client
                    response = {
                        "id": request_id,
                        "error": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback.format_exc(limit=3),
                    }
                    status = "error"
        encoded = encode_message(response)
        latency_ms = round((time.perf_counter() - started) * 1000.0, 3)
        _registry.counter("server.requests").inc()
        if status == "error":
            _registry.counter("server.errors").inc()
        _registry.histogram("server.request_seconds").observe(
            latency_ms / 1000.0
        )
        _log.info(
            "request",
            method=method,
            id=request_id,
            status=status,
            latency_ms=latency_ms,
            result_bytes=len(encoded),
        )
        stream.send_bytes(encoded)

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting connections; with ``drain`` (the default), wait
        up to ``timeout`` seconds for in-flight requests to complete so
        clients get their responses instead of a reset socket."""
        self._running = False
        # shutdown() before close(): close() alone does not wake a thread
        # blocked in accept() — the in-flight syscall keeps the open file
        # description (and the LISTEN port) alive, and the next client to
        # connect would be served by the half-dead accept loop.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if self._telemetry is not None:
            self._telemetry.stop()
            self._telemetry = None
        if drain:
            deadline = time.monotonic() + timeout
            with self._idle:
                while self._in_flight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        _log.warning(
                            "shutdown_timeout", in_flight=self._in_flight
                        )
                        break
                    self._idle.wait(remaining)
        # Close lingering client connections: their ESTABLISHED sockets
        # would otherwise hold the port and block a restart on the same
        # address (and the handler threads would block in receive()
        # forever).
        with self._clients_lock:
            lingering = list(self._clients)
            self._clients.clear()
        for client in lingering:
            try:
                client.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                client.close()
            except OSError:
                pass


# The event-loop core is the default SocketServer; existing callers
# (tests, CLI, benchmarks, replica harnesses) pick it up by name with
# the same constructor surface and lifecycle.  Imported at the bottom
# because eventloop shares this module's protocol/obs imports but needs
# no symbol defined above — and keeping ``SocketServer`` importable from
# ``repro.explorer.server`` preserves every call site.
from .eventloop import SocketServer  # noqa: E402  (re-export)

__all__ = [
    "AnalysisServer", "SocketServer", "ThreadedSocketServer",
    "REPLICA_SAFE_METHODS",
]
