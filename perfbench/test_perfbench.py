"""Self-tests for the benchmark's own code.

    python3 -m pytest perfbench -q

The smoke runs start real server and ingest children and take a few
minutes; the other tests are instant.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from inputs import TrialInput  # noqa: E402
from layers import PER_LAYER_UNITS, program_layers, stats_delta  # noqa: E402
from measure import (  # noqa: E402
    REF_NOMINAL_S, HostSpeed, InsufficientSamples, percentile,
)
from oracle import Oracle  # noqa: E402
from run import E2E_UNITS  # noqa: E402
from tracing import SpanRecorder, covered, outermost, self_times  # noqa: E402


# -- span arithmetic -------------------------------------------------------------

def test_self_time_subtracts_covered_children():
    # handle [0, 10] has children load [1, 6] and analysis [5, 8] that
    # overlap on [5, 6]; load has db children [2, 3] and [2.5, 4].
    spans = [
        (1, -1, "server.handle", 0.0, 10.0, "imbalance_chart"),
        (2, 1, "session.load_datasource", 1.0, 6.0, None),
        (3, 1, "analysis.imbalance_chart", 5.0, 8.0, None),
        (4, 2, "db.query", 2.0, 3.0, 5),
        (5, 4, "db.execute", 2.0, 2.9, 1),
        (6, 2, "db.query", 2.5, 4.0, 7),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 7.0)  # union of [1,6] and [5,8]
    assert selfs[2] == pytest.approx(5.0 - 2.0)   # union of [2,3] and [2.5,4]
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.1)
    assert [s[0] for s in outermost(spans, "db")] == [4, 6]
    assert covered((0.0, 1.0), [(-1.0, 0.5), (0.25, 2.0)]) == pytest.approx(1.0)


def test_layer_metrics_from_span_tree():
    spans = [
        (1, -1, "server.handle", 0.0, 0.010, "imbalance_chart"),
        (2, 1, "session.load_datasource", 0.001, 0.006, None),
        (4, 2, "db.query", 0.002, 0.003, 5),
        (5, 4, "db.execute", 0.002, 0.0029, 1),
    ]
    zero = {k: 0 for k in (
        "rows_scanned", "full_scans", "index_eq_probes", "plan_cache_hits",
        "plan_cache_misses", "vector_selects", "compile_fallbacks",
        "wal_records", "wal_bytes", "wal_fsyncs", "wal_checkpoints")}
    after = dict(zero, rows_scanned=20, plan_cache_hits=3, plan_cache_misses=1)
    out = program_layers(spans, 1, stats_delta([(zero, after)]))
    assert set(out) == set(PER_LAYER_UNITS)
    assert out["server.handle_ms"] == pytest.approx(10.0)
    assert out["server.handle_ms.imbalance_chart"] == pytest.approx(10.0)
    assert out["session.load_datasource_ms"] == pytest.approx(5.0)
    assert out["db.sql_ms"] == pytest.approx(1.0)
    assert out["session.model_build_ms"] == pytest.approx(4.0)
    assert out["db.rows_returned"] == 5
    assert out["minisql.rows_scanned_per_row_returned"] == pytest.approx(4.0)
    assert out["minisql.plan_cache_hit_ratio"] == pytest.approx(0.75)


def test_recorder_nests_and_toggles():
    class Target:
        def outer(self):
            return self.inner()

        def inner(self):
            return 3

    recorder = SpanRecorder()
    recorder.wrap(Target, "outer", "a.outer")
    recorder.wrap(Target, "inner", "b.inner", lambda a, k, r: r)
    Target().outer()
    assert recorder.spans == []
    recorder.enabled = True
    Target().outer()
    inner, outer = recorder.take()
    assert inner[1] == outer[0] and inner[5] == 3 and outer[1] == -1


# -- percentiles -----------------------------------------------------------------

def test_percentile_refused_without_ten_samples_beyond():
    samples = [float(i) for i in range(199)]
    with pytest.raises(InsufficientSamples):
        percentile(samples, 0.95)
    assert percentile(samples + [199.0], 0.95) == pytest.approx(189.05)
    with pytest.raises(InsufficientSamples):
        percentile([1.0] * 19, 0.5)


def test_host_speed_scale_from_probe_samples_around_interval():
    # the probe slice took twice its nominal time for the first 5 s
    speed = HostSpeed([(0.1 * i, REF_NOMINAL_S * (2.0 if i < 50 else 1.0))
                       for i in range(100)])
    assert speed.scale(1.0, 2.0) == pytest.approx(0.5)
    assert speed.seconds([7.0, 8.0]) == pytest.approx(1.0)
    assert speed.scale(4.0, 4.5, pad=0.0) == pytest.approx(0.5)
    with pytest.raises(RuntimeError):
        speed.scale(100.0, 101.0)


# -- oracle ----------------------------------------------------------------------

def _served_trial():
    from repro.tau.apps import Miranda

    trial = Miranda(seed=3).generate(16)
    data = TrialInput(
        name="t", path="", ranks=16, events=list(trial.event_names),
        metrics=list(trial.metric_names), points=trial.num_data_points,
        exclusive_sum=0.0, exclusive0=np.asarray(trial.exclusive[0]))
    layout = {"applications": [], "trial_ids": {"t": 1}, "analyses": {}}
    return trial.to_datasource(), Oracle({1: data}, layout)


def test_oracle_accepts_program_answers_and_flags_perturbed_ones():
    from repro.explorer.charts import correlation_matrix, imbalance_chart
    from repro.explorer.rproxy import NumpyAnalysisBackend
    from repro.core.toolkit.stats import event_values

    source, oracle = _served_trial()
    chart = imbalance_chart(source)
    assert oracle.check("imbalance_chart", {"trial": 1}, chart) is None
    chart["events"][3]["imbalance"] *= 1.0 + 1e-6
    assert oracle.check("imbalance_chart", {"trial": 1}, chart)

    event = oracle.trials[1].events[7]
    described = NumpyAnalysisBackend().describe(event_values(source, event))
    params = {"trial": 1, "event": event}
    assert oracle.check("describe_event", params, described) is None
    described["max"] += 1.0
    assert oracle.check("describe_event", params, described)

    names = [{"name": n} for n in oracle.trials[1].events]
    assert oracle.check("list_events", {"trial": 1}, names) is None
    assert oracle.check("list_events", {"trial": 1}, names[:-1])

    events = oracle.trials[1].events[:4]
    matrix = correlation_matrix(source, events)
    params = {"trial": 1, "events": events}
    assert oracle.check("correlation_matrix", params, matrix) is None
    matrix["matrix"][0][1] = 0.5
    assert oracle.check("correlation_matrix", params, matrix)

    reply = {"k": 2, "sizes": [10, 6], "labels": [0] * 10 + [1] * 6,
             "settings_id": 4}
    params = {"trial": 1, "k": 2, "save": True}
    assert oracle.check("cluster_trial", params, reply) is None
    reply["sizes"] = [10, 5]
    assert oracle.check("cluster_trial", params, reply)
    assert oracle.check("ping", {}, "pong") is None
    assert oracle.check("ping", {}, {"oops": 1})


# -- smoke runs ------------------------------------------------------------------

def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_unit_tables_match_benchmark_json():
    spec = _benchmark()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


# Short runs: a served loop runs on until it holds enough requests for
# its p95, and ingest imports at least 8 trials whatever the seconds.
SMOKE_SECONDS = 4


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["catalog", "explore", "ingest"])
def test_smoke_run_emits_listed_metrics(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = _benchmark()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


def test_run_refuses_outside_a_checkout(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
