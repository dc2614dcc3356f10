"""Tests for the continuous-benchmarking archive and regression
detection (repro.obs.bench)."""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.obs.bench import (
    BenchArchive,
    KeyPolicy,
    RegressPolicy,
    archive_url,
    bench_envelope,
    betainc_regularized,
    detect_regressions,
    exact_quantile,
    flatten_metrics,
    format_regress_report,
    infer_direction,
    median,
    normalize_document,
    open_for_reading,
    student_t_sf,
    tidy_archive,
    welch_t_test,
    write_bench_json,
)


# -- envelope ----------------------------------------------------------------


class TestEnvelope:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SHA", "a" * 40)
        monkeypatch.setenv("REPRO_BENCH_TIMESTAMP", "2026-01-02T03:04:05Z")
        env = bench_envelope()
        assert env["git_sha"] == "a" * 40
        assert env["timestamp"] == "2026-01-02T03:04:05Z"
        assert env["schema_version"] == 1
        assert env["host_cores"] >= 1

    def test_write_creates_envelope(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SHA", "b" * 40)
        path = tmp_path / "BENCH_x.json"
        write_bench_json(path, "e1", {"wall_seconds": 1.5})
        doc = json.loads(path.read_text())
        assert doc["git_sha"] == "b" * 40
        assert doc["benchmarks"] == {"e1": {"wall_seconds": 1.5}}

    def test_write_merges_sections(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_bench_json(path, "e1", {"a": 1})
        write_bench_json(path, "e2", {"b": 2})
        doc = json.loads(path.read_text())
        assert set(doc["benchmarks"]) == {"e1", "e2"}

    def test_write_upgrades_legacy_file(self, tmp_path):
        # A pre-envelope file is one bare payload (E13's shape): its
        # top-level dicts are not sections, so the write replaces it.
        path = tmp_path / "BENCH_e13_compile.json"
        path.write_text(json.dumps({
            "compile_stats": {"plan_cache_hits": 8},
            "patterns": {"aggregate": {"speedup": 2.8}},
            "ranks": 1024,
        }))
        write_bench_json(path, "e13_compile", {"speedup": 3.0})
        doc = json.loads(path.read_text())
        assert doc["benchmarks"] == {"e13_compile": {"speedup": 3.0}}

    def test_normalize_envelope_document(self):
        doc = {
            "schema_version": 1, "git_sha": "c" * 40,
            "timestamp": "2026-01-01T00:00:00Z", "host_cores": 8,
            "benchmarks": {"e1": {"v": 1.0}},
        }
        envelope, sections = normalize_document(doc)
        assert envelope["git_sha"] == "c" * 40
        assert sections == {"e1": {"v": 1.0}}

    def test_normalize_legacy_uses_defaults(self):
        doc = {"e1": {"v": 1.0}, "not_a_section": 3}
        envelope, sections = normalize_document(
            doc, default_sha="d" * 40, default_timestamp="2026-02-02T00:00:00Z"
        )
        assert envelope["git_sha"] == "d" * 40
        assert envelope["timestamp"] == "2026-02-02T00:00:00Z"
        assert sections == {"e1": {"v": 1.0}}

    def test_normalize_drops_metricless_sections(self):
        doc = {"benchmarks": {"good": {"v": 1}, "empty": {"note": "hi"}}}
        _, sections = normalize_document(doc, default_sha=None)
        assert set(sections) == {"good"}

    def test_flatten(self):
        flat = flatten_metrics({
            "a": 1, "b": 2.5, "flag": True, "name": "x",
            "nested": {"x": 3, "deeper": {"y": 4}},
            "bad": float("nan"),
        })
        assert flat == {"a": 1.0, "b": 2.5, "nested.x": 3.0,
                        "nested.deeper.y": 4.0}


# -- statistics --------------------------------------------------------------


class TestStatistics:
    def test_betainc_against_known_values(self):
        # I_x(a, b) closed forms: I_x(1, 1) = x; I_x(1, b) = 1-(1-x)^b.
        assert betainc_regularized(1.0, 1.0, 0.3) == pytest.approx(0.3)
        assert betainc_regularized(1.0, 3.0, 0.2) == pytest.approx(
            1 - 0.8 ** 3, rel=1e-12
        )
        assert betainc_regularized(2.0, 2.0, 0.5) == pytest.approx(0.5)

    def test_student_t_sf_symmetry_and_limits(self):
        assert student_t_sf(0.0, 5.0) == pytest.approx(0.5)
        assert student_t_sf(100.0, 5.0) < 1e-6
        assert student_t_sf(-100.0, 5.0) > 1 - 1e-6

    def test_welch_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = random.Random(7)
        a = [rng.gauss(10.0, 1.0) for _ in range(9)]
        b = [rng.gauss(11.0, 2.0) for _ in range(14)]
        ours = welch_t_test(a, b)
        ref = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert ours.t == pytest.approx(ref.statistic, rel=1e-10)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_welch_identical_constant_samples(self):
        result = welch_t_test([1.0, 1.0, 1.0], [1.0, 1.0])
        assert result.p_value == 1.0

    def test_welch_differing_constant_samples(self):
        result = welch_t_test([1.0, 1.0, 1.0], [2.0, 2.0])
        assert result.p_value == 0.0

    def test_welch_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [2.0, 3.0])

    def test_exact_quantile(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert exact_quantile(values, 0.0) == 1.0
        assert exact_quantile(values, 0.5) == 3.0
        assert exact_quantile(values, 1.0) == 5.0
        assert exact_quantile(values, 0.25) == 2.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


# -- archive -----------------------------------------------------------------


def _doc(sha: str, ts: str, wall: float, qps: float = 1000.0) -> dict:
    return {
        "schema_version": 1, "git_sha": sha, "timestamp": ts,
        "host_cores": 4,
        "benchmarks": {"e_test": {"wall_seconds": wall,
                                  "rows_per_second": qps}},
    }


def _fill(archive: BenchArchive, walls, qps=None, start=0) -> None:
    for i, wall in enumerate(walls, start=start):
        archive.ingest_document(_doc(
            f"{i:02d}" + "0" * 38, f"2026-03-{(i % 27) + 1:02d}T00:{i:02d}:00Z",
            wall, 1000.0 if qps is None else qps[i - start],
        ))


class TestArchiveUrl:
    def test_mdb_path(self, tmp_path):
        url = archive_url(tmp_path / "h.mdb")
        assert url.startswith("minisql:///")
        assert url.endswith("h.mdb")

    def test_url_passthrough(self):
        assert archive_url("sqlite://x.db") == "sqlite://x.db"


class TestBenchArchive:
    def test_ingest_and_read_back(self):
        with BenchArchive("minisql://:memory:") as archive:
            stored = archive.ingest_document(
                _doc("e" * 40, "2026-03-01T00:00:00Z", 1.25)
            )
            assert [run.experiment for run in stored] == ["e_test"]
            runs = archive.runs("e_test")
            assert len(runs) == 1
            assert runs[0].git_sha == "e" * 40
            assert runs[0].metrics["wall_seconds"] == 1.25
            assert runs[0].sha12 == "e" * 12

    def test_reingest_is_idempotent(self):
        with BenchArchive("minisql://:memory:") as archive:
            doc = _doc("f" * 40, "2026-03-01T00:00:00Z", 2.0)
            assert len(archive.ingest_document(doc)) == 1
            assert len(archive.ingest_document(doc)) == 0
            assert len(archive.runs("e_test")) == 1

    def test_series_ordering(self):
        with BenchArchive("minisql://:memory:") as archive:
            _fill(archive, [1.0, 1.1, 1.2])
            series = archive.series("e_test")
            assert [v for _, v in series["wall_seconds"]] == [1.0, 1.1, 1.2]

    def test_runs_visible_to_plain_sql(self):
        """Bench trials are ordinary PerfDMF rows, not a private format."""
        with BenchArchive("minisql://:memory:") as archive:
            _fill(archive, [1.0, 2.0])
            count = archive.connection.scalar(
                "SELECT count(*) FROM trial"
            )
            assert count == 2
            names = [row[0] for row in archive.connection.query(
                "SELECT name FROM metric ORDER BY name"
            )]
            assert "wall_seconds" in names

    def test_file_archive_roundtrip_stays_single_file(self, tmp_path):
        path = tmp_path / "hist.mdb"
        with BenchArchive(path) as archive:
            _fill(archive, [1.0, 1.5])
        tidy_archive(path)
        assert [p.name for p in tmp_path.iterdir()] == ["hist.mdb"]

        reader = open_for_reading(path)
        try:
            assert len(reader.runs("e_test")) == 2
        finally:
            reader.close()
        # Reading must not have touched the committed file's directory.
        assert [p.name for p in tmp_path.iterdir()] == ["hist.mdb"]


# -- regression detection ----------------------------------------------------


class TestDirections:
    def test_inference(self):
        assert infer_direction("wall_seconds") == "lower"
        assert infer_direction("patterns.topn.on_ms") == "lower"
        assert infer_direction("speedup") == "higher"
        assert infer_direction("rows_per_second") == "higher"
        assert infer_direction("overhead") == "lower"
        assert infer_direction("ranks") is None


class TestPolicy:
    def test_override_later_wins(self):
        policy = RegressPolicy(overrides=[
            ("e_test.*", {"threshold": 0.5}),
            ("*.wall_seconds", {"threshold": 0.1}),
        ])
        assert policy.for_key("e_test.wall_seconds").threshold == 0.1
        assert policy.for_key("e_test.other").threshold == 0.5
        assert policy.for_key("x.y").threshold == KeyPolicy().threshold

    def test_from_file(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({
            "defaults": {"threshold": 0.4, "min_runs": 4},
            "keys": {"*.ranks": {"ignore": True}},
        }))
        policy = RegressPolicy.from_file(path)
        assert policy.defaults.threshold == 0.4
        assert policy.for_key("e.ranks").ignore is True

    def test_committed_policy_parses(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "benchmarks" / \
            "regress_policy.json"
        policy = RegressPolicy.from_file(path)
        assert policy.for_key("e_x.ranks").ignore is True
        assert policy.for_key("e13_compile.compile_stats.plan_cache_hits").ignore


class TestDetection:
    def _policy(self, **kw) -> RegressPolicy:
        defaults = dict(threshold=0.25, alpha=0.01, min_runs=6,
                        recent=3, baseline=12)
        defaults.update(kw)
        return RegressPolicy(defaults=KeyPolicy(**defaults))

    def test_stable_series_is_quiet(self):
        rng = random.Random(3)
        with BenchArchive("minisql://:memory:") as archive:
            _fill(archive, [1.0 + rng.uniform(-0.02, 0.02) for _ in range(12)])
            report = detect_regressions(archive, self._policy())
        assert not report.regressed
        assert report.checked == 2  # wall_seconds and rows_per_second

    def test_detects_slowdown(self):
        """The ISSUE acceptance shape: a 2x wall-time jump is named."""
        rng = random.Random(5)
        with BenchArchive("minisql://:memory:") as archive:
            walls = [1.0 + rng.uniform(-0.02, 0.02) for _ in range(9)]
            walls += [2.0 + rng.uniform(-0.04, 0.04) for _ in range(3)]
            _fill(archive, walls)
            report = detect_regressions(archive, self._policy())
        assert report.regressed
        finding = report.findings[0]
        assert finding.full_key == "e_test.wall_seconds"
        assert finding.direction == "lower"
        assert finding.shift == pytest.approx(1.0, abs=0.15)
        assert finding.p_value < 0.01
        assert ".." in finding.window

    def test_detects_throughput_drop(self):
        rng = random.Random(11)
        with BenchArchive("minisql://:memory:") as archive:
            qps = [1000 + rng.uniform(-5, 5) for _ in range(9)]
            qps += [500 + rng.uniform(-5, 5) for _ in range(3)]
            _fill(archive, [1.0] * 12, qps=qps)
            report = detect_regressions(archive, self._policy())
        keys = [f.full_key for f in report.findings]
        assert "e_test.rows_per_second" in keys

    def test_improvement_not_flagged(self):
        rng = random.Random(13)
        with BenchArchive("minisql://:memory:") as archive:
            walls = [2.0 + rng.uniform(-0.02, 0.02) for _ in range(9)]
            walls += [1.0 + rng.uniform(-0.02, 0.02) for _ in range(3)]
            _fill(archive, walls)
            report = detect_regressions(archive, self._policy())
        assert not report.regressed

    def test_short_series_skipped(self):
        with BenchArchive("minisql://:memory:") as archive:
            _fill(archive, [1.0, 1.0, 2.0])
            report = detect_regressions(archive, self._policy())
        assert not report.regressed
        assert report.skipped_short > 0

    def test_small_shift_not_flagged(self):
        """Statistically real but practically irrelevant: +5% with tiny
        variance passes the t-test but not the median guard."""
        with BenchArchive("minisql://:memory:") as archive:
            walls = [1.0 + 0.0001 * i for i in range(9)]
            walls += [1.05, 1.0501, 1.0502]
            _fill(archive, walls)
            report = detect_regressions(archive, self._policy())
        assert not report.regressed

    def test_noise_jump_not_flagged(self):
        """A big median shift with huge variance fails the t-test."""
        rng = random.Random(17)
        with BenchArchive("minisql://:memory:") as archive:
            walls = [1.0 + rng.uniform(-0.9, 0.9) for _ in range(9)]
            walls += [1.4 + rng.uniform(-0.9, 0.9) for _ in range(3)]
            _fill(archive, walls)
            report = detect_regressions(archive, self._policy())
        assert not report.regressed

    def test_policy_ignore_silences(self):
        rng = random.Random(5)
        with BenchArchive("minisql://:memory:") as archive:
            walls = [1.0 + rng.uniform(-0.02, 0.02) for _ in range(9)]
            walls += [2.0] * 3
            _fill(archive, walls)
            policy = self._policy()
            policy.overrides.append(("*.wall_seconds", {"ignore": True}))
            report = detect_regressions(archive, policy)
        assert not report.regressed

    def test_policy_direction_override(self):
        """A key with no inferable direction is tested once the policy
        supplies one."""
        with BenchArchive("minisql://:memory:") as archive:
            for i in range(12):
                value = 10.0 if i < 9 else 20.0
                archive.ingest_document({
                    "git_sha": f"{i:02d}" + "0" * 38,
                    "timestamp": f"2026-03-01T00:{i:02d}:00Z",
                    "benchmarks": {"e_test": {"latency": value}},
                })
            baseline = detect_regressions(archive, self._policy())
            assert baseline.skipped_direction == 1
            policy = self._policy()
            policy.overrides.append(("*.latency", {"direction": "lower"}))
            report = detect_regressions(archive, policy)
        assert report.regressed

    def test_key_filter(self):
        rng = random.Random(5)
        with BenchArchive("minisql://:memory:") as archive:
            walls = [1.0 + rng.uniform(-0.02, 0.02) for _ in range(9)]
            walls += [2.0] * 3
            _fill(archive, walls)
            report = detect_regressions(
                archive, self._policy(), key_filter="*.rows_per_second"
            )
        assert not report.regressed
        assert report.checked == 1

    def test_report_formatting(self):
        rng = random.Random(5)
        with BenchArchive("minisql://:memory:") as archive:
            walls = [1.0 + rng.uniform(-0.02, 0.02) for _ in range(9)]
            walls += [2.0 + rng.uniform(-0.02, 0.02) for _ in range(3)]
            _fill(archive, walls)
            report = detect_regressions(archive, self._policy())
        text = format_regress_report(report)
        assert "e_test.wall_seconds" in text
        assert "p-value" in text
        assert "commit window" in text
        assert "1 regression(s)" in text
        assert not math.isnan(report.findings[0].p_value)

    def test_quiet_report_formatting(self):
        with BenchArchive("minisql://:memory:") as archive:
            _fill(archive, [1.0, 1.0])
            report = detect_regressions(archive, self._policy())
        assert "no regressions detected" in format_regress_report(report)
