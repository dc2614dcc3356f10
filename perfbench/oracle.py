"""Answer oracle: checks each reply against values the benchmark computes
itself, with numpy, from the generated trials.

Each check returns None when the reply is right and a short reason when
it is not; a wrong reply counts as a failed request.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

REL_TOL = 1e-9


def _close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = 0.0) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


class Oracle:
    """Expected answers for one served archive.

    ``trials`` maps trial id -> :class:`inputs.TrialInput`; ``layout``
    is the id-level catalog the server child reported after the build
    (applications, experiments, trial names, saved analyses)."""

    def __init__(self, trials: dict[int, Any], layout: dict):
        self.trials = trials
        self.layout = layout
        self._imbalance: dict[int, list[tuple[str, float]]] = {}

    # -- expected values ------------------------------------------------------

    def imbalance(self, trial: int, top: int = 10) -> list[tuple[str, float]]:
        if trial not in self._imbalance:
            t = self.trials[trial]
            mean = t.exclusive0.mean(axis=0)
            peak = t.exclusive0.max(axis=0)
            rows = [
                (name, float(peak[i] / mean[i]))
                for i, name in enumerate(t.events) if mean[i] > 0
            ]
            rows.sort(key=lambda r: r[1], reverse=True)
            self._imbalance[trial] = rows
        return self._imbalance[trial][:top]

    def column(self, trial: int, event: str) -> np.ndarray:
        t = self.trials[trial]
        return t.exclusive0[:, t.events.index(event)]

    # -- checks ------------------------------------------------------------------

    def check(self, method: str, params: dict, reply: Any) -> Optional[str]:
        checker = getattr(self, "_check_" + method)
        try:
            return checker(params, reply)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"{method}: malformed reply ({type(exc).__name__}: {exc})"

    def _check_ping(self, params: dict, reply: Any) -> Optional[str]:
        return None if reply == "pong" else f"ping: {reply!r}"

    def _check_list_applications(self, params: dict, reply: Any) -> Optional[str]:
        want = [(a["id"], a["name"]) for a in self.layout["applications"]]
        got = [(a["id"], a["name"]) for a in reply]
        return None if got == want else f"list_applications: {got} != {want}"

    def _check_list_experiments(self, params: dict, reply: Any) -> Optional[str]:
        app = next(
            a for a in self.layout["applications"] if a["id"] == params["application"]
        )
        want = [(e["id"], e["name"]) for e in app["experiments"]]
        got = [(e["id"], e["name"]) for e in reply]
        return None if got == want else f"list_experiments: {got} != {want}"

    def _check_list_trials(self, params: dict, reply: Any) -> Optional[str]:
        exp = next(
            e for a in self.layout["applications"] for e in a["experiments"]
            if e["id"] == params["experiment"]
        )
        want = [
            (tid, self.trials[tid].name, self.trials[tid].ranks)
            for tid in exp["trials"]
        ]
        got = [(t["id"], t["name"], t["node_count"]) for t in reply]
        return None if got == want else f"list_trials: {got} != {want}"

    def _check_list_metrics(self, params: dict, reply: Any) -> Optional[str]:
        want = self.trials[params["trial"]].metrics
        return None if reply == want else f"list_metrics: {reply} != {want}"

    def _check_list_events(self, params: dict, reply: Any) -> Optional[str]:
        want = self.trials[params["trial"]].events
        got = [e["name"] for e in reply]
        if got != want:
            return f"list_events: {len(got)} names, expected {len(want)}"
        return None

    def _check_list_analyses(self, params: dict, reply: Any) -> Optional[str]:
        want = set(self.layout["analyses"].values())
        got = {a["id"] for a in reply}
        missing = want - got
        return None if not missing else f"list_analyses: missing {sorted(missing)}"

    def _check_get_analysis(self, params: dict, reply: Any) -> Optional[str]:
        trial = next(
            int(t) for t, sid in self.layout["analyses"].items()
            if sid == params["settings_id"]
        )
        return self._check_saved(trial, reply)

    def _check_saved(self, trial: int, reply: Any) -> Optional[str]:
        if reply["trial"] != trial or reply["method"] != "kmeans":
            return f"get_analysis: header {reply['trial']}/{reply['method']}"
        results = reply["results"]
        labels = results["labels"]
        if len(labels) != self.trials[trial].ranks or not (
            set(labels) <= set(range(int(results["k"])))
        ):
            return "get_analysis: stored labels do not cover the trial's ranks"
        return None

    def _check_imbalance_chart(self, params: dict, reply: Any) -> Optional[str]:
        want = self.imbalance(params["trial"], params.get("top", 10))
        got = [(r["event"], r["imbalance"]) for r in reply["events"]]
        if [g[0] for g in got] != [w[0] for w in want]:
            return "imbalance_chart: top events differ"
        for (_, a), (_, b) in zip(got, want):
            if not _close(a, b):
                return f"imbalance_chart: ratio {a} != {b}"
        return None

    def _check_describe_event(self, params: dict, reply: Any) -> Optional[str]:
        values = self.column(params["trial"], params["event"])
        if not _close(reply["mean"], values.mean()):
            return f"describe_event: mean {reply['mean']} != {values.mean()}"
        if not _close(reply["max"], values.max()):
            return f"describe_event: max {reply['max']} != {values.max()}"
        return None

    def _check_correlate_events(self, params: dict, reply: Any) -> Optional[str]:
        x = self.column(params["trial"], params["event_x"])
        y = self.column(params["trial"], params["event_y"])
        want = float(np.corrcoef(x, y)[0, 1])
        if not _close(reply["pearson_r"], want, rel=1e-6, abs_tol=1e-9):
            return f"correlate_events: r {reply['pearson_r']} != {want}"
        return None

    def _check_correlation_matrix(self, params: dict, reply: Any) -> Optional[str]:
        events = params["events"]
        matrix = np.vstack([self.column(params["trial"], e) for e in events])
        if reply["events"] != events:
            return "correlation_matrix: event list differs"
        want = np.corrcoef(matrix)
        got = np.asarray(reply["matrix"], dtype=float)
        if got.shape != want.shape or not np.allclose(got, want, rtol=0, atol=2e-6):
            return "correlation_matrix: values differ"
        return None

    def _check_cluster_trial(self, params: dict, reply: Any) -> Optional[str]:
        ranks = self.trials[params["trial"]].ranks
        if reply["k"] != params["k"] or len(reply["sizes"]) != params["k"]:
            return f"cluster_trial: k {reply['k']}"
        if sum(reply["sizes"]) != ranks or len(reply["labels"]) != ranks:
            return f"cluster_trial: sizes {reply['sizes']} do not sum to {ranks}"
        if params.get("save") and not isinstance(reply.get("settings_id"), int):
            return "cluster_trial: saved result has no settings id"
        return None
