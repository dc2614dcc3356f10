"""``FileDataSession`` — the flat-file DataSession.

Implements the paper's first access method: profile data straight from
profiling tools *"in the form of flat files, and/or [without] database
support"* (§4).  One session wraps one parsed trial; the application /
experiment / trial lists expose a single virtual hierarchy so code
written against :class:`DataSession` works unchanged on files.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from ..io_.registry import load_profile
from ..model import DataSource
from .datasession import DataSession


class FileDataSession(DataSession):
    """A DataSession over one flat-file profile dataset."""

    def __init__(
        self,
        target: str | os.PathLike | DataSource,
        format_name: Optional[str] = None,
        application_name: str = "default_app",
        experiment_name: str = "default_exp",
        trial_name: str = "trial",
    ):
        super().__init__()
        if isinstance(target, DataSource):
            self.datasource = target
        else:
            self.datasource = load_profile(target, format_name)
        self.application_name = application_name
        self.experiment_name = experiment_name
        self.trial_name = trial_name
        self.selection.application_id = 0
        self.selection.experiment_id = 0
        self.selection.trial_id = 0

    # The virtual entity hierarchy ------------------------------------------------

    def get_application_list(self) -> list[dict[str, Any]]:  # type: ignore[override]
        return [{"id": 0, "name": self.application_name}]

    def get_experiment_list(self, application=None) -> list[dict[str, Any]]:  # type: ignore[override]
        return [{"id": 0, "name": self.experiment_name, "application": 0}]

    def get_trial_list(self, experiment=None) -> list[dict[str, Any]]:  # type: ignore[override]
        return [
            {
                "id": 0,
                "name": self.trial_name,
                "experiment": 0,
                "node_count": self.datasource.node_count,
                "contexts_per_node": self.datasource.contexts_per_node,
                "max_threads_per_context": self.datasource.max_threads_per_context,
            }
        ]

    # Queries over the in-memory model ----------------------------------------------

    def get_metrics(self) -> list[str]:
        return [m.name for m in self.datasource.metrics]

    def get_interval_events(self) -> list[dict[str, Any]]:
        events = self.datasource.interval_events.values()
        out = []
        for event in events:
            if (
                self.selection.event_name is not None
                and event.name != self.selection.event_name
            ):
                continue
            out.append({"id": event.index, "name": event.name, "group": event.group})
        return out

    def get_atomic_events(self) -> list[dict[str, Any]]:
        return [
            {"id": e.index, "name": e.name, "group": e.group}
            for e in self.datasource.atomic_events.values()
        ]

    def get_interval_event_data(self) -> list[tuple]:
        """Rows in the same shape as PerfDMFSession.get_interval_event_data,
        honouring the node/context/thread/metric/event selection."""
        sel = self.selection
        metric_names = [m.name for m in self.datasource.metrics]
        rows: list[tuple] = []
        for thread in self.datasource.all_threads():
            if sel.node is not None and thread.node_id != sel.node:
                continue
            if sel.context is not None and thread.context_id != sel.context:
                continue
            if sel.thread is not None and thread.thread_id != sel.thread:
                continue
            for profile in thread.function_profiles.values():
                if (
                    sel.event_name is not None
                    and profile.event.name != sel.event_name
                ):
                    continue
                for m, inc, exc in profile.iter_metrics():
                    if m >= len(metric_names):
                        continue
                    if (
                        sel.metric_name is not None
                        and metric_names[m] != sel.metric_name
                    ):
                        continue
                    rows.append(
                        (
                            profile.event.name,
                            thread.node_id, thread.context_id, thread.thread_id,
                            metric_names[m], inc, exc,
                            profile.calls, profile.subroutines,
                        )
                    )
        return rows

    def load_datasource(self) -> DataSource:
        return self.datasource
