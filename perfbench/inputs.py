"""Seeded input generation for the three workloads.

Every input is derived from ``--seed`` alone and written to files the
program then reads: trials as ``.npz`` arrays (loaded into the archive
through ``save_trial``) and TAU profile directories (read through
``perfdmf load``'s path).  The parent keeps the generated arrays, so the
oracle's expected values never come from the program's answers.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Workload sizes.  Every archive holds several trials on purpose: a
# read that scans the whole archive costs archive rows, not trial rows,
# and a single-trial archive hides that (see NOTES.md).
CATALOG_EXPERIMENTS = 3
CATALOG_TRIALS_PER_EXPERIMENT = 8
CATALOG_RANKS = 4
CATALOG_ANALYSES = 4
EXPLORE_TRIALS = 4
EXPLORE_RANKS = 32
EXPLORE_MATRIX_EVENTS = 8
INGEST_PRELOAD_TRIALS = 2
INGEST_PRELOAD_RANKS = 128
INGEST_MIRANDA_RANKS = 32
INGEST_SPPM_RANKS = 16


@dataclass
class TrialInput:
    """One generated trial: where the program reads it from, and the
    numbers the oracle checks replies against."""

    name: str
    path: str
    ranks: int
    events: list[str]
    metrics: list[str]
    points: int
    exclusive_sum: float
    #: exclusive values of metric 0, shape (threads, events); served only
    exclusive0: Optional[np.ndarray] = None


def write_npz(trial, path: str) -> None:
    """Store a ColumnarTrial's arrays (the server child rebuilds it)."""
    np.savez(
        path,
        event_names=np.array(trial.event_names),
        event_groups=np.array(trial.event_groups),
        metric_names=np.array(trial.metric_names),
        thread_triples=trial.thread_triples,
        inclusive=np.stack(trial.inclusive),
        exclusive=np.stack(trial.exclusive),
        calls=trial.calls,
        subroutines=trial.subroutines,
    )


def read_npz(path: str):
    from repro.core.model import ColumnarTrial

    with np.load(path) as data:
        return ColumnarTrial(
            event_names=[str(x) for x in data["event_names"]],
            event_groups=[str(x) for x in data["event_groups"]],
            metric_names=[str(x) for x in data["metric_names"]],
            thread_triples=data["thread_triples"],
            inclusive=list(data["inclusive"]),
            exclusive=list(data["exclusive"]),
            calls=data["calls"],
            subroutines=data["subroutines"],
        )


def _miranda(seed: int, ranks: int):
    from repro.tau.apps import Miranda

    return Miranda(seed=seed).generate(ranks)


def _columnar_input(name: str, trial, path: str) -> TrialInput:
    write_npz(trial, path)
    return TrialInput(
        name=name, path=path, ranks=trial.num_threads,
        events=list(trial.event_names), metrics=list(trial.metric_names),
        exclusive0=np.asarray(trial.exclusive[0], dtype=float),
        points=trial.num_data_points,
        exclusive_sum=float(sum(float(x.sum()) for x in trial.exclusive)),
    )


def served_plan(workload: str, seed: int, workdir: str) -> dict:
    """Archive layout for ``catalog`` or ``explore``: applications ->
    experiments -> trials, plus the trials the setup clusters and saves."""
    rng = random.Random(seed)
    trials: list[TrialInput] = []
    applications = []
    if workload == "catalog":
        experiments = []
        for e in range(CATALOG_EXPERIMENTS):
            names = []
            for t in range(CATALOG_TRIALS_PER_EXPERIMENT):
                name = f"miranda_e{e}_t{t}"
                trial = _miranda(rng.randrange(1 << 30), CATALOG_RANKS)
                trials.append(_columnar_input(
                    name, trial, os.path.join(workdir, name + ".npz")))
                names.append(name)
            experiments.append({"name": f"bgl_run_{e}", "trials": names})
        applications.append({"name": "miranda", "experiments": experiments})
        analyses = [t.name for t in rng.sample(trials, CATALOG_ANALYSES)]
    else:
        names = []
        for t in range(EXPLORE_TRIALS):
            name = f"miranda_{EXPLORE_RANKS}p_{t}"
            trial = _miranda(rng.randrange(1 << 30), EXPLORE_RANKS)
            trials.append(_columnar_input(
                name, trial, os.path.join(workdir, name + ".npz")))
            names.append(name)
        applications.append({
            "name": "miranda",
            "experiments": [{"name": "scaling", "trials": names}],
        })
        analyses = []
    return {
        "applications": applications,
        "trials": trials,
        "analyses": analyses,
    }


def ingest_plan(seed: int, workdir: str, count: int) -> dict:
    """Pre-load trials (npz) and ``count`` TAU profile directories that
    alternate Miranda (one metric) and sPPM (TIME plus PAPI counters)."""
    from repro.tau.apps import SPPM
    from repro.tau.writers import write_tau_profiles

    rng = random.Random(seed)
    preload = []
    for p in range(INGEST_PRELOAD_TRIALS):
        name = f"preload_{p}"
        trial = _miranda(rng.randrange(1 << 30), INGEST_PRELOAD_RANKS)
        preload.append(_columnar_input(
            name, trial, os.path.join(workdir, name + ".npz")))
    profiles = []
    for i in range(count):
        if i % 2 == 0:
            name = f"miranda_{i:02d}"
            source = _miranda(
                rng.randrange(1 << 30), INGEST_MIRANDA_RANKS).to_datasource()
        else:
            name = f"sppm_{i:02d}"
            source = SPPM(seed=rng.randrange(1 << 30)).run(INGEST_SPPM_RANKS)
        directory = os.path.join(workdir, name)
        write_tau_profiles(source, directory)
        profiles.append(_datasource_input(name, source, directory))
    return {"preload": preload, "profiles": profiles}


def _datasource_input(name: str, source, directory: str) -> TrialInput:
    """Expected counts of a written profile.  A trial's data points are
    threads x events x metrics (the paper's figure), whether or not every
    event ran on every thread."""
    threads = list(source.all_threads())
    events = [e.name for e in source.interval_events.values()]
    metrics = [m.name for m in source.metrics]
    exclusive_sum = sum(
        profile.get_exclusive(m)
        for thread in threads
        for profile in thread.function_profiles.values()
        for m in range(len(metrics))
    )
    return TrialInput(
        name=name, path=directory, ranks=len(threads), events=events,
        metrics=metrics, points=len(threads) * len(events) * len(metrics),
        exclusive_sum=exclusive_sum,
    )
