"""Catalog handlers must not share selection state across requests.

Every executor thread of a PerfExplorer server calls into the one
``PerfDMFSession`` the ``AnalysisServer`` owns.  If ``list_trials``
narrowed that session's selection and ``list_experiments`` reset it in
between, the trial query ran unfiltered and returned every trial in the
archive.
"""

from __future__ import annotations

import sys
import threading

from repro.core.api.entities import Trial
from repro.core.session import PerfDMFSession
from repro.explorer import AnalysisServer

URL = "minisql://explorer-shared-selection"


def _archive():
    """Two applications, one experiment each, two trials per experiment."""
    setup = PerfDMFSession(URL)
    expected = {}
    for app_name in ("a", "b"):
        app = setup.create_application(app_name)
        exp = setup.create_experiment(app, f"{app_name}-exp")
        names = []
        for n in range(2):
            trial = Trial(setup.connection, name=f"{app_name}{n}",
                          experiment=exp.id)
            trial.save()
            names.append(trial.name)
        setup.connection.commit()
        expected[exp.id] = (app.id, names)
    return expected


def _trial_names(reply):
    return [t["name"] for t in reply]


def test_list_trials_survives_concurrent_list_experiments(monkeypatch):
    expected = _archive()
    server = AnalysisServer(URL)
    (exp_id, (app_id, names)), = list(expected.items())[:1]
    session = server.session
    original = session.get_trial_list

    def interleaved(*args, **kwargs):
        # Another executor thread serves list_experiments while this
        # one is about to run the trial query.
        other = threading.Thread(
            target=server.handle_request,
            args=("list_experiments", {"application": app_id}),
        )
        other.start()
        other.join(timeout=30)
        assert not other.is_alive()
        return original(*args, **kwargs)

    monkeypatch.setattr(session, "get_trial_list", interleaved)
    reply = server.handle_request("list_trials", {"experiment": exp_id})
    assert _trial_names(reply) == names


def test_catalog_handlers_leave_selection_alone():
    expected = _archive()
    server = AnalysisServer(URL)
    session = server.session
    (exp_id, (app_id, names)), = list(expected.items())[:1]
    session.set_application(app_id)
    before = vars(session.selection).copy()
    experiments = server.handle_request(
        "list_experiments", {"application": app_id}
    )
    trials = server.handle_request("list_trials", {"experiment": exp_id})
    assert [e["id"] for e in experiments] == [exp_id]
    assert _trial_names(trials) == names
    assert vars(session.selection) == before


def test_session_lists_take_parent_ids():
    expected = _archive()
    session = PerfDMFSession(URL)
    for exp_id, (app_id, names) in expected.items():
        assert [e.id for e in session.get_experiment_list(app_id)] == [exp_id]
        assert [t.name for t in session.get_trial_list(exp_id)] == names
    # With no argument the selection still filters, as before.
    assert len(session.get_trial_list()) == 4


def test_concurrent_catalog_requests_stay_filtered():
    expected = _archive()
    server = AnalysisServer(URL)
    wrong = []

    def list_trials(exp_id, names):
        for _ in range(200):
            reply = server.handle_request("list_trials", {"experiment": exp_id})
            if _trial_names(reply) != names:
                wrong.append(reply)

    def list_experiments(app_id):
        for _ in range(200):
            server.handle_request("list_experiments", {"application": app_id})

    threads = [
        threading.Thread(target=list_trials, args=(exp_id, names))
        for exp_id, (_, names) in expected.items()
    ] + [
        threading.Thread(target=list_experiments, args=(app_id,))
        for app_id, _ in expected.values()
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
