"""The one fork map and what crosses its pipes.

``numerics.fork_map`` runs item j in process j % procs, process 0
being the caller; the results, and the exception of the lowest failing
item, come back as a run in one process gives them, and no child
outlives a call.  Every exception the package defines survives the
pickling a failure in a child goes through.
"""

import inspect
import os
import pickle

import pytest

from branchlab import errors
from branchlab.errors import BranchLabError, PrecisionLoss
from branchlab.model import Violation
from branchlab.numerics import cores, fork_map

_VIOLATIONS = [Violation("non_critical", 2, "mean 1.1"),
               Violation("missing_link", 1, "link mean 0")]

# one instance of every exception class in errors.py, with every field set
_ERRORS = {
    errors.BranchLabError: lambda: errors.BranchLabError("plain"),
    errors.ModelStructureError: lambda: errors.ModelStructureError("cycle"),
    errors.HypothesisViolation:
        lambda: errors.HypothesisViolation(_VIOLATIONS),
    errors.NonCritical: lambda: errors.NonCritical(_VIOLATIONS),
    errors.MissingLink: lambda: errors.MissingLink(_VIOLATIONS[1:]),
    errors.DegenerateVariance: lambda: errors.DegenerateVariance(_VIOLATIONS),
    errors.InvalidMoments: lambda: errors.InvalidMoments("no moments"),
    errors.PrecisionLoss: lambda: errors.PrecisionLoss(7, "m"),
    errors.UnreachableEvent: lambda: errors.UnreachableEvent("P(T = 4) = 0"),
    errors.SlowConvergence: lambda: errors.SlowConvergence(2, 500, 1.5e-9),
    errors.AcceptanceTooLow: lambda: errors.AcceptanceTooLow(25, 1000),
    errors.ConfigError:
        lambda: errors.ConfigError("not a number", field="laws[0]", line=3),
}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_every_error_class_is_listed():
    defined = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, BaseException)
               and cls.__module__ == errors.__name__}
    assert defined == set(_ERRORS)


@pytest.mark.parametrize("cls", sorted(_ERRORS, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_errors_survive_pickling(cls):
    exc = _ERRORS[cls]()
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)


def test_precision_loss_keeps_its_step_and_message():
    back = pickle.loads(pickle.dumps(PrecisionLoss(7, "m")))
    assert (back.step, str(back)) == (7, "m")
    back = pickle.loads(pickle.dumps(PrecisionLoss(7)))
    assert (back.step, str(back)) == (7, "precision exhausted at step 7")


def test_cores_counts_the_cores_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                        raising=False)
    assert cores() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cores() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cores() == 1


@pytest.mark.parametrize("procs", [1, 2, 3, 8])
def test_item_j_runs_in_process_j_mod_procs(procs):
    items = list(range(7))
    got = fork_map(lambda j: (j * j, os.getpid()), items, procs)
    assert [value for value, _ in got] == [j * j for j in items]
    used = min(procs, len(items))
    pids = [pid for _, pid in got]
    for j, pid in enumerate(pids):
        assert pid == pids[j % used]
    assert pids[0] == os.getpid()
    assert len(set(pids[:used])) == used
    _no_child_left()


def test_an_empty_map_runs_nothing():
    assert fork_map(lambda item: 1 / 0, [], 4) == []


def test_without_fork_one_process_runs_everything(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert fork_map(lambda j: os.getpid(), range(5), 4) == [os.getpid()] * 5


@pytest.mark.parametrize("procs", [1, 2, 3])
def test_the_lowest_failing_item_raises_as_in_one_process(procs):
    # items 1 and 2 fail; item 1 runs in a child whenever procs > 1
    ran = []

    def job(j):
        ran.append(j)
        if j in (1, 2):
            raise errors.SlowConvergence(j, 10 * j, 0.5)
        return j

    with pytest.raises(errors.SlowConvergence) as info:
        fork_map(job, range(6), procs)
    assert (info.value.type_index, info.value.iterations,
            str(info.value)) == (
        1, 10, "type 1: residual 5.000e-01 after 10 iterations")
    # this process runs items 0, procs, 2 procs, ... up to its first
    # failure, as a run in one process stops at its first
    assert ran == {1: [0, 1], 2: [0, 2], 3: [0, 3]}[procs]
    _no_child_left()


def test_a_result_that_does_not_pickle_fails_the_map(capfd):
    with pytest.raises(BranchLabError, match="a forked process failed"):
        fork_map(lambda j: lambda: j, range(2), 2)
    assert "pickle" in capfd.readouterr().err
    _no_child_left()
