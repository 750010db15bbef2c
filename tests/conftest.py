"""Fixtures shared by the test modules."""

import os
import threading

import pytest

from ccke import _fork


@pytest.fixture
def forked_pids(monkeypatch):
    """The pid of every child the test forks, with two CPUs in the
    affinity mask whatever the box has.  After the test no child is left,
    live or zombie, and no descriptor is left open."""
    if not _fork.LINUX:
        pytest.skip("the package forks on Linux only")
    assert threading.active_count() == 1  # else nothing would fork
    fds = set(os.listdir("/proc/self/fd"))
    pids, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert set(os.listdir("/proc/self/fd")) == fds
