import os
import signal
from pathlib import Path

import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def _children() -> list:
    # Linux lists each thread's children under /proc; elsewhere only the
    # exited ones are found, by waitpid
    return [int(pid) for f in Path("/proc/self/task").glob("*/children")
            for pid in f.read_text().split()]


@pytest.fixture(autouse=True)
def no_child_left_behind():
    # a test that leaves a child process running or unreaped fails; the
    # check kills and reaps what it finds, so no later test fails for it
    yield
    if not hasattr(os, "WNOHANG"):
        return
    left = _children()
    for pid in left:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    try:
        while pid := os.waitpid(-1, os.WNOHANG)[0]:
            left.append(pid)  # exited, not reaped
        left.append("a running one")  # not listed under /proc
    except ChildProcessError:
        pass
    if left:
        pytest.fail(f"the test left child processes behind: {left}")
