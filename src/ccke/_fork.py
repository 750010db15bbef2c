"""One fork helper: a forked child that works beside its parent.

Two parts of the package fork.  ``harness.run_experiment`` draws trial
blocks in a child while the model trains, and ``quantile_net.train`` runs
half the rows of each attention step in a worker.  Both go through
``start``, which forks only when all of these hold:

* the platform is Linux: macOS system libraries are not fork-safe, and
  Windows has no fork;
* ``os.sched_getaffinity`` holds more than one CPU: on one CPU the child
  would only compete with its parent.  A cgroup CPU quota is not read;
* ``threading.active_count() == 1``: a child forked beside another thread
  could inherit a lock that thread holds.

If ``os.pipe`` or ``os.fork`` fails, ``start`` returns None with no
descriptor left open, and the caller does the work itself.

A ``Child`` runs ``work(link)`` and always leaves through ``os._exit``:
status 0 after sending ``work``'s return value, 1 after sending a
failure, as its exception and formatted traceback.  ``link`` receives the
parent's commands, non-negative integers, and acknowledges each; the
child's command pipe reads end of file once the parent closes its end or
dies.  The parent's ``result`` or ``wait`` raises a failure in the child
with the child's traceback as its cause, and ``close`` kills and reaps a
child that ``result`` has not.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

LINUX = sys.platform.startswith("linux")

_OK, _FAILED = b"\x00", b"\x01"  # the status byte of every message a child sends
_COMMAND_BYTES = 8


def start(make):
    """``make()``, a new ``Child``, when the rules above let the process
    fork; else None, also when ``make`` raises ``OSError``."""
    if not (LINUX and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1):
        return None
    try:
        return make()
    except OSError:  # no process or memory to spare
        return None


class ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a forked child,
    set as the ``__cause__`` of the exception the parent re-raises."""

    def __str__(self):
        return "\n" + self.args[0]


def _picklable(exc):
    """``exc`` if it survives a pickle round trip, else None."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


class _Link:
    """The child's end of its pipes."""

    def __init__(self, commands, replies):
        self._commands, self._replies = commands, replies

    def receive(self):
        """The parent's next command, or None at end of file."""
        data = os.read(self._commands, _COMMAND_BYTES) if self._commands is not None else b""
        return int.from_bytes(data, "little") if data else None

    def ack(self) -> None:
        os.write(self._replies, _OK)


class Child:
    """``work(link)`` run in a forked child while the parent goes on (see
    the module docstring).  With ``commands``, the parent ``send``s the
    child commands and ``wait``s for each acknowledgement.  An ``OSError``
    of ``os.pipe`` or ``os.fork`` propagates, with no descriptor left open."""

    def __init__(self, work, commands: bool = False):
        sys.stdout.flush()  # else the child would write the parent's buffered output again
        sys.stderr.flush()
        fds = []
        try:
            fds += os.pipe()
            if commands:
                fds += os.pipe()
            self._pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        if self._pid == 0:
            self._child(work, *fds)
        replies_r, replies_w, *command_fds = fds
        os.close(replies_w)
        self._commands = None
        if command_fds:
            os.close(command_fds[0])
            self._commands = command_fds[1]
        self._replies = os.fdopen(replies_r, "rb")

    @staticmethod
    def _child(work, replies_r, replies_w, commands_r=None, commands_w=None):
        status = 1
        try:
            for fd in (replies_r, commands_w):  # the parent's ends
                if fd is not None:
                    os.close(fd)
            try:
                message = _OK + pickle.dumps(work(_Link(commands_r, replies_w)),
                                             protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                import traceback  # here, not at the top: importing ccke should not pay for it

                message = _FAILED + pickle.dumps((_picklable(exc), traceback.format_exc()),
                                                 protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(replies_w, "wb") as pipe:
                pipe.write(message)
            status = message[0]
        finally:
            try:  # os._exit skips the flush that a normal exit makes
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(status)

    def send(self, command: int) -> None:
        """Send the child a command; a child that has left raises its failure."""
        try:
            os.write(self._commands, command.to_bytes(_COMMAND_BYTES, "little"))
        except BrokenPipeError:
            self._raise(self._replies.read())

    def wait(self) -> None:
        """Wait for the child to acknowledge a command; a failure in the
        child is raised here, its traceback as the cause."""
        status = self._replies.read(1)
        if status != _OK:
            self._raise(status + self._replies.read())

    def result(self):
        """What ``work`` returned, once the child has left (its command
        pipe is closed first); a failure in the child is raised here, its
        traceback as the cause."""
        self._close_commands()
        message = self._replies.read()
        if self._reap() == 0 and message[:1] == _OK:
            return pickle.loads(message[1:])
        self._raise(message)

    def _raise(self, message: bytes):
        code = self._reap()
        if message[:1] == _FAILED:
            try:
                exc, child_traceback = pickle.loads(message[1:])
            except (EOFError, pickle.UnpicklingError):
                pass
            else:
                if exc is None:
                    exc = RuntimeError(child_traceback.strip().splitlines()[-1])
                raise exc from ChildTraceback(child_traceback)
        raise RuntimeError(f"forked child exited with status {code}") from None

    def _reap(self):
        """The child's exit code, once it has left; None if already reaped."""
        if self._pid is None:
            return None
        _, wait_status = os.waitpid(self._pid, 0)
        self._pid = None
        return os.waitstatus_to_exitcode(wait_status)

    def _close_commands(self) -> None:
        if self._commands is not None:
            os.close(self._commands)
            self._commands = None

    def close(self) -> None:
        """Kill and reap the child if ``result`` has not reaped it, and
        close every pipe end."""
        import signal  # here, not at the top: importing ccke should not pay for it

        try:
            self._close_commands()
            if self._pid is not None:
                os.kill(self._pid, signal.SIGKILL)
                self._reap()
        finally:
            self._replies.close()
