"""One ordered map over worker processes, opened once per command.

``pmap(fn, jobs)`` returns ``[fn(job) for job in jobs]``.  Inside a
:func:`pool` scope, with two or more CPUs in the process's affinity mask and
two or more jobs, the jobs run on forked worker processes, one per CPU up to
one per job; otherwise, and inside a worker, pmap is builtin map.  Each job
runs the same code on the same inputs either way, so no result depends on
the worker count, and a failing job raises in the caller as it would in the
serial map: the first failure in job order.  A worker that dies (killed by
a signal, say) raises errors.WorkerError.
"""

from __future__ import annotations

import contextlib
import os

from .errors import WorkerError

_PR_SET_PDEATHSIG = 1  # <linux/prctl.h>

# the open scope: a list that holds its executor once pmap has started one;
# None outside a scope and in a worker
_scope = None


def _worker_init(parent: int) -> None:
    # imported here, as the pool's modules are in pmap, so that a command
    # that starts no pool does not pay for them at start-up
    import ctypes
    import signal

    global _scope
    _scope = None
    # the kernel kills the worker when its parent dies, SIGKILL included
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:  # the parent died before the signal was set
        os._exit(1)


@contextlib.contextmanager
def pool():
    """The scope of one command: pmap may start workers inside it, and they
    have exited when it ends.  Jobs not yet started when it ends are dropped,
    so a failure ends the scope without running them."""
    global _scope
    _scope = scope = []
    try:
        yield
    finally:
        _scope = None
        for executor in scope:
            executor.shutdown(cancel_futures=True)


def pmap(fn, jobs) -> list:
    """``[fn(job) for job in jobs]``, on worker processes where there are
    several CPUs and jobs.  fn and the jobs are pickled, so fn is a module
    function or a functools.partial of one."""
    jobs = list(jobs)
    workers = min(len(os.sched_getaffinity(0)), len(jobs))
    if _scope is None or workers < 2:
        return list(map(fn, jobs))
    if not _scope:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: the workers inherit the loaded modules instead of importing
        # them again; the executor starts them before its own thread
        _scope.append(ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init, initargs=(os.getpid(),),
        ))
    from concurrent.futures.process import BrokenProcessPool

    try:
        return list(_scope[0].map(fn, jobs))
    except BrokenProcessPool as exc:
        raise WorkerError(f"a worker process died: {exc}") from None
