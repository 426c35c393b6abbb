"""Splitting work across processes: workers forked once per process (about
1 ms each) and kept for every split after.  A worker leaves on EOF, a forked
child starts with none, and an exit handler reaps them."""

import atexit
import marshal
import os
import sys
import threading
from contextlib import suppress

# Work (values times the bit lengths of the modulus and the exponent) of at
# least twice this much is split.  On a shared 2-vCPU x86 VM under CPython
# 3.11 that is 16 Miller-Rabin rounds at 256 bits (3.2 ms) or 1.8 ms of CRT
# pow at 512 bits, against a 0.05 ms worker round trip and a 1 ms fork once.
_FAN_OUT_WORK = 2**20

_workers: list = []  # (pid, its job pipe, its result pipe) per live worker


def _slices(work: int) -> int:
    # One process per _FAN_OUT_WORK, at most one per CPU the process may use;
    # one without fork, or while other threads run (3.12 warns on that fork).
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, work // _FAN_OUT_WORK))


def split_map(fn, values, args: tuple, work: int) -> list:
    # fn(part, *args) over _slices(work) contiguous parts of values, at most
    # one per value, joined: the caller runs the first, a worker each other
    # one, finding fn by module and name (args go by marshal).  A failed
    # worker's part is redone here; if this raises, every worker is killed
    # and stopped.
    try:
        slices = min(_slices(work), max(1, len(values)))
        with suppress(OSError):  # no process to spare: fewer parts
            while len(_workers) < slices - 1:
                _workers.append(_start_worker())
        workers = _workers[: slices - 1]
        size = -(-len(values) // (len(workers) + 1))
        parts = [values[i * size : (i + 1) * size] for i in range(len(workers) + 1)]
        for (_, jobs, _), part in zip(workers, parts[1:]):
            with suppress(OSError):  # a dead worker sends no result below
                marshal.dump((fn.__module__, fn.__name__, part, *args), jobs)
                jobs.flush()
        results = fn(parts[0], *args)
        for worker, part in zip(workers, parts[1:]):
            done = None
            with suppress(EOFError, OSError, TypeError, ValueError):
                done = marshal.load(worker[2])
            if type(done) is not list or len(done) != len(part):
                _drop(worker)
                done = fn(part, *args)
            results += done
        return results
    except BaseException:
        # No worker is left to finish a slice nobody reads.  9 is SIGKILL on
        # every POSIX system; importing signal would cost each process 1.6 ms.
        for pid, _, _ in _workers:
            with suppress(OSError):
                os.kill(pid, 9)
        stop()
        raise


def _start_worker() -> tuple:
    (jobs, to_worker), (from_worker, results) = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in jobs, to_worker, from_worker, results:
            os.close(fd)
        raise
    if pid == 0:
        # Run each (module, function, *args) read until EOF.  Leaving by
        # os._exit, even on KeyboardInterrupt, flushes no inherited stdio.
        try:
            os.close(to_worker)
            os.close(from_worker)
            jobs, results = open(jobs, "rb"), open(results, "wb")
            while True:
                module, name, *args = marshal.load(jobs)
                marshal.dump(getattr(sys.modules[module], name)(*args), results)
                results.flush()
        finally:
            os._exit(0)
    os.close(jobs)
    os.close(results)
    return pid, open(to_worker, "wb"), open(from_worker, "rb")


def _drop(worker: tuple) -> None:
    # Close one worker's pipes, so that it leaves on EOF, and reap it.  In a
    # forked child the closing is what counts: its copies would keep the
    # parent's workers from ever seeing EOF.
    _workers.remove(worker)
    pid, jobs, results = worker
    with suppress(OSError):  # the flush of a send that failed fails again
        jobs.close()
    results.close()
    with suppress(ChildProcessError):  # reaped already, or not this process's
        os.waitpid(pid, 0)


def stop() -> None:
    while _workers:
        _drop(_workers[-1])


atexit.register(stop)
if hasattr(os, "register_at_fork"):  # only where fork exists
    os.register_at_fork(after_in_child=stop)
