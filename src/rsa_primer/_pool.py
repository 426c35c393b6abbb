"""Splitting work across processes, or racing it: workers forked once per
process (about 1 ms each) and kept for every split and race after.  Each job
and each reply crosses its pipe as one marshal string, read whole, and every
split and race reads the reply to each job it sends before it returns, so
no job is in flight between calls.  A worker leaves on EOF, a forked child
starts with none, and an exit handler reaps them."""

import atexit
import marshal
import os
import sys
import threading
from contextlib import suppress

# Work (values times the bit lengths of the modulus and the exponent) of at
# least twice this much is split.  On a shared 2-vCPU x86 VM under CPython
# 3.11 that is 16 Miller-Rabin rounds at 256 bits (3.2 ms) or 1.8 ms of CRT
# pow at 512 bits, against a 1 ms fork once and a worker round trip of 0.5-0.8
# ms for a job of 1041 blocks of 512 bits, sent and echoed back.
_FAN_OUT_WORK = 2**20

# The most bytes one marshal string holds; a longer message is cut into
# strings this long and one shorter.
_STRING_CUT = 2**31 - 1

_workers: list = []  # (pid, its job pipe, its result pipe) per live worker
_flag = None  # one byte shared with the workers, nonzero from a win to the race's end


def _cpus() -> int:
    # The CPUs this process may use.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def _slices(work: int) -> int:
    # One process per _FAN_OUT_WORK, at most one per CPU the process may use;
    # one without fork, or while other threads run (3.12 warns on that fork).
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_cpus(), work // _FAN_OUT_WORK))


def _running() -> int:
    # The tasks running or ready to run on the host now, this one among them,
    # from Linux's /proc/loadavg; 1 where that cannot be read.
    try:
        with open("/proc/loadavg", "rb") as f:
            return int(f.read().split()[3].split(b"/")[0])
    except (OSError, ValueError, IndexError):
        return 1


def split_map(fn, values, args: tuple, work: int) -> list:
    # fn(part, *args) over _slices(work) contiguous parts of values, at most
    # one per value, joined: the caller runs the first, a worker each other
    # one, finding fn by module and name (its part and args cross as one
    # marshal string, and so does its reply).  A failed worker's part is
    # redone here; if this raises, every worker is killed and stopped.
    try:
        workers = _hire(min(_slices(work), max(1, len(values))))
        size = -(-len(values) // (len(workers) + 1))
        parts = [values[i * size : (i + 1) * size] for i in range(len(workers) + 1)]
        for worker, part in zip(workers, parts[1:]):
            _send(worker, fn.__module__, fn.__name__, part, *args)
        results = fn(parts[0], *args)
        for worker, part in zip(workers, parts[1:]):
            done = _reply(worker, lambda done: type(done) is list and len(done) == len(part))
            results += fn(part, *args) if done is None else done
        return results
    except BaseException:
        _abort()
        raise


def race(fn, args: tuple, work: int, valid):
    # The first result of fn(*args, k, lost), run by the caller (k = 0) and
    # by a worker for each k = 1, 2, ... up to _slices(work) - 1 and to the
    # CPUs nothing runs on (two walks sharing one lose to one walk), finding
    # fn by module and name (args go by marshal).  Each entrant calls lost() now
    # and then and returns None once it is true.  A worker that wins sets the
    # flag; at its next poll the caller reads the workers' replies, and lost()
    # is true only once one passes valid: a worker that died or sent anything
    # else is dropped, and the caller walks on alone.  Once the caller's own
    # call returns, it sets the flag, reads every reply still unread (each
    # entrant stops at its next poll) and clears the flag, so that the race
    # leaves no job in flight.  If this raises, every worker is killed.
    try:
        slices = _slices(work)
        if slices > 1:
            slices = max(1, min(slices, _cpus() - _running() + 1))
        entrants = _hire(slices)
        for k, worker in enumerate(entrants, 1):
            _send(worker, __name__, "_enter", fn.__module__, fn.__name__, *args, k)
        unread, won = list(entrants), []

        def lost() -> bool:
            while unread and _flag[0]:  # each entrant stops at its next poll
                done = _reply(unread.pop(0), lambda done: done is None or valid(done))
                if done is not None:
                    won.append(done)
                    return True
            return False

        result = fn(*args, 0, lost)
        if entrants:
            _flag[0] = 1
            while unread:
                _reply(unread.pop(), lambda done: True)
            _flag[0] = 0
        return won[0] if result is None else result
    except BaseException:
        _abort()
        raise


def _enter(module: str, name: str, *args):
    # One entrant of a race, in a worker: the flag stops it, and its win sets it.
    flag = _flag
    result = getattr(sys.modules[module], name)(*args, lambda: flag[0] != 0)
    if result is not None:
        flag[0] = 1
    return result


def _hire(slices: int) -> list:
    # Enough workers forked for slices - 1 of them to take one job each.
    with suppress(OSError):  # no process to spare: fewer parts
        while len(_workers) < slices - 1:
            _workers.append(_start_worker())
    return _workers[: slices - 1]


def _write(file, message) -> None:
    # message as marshal strings, the last shorter than _STRING_CUT: one in
    # practice.  marshal.load reads a string whole, but an int from a file
    # one 15-bit digit at a time (19,113 reads for 520 random 512-bit ints).
    data = marshal.dumps(message)
    for start in range(0, len(data) + 1, _STRING_CUT):
        marshal.dump(data[start : start + _STRING_CUT], file)
    file.flush()


def _read(file):
    # What _write wrote: strings up to the first shorter than _STRING_CUT.
    strings = [marshal.load(file)]
    while len(strings[-1]) == _STRING_CUT:
        strings.append(marshal.load(file))
    return marshal.loads(b"".join(strings))


def _send(worker: tuple, *job) -> None:
    with suppress(OSError):  # a dead worker sends no reply, so it is dropped
        _write(worker[1], job)


def _reply(worker: tuple, ok):
    # The worker's reply if ok(reply); otherwise None, the worker dropped.
    with suppress(EOFError, OSError, TypeError, ValueError):
        done = _read(worker[2])
        if ok(done):
            return done
    _drop(worker)
    return None


def _abort() -> None:
    # No worker is left to finish a job nobody reads.  9 is SIGKILL on every
    # POSIX system; importing signal would cost each process 1.6 ms.
    for pid, _, _ in _workers:
        with suppress(OSError):
            os.kill(pid, 9)
    stop()


def _start_worker() -> tuple:
    global _flag
    if _flag is None:
        import mmap  # a shared library: loaded at the first fork, not at import

        _flag = mmap.mmap(-1, 1)  # anonymous and shared with every child
    flag = _flag
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
            _flag = flag  # which the fork handler dropped
            os.close(to_worker)
            os.close(from_worker)
            jobs, results = open(jobs, "rb"), open(results, "wb")
            while True:
                module, name, *args = _read(jobs)
                _write(results, getattr(sys.modules[module], name)(*args))
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
    # Every worker dropped, and the flag with them: a forked child's own
    # races must not touch its parent's.
    global _flag
    while _workers:
        _drop(_workers[-1])
    _flag = None


atexit.register(stop)
if hasattr(os, "register_at_fork"):  # only where fork exists
    os.register_at_fork(after_in_child=stop)
