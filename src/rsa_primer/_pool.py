"""Splitting work across processes, or racing it.

``split_map`` cuts work (values times the bit lengths of the modulus and the
exponent) into contiguous slices, one per _FAN_OUT_WORK and at most one per
CPU the process may run on.  The caller runs the first slice and a worker
each other one.  Less than twice _FAN_OUT_WORK (then no CPU count is read),
a platform without fork, or a caller that runs other threads gets one
slice, run in the caller by the same code.  ``race`` is a split over walk
indices k = 0, ..., m - 1, one per slice.  Each walk gets k, the entrant
count m and lost(), and the race returns every walk's result in walk
order.  Granted fewer than two walks, or with no result that passes its
check (then every worker is dropped), a race is walk 0 of 1 alone in the
caller, and lost() stays false.  The race line: the prime search weighs a
walk at 63 bits^2 and races from 183 bits on
(63 * 182^2 < 2 * 2^20 <= 63 * 183^2); Pollard rho weighs one at
2^11 n^(1/4) and races from n >= 2^40.  The one stop rule: lost() turns
true once any walk of the race has returned, and a walk stops at its next
poll of it.  The flag behind lost() is this module's alone, one byte in an
anonymous shared mmap made before the first fork: raised as a walk
returns, cleared as the race does.

Workers are forked at the first split or race that needs them and kept for
every one after.  The one placement rule: before each job, a worker limits
itself to the CPUs it was forked with less the one the caller last ran on
(field 39 of /proc/<caller>/stat), and runs unplaced where that cannot be
read or set, or the set holds one CPU.  A worker on its caller's CPU made
a split no faster than one process, and a pin made once at fork did not
hold, as the caller moves (CHANGES.md line 63).  Each job and each reply
crosses its pipe as one marshal string, read whole, and every split and
race reads the reply to each job it sends before it returns, so no job is
in flight between calls.  A worker that dies or replies with anything else
is dropped and its slice redone in the caller; in a race lost() is true by
then, so a redone walk stops at its first poll.  An exception in the caller
kills every worker at once.  A worker leaves on EOF, a forked child starts
with none, and an exit handler reaps them.
"""

import atexit
import marshal
import os
import sys
import threading
from contextlib import suppress

# The work of one slice: about 16 Miller-Rabin rounds at 256 bits
# (16 * 256 * 256).  A slice must outweigh a worker's fork, about 1 ms once
# (CHANGES.md line 32), and a round trip of 0.5-0.8 ms for a job of 1041
# blocks of 512 bits, sent and echoed back (CHANGES.md line 45), each on a
# shared 2-vCPU x86 VM under CPython 3.11.
_FAN_OUT_WORK = 2**20

# The most bytes one marshal string holds; a longer message is cut into
# strings this long and one shorter.
_STRING_CUT = 2**31 - 1

_workers: list = []  # (pid, its job pipe, its result pipe) per live worker
_flag = None  # one byte shared with the workers, raised from a walk's return to the race's end


def _slices(work: int) -> int:
    # One process per _FAN_OUT_WORK, at most one per CPU the process may use;
    # one below two, without fork, or while other threads run (3.12 warns).
    if work < 2 * _FAN_OUT_WORK or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, work // _FAN_OUT_WORK)


def split_map(fn, values, args: tuple, work: int) -> list:
    # fn(part, *args) over _slices(work) contiguous parts of values, at most
    # one per value, joined in order.  A worker finds fn by module and name.
    try:
        slices = min(_slices(work), max(1, len(values)))
        with suppress(OSError):  # no process to spare: fewer parts
            while len(_workers) < slices - 1:
                _workers.append(_start_worker())
        workers = _workers[: slices - 1]
        size = -(-len(values) // (len(workers) + 1))
        parts = [values[i * size : (i + 1) * size] for i in range(len(workers) + 1)]
        for worker, part in zip(workers, parts[1:]):
            with suppress(OSError):  # a dead worker sends no reply, so it is dropped
                _write(worker[1], (fn.__module__, fn.__name__, part, *args))
        results = fn(parts[0], *args)
        for worker, part in zip(workers, parts[1:]):
            done = None
            with suppress(EOFError, OSError, TypeError, ValueError):
                done = _read(worker[2])
            if type(done) is not list or len(done) != len(part):
                _drop(worker)  # it died or replied with anything else
                done = fn(part, *args)
            results += done
        return results
    except BaseException:
        # No worker is left to finish a job nobody reads.  9 is SIGKILL on
        # every POSIX system; importing signal would cost each process 1.6 ms
        # (CHANGES.md line 36).
        for pid, _, _ in _workers:
            with suppress(OSError):
                os.kill(pid, 9)
        stop()
        raise


def race(fn, args: tuple, work: int, valid) -> list:
    # fn(*args, k, m, lost) for walks k = 0, ..., m - 1, m = _slices(work):
    # every result in walk order, or walk 0 of 1's alone when m < 2 or none
    # passes valid.  A worker finds fn by module and name.
    walks = _slices(work)
    if walks > 1:
        results = split_map(_enter, list(range(walks)),
                            (fn.__module__, fn.__name__, walks, *args), work)
        if _flag is not None:
            _flag[0] = 0  # every reply is read: no walk polls it now
        if any(map(valid, results)):
            return results
        stop()  # no worker's result is to be trusted
    return [fn(*args, 0, 1, lambda: False)]


def _enter(ks: list, module: str, name: str, m: int, *args) -> list:
    # Walks ks of a race of m, one after another, each lost once any walk
    # has returned.  With no worker forked since the last stop() there is no
    # shared flag, and the caller's walks share one of their own.
    fn = getattr(sys.modules[module], name)
    flag = bytearray(1) if _flag is None else _flag
    results = []
    for k in ks:
        results.append(fn(*args, k, m, lambda: flag[0] != 0))
        flag[0] = 1
    return results


def _write(file, message) -> None:
    # message as marshal strings, the last shorter than _STRING_CUT: one in
    # practice.  marshal.load reads a string whole, but an int from a file
    # one 15-bit digit at a time (19,061 reads for a reply of 520 512-bit
    # ints; CHANGES.md line 45).
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


def _start_worker() -> tuple:
    global _flag
    if _flag is None:
        import mmap  # a shared library: loaded at the first fork, not at import

        _flag = mmap.mmap(-1, 1)  # anonymous and shared with every child
    flag, caller, fds = _flag, os.getpid(), []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    jobs, to_worker, from_worker, results = fds
    if pid == 0:
        # Run each (module, function, *args) read until EOF.  Leaving by
        # os._exit, even on KeyboardInterrupt, flushes no inherited stdio.
        try:
            _flag = flag  # which the fork handler dropped
            os.close(to_worker)
            os.close(from_worker)
            jobs, results = open(jobs, "rb"), open(results, "wb")
            cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
            while True:
                module, name, *args = _read(jobs)
                # The placement rule; field 39 of stat comes past the name.
                if len(cpus) > 1:
                    with suppress(AttributeError, OSError, ValueError, IndexError):
                        with open(f"/proc/{caller}/stat", "rb") as f:
                            cpu = int(f.read().rsplit(b")", 1)[1].split()[36])
                        os.sched_setaffinity(0, cpus - {cpu})
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
