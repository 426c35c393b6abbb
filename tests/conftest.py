import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from golden import run
from rsa_primer import _pool
from rsa_primer.keys import keypair_from_primes

DATA = Path(__file__).resolve().parent / "data"

# The textbook key's ciphertext of "Tue 7PM", read from the one copy: the
# demo transcript, itself a line of the golden corpus.
GOLDEN_CIPHERTEXT = next(line.split(None, 1)[1] for line
                         in (DATA / "demo_toy.txt").read_text(encoding="ascii").splitlines()
                         if line.lstrip().startswith("ciphertext "))

# gen_prime(256, Rng64(1)) and the stream's state after it.
SEED_1_PRIME_256 = (90414521795055489707071231387224378341596883258048563840435722193054557995647,
                    0x70D0E7320CB9056)


@dataclass
class CliResult:
    code: int
    out: bytes
    err: bytes

    @property
    def text(self) -> str:
        return self.out.decode("utf-8")


@pytest.fixture
def cli():
    """Run the CLI in-process with swapped standard streams."""
    return lambda args, stdin=b"": CliResult(*run(args, stdin))


@pytest.fixture
def low_digit_limit():
    """CPython's int-string limit lowered to its minimum, 640 digits, for one
    test; the widest modulus str() then writes has 2127 bits."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture(scope="session")
def readme():
    """The text of README.md, whose examples and numbers the tests hold to
    the code."""
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def toy_keypair():
    """The worked-example key: p=1721, q=1801, e=1012333, d=997."""
    return keypair_from_primes(1721, 1801, 1012333, retain_provenance=True)


@pytest.fixture(scope="session")
def small_keypair():
    """The two-digit-prime key: (113, 143) public, (17, 143) private."""
    return keypair_from_primes(11, 13, 113, retain_provenance=True)


@pytest.fixture
def fresh_pool():
    """No pooled worker when the test starts, so that its patches reach the
    workers it forks, and none left when it ends."""
    _pool.stop()
    yield
    _pool.stop()


@pytest.fixture
def three_cpus(fresh_pool, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


@pytest.fixture
def forks(three_cpus, monkeypatch):
    """The pids of the processes forked while the test runs."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_children(forks=()):
    """Every forked process outside the pool has been reaped, and stopping
    the pool reaps the rest."""
    pooled = {pid for pid, _, _ in _pool._workers}
    for pid in set(forks) - pooled:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    _pool.stop()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wait_status(pid, timeout=30.0):
    """The wait status of child pid, which must end within timeout seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        time.sleep(0.01)
    pytest.fail(f"process {pid} still running after {timeout} s")
