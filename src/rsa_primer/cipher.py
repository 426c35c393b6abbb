"""The RSA transform over block sequences, plus the key-recovery attack.

Encryption is C = M^e mod n, decryption M = C^d mod n, applied blockwise.
For n = p*q squarefree the round trip M^(e*d) = M mod n holds for every
block value in [0, n), including multiples of p and q, even though the
usual Euler-theorem derivation only covers gcd(M, n) = 1; the test suite
exercises those residues deliberately.  Raw RSA is deterministic, so a
message is transformed once per distinct block value, and
``_pool.split_map`` splits those values across the worker pool when they
are enough work; the output bytes are the same either way.

The attack half recovers a private key from a public one by factoring n,
either by trial division (:func:`smallest_factor`: didactic, obviously
correct) or Pollard rho with Brent cycle detection (scales far enough to
make timing curves interesting).  A rho walk takes about n^(1/4) steps,
so from the race line in ``_pool``'s docstring on, rho races one walk per
CPU the process may use through ``_pool.race``: the caller's is the walk a
serial run takes (x -> x^2 + 1 from 2), each worker's another polynomial,
and the first factor found wins.  Independent walks on m CPUs find a factor up to
sqrt(m) times sooner (Brent 1990; van Oorschot and Wiener 1999).  The
report is the same whichever walk wins; only ``elapsed`` differs.  Smaller
keys, those of the command-line benchmark, the demo and the worked example
among them, walk once, in the caller.  Both methods honor a wall-clock
budget so the hardness story can be told with data: toy keys fall
instantly, 64-bit-per-prime keys outlive any reasonable timeout.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections.abc import Callable, Sequence
from time import perf_counter

from . import codec
from ._pool import race, split_map
from ._record import Record, replace
from .codec import BlockSeq
from .errors import (BitsTooSmall, BlockTooLarge, CrackTimeout, InvalidArgument, NoFactor,
                     NotSemiprime)
from .keys import PrivateKey, PublicKey, generate_keypair
from .number_theory import (Rng64, _decimal, _require_printable, _require_type, _sieve,
                            is_probable_prime, mod_inverse)

__all__ = [
    "TRIAL_DIVISION",
    "POLLARD_RHO",
    "METHODS",
    "CrackReport",
    "CrackTrial",
    "encrypt_block",
    "decrypt_block",
    "encrypt_message",
    "decrypt_message",
    "smallest_factor",
    "crack_private_key",
    "crack_benchmark",
    "benchmark_summary",
    "benchmark_csv",
    "BENCHMARK_CSV_HEADER",
]

TRIAL_DIVISION = "trial-division"
POLLARD_RHO = "pollard-rho"

_TIMEOUT_CHECK_EVERY = 8192


def _check_block(block: int, n: int) -> None:
    if block >= n:
        raise BlockTooLarge(f"block {_decimal(block)} is not below the modulus {_decimal(n)}")
    if block < 0:
        raise InvalidArgument(f"block must be non-negative, got {_decimal(block)}")


def _check_exponent(x: int) -> None:
    if x < 1:
        raise InvalidArgument(f"exponent must be at least 1, got {_decimal(x)}")


def encrypt_block(m: int, pk: PublicKey) -> int:
    """C = M^e mod n for a single block 0 <= M < n, under e >= 1."""
    _check_exponent(pk.e)
    _check_block(m, pk.n)
    return pow(m, pk.e, pk.n)


def decrypt_block(c: int, sk: PrivateKey) -> int:
    """M = C^d mod n for a single block 0 <= C < n, under d >= 1.

    When the key keeps p and q (generated or parsed with provenance, as
    ``keygen --retain-pq`` writes it), M is found by the Chinese remainder
    theorem (RFC 8017, section 5.1.2): m_p = C^dP mod p and
    m_q = C^dQ mod q, then M = m_q + q * ((m_p - m_q) * qInv mod p).  A key
    without p and q computes C^d mod n.  CRT is less work when d is about
    as wide as n, as a drawn e makes it: then each of its two ``pow`` calls
    has a modulus and an exponent about half as wide (Quisquater and
    Couvreur, Electronics Letters 18(21), 1982).  For a d below p and q, as
    the textbook key's d = dP = dQ = 997, the exponents do not shrink, so
    each of CRT's two ``pow`` calls takes as many steps as the one of
    C^d mod n, and CRT is the slower (CHANGES.md line 49).
    """
    _check_exponent(sk.d)
    _check_block(c, sk.n)
    if sk.crt is None:
        return pow(c, sk.d, sk.n)
    p, q, dp, dq, q_inv = sk.crt
    m_p = pow(c, dp, p)
    m_q = pow(c, dq, q)
    return m_q + q * ((m_p - m_q) * q_inv % p)


def _transform_all(values: list[int], fields: tuple, private: bool) -> list[int]:
    # A slice of _map_distinct, under the key with these (marshal-able) fields.
    key = (PrivateKey if private else PublicKey)(*fields)
    transform = decrypt_block if private else encrypt_block
    return [transform(b, key) for b in values]


def _map_distinct(blocks: tuple[int, ...], key: PublicKey | PrivateKey) -> tuple[int, ...]:
    # One transform per distinct value; the exponent, then each value in
    # order of first occurrence, is checked before any goes to a worker, so
    # the first bad block raises.
    private = isinstance(key, PrivateKey)
    exponent = key.d if private else key.e
    _check_exponent(exponent)
    values = list(dict.fromkeys(blocks))
    for b in values:
        _check_block(b, key.n)
    work = len(values) * key.n.bit_length() * exponent.bit_length()
    done = split_map(_transform_all, values, (tuple(vars(key).values()), private), work)
    table = dict(zip(values, done))
    return tuple(map(table.__getitem__, blocks))


def encrypt_message(data: bytes, pk: PublicKey, codec_id: str) -> BlockSeq:
    """Encode ``data`` with the chosen codec, then encrypt every block."""
    plain = codec.encode(data, pk.n, codec_id)
    return replace(plain, blocks=_map_distinct(plain.blocks, pk))


def decrypt_message(bs: BlockSeq, sk: PrivateKey, codec_id: str | None = None) -> bytes:
    """Decrypt every block, then decode; inverse of :func:`encrypt_message`.

    As in encryption, the distinct block values are checked in order of
    first occurrence, so the first block at or above n (or below 0) is the
    one the error names.  The sequence already names its codec; passing
    ``codec_id`` merely asserts it matches.
    """
    if codec_id is not None and codec_id != bs.codec_id:
        raise InvalidArgument(f"sequence carries codec {bs.codec_id!r}, not {codec_id!r}")
    return codec.decode(replace(bs, blocks=_map_distinct(bs.blocks, sk)))


# --- key recovery ------------------------------------------------------------


class CrackReport(Record):
    """Everything recovered by factoring a public modulus, p <= q."""

    p: int
    q: int
    phi: int
    d: int
    elapsed: float
    method: str


class CrackTrial(Record):
    """One benchmark measurement; ``elapsed`` is wall-clock seconds."""

    bits_per_prime: int
    method: str
    trial: int
    elapsed: float
    solved: bool


# Trial division divides by a table of the primes below a power of two,
# built from number_theory's sieve the first time a call needs it and
# replaced, never mutated, by one up to the next power of two above
# isqrt(n), at most the cap.  An array of C ints holds the 82025 primes
# below the cap in 328 KB; a list would need 36 bytes per prime (a
# pointer and an int object), nine times that.  Beside it sit the
# products of each run of _PRIMES_PER_GCD primes (641 below the cap,
# 223 KB as int objects in a tuple), so one gcd in C tests a whole run.
_TABLE_CAP = 1 << 20
_WHEEL_START = _TABLE_CAP + 1  # 2^20 + 1 = 6k - 1: the first wheel f past the table
_PRIMES_PER_GCD = 128
# (limit, the primes below it, the product of each run of _PRIMES_PER_GCD)
_prime_table: tuple[int, Sequence[int], Sequence[int]] = (2, (), ())


def _primes_below(limit: int) -> tuple[Sequence[int], Sequence[int]]:
    # Every prime below limit, and perhaps more: the table only grows.
    global _prime_table
    if _prime_table[0] < limit:
        from array import array  # a shared library: loaded here, not at import

        primes = array("I", _sieve(limit))
        products = tuple(
            math.prod(primes[i : i + _PRIMES_PER_GCD])
            for i in range(0, len(primes), _PRIMES_PER_GCD)
        )
        _prime_table = (limit, primes, products)
    return _prime_table[1:]


def smallest_factor(n: int, deadline: float | None = None) -> int:
    """The least prime factor of n >= 2, by trial division; n itself when prime.

    Divides by the primes up to isqrt(n) while they lie below 2^20, then,
    for a larger isqrt(n), by f and f + 2 for f = 2^20 + 1, 2^20 + 7, ...:
    after 2 and 3 only f = 6k +- 1 can be a least prime factor (Knuth,
    TAOCP Vol. 2, 4.5.4, Algorithm A needs any divisor sequence that
    holds every prime up to isqrt(n)).  The primes come from a table kept
    for the process, one gcd of n per run of them: only the first run whose
    gcd is not 1 is divided through, in order, up to the first prime that
    divides n.  Raises :class:`CrackTimeout` once ``deadline`` (a
    ``perf_counter`` reading) has passed.  The clock is read once per 8192
    wheel divisions, never in the table phase: like the table build, the
    walk over the table's runs is bounded and is not interrupted.  An n
    below 2 has no prime factor and raises :class:`NoFactor`.
    """
    _require_type(n, int, "n")
    if n < 2:
        raise NoFactor(f"{_decimal(n)} has no prime factor")
    root = math.isqrt(n)
    primes, products = _primes_below(min(1 << root.bit_length(), _TABLE_CAP))
    for run in range(0, bisect_right(primes, root), _PRIMES_PER_GCD):
        if math.gcd(n, products[run // _PRIMES_PER_GCD]) != 1:
            # No earlier run shares a factor with n, so the first prime here
            # that divides n is its least; past isqrt(n) that can only be n.
            return next(p for p in primes[run : run + _PRIMES_PER_GCD] if n % p == 0)
    stop = root + 1
    chunk = 3 * _TIMEOUT_CHECK_EVERY  # 4096 pairs f, f + 2
    for start in range(_WHEEL_START, stop, chunk):
        for f in range(start, min(start + chunk, stop), 6):
            # f + 2 may pass isqrt(n); if it divides n there, n = f + 2 is prime.
            if n % f == 0:
                return f
            if n % (f + 2) == 0:
                return f + 2
        if deadline is not None and perf_counter() > deadline:
            raise CrackTimeout(f"trial division still running at f = {start + chunk}")
    return n


_RHO_GROUP = 4  # steps per reduction of q; no abs(x - y), as gcd(-a, n) = gcd(a, n)
_RHO_POLL_EVERY = 1024  # single steps between reads of the clock and of lost()
# The work of one rho step as _pool._slices weighs it, which sets the race
# line in _pool's docstring.  Raced over serial mean time, two walks
# against one on 200-400 keys a width (a shared 2-vCPU x86 VM, CPython 3.11;
# CHANGES.md line 43): 1.23 at 14-bit primes, 0.98 at 16, 0.92 at 18, 0.88
# at 20, 0.77 at 28.
_RHO_STEP_WORK = 2**11


def _pollard_rho_factor(n: int, deadline: float | None) -> int:
    # A proper factor of a composite n, from the first of the walks raced on
    # the CPUs _pool grants (walk 0, c = 1, alone below the line).  On a prime
    # n every cycle would close with gcd = n and c would grow forever, hence
    # the check.
    if n < 4 or is_probable_prime(n):
        raise NoFactor(f"{_decimal(n)} is not composite, so rho has no factor to find")
    if n % 2 == 0:
        return 2
    def valid(f):
        return type(f) is int and 1 < f < n and n % f == 0

    return next(filter(valid, race(_rho_walk, (n, deadline),
                                   math.isqrt(math.isqrt(n)) * _RHO_STEP_WORK, valid)))


def _rho_walk(n: int, deadline: float | None, walk: int, walks: int,
              lost: Callable[[], bool]) -> int | None:
    # Walk `walk` of a race of `walks`, which it does not read: Brent's cycle
    # finding on x -> x^2 + c mod n from y = 2, c = 2 * walk + 1 (c + 1 after
    # a cycle with no factor).  _rho_stops polls lost() and the clock once per
    # _RHO_POLL_EVERY single steps and per gcd batch; None once lost().
    # Within a 128-step gcd batch q takes the differences x - y four at a
    # time and is reduced mod n once per four; q stays +- the product of the
    # |x - y| mod n, so every gcd is the one a reduction per step gives.
    c = 2 * walk + 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for done in range(0, r, _RHO_POLL_EVERY):
                for _ in range(min(_RHO_POLL_EVERY, r - done)):
                    y = (y * y + c) % n
                if _rho_stops(lost, deadline, r):
                    return None
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(128, r - k)
                for _ in range(steps // _RHO_GROUP):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y = (y3 * y3 + c) % n
                    q = q * (x - y1) * (x - y2) * (x - y3) * (x - y) % n
                for _ in range(steps % _RHO_GROUP):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
                if _rho_stops(lost, deadline, r):
                    return None
            r <<= 1
        if g == n:
            # The batched gcd overshot; replay single steps from the last
            # checkpoint to isolate the factor.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        c += 1


def _rho_stops(lost: Callable[[], bool], deadline: float | None, r: int) -> bool:
    # A rho walk's poll: True once lost(), then CrackTimeout past deadline.
    if lost():
        return True
    if deadline is not None and perf_counter() > deadline:
        raise CrackTimeout(f"pollard-rho still cycling at r = {r}")
    return False


_FACTOR_METHODS = {
    TRIAL_DIVISION: smallest_factor,
    POLLARD_RHO: _pollard_rho_factor,
}
METHODS = tuple(_FACTOR_METHODS)


def _require_budget(timeout: float | None) -> None:
    if timeout is None:
        return
    _require_type(timeout, (int, float), "timeout")
    if not 0 < timeout <= sys.float_info.max:  # nan fails both
        raise InvalidArgument("timeout must be positive and finite")


def crack_private_key(
    pk: PublicKey, method: str = TRIAL_DIVISION, timeout: float | None = None
) -> CrackReport:
    """Recover the private key behind ``pk`` by factoring its modulus.

    Once n = p*q is known, phi(n) = (p-1)(q-1) follows and d is just the
    inverse of e modulo phi(n), which is exactly why factoring must be hard
    for RSA to stand.  When Pollard rho races (see the module docstring),
    ``elapsed`` is the race's wall time, and every other field is what one
    walk gives.  Raises :class:`CrackTimeout` when ``timeout`` seconds
    pass without a factor, :class:`InvalidArgument` for a method not in
    :data:`METHODS` or a ``timeout`` neither ``None`` nor positive and at
    most the largest float, :class:`KeyTooLarge` when no key file could hold n,
    :class:`NotSemiprime` when n is not a product of two distinct primes,
    and :class:`NotCoprime` when e has no inverse modulo phi(n).
    """
    if method not in _FACTOR_METHODS:
        raise InvalidArgument(f"unknown method {method!r}")
    _require_budget(timeout)
    n = pk.n
    _require_printable(n.bit_length(), n)  # KeyTooLarge: the report's numbers stay writable
    start = perf_counter()
    deadline = start + timeout if timeout is not None else None
    if n < 6 or is_probable_prime(n):
        raise NotSemiprime(f"{_decimal(n)} is not a product of two distinct primes")
    try:
        f = _FACTOR_METHODS[method](n, deadline)
    except CrackTimeout as exc:
        exc.elapsed = perf_counter() - start
        exc.method = method
        exc.args = (f"timed out after {exc.elapsed:.3f}s: {exc}",)
        raise
    p, q = min(f, n // f), max(f, n // f)
    if p * q != n or p == q or not (is_probable_prime(p) and is_probable_prime(q)):
        raise NotSemiprime(f"{_decimal(n)} is not a product of two distinct primes")
    phi = (p - 1) * (q - 1)
    d = mod_inverse(pk.e, phi)
    return CrackReport(p, q, phi, d, perf_counter() - start, method)


def crack_benchmark(
    bits_list: list[int],
    seed: int,
    method: str = TRIAL_DIVISION,
    timeout: float | None = None,
    trials: int = 3,
) -> list[CrackTrial]:
    """Generate and crack keys per entry of ``bits_list``, timing each trial.

    Key seeds are drawn from one xorshift64* stream seeded with ``seed``,
    so the keys (though not the timings) are reproducible.  A trial that
    exceeds ``timeout`` is recorded with ``solved=False`` instead of
    aborting the run.  Trials run sequentially; interleaving them would
    contaminate the wall-clock numbers.  Before any key is made, ``trials``
    below 1 or a ``timeout`` :func:`crack_private_key` refuses raises
    :class:`InvalidArgument`, a width below 4 :class:`BitsTooSmall`, and a
    wrong-typed ``trials``, ``timeout`` or width :class:`TypeError`.  They
    are checked in that order, each its type before its value.
    """
    _require_type(trials, int, "trials")
    if trials < 1:
        raise InvalidArgument(f"trials must be at least 1, got {_decimal(trials)}")
    _require_budget(timeout)
    for bits in bits_list:
        _require_type(bits, int, "each bit width")
        if bits < 4:
            raise BitsTooSmall("each bit width must be at least 4")
    rng = Rng64(seed)
    out: list[CrackTrial] = []
    for bits in bits_list:
        for trial in range(1, trials + 1):
            # Never 0: xorshift keeps the state nonzero, the multiplier is odd.
            kp = generate_keypair(bits, rng.next_u64())
            try:
                report = crack_private_key(kp.public, method, timeout)
                out.append(CrackTrial(bits, method, trial, report.elapsed, True))
            except CrackTimeout as exc:
                out.append(CrackTrial(bits, method, trial, exc.elapsed, False))
    return out


def benchmark_summary(trials: list[CrackTrial]) -> list[tuple[int, float, int]]:
    """Per-bit-width rows (bits_per_prime, mean_elapsed_seconds, trials),
    ordered as first encountered."""
    buckets: dict[int, list[float]] = {}  # dicts keep insertion order
    for t in trials:
        buckets.setdefault(t.bits_per_prime, []).append(t.elapsed)
    return [(b, sum(times) / len(times), len(times)) for b, times in buckets.items()]


BENCHMARK_CSV_HEADER = "bits_per_prime,method,trial,elapsed_seconds,solved"


def benchmark_csv(trials: list[CrackTrial]) -> str:
    """Render trials as CSV: one row per trial, seconds with 6 decimals."""
    lines = [BENCHMARK_CSV_HEADER]
    for t in trials:
        solved = "true" if t.solved else "false"
        lines.append(
            f"{t.bits_per_prime},{t.method},{t.trial},{t.elapsed:.6f},{solved}"
        )
    return "\n".join(lines) + "\n"
