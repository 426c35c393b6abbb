"""Number-theoretic primitives behind the RSA toolkit.

Everything here works on plain Python integers, which are arbitrary
precision, so operands of 4096 bits and beyond are handled without any
extra machinery.  All values are non-negative ("naturals") except the
Bezout coefficients returned by :func:`extended_gcd`, which may be
negative.

The module also houses :class:`Rng64`, the seeded stream that prime
generation draws from, threaded through its callers.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections.abc import Iterator
from itertools import chain, compress, repeat
from operator import countOf

from ._pool import race, split_map
from .errors import (
    BitsTooSmall,
    BothZero,
    EqualPrimes,
    InvalidArgument,
    KeyTooLarge,
    ModulusTooSmall,
    NotCoprime,
    NotPrime,
    OracleBoundExceeded,
    ZeroState,
)

__all__ = [
    "Rng64",
    "rng_next",
    "mod_reduce",
    "is_congruent",
    "mod_pow",
    "gcd",
    "extended_gcd",
    "mod_inverse",
    "totient_of_semiprime",
    "totient_bruteforce",
    "is_probable_prime",
    "gen_prime",
    "TOTIENT_ORACLE_BOUND",
]

_WORD_MASK = (1 << 64) - 1
_XORSHIFT_MULTIPLIER = 0x2545F4914F6CDD1D

TOTIENT_ORACLE_BOUND = 10**7


# CPython limits int-string conversion from 3.10.7 on; an older interpreter
# converts any int, as a limit of 0 does.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _decimal(x: int) -> str:
    """x in decimal for an error message, or its width when ``str()``
    cannot write it, so that the message itself never fails."""
    try:
        return str(x)
    except ValueError:
        return f"<{'negative ' if x < 0 else ''}{x.bit_length()}-bit number>"


def _require_printable(width: int, n: int | None = None, what: str = "modulus") -> None:
    """Refuse a ``width``-bit modulus (or other key number, named by
    ``what``) whose decimal form ``str()`` cannot write: n, or without it
    the widest such number 2**width - 1, has more digits than
    ``sys.get_int_max_str_digits()`` allows (0 means no limit).
    """
    limit = _max_str_digits()
    if not limit or width <= 3 * limit:  # then n < 8**limit < 10**limit
        return
    ten = 10**limit
    # 10**limit is no power of two, so 2**width - 1 < 10**limit exactly
    # when width < ten.bit_length().
    if (n >= ten) if n is not None else (width >= ten.bit_length()):
        raise KeyTooLarge(f"a {_decimal(width)}-bit {what} has more decimal digits "
                          f"than the int-string limit of {limit}")


def _require_type(value, kind: type, name: str) -> None:
    if not isinstance(value, kind) or isinstance(value, bool):
        article = "an" if kind.__name__[0] in "AEIOUaeiouR" else "a"  # an Rng64, a KeyPair
        raise TypeError(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")


def _require_natural(value: int, name: str) -> None:
    _require_type(value, int, name)
    if value < 0:
        raise InvalidArgument(f"{name} must be non-negative, got {_decimal(value)}")


def _require_modulus(n: int, name: str) -> None:
    _require_natural(n, name)
    if n <= 1:
        raise ModulusTooSmall(f"modulus must exceed 1, got {n}")


class Rng64:
    """Deterministic xorshift64* stream with a nonzero 64-bit state.

    The update is: x ^= x >> 12; x ^= x << 25; x ^= x >> 27 (all on 64-bit
    words), output (x * 0x2545F4914F6CDD1D) mod 2**64, with x as the new
    state.  The sequence is a pure function of the seed, which is what makes
    key generation reproducible across runs and platforms.  A seed of 0
    raises :class:`ZeroState`, one outside [0, 2**64) :class:`InvalidArgument`.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        _require_natural(seed, "seed")
        if seed == 0:
            raise ZeroState("the xorshift64* state must be nonzero")
        if seed >= 1 << 64:
            raise InvalidArgument(f"seed must fit in 64 bits, got {_decimal(seed)}")
        self.state = seed

    def next_u64(self) -> int:
        """Advance the stream and return the next 64-bit output."""
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _WORD_MASK
        x ^= x >> 27
        self.state = x
        return (x * _XORSHIFT_MULTIPLIER) & _WORD_MASK

    def __repr__(self) -> str:
        return f"Rng64(0x{self.state:016x})"


def rng_next(rng: Rng64) -> tuple[int, Rng64]:
    """One xorshift64* step as a pure function: (value, advanced stream).

    The input stream is left untouched; feeding the same state twice yields
    the same pair.
    """
    _require_type(rng, Rng64, "rng")
    advanced = Rng64(rng.state)
    return advanced.next_u64(), advanced


def _draw_bits(bits: int, rng: Rng64) -> int:
    # Consumes ceil(bits/64) words, big-endian, keeping the top `bits` bits.
    words = (bits + 63) // 64
    value = 0
    for _ in range(words):
        value = (value << 64) | rng.next_u64()
    return value >> (words * 64 - bits)


def mod_reduce(a: int, n: int) -> int:
    """Remainder of a divided by n, in [0, n).  For a < n this is a itself."""
    _require_natural(a, "a")
    _require_modulus(n, "n")
    return a % n


def is_congruent(a: int, b: int, m: int) -> bool:
    """True when a and b leave the same remainder on division by m."""
    _require_natural(a, "a")
    _require_natural(b, "b")
    _require_modulus(m, "m")
    return a % m == b % m


def mod_pow(base: int, exponent: int, n: int) -> int:
    """Square-and-multiply computation of base**exponent mod n.

    Runs in O(log exponent) modular multiplications and keeps every
    intermediate below n**2, so the full power base**exponent is never
    materialized.  Direct exponentiation with RSA-sized operands would need
    astronomically more memory and time; this loop is what makes
    C = M^e mod n computable in practice.

    This is the readable reference.  The hot paths (the block transform
    and the Miller-Rabin witness) call the builtin three-argument ``pow``,
    which computes the same value in C.
    """
    _require_natural(base, "base")
    _require_natural(exponent, "exponent")
    _require_modulus(n, "n")
    result = 1
    base %= n
    while exponent:
        if exponent & 1:
            result = result * base % n
        base = base * base % n
        exponent >>= 1
    return result


def gcd(a: int, b: int) -> int:
    """Greatest common divisor: the g of :func:`extended_gcd`."""
    return extended_gcd(a, b)[0]


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclidean algorithm: (g, s, t) with s*a + t*b = g = gcd(a, b).

    Uses the standard iterative recurrence, so the coefficient pair is the
    canonical one, e.g. extended_gcd(24, 14) == (2, 3, -5).  Its remainder
    column (old_r, r) alone is Euclid's algorithm; :func:`gcd` reads only
    that.
    """
    _require_natural(a, "a")
    _require_natural(b, "b")
    if a == 0 and b == 0:
        raise BothZero("gcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def mod_inverse(a: int, m: int) -> int:
    """The unique b in (0, m) with a*b = 1 (mod m).

    Exists exactly when gcd(a, m) = 1; otherwise :class:`NotCoprime` is
    raised, which in key generation signals an invalid choice of e.
    Computed by ``pow(a, -1, m)``; :func:`extended_gcd` finds it by hand.
    """
    _require_natural(a, "a")
    _require_modulus(m, "m")
    g = math.gcd(a, m)
    if g != 1:
        raise NotCoprime(f"no inverse: gcd({_decimal(a)}, {_decimal(m)}) = {_decimal(g)} != 1")
    return pow(a, -1, m)


def totient_of_semiprime(p: int, q: int) -> int:
    """Euler's totient of p*q for distinct primes p, q: (p-1)*(q-1)."""
    _require_natural(p, "p")
    _require_natural(q, "q")
    if not is_probable_prime(p):
        raise NotPrime(f"p = {_decimal(p)} is not prime")
    if not is_probable_prime(q):
        raise NotPrime(f"q = {_decimal(q)} is not prime")
    if p == q:
        raise EqualPrimes(f"p and q must be distinct, both are {_decimal(p)}")
    return (p - 1) * (q - 1)


def totient_bruteforce(n: int) -> int:
    """Count integers in [1, n) coprime to n, by definition.

    A test oracle: it needs no factorization, just n-1 gcd evaluations, so
    it is exact but only viable for small n.  Bounded at 10**7 to guard
    against accidental huge inputs.
    """
    _require_natural(n, "n")
    if n <= 1:
        raise OracleBoundExceeded(f"totient oracle requires n > 1, got {n}")
    if n > TOTIENT_ORACLE_BOUND:
        raise OracleBoundExceeded(
            f"totient oracle bounded at {TOTIENT_ORACLE_BOUND}, got {_decimal(n)}"
        )
    return countOf(map(math.gcd, range(1, n), repeat(n)), 1)


def _sieve(limit: int) -> Iterator[int]:
    # The primes below limit >= 3, in order, by Eratosthenes on the odd
    # numbers: flags[i] stands for 2i + 1, and an odd prime p strikes
    # p*p, p*p + 2p, ...
    flags = bytearray([1]) * (limit // 2)
    flags[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(limit - 1) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(flags), p)))
    return chain((2,), compress(range(1, limit, 2), flags))


_SMALL_PRIMES = frozenset(_sieve(1000))
# One gcd with the product of the 168 primes below 1000 (a 1380-bit number)
# screens n against all of them at once.
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
_SCREEN_LIMIT = 1009 * 1009

# psi_k is the least strong pseudoprime to the first k prime bases
# (OEIS A014233), so below psi_k those k bases are a proven exact test:
# psi_1..psi_8 in Jaeschke, "On strong pseudoprimes to several bases",
# Math. Comp. 61, 1993; psi_9 = psi_10 = psi_11 in Jiang & Deng, Math.
# Comp. 83, 2014; the last two in Sorenson & Webster, "Strong pseudoprimes
# to twelve prime bases", Math. Comp. 86, 2017.  With k the number of
# psi_j <= n, k < 13 means n is below the last: run the first k + 1 bases.
_PSI = (2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
        3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
        3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
        3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
        3_317_044_064_679_887_385_961_981)
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_RANDOM_ROUNDS = 64
_DEFAULT_WITNESS_SEED = 0x9E3779B97F4A7C15


def _miller_rabin_witness(a: int, d: int, r: int, n: int) -> bool:
    # True when a proves n composite.  n is odd, n - 1 = d * 2**r with d odd.
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int, rng: Rng64 | None = None) -> bool:
    """Primality verdict: a small-prime screen, then Miller-Rabin.

    The work is in two tiers, each proven exact where it stops:

    - one gcd with the product of the primes below 1000 settles an n that
      shares a factor with it (prime only if one of them), and a survivor
      in (1, 1009**2 = 1018081) is prime with no Miller-Rabin round at all:
      1009 is the least prime past the screen, so no prime up to its
      square root divides it;
    - below psi_13 = 3317044064679887385961981 (about 3.3e24), the first
      k prime bases, where k is 1 + the number of psi_j <= n (psi_k is the
      least strong pseudoprime to the first k prime bases), so k <= 13 and
      the bases are among {2, 3, ..., 41}.

    From there on, 64 rounds with witnesses drawn from ``rng`` are used (a
    fresh stream with a fixed documented seed when the caller supplies
    none, keeping verdicts reproducible); only this tier reads ``rng``.
    Once the first round passes, the other 63 witnesses are drawn at once
    and their rounds go through ``_pool.split_map``, which splits them from
    about the prime search's race line on (``_pool``'s docstring); the
    verdict and the stream's state afterwards are those of the rounds run
    in order up to the first witness that proves n composite.
    0 and 1 are not prime; 2 and 3 are.
    """
    _require_natural(n, "n")
    if rng is None:
        rng = Rng64(_DEFAULT_WITNESS_SEED)
    _require_type(rng, Rng64, "rng")
    verdict = _screen(n)
    if verdict is not None:
        return verdict
    if not _first_round(n, rng):
        return False
    if n < _PSI[-1]:
        return True
    # The other rounds, split across the pool.  Each witness comes with the
    # stream's state after its draw: a composite verdict leaves the stream
    # where the serial loop would have stopped.
    d, r = _odd_part(n)
    witnesses, states = zip(*((_draw_witness(n, rng), rng.state)
                              for _ in range(_RANDOM_ROUNDS - 1)))
    work = len(witnesses) * n.bit_length() * d.bit_length()
    verdicts = split_map(_witnesses_all, witnesses, (d, r, n), work)
    if True in verdicts:
        rng.state = states[verdicts.index(True)]
    return True not in verdicts


def _screen(n: int) -> bool | None:
    # The small-prime tier: n's verdict, or None when n needs Miller-Rabin
    # (then n is odd, at least 1009**2, and has no prime factor below 1009).
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    if n < _SCREEN_LIMIT:
        return n > 1
    return None


def _odd_part(n: int) -> tuple[int, int]:
    # (d, r) with n - 1 = d * 2**r and d odd, for an odd n > 1.
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    return d, r


def _draw_witness(n: int, rng: Rng64) -> int:
    # One random-tier witness in [2, n - 1), drawn from rng: as many 64-bit
    # words as 64 bits past the width of n - 3 need.
    span = n - 3
    return 2 + _draw_bits(span.bit_length() + 64, rng) % span


def _first_round(n: int, rng: Rng64) -> bool:
    # Miller-Rabin on an n the screen left open: below psi_13 every base of
    # the proven tier, so the verdict is exact and rng is not read; from
    # psi_13 on the first random round, one witness drawn from rng.  False
    # when n is proven composite.
    d, r = _odd_part(n)
    k = bisect_right(_PSI, n)
    if k < len(_PSI):
        for a in _DETERMINISTIC_BASES[: k + 1]:
            if _miller_rabin_witness(a, d, r, n):
                return False
        return True
    return not _miller_rabin_witness(_draw_witness(n, rng), d, r, n)


def _witnesses_all(witnesses: tuple[int, ...], d: int, r: int, n: int) -> list[bool]:
    # One slice of the random tier: whether each witness proves n composite.
    return [_miller_rabin_witness(a, d, r, n) for a in witnesses]


def gen_prime(bits: int, rng: Rng64) -> int:
    """Random prime with exactly ``bits`` bits (top bit set).

    Draws one random odd ``bits``-bit candidate from the stream, then walks
    odd candidates (+2) until the primality test passes, wrapping back to
    the bottom of the range so the width stays exact.  Deterministic for a
    given stream state.  Before any draw, a width below 4 raises
    :class:`BitsTooSmall`, one too wide for ``str()`` :class:`KeyTooLarge`.

    The walk is a ``_pool.race`` over the CPUs the pool grants: one walk,
    alone, below the race line in ``_pool``'s docstring.  Number the
    candidates the small-prime screen leaves 0, 1, 2, ... in walk order.
    Walk k of m takes k, k + m, k + 2m, ... and stops at the first one that
    Miller-Rabin's first round (below psi_13, the whole proven tier) does
    not prove composite.  Each walk keeps the stream as the serial loop
    would: a random-tier candidate draws its first witness where the serial
    loop draws it once every earlier candidate has failed its first round,
    so a walk also draws, and drops, the witness of each random-tier
    candidate not its own.  Once one walk returns, each other stops at its
    next own index (``_pool``'s stop rule).  The caller takes the least index
    any walk stopped on, walks on itself from where each walk stopped short
    of it, and takes the least again: every index below that one failed its
    first round, so its witness, and the stream before it, are the serial
    loop's.  Below psi_13 that candidate is prime; from there on
    ``is_probable_prime`` tests it again from that state, and a composite
    leaves the stream where the serial loop does, and the search starts
    again past it.  So the primes and the stream after each are the serial
    loop's, whatever the number of walks or the timing.
    """
    if bits < 4:
        raise BitsTooSmall(f"prime width must be at least 4 bits, got {_decimal(bits)}")
    _require_printable(bits, what="prime")
    _require_type(rng, Rng64, "rng")
    after = (_draw_bits(bits, rng) | 1 << (bits - 1) | 1) - 2  # the walk starts at the draw
    while True:
        args = (after, rng.state, bits)
        # As many walks as a candidate's other rounds split into.  Two walks
        # over one, raced over serial time on the primes of seeds 1-60 to
        # 1-100 (medians of 10-16 alternating rounds, a shared 2-vCPU x86 VM,
        # CPython 3.11; BENCH_prime_search.json): 1.14 at 128 bits, 1.13 at
        # 160, 0.97-1.14 at 176, 0.95-1.04 at 182, 0.97-1.09 at 183,
        # 0.93-0.97 at 184, 0.93-0.95 at 188, 0.91-0.94 at 192, 0.88 at 256.
        walks = race(_search, (*args, None), (_RANDOM_ROUNDS - 1) * bits * bits,
                     lambda walk: walk[1] is not None)
        least = min(index for index, found, _ in walks if found is not None)
        for k, (index, found, _) in enumerate(walks):
            if index < least:  # stopped short of the least
                walks[k] = _search(*args, least, index, len(walks), lambda: False)
        _, pick, rng.state = min(walk for walk in walks if walk[1] is not None)
        # below psi_13 the walk's first round was the whole proven test
        if pick < _PSI[-1] or is_probable_prime(pick, rng):
            return pick
        after = pick  # a round-1 liar: the search starts again past it


def _search(after: int, state: int, bits: int, end: int | None, k: int, m: int,
            lost) -> tuple[int, int | None, int | None]:
    # Walk k of m over the candidates the screen leaves after `after`, with
    # the stream at state before the first: the first own index, up to end,
    # that the first round does not prove composite, as (index, candidate,
    # the stream's state before its draw), or (index, None, None) for the
    # own index it stopped at, by end or once lost(), every own index below
    # it tested.
    rng = Rng64(state)
    for index, (n, verdict) in enumerate(_open_candidates(after, bits)):
        if index == k:
            if end is not None and index >= end or lost():
                return index, None, None
            before = rng.state
            if verdict or _first_round(n, rng):
                return index, n, before
            k += m
        elif verdict is None and n >= _PSI[-1]:
            _draw_witness(n, rng)  # the draw this candidate's first round makes


def _open_candidates(after: int, bits: int) -> Iterator[tuple[int, bool | None]]:
    # The odd bits-bit numbers past `after` that the screen does not reject,
    # each with its verdict.  The wrap rule: after the range's top comes its bottom.
    low, high = 1 << (bits - 1), (1 << bits) - 1
    while True:
        after = after + 2 if after < high else low + 1
        verdict = _screen(after)
        if verdict is not False:
            yield after, verdict
