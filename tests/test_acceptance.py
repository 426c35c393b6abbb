"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value here is integer-exact and every runtime bound
is asserted against wall-clock time.
"""

import math
import random
from contextlib import contextmanager
from time import perf_counter

import pytest

from conftest import GOLDEN_CIPHERTEXT
from rsa_primer.cipher import (
    TRIAL_DIVISION,
    crack_benchmark,
    crack_private_key,
    decrypt_block,
    decrypt_message,
    encrypt_block,
    encrypt_message,
)
from rsa_primer.codec import CODEC_TOY_ASCII, format_cipher_blocks
from rsa_primer.errors import CrackTimeout
from rsa_primer.keys import generate_keypair, keypair_from_primes
from rsa_primer.number_theory import (
    extended_gcd,
    gcd,
    is_probable_prime,
    mod_pow,
    totient_bruteforce,
)


@contextmanager
def criterion(num, budget_seconds, description):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {description}")
        raise
    elapsed = perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {num} exceeded its {budget_seconds}s budget: {elapsed:.3f}s"
    )
    print(f"criterion {num:2d}: PASS  {description}  ({elapsed:.3f}s)")


def test_criterion_1_golden_toy_example():
    with criterion(1, 1.0, "golden example: keys, ciphertext string, round trip"):
        kp = keypair_from_primes(1721, 1801, 1012333, retain_provenance=True)
        assert kp.private.d == 997
        assert kp.public.n == 3099521
        assert kp.provenance.phi == 3096000
        bs = encrypt_message(b"Tue 7PM", kp.public, CODEC_TOY_ASCII)
        assert format_cipher_blocks(bs) == GOLDEN_CIPHERTEXT
        assert decrypt_message(bs, kp.private) == b"Tue 7PM"


def test_criterion_2_small_example():
    with criterion(2, 1.0, "small example: 2 -> 19 -> 2 under (113,143)/(17,143)"):
        kp = keypair_from_primes(11, 13, 113)
        assert (kp.public.e, kp.public.n) == (113, 143)
        assert (kp.private.d, kp.private.n) == (17, 143)
        assert encrypt_block(2, kp.public) == 19
        assert decrypt_block(19, kp.private) == 2


def test_criterion_3_exhaustive_roundtrip():
    with criterion(3, 1.0, "round trip for ALL M in [0,143), coprime or not"):
        kp = keypair_from_primes(11, 13, 113)
        for m in range(143):
            assert decrypt_block(encrypt_block(m, kp.public), kp.private) == m


def test_criterion_4_euler_theorem_suite():
    with criterion(4, 30.0, "a^phi(n) = 1 mod n for every coprime pair, n <= 500"):
        assert totient_bruteforce(4) == 2
        assert mod_pow(3, totient_bruteforce(4), 4) == 1
        for n in range(2, 501):
            phi = totient_bruteforce(n)
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    assert mod_pow(a, phi, n) == 1


def test_criterion_5_totient_multiplicativity():
    with criterion(5, 30.0, "phi(mn) = phi(m)phi(n) for coprime m,n, mn <= 10^4"):
        limit = 10**4
        tot = {v: totient_bruteforce(v) for v in range(2, limit + 1)}
        checked = 0
        for m in range(2, limit // 2 + 1):
            for n in range(m + 1, limit // m + 1):
                if math.gcd(m, n) == 1:
                    assert tot[m * n] == tot[m] * tot[n]
                    checked += 1
        assert checked > 10000


def test_criterion_6_bezout_identity():
    with criterion(6, 5.0, "s*a + t*b = gcd(a,b) on 10^4 random pairs <= 10^9"):
        g, s, t = extended_gcd(24, 14)
        assert (g, s, t) == (2, 3, -5)
        assert 3 * 24 - 5 * 14 == 2
        rnd = random.Random(20260809)
        for _ in range(10**4):
            a = rnd.randrange(0, 10**9 + 1)
            b = rnd.randrange(0, 10**9 + 1)
            if a == 0 and b == 0:
                continue
            g, s, t = extended_gcd(a, b)
            assert s * a + t * b == g
            assert g == gcd(a, b)
            assert g == math.gcd(a, b)


def test_criterion_7_primality_oracle_agreement():
    with criterion(7, 30.0, "Miller-Rabin matches trial division for n < 100000"):
        limit = 100000

        def trial_division_prime(n):
            if n < 2:
                return False
            f = 2
            while f * f <= n:
                if n % f == 0:
                    return False
                f += 1
            return True

        # sieve gives the same verdicts as trial division, far faster; spot
        # check the equivalence, then compare Miller-Rabin against the sieve
        flags = [True] * limit
        flags[0] = flags[1] = False
        for i in range(2, int(limit**0.5) + 1):
            if flags[i]:
                for j in range(i * i, limit, i):
                    flags[j] = False
        spot = random.Random(7)
        for n in [0, 1, 2, 3, 4, 99991] + [spot.randrange(limit) for _ in range(200)]:
            assert flags[n] == trial_division_prime(n)
        for n in range(limit):
            assert is_probable_prime(n) == flags[n], f"disagreement at {n}"


def test_criterion_8_attack_demonstration():
    with criterion(8, 120.0, "attack: toy crack < 1s, growing benchmark, timeout"):
        # toy key falls to trial division well inside a second
        kp = keypair_from_primes(1721, 1801, 1012333)
        report = crack_private_key(kp.public, TRIAL_DIVISION)
        assert (report.p, report.q, report.d) == (1721, 1801, 997)
        assert report.elapsed < 1.0

        # warm up, then mean times over 3 trials must not decrease with size
        crack_private_key(kp.public, TRIAL_DIVISION)
        trials = crack_benchmark([8, 12, 16, 20], seed=20260809,
                                 method=TRIAL_DIVISION, trials=3)
        assert all(t.solved for t in trials)
        means = []
        for bits in (8, 12, 16, 20):
            rows = [t.elapsed for t in trials if t.bits_per_prime == bits]
            assert len(rows) == 3
            means.append(sum(rows) / 3)
        assert means == sorted(means), f"mean times not non-decreasing: {means}"

        # desk-scale hardness: 64-bit-per-prime key outlives a 1s budget
        big = generate_keypair(64, seed=31337)
        with pytest.raises(CrackTimeout) as exc_info:
            crack_private_key(big.public, TRIAL_DIVISION, timeout=1.0)
        assert exc_info.value.elapsed >= 1.0


def test_criterion_9_cli_determinism(cli, tmp_path):
    with criterion(9, 30.0, "keygen files and demo transcript are byte-identical"):
        first = cli(["keygen", "--bits", "12", "--seed", "42", "--retain-pq",
                     "--out", str(tmp_path / "one")])
        second = cli(["keygen", "--bits", "12", "--seed", "42", "--retain-pq",
                      "--out", str(tmp_path / "two")])
        assert first.code == 0 and second.code == 0
        assert (tmp_path / "one.pub").read_bytes() == (tmp_path / "two.pub").read_bytes()
        assert (tmp_path / "one.key").read_bytes() == (tmp_path / "two.key").read_bytes()
        assert first.out == second.out

        a = cli(["demo"])
        b = cli(["demo"])
        assert a.code == b.code == 0
        assert a.out == b.out
        sa = cli(["demo", "--seed", "3"])
        sb = cli(["demo", "--seed", "3"])
        assert sa.code == sb.code == 0
        assert sa.out == sb.out


def test_criterion_10_cli_pipeline_property(cli, tmp_path):
    with criterion(10, 60.0, "1000 random chunked encrypt/decrypt round trips"):
        rnd = random.Random(1012333)
        prefix = tmp_path / "pipe"
        for i in range(1000):
            seed = rnd.getrandbits(64) or 1
            message = rnd.randbytes(rnd.randrange(0, 49))
            res = cli(["keygen", "--bits", "16", "--seed", str(seed),
                       "--out", str(prefix)])
            assert res.code == 0
            enc = cli(["encrypt", "--key", str(prefix) + ".pub",
                       "--codec", "chunked"], stdin=message)
            assert enc.code == 0
            dec = cli(["decrypt", "--key", str(prefix) + ".key",
                       "--codec", "chunked"], stdin=enc.out)
            assert dec.code == 0
            assert dec.out == message, f"pipeline mismatch at iteration {i}"
