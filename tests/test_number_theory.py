import math
import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (SEED_1_PRIME_256, assert_no_children, rig_walk, search_walks,
                      wait_status, wait_until_lost, walk_once_lost)
from rsa_primer import _pool, number_theory
from rsa_primer.cipher import POLLARD_RHO, crack_private_key
from rsa_primer.errors import (
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
from rsa_primer.keys import generate_keypair
from rsa_primer.number_theory import (
    Rng64,
    extended_gcd,
    gcd,
    gen_prime,
    is_congruent,
    is_probable_prime,
    mod_inverse,
    mod_pow,
    mod_reduce,
    rng_next,
    totient_bruteforce,
    totient_of_semiprime,
)

naturals = st.integers(min_value=0, max_value=10**12)
moduli = st.integers(min_value=2, max_value=10**9)


def sieve_is_prime(limit):
    """Independent primality oracle: plain sieve of Eratosthenes."""
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit, i):
                flags[j] = False
    return flags


class TestModReduce:
    def test_worked_examples(self):
        assert mod_reduce(7, 3) == 1
        assert mod_reduce(5, 9) == 5
        assert mod_reduce(0, 17) == 0

    @pytest.mark.parametrize("n", [0, 1])
    def test_rejects_tiny_modulus(self, n):
        with pytest.raises(ModulusTooSmall):
            mod_reduce(5, n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            mod_reduce(-1, 5)

    @given(a=naturals, n=moduli)
    def test_euclidean_division(self, a, n):
        r = mod_reduce(a, n)
        assert 0 <= r < n
        assert a == n * (a // n) + r

    @given(a=naturals, n=moduli)
    def test_small_values_unchanged(self, a, n):
        if a < n:
            assert mod_reduce(a, n) == a


class TestIsCongruent:
    def test_worked_example(self):
        assert is_congruent(24, 14, 5)

    def test_distinct_residues(self):
        assert not is_congruent(3, 4, 5)

    @given(a=naturals, m=moduli)
    def test_reflexive(self, a, m):
        assert is_congruent(a, a, m)

    @given(a=naturals, j=st.integers(0, 50), k=naturals, m=st.integers(2, 10**6))
    def test_scaling_and_powers_preserve_congruence(self, a, j, k, m):
        # congruent pairs stay congruent under *k and ^k
        b = a + j * m
        assert is_congruent(a, b, m)
        assert is_congruent(a * k, b * k, m)
        assert is_congruent(mod_pow(a, k, m), mod_pow(b, k, m), m)

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ModulusTooSmall):
            is_congruent(1, 1, 1)


class TestModPow:
    def test_worked_examples(self):
        assert mod_pow(2, 113, 143) == 19
        assert mod_pow(19, 17, 143) == 2
        assert mod_pow(84, 1012333, 3099521) == 469428

    @pytest.mark.parametrize("x", [0, 1, 2, 7, 10**30])
    def test_zero_exponent(self, x):
        assert mod_pow(x, 0, 97) == 1

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ModulusTooSmall):
            mod_pow(2, 3, 1)

    def test_matches_naive_oracle_exhaustively(self):
        # oracle: iterated multiplication, no exponentiation shortcut
        for n in range(2, 1000):
            for base in range(32):
                acc = 1 % n
                for exponent in range(32):
                    assert mod_pow(base, exponent, n) == acc
                    acc = acc * base % n

    def test_handles_4096_bit_operands(self):
        rnd = random.Random(4096)
        n = rnd.getrandbits(4096) | (1 << 4095) | 1
        base = rnd.getrandbits(4096)
        exponent = rnd.getrandbits(4096)
        assert mod_pow(base, exponent, n) == pow(base, exponent, n)

    def test_euler_theorem_spot_case(self):
        assert totient_bruteforce(4) == 2
        assert mod_pow(3, totient_bruteforce(4), 4) == 1


class TestGcd:
    def test_worked_example(self):
        # Euclid chain: 24 -> 14 -> 10 -> 4 -> 2
        assert gcd(24, 14) == 2

    def test_base_cases(self):
        assert gcd(7, 0) == 7
        assert gcd(0, 7) == 7
        assert gcd(7, 11) == 1

    def test_both_zero(self):
        with pytest.raises(BothZero):
            gcd(0, 0)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError, match="a must be an int, got float"):
            gcd(1.5, 2)

    @given(a=naturals, b=naturals)
    def test_matches_stdlib(self, a, b):
        if a == 0 and b == 0:
            return
        assert gcd(a, b) == math.gcd(a, b)


class TestExtendedGcd:
    def test_worked_example_coefficients(self):
        assert extended_gcd(24, 14) == (2, 3, -5)
        assert 3 * 24 + (-5) * 14 == 2

    def test_base_case(self):
        assert extended_gcd(7, 0) == (7, 1, 0)

    def test_coprime_pair_identity(self):
        g, s, t = extended_gcd(17, 5)
        assert g == 1
        assert s * 17 + t * 5 == 1

    def test_both_zero(self):
        with pytest.raises(BothZero):
            extended_gcd(0, 0)

    @given(a=st.integers(0, 10**9), b=st.integers(0, 10**9))
    def test_bezout_identity(self, a, b):
        if a == 0 and b == 0:
            return
        g, s, t = extended_gcd(a, b)
        assert g == math.gcd(a, b)
        assert s * a + t * b == g


class TestModInverse:
    def test_worked_examples(self):
        assert mod_inverse(1012333, 3096000) == 997
        assert mod_inverse(113, 120) == 17
        assert 113 * 17 % 120 == 1

    @given(m=st.integers(2, 10**9))
    def test_identity(self, m):
        assert mod_inverse(1, m) == 1

    @given(a=st.integers(1, 10**9), m=st.integers(2, 10**9))
    def test_inverse_correct_exactly_when_coprime(self, a, m):
        if math.gcd(a, m) == 1:
            b = mod_inverse(a, m)
            assert 0 < b < m
            assert a * b % m == 1
        else:
            with pytest.raises(NotCoprime):
                mod_inverse(a, m)

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ModulusTooSmall):
            mod_inverse(3, 1)


class TestTotientOfSemiprime:
    def test_worked_examples(self):
        assert totient_of_semiprime(1721, 1801) == 3096000
        assert totient_of_semiprime(11, 13) == 120
        assert totient_of_semiprime(2, 3) == 2

    def test_rejects_composite(self):
        with pytest.raises(NotPrime):
            totient_of_semiprime(12, 13)

    def test_rejects_equal_primes(self):
        with pytest.raises(EqualPrimes):
            totient_of_semiprime(11, 11)

    @pytest.mark.parametrize("p,q", [(3, 5), (5, 7), (101, 211), (1721, 1801)])
    def test_matches_bruteforce(self, p, q):
        assert totient_of_semiprime(p, q) == totient_bruteforce(p * q)


class TestTotientBruteforce:
    def test_worked_examples(self):
        assert totient_bruteforce(8) == 4
        assert totient_bruteforce(6) == 2

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 97, 7919])
    def test_primes(self, p):
        assert totient_bruteforce(p) == p - 1

    def test_bound(self):
        with pytest.raises(OracleBoundExceeded):
            totient_bruteforce(10**7 + 1)

    def test_rejects_unit(self):
        for n in (0, 1):
            with pytest.raises(OracleBoundExceeded,
                               match=f"^totient oracle requires n > 1, got {n}$"):
                totient_bruteforce(n)

    def test_multiplicative_spot_check(self):
        for m in range(2, 40):
            for n in range(2, 40):
                if math.gcd(m, n) == 1:
                    assert totient_bruteforce(m * n) == (
                        totient_bruteforce(m) * totient_bruteforce(n)
                    )


class TestIsProbablePrime:
    def test_worked_examples(self):
        assert is_probable_prime(1721)
        assert not is_probable_prime(1)
        assert not is_probable_prime(3099521)

    def test_small_values(self):
        assert not is_probable_prime(0)
        assert is_probable_prime(2)
        assert is_probable_prime(3)

    def test_carmichael_number(self):
        assert not is_probable_prime(561)

    def test_strong_pseudoprime_to_few_bases(self):
        # psi_4 fools the bases {2,3,5,7}; its factor 151 falls to the screen
        assert 3215031751 == 151 * 751 * 28351
        assert not is_probable_prime(3215031751)

    def test_semiprime_with_no_small_factors(self):
        # survives the small-prime screen, so Miller-Rabin must reject it
        assert is_probable_prime(65537) and is_probable_prime(65539)
        assert not is_probable_prime(65537 * 65539)

    def test_matches_sieve_oracle(self):
        limit = 100000
        flags = sieve_is_prime(limit)
        for n in range(limit):
            assert is_probable_prime(n) == flags[n], n

    def test_psi12_is_composite(self):
        # psi_12, the least strong pseudoprime to the 12 bases 2..37
        # (Sorenson & Webster 2017); it lies below the deterministic bound
        assert 318665857834031151167461 == 399165290221 * 798330580441
        assert not is_probable_prime(318665857834031151167461)

    def test_psi13_is_composite(self):
        # psi_13, the least strong pseudoprime to the 13 bases 2..41, is
        # the bound itself and so takes the random-witness path
        assert not is_probable_prime(3317044064679887385961981)

    # psi_k, the least strong pseudoprime to the first k prime bases
    # (OEIS A014233; Sorenson & Webster 2017); psi_12 is the one that only
    # the base 41 exposes
    PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051, 318665857834031151167461)

    def test_psi_list_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n in self.PSI:
            assert not sympy.isprime(n)
            assert not is_probable_prime(n), n

    def test_chernick_carmichael_numbers_agree_with_sympy(self):
        # (6k+1)(12k+1)(18k+1) with all three factors prime is a Carmichael
        # number, so it passes the Fermat test to every coprime base
        sympy = pytest.importorskip("sympy")
        found = 0
        for k in range(1, 3000):
            factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
            if all(map(sympy.isprime, factors)):
                found += 1
                n = math.prod(factors)
                assert pow(2, n - 1, n) == 1
                assert not sympy.isprime(n)
                assert not is_probable_prime(n), n
        assert found == 68

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_random_odd_n_around_psi13_agree_with_sympy(self, side):
        # Below psi_13 the fixed bases decide, from it on seeded random ones.
        sympy = pytest.importorskip("sympy")
        psi13 = 3317044064679887385961981
        low, high = (psi13 // 2, psi13) if side == "below" else (psi13, 2 * psi13)
        rnd = random.Random(7)
        samples = [rnd.randrange(low, high) | 1 for _ in range(400)]
        samples += [sympy.prevprime(high), sympy.nextprime(low)]
        samples += [sympy.nextprime(rnd.randrange(low, high)) for _ in range(20)]
        assert all(low <= n < high for n in samples)
        verdicts = [is_probable_prime(n) for n in samples]
        assert verdicts == [sympy.isprime(n) for n in samples]
        assert sum(verdicts) >= 22

    def test_large_prime_uses_random_witnesses(self):
        mersenne_127 = (1 << 127) - 1  # prime, above the deterministic bound
        assert is_probable_prime(mersenne_127)
        assert is_probable_prime(mersenne_127, Rng64(99))
        assert not is_probable_prime(mersenne_127 * ((1 << 89) - 1))

    def test_screen_bound_is_the_square_of_the_first_prime_past_it(self):
        # 1009 is the least prime above 1000: an n with no prime factor
        # below 1000 that is below 1009**2 is prime, and 1009**2 is not
        assert not is_probable_prime(1009 * 1009)
        assert is_probable_prime(1018057)  # the largest prime below 1009**2
        assert not is_probable_prime(997 * 1009)
        assert not is_probable_prime(1009 * 1013)

    def test_matches_sieve_oracle_around_the_screen_bound(self):
        low, high = 1009**2 - 10**4, 1009**2 + 10**4
        flags = sieve_is_prime(high)
        for n in range(low, high):
            assert is_probable_prime(n) == flags[n], n


class TestWitnessRounds:
    """How many Miller-Rabin witnesses each tier of the test runs."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        calls = []
        witness = number_theory._miller_rabin_witness

        def counting(a, d, r, n):
            calls.append(a)
            return witness(a, d, r, n)

        monkeypatch.setattr(number_theory, "_miller_rabin_witness", counting)

        def count(n):
            calls.clear()
            verdict = is_probable_prime(n)
            return verdict, len(calls)

        return count

    def test_screen_alone_settles_small_n(self, rounds):
        assert rounds(0) == (False, 0)
        assert rounds(1) == (False, 0)
        assert rounds(2) == (True, 0)
        assert rounds(997) == (True, 0)
        assert rounds(1721) == (True, 0)
        assert rounds(1018057) == (True, 0)

    def test_first_k_bases_below_psi_k(self, rounds):
        # 268435399, the largest 28-bit prime, lies in [psi_3, psi_4)
        assert rounds(268435399) == (True, 4)
        sympy = pytest.importorskip("sympy")
        psi13 = 3317044064679887385961981
        assert rounds(sympy.prevprime(psi13)) == (True, 13)

    def test_random_rounds_from_psi13_on(self, rounds):
        # 3317044064679887385962123 is the least prime above psi_13
        assert rounds(3317044064679887385962123) == (True, 64)
        assert rounds((1 << 127) - 1) == (True, 64)


class TestRng64:
    def test_known_step_from_state_one(self):
        # hand-evaluated: 1 -> ^>>12 keeps 1 -> ^<<25 gives 0x2000001 ->
        # ^>>27 keeps it; output = 0x2000001 * 0x2545F4914F6CDD1D mod 2^64
        value, rng = rng_next(Rng64(1))
        assert rng.state == 0x2000001
        assert value == (0x2000001 * 0x2545F4914F6CDD1D) % (1 << 64)
        assert value == 5180492295206395165

    def test_pure_and_repeatable(self):
        rng = Rng64(123456789)
        v1, r1 = rng_next(rng)
        v2, r2 = rng_next(rng)
        assert (v1, r1.state) == (v2, r2.state)
        assert rng.state == 123456789  # input untouched

    def test_state_always_changes(self):
        rnd = random.Random(0)
        for _ in range(10**4):
            state = rnd.getrandbits(64) or 1
            _, advanced = rng_next(Rng64(state))
            assert advanced.state != state
            assert advanced.state != 0

    @given(st.integers(min_value=1, max_value=(1 << 64) - 1))
    def test_output_never_zero(self, seed):
        # xorshift keeps a nonzero state nonzero, and the odd multiplier is
        # a unit mod 2^64, so no nonzero state outputs 0
        assert Rng64(seed).next_u64() != 0

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroState):
            Rng64(0)

    def test_oversized_state_rejected(self):
        with pytest.raises(ValueError):
            Rng64(1 << 64)

    @pytest.mark.parametrize("seed, reason", [
        (1 << 64, "seed must fit in 64 bits, got 18446744073709551616"),
        (-1, "seed must be non-negative, got -1"),
    ], ids=["2^64", "-1"])
    def test_seed_outside_64_bits_is_an_invalid_argument(self, seed, reason):
        with pytest.raises(InvalidArgument, match=f"^{reason}$"):
            Rng64(seed)

    @pytest.mark.parametrize("seed, kind", [("1", "str"), (1.0, "float"), (True, "bool")])
    def test_non_int_seed_rejected(self, seed, kind):
        with pytest.raises(TypeError, match=f"^seed must be an int, got {kind}$"):
            Rng64(seed)

    # A stream of any other type is a wrong type, as errors says: TypeError
    # before the first draw, never an AttributeError from inside a walk.
    @pytest.mark.parametrize("call, kind", [
        (lambda: gen_prime(64, 5), "int"),
        (lambda: gen_prime(64, None), "NoneType"),
        (lambda: gen_prime(256, Rng64(1).state), "int"),
        (lambda: is_probable_prime(2**89 - 1, "x"), "str"),
        (lambda: is_probable_prime(97, 97), "int"),
        (lambda: rng_next(1), "int"),
    ], ids=["gen_prime-int", "gen_prime-None", "gen_prime-256", "is_probable_prime-str",
            "is_probable_prime-small", "rng_next-int"])
    def test_a_stream_that_is_no_rng64_rejected(self, call, kind):
        with pytest.raises(TypeError, match=f"^rng must be an Rng64, got {kind}$"):
            call()

    def test_repr_shows_the_state(self):
        rng = Rng64(1)
        assert repr(rng) == "Rng64(0x0000000000000001)"
        rng.next_u64()
        assert repr(rng) == "Rng64(0x0000000002000001)"


class TestGenPrime:
    def test_deterministic(self):
        assert gen_prime(8, Rng64(42)) == gen_prime(8, Rng64(42))

    def test_eight_bit_primes(self):
        eight_bit_primes = {
            n for n in range(128, 256) if all(n % d for d in range(2, n))
        }
        for seed in range(1, 60):
            p = gen_prime(8, Rng64(seed))
            assert p in eight_bit_primes

    def test_four_bit_primes(self):
        for seed in range(1, 200):
            assert gen_prime(4, Rng64(seed)) in {11, 13}

    def test_exact_width(self):
        for bits in (4, 8, 16, 32, 64, 128):
            p = gen_prime(bits, Rng64(7))
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_rejects_tiny_width(self):
        with pytest.raises(BitsTooSmall):
            gen_prime(3, Rng64(1))

    # A prime of such a width could not be written, nor even held in memory
    # for 2**64 - 1 bits: the width is refused before the stream is read.
    @pytest.mark.parametrize("bits, width", [(10**400, "1" + "0" * 400),
                                             (2**64 - 1, "18446744073709551615")],
                             ids=["10^400", "2^64-1"])
    def test_width_past_digit_limit_refused(self, bits, width):
        rng = Rng64(1)
        with pytest.raises(KeyTooLarge, match=f"^a {width}-bit prime has more decimal "):
            gen_prime(bits, rng)
        assert rng.state == 1

    def test_pinned_256_bit_prime_and_stream_state(self):
        # every seeded round draws from the stream, so the prime and the
        # state after it pin how many rounds the test ran on the way
        rng = Rng64(1)
        assert (gen_prime(256, rng), rng.state) == SEED_1_PRIME_256

    def test_advances_the_stream(self):
        rng = Rng64(5)
        first = gen_prime(16, rng)
        second = gen_prime(16, rng)
        assert first != second


def _serial_random_tier(n, rng):
    # The random tier as one loop, one draw per round, stopping at the first
    # witness that proves n composite: the reference the split must equal.
    # Returns the verdict and the number of rounds run.
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    span = n - 3
    for rounds in range(1, 65):
        a = 2 + number_theory._draw_bits(span.bit_length() + 64, rng) % span
        if number_theory._miller_rabin_witness(a, d, r, n):
            return False, rounds
    return True, 64


def _serial_gen_prime(bits, rng):
    # gen_prime over the reference loop, from 11 bits on (past the screen's
    # primes): a candidate that passes the small-prime screen goes to the
    # proven bases below psi_13, which read no stream, and to the random
    # tier from there on.
    low, high = 1 << (bits - 1), (1 << bits) - 1
    candidate = number_theory._draw_bits(bits, rng) | low | 1
    while not (math.gcd(candidate, number_theory._SMALL_PRODUCT) == 1
               and (is_probable_prime(candidate) if candidate < _PSI13
                    else _serial_random_tier(candidate, rng)[0])):
        candidate = candidate + 2 if candidate < high else low + 1
    return candidate


_PSI13 = 3317044064679887385961981
# The least width whose search races: where the other rounds of one
# candidate, 63 bits^2, weigh two slices' work.
_RACE_LINE = next(bits for bits in range(4, 4096)
                  if (number_theory._RANDOM_ROUNDS - 1) * bits * bits >= 2 * _pool._FAN_OUT_WORK)


# (2k + 1)(4k + 1) with both factors prime: about a quarter of all witnesses
# are strong liars for it, the most any odd composite allows.
_LIAR_K = (1 << 126) + 5381
_LIAR_N = (2 * _LIAR_K + 1) * (4 * _LIAR_K + 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the rounds are split only where fork exists")
class TestSplitRounds:
    """The random tier split across the pool equals the serial loop: the
    verdict, the prime and the stream's state afterwards."""

    @pytest.fixture(params=["pooled", "serial"])
    def mode(self, request, forks, monkeypatch):
        if request.param == "serial":
            def fork():
                forks.append(None)
                raise OSError("no process to spare")

            monkeypatch.setattr(os, "fork", fork)
        yield request.param
        assert forks, "no split was tried"  # the pool was asked for workers
        assert (None in forks) == (request.param == "serial")
        assert_no_children([pid for pid in forks if pid])

    @pytest.mark.parametrize("seed", [1, 2, 3, 901])
    def test_gen_prime(self, mode, seed):
        rng, reference = Rng64(seed), Rng64(seed)
        assert gen_prime(256, rng) == _serial_gen_prime(256, reference)
        assert rng.state == reference.state

    def test_composite_past_a_strong_liar(self, mode):
        p, q = 2 * _LIAR_K + 1, 4 * _LIAR_K + 1
        assert is_probable_prime(p) and is_probable_prime(q)
        assert _LIAR_N.bit_length() == 256
        # the first seed whose first witness lies; a later one does not
        seed = next(s for s in range(1, 1000)
                    if _serial_random_tier(_LIAR_N, Rng64(s))[1] > 1)
        reference = Rng64(seed)
        assert _serial_random_tier(_LIAR_N, reference)[0] is False
        rng = Rng64(seed)
        assert not is_probable_prime(_LIAR_N, rng)
        assert rng.state == reference.state

    def test_split_verdicts_keep_their_order(self, mode):
        d, r = (_LIAR_N - 1) // 2, 1
        rng = Rng64(7)
        witnesses = tuple(2 + number_theory._draw_bits(320, rng) % (_LIAR_N - 3)
                          for _ in range(63))
        verdicts = number_theory._witnesses_all(witnesses, d, r, _LIAR_N)
        assert 0 < verdicts.count(False) < 63  # liars and witnesses both
        work = 63 * 256 * 255  # three slices
        assert _pool.split_map(number_theory._witnesses_all, witnesses,
                               (d, r, _LIAR_N), work) == verdicts


def _primes(gen, bits, seeds, count=2):
    # (prime, state after it) for each seed's first count primes from gen,
    # drawn from one stream as generate_keypair draws p and q.
    out = []
    for seed in seeds:
        rng = Rng64(seed)
        out += [(gen(bits, rng), rng.state) for _ in range(count)]
    return out


@pytest.mark.skipif(not hasattr(os, "fork"), reason="walks race only where fork exists")
class TestSearchRace:
    """gen_prime's candidate walk raced over m walks equals the serial loop:
    the primes, and the stream's state after each."""

    @pytest.fixture(params=[1, 2, 3])
    def walks(self, request, forks, monkeypatch):
        # every search raced, whatever its width, and every race and split
        # over this many processes
        monkeypatch.setattr(_pool, "_slices", lambda work: request.param)
        yield request.param
        assert len(forks) == request.param - 1
        assert_no_children(forks)

    @pytest.mark.parametrize("bits", [82, _RACE_LINE, 256])
    def test_same_primes_and_stream(self, walks, bits):
        seeds = range(1, 9)
        found = _primes(gen_prime, bits, seeds)
        assert found == _primes(_serial_gen_prime, bits, seeds)
        if bits == 82:  # the proven tier and the random tier both
            assert min(found)[0] < _PSI13 < max(found)[0]

    # A walk from just past the last prime below psi_13: composites of the
    # proven tier, which draw nothing, then psi_13 itself and those after
    # it, which draw, up to the least prime above psi_13.
    def test_a_walk_across_psi13(self, walks, monkeypatch):
        below = next(n for n in range(_PSI13 - 2, 0, -2) if is_probable_prime(n))
        draw = number_theory._draw_bits
        monkeypatch.setattr(number_theory, "_draw_bits",
                            lambda bits, rng: below + 2 if bits == 82 else draw(bits, rng))
        rng, reference = Rng64(3), Rng64(3)
        assert gen_prime(82, rng) == _serial_gen_prime(82, reference) == 3317044064679887385962123
        assert rng.state == reference.state != 3

    # The first candidate of a seed's search made to pass its first round
    # (patched before any worker forks): the later rounds refuse it, and the
    # search starts again past it with the stream where the serial loop
    # leaves it.
    def test_a_round_1_liar(self, walks, monkeypatch):
        seed, calls = 5, []
        witness = number_theory._miller_rabin_witness

        def logged(a, d, r, n):
            calls.append((a, n))
            return witness(a, d, r, n)

        with monkeypatch.context() as m:
            m.setattr(number_theory, "_miller_rabin_witness", logged)
            honest = _primes(_serial_gen_prime, 256, [seed], count=1)
        liar = calls[0]
        assert liar[1] != honest[0][0]  # a composite, and a witness for it
        monkeypatch.setattr(number_theory, "_miller_rabin_witness",
                            lambda a, d, r, n: (a, n) != liar and witness(a, d, r, n))
        lied = _primes(_serial_gen_prime, 256, [seed], count=1)
        assert lied[0][1] != honest[0][1]
        assert _primes(gen_prime, 256, [seed], count=1) == lied

    # The same at the top of the range: the search starts again at its
    # bottom, so the width stays exact.
    def test_a_round_1_liar_at_the_top(self, walks, monkeypatch):
        high = 2**97 - 1  # 11447 * 13842607235828485645766393: past the screen
        draw, witness = number_theory._draw_bits, number_theory._miller_rabin_witness
        first = 2 + draw(97 + 64, Rng64(2)) % (high - 3)
        monkeypatch.setattr(number_theory, "_draw_bits",
                            lambda bits, rng: high if bits == 97 else draw(bits, rng))
        monkeypatch.setattr(number_theory, "_miller_rabin_witness",
                            lambda a, d, r, n: (a, n) != (first, high) and witness(a, d, r, n))
        rng, reference = Rng64(2), Rng64(2)
        prime = gen_prime(97, rng)
        assert prime == _serial_gen_prime(97, reference) < 2**96 + 2**12
        assert rng.state == reference.state

    # Workers that cover nothing: the caller walks their indices below the
    # least found one itself.  A dead worker's walk is redone in the
    # caller, where lost() stops it at once, at its first own index.
    @pytest.mark.parametrize("in_worker, filled", [
        (walk_once_lost, True),
        (lambda walk, *args: os._exit(1), False),
    ], ids=["stops-at-once", "dies"])
    def test_gaps_are_walked_by_the_caller(self, forks, monkeypatch, in_worker, filled):
        log = rig_walk(monkeypatch, number_theory, "_search", in_worker)
        seeds = range(1, 5)
        assert _primes(gen_prime, 256, seeds) == _primes(_serial_gen_prime, 256, seeds)
        walked = {(k, m, result == (k, None, None)) for k, m, result in log}
        assert {(1, 3, not filled), (2, 3, not filled)} <= walked
        assert (len(forks) == 2) == filled  # only the dead are replaced
        assert_no_children(forks)

    # Worker walks that stop early, each at an own index of its own: the
    # first own index from hash((start, k)) % 8 own steps on, unless a
    # candidate comes first.  Each race keeps a candidate and its workers,
    # and gaps fall anywhere below the least index found: the caller's fills
    # give the serial loop's primes and stream.
    @pytest.mark.parametrize("walks", [2, 3], indirect=True)
    def test_walks_stopped_anywhere(self, walks, monkeypatch):
        def stops_early(walk, start, state, bits, end, k, m, lost):
            found = walk(start, state, bits, k + m * (hash((start, k)) % 8), k, m, lost)
            if found[1] is None:
                wait_until_lost(lost)
            return found

        ends = []  # only the caller's gap fills carry an end
        rig_walk(monkeypatch, number_theory, "_search", stops_early,
                 lambda walk, *args: ends.append(args[3]) or walk(*args))
        for bits, seeds in ((82, range(1, 5)), (128, [1, 2]), (_RACE_LINE, [1, 2]),
                            (256, [1, 2])):
            assert _primes(gen_prime, bits, seeds) == _primes(_serial_gen_prime, bits, seeds)
        assert any(end is not None for end in ends)  # the caller filled gaps

    # Workers that stop at once, and a caller's walk that starts once one of
    # them has returned: it stops at its first index, no walk has a
    # candidate, and the race drops its workers and walks alone, as walk 0
    # of 1.
    def test_no_candidate_walks_alone(self, forks, monkeypatch):
        def stops_at_once(walk, start, state, bits, end, k, m, lost):
            return k, None, None

        log = rig_walk(monkeypatch, number_theory, "_search", stops_at_once, walk_once_lost)
        seeds = range(1, 3)
        assert _primes(gen_prime, 256, seeds) == _primes(_serial_gen_prime, 256, seeds)
        walks = [(k, m) for k, m, _ in log]
        assert walks[:2] == [(0, 3), (0, 1)]
        assert log[0][2] == (0, None, None)
        assert walks.count((0, 1)) == walks.count((0, 3)) >= 4
        assert_no_children(forks)

    def test_the_line(self, forks):
        line = _RACE_LINE
        for seed in range(1, 9):  # just below it nothing forks, no split either
            gen_prime(line - 1, Rng64(seed))
        assert forks == []
        for bits, walks in ((line - 1, {1}), (line, {2}), (256, {3})):
            assert {search_walks(bits)} == walks
        assert_no_children(forks)

    # The widths of the command line's keys and of crack's pools.
    @pytest.mark.parametrize("bits", [16, 18, 28])
    def test_small_keys_fork_nothing(self, forks, bits):
        for seed in range(1, 6):
            generate_keypair(bits, seed)
        assert forks == []
        assert_no_children(forks)

    # Below two slices' work no race or split reads the CPU set: small
    # keys, a 182-bit search and its pick's rounds, and rho on n < 2^40.
    def test_small_work_reads_no_cpu_set(self, forks, monkeypatch):
        def unreadable(pid):
            raise AssertionError("the CPU set was read")

        monkeypatch.setattr(os, "sched_getaffinity", unreadable, raising=False)
        for seed in range(1, 4):
            generate_keypair(28, seed)
            assert gen_prime(182, Rng64(seed)).bit_length() == 182
        kp = generate_keypair(16, 3)
        assert crack_private_key(kp.public, POLLARD_RHO).d == kp.private.d
        assert forks == []
        assert_no_children(forks)


def _is_open(fd):
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool needs fork")
def test_forked_child_starts_with_an_empty_pool(forks):
    expected = gen_prime(256, Rng64(11))
    fds = [f.fileno() for _, jobs, results in _pool._workers for f in (jobs, results)]
    assert len(fds) == 4
    pid = os.fork()
    if pid == 0:  # the child reports by its exit status alone
        status = 1
        try:
            # The parent's pipe ends are closed here, or its workers would
            # not see EOF once the parent let go of them.
            if not _pool._workers and not any(map(_is_open, fds)):
                status = 2
                if gen_prime(256, Rng64(11)) == expected and len(_pool._workers) == 2:
                    status = 0
            _pool.stop()
        finally:
            os._exit(status)
    assert gen_prime(256, Rng64(11)) == expected
    assert wait_status(pid) == 0
    assert len(forks) == 3  # two workers and the child
    assert_no_children(forks)
