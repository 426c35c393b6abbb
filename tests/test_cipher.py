import io
import marshal
import math
import os
import random
import re
import select
import signal
import threading
from time import perf_counter, sleep

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (GOLDEN_CIPHERTEXT, SEED_1_PRIME_256, assert_no_children, rig_walk,
                      wait_status, walk_once_lost)
from rsa_primer import _pool, cipher, codec
from rsa_primer._record import replace
from rsa_primer.cipher import (
    METHODS,
    POLLARD_RHO,
    TRIAL_DIVISION,
    BENCHMARK_CSV_HEADER,
    benchmark_csv,
    benchmark_summary,
    crack_benchmark,
    crack_private_key,
    decrypt_block,
    decrypt_message,
    encrypt_block,
    encrypt_message,
    smallest_factor,
)
from rsa_primer.codec import CODEC_CHUNKED, CODEC_TOY_ASCII, CODECS, BlockSeq, block_seq
from rsa_primer.errors import (
    BitsTooSmall,
    BlockOutOfRange,
    BlockTooLarge,
    CrackTimeout,
    InvalidArgument,
    KeyTooLarge,
    NoFactor,
    NotCoprime,
    NotSemiprime,
)
from rsa_primer.keys import PrivateKey, PublicKey, generate_keypair, keypair_from_primes
from rsa_primer.number_theory import Rng64, gen_prime, is_probable_prime, mod_pow


class TestBlockTransform:
    def test_small_example(self, small_keypair):
        assert encrypt_block(2, small_keypair.public) == 19
        assert decrypt_block(19, small_keypair.private) == 2

    def test_worked_example_blocks(self, toy_keypair):
        assert encrypt_block(117, toy_keypair.public) == 547387
        assert decrypt_block(1232817, toy_keypair.private) == 77

    def test_fixed_points(self, toy_keypair):
        assert encrypt_block(0, toy_keypair.public) == 0
        assert decrypt_block(1, toy_keypair.private) == 1

    def test_block_at_or_above_modulus_rejected(self, small_keypair):
        with pytest.raises(BlockTooLarge):
            encrypt_block(143, small_keypair.public)
        with pytest.raises(BlockTooLarge):
            decrypt_block(144, small_keypair.private)

    def test_roundtrip_all_residues_even_non_coprime(self, small_keypair):
        # includes M in {11, 13, 22, ...} where gcd(M, 143) != 1
        for m in range(143):
            assert decrypt_block(encrypt_block(m, small_keypair.public),
                                 small_keypair.private) == m

    def test_negative_block_rejected(self, small_keypair):
        with pytest.raises(ValueError):
            encrypt_block(-1, small_keypair.public)
        for sk in (small_keypair.private, PrivateKey(d=17, n=143)):
            with pytest.raises(ValueError):
                decrypt_block(-1, sk)

    # e = -1 would compute a modular inverse, and e = 0 sends every block
    # to 1: neither is RSA, so the key is refused before any pow.
    @pytest.mark.parametrize("exponent", [0, -1, -(2**64)])
    @pytest.mark.parametrize("m", [2, 5])
    def test_exponent_below_1_refused(self, monkeypatch, exponent, m):
        def untouched(*args):
            raise AssertionError("pow was called")

        monkeypatch.setattr(cipher, "pow", untouched, raising=False)
        pattern = "^exponent must be at least 1, got -?[0-9]+$"
        with pytest.raises(InvalidArgument, match=pattern):
            encrypt_block(m, PublicKey(exponent, 15))
        for sk in (PrivateKey(exponent, 15), PrivateKey(exponent, 15, (3, 5, 1, 1, 2))):
            with pytest.raises(InvalidArgument, match=pattern):
                decrypt_block(m, sk)

    def test_message_under_an_exponent_below_1_refused_before_any_fork(self, no_fork):
        # once per message, in the caller: no worker is handed such a key
        with pytest.raises(InvalidArgument, match="^exponent must be at least 1, got -1$"):
            encrypt_message(b"Tue 7PM", PublicKey(-1, 3099521), CODEC_TOY_ASCII)
        # 2000 blocks under a 1025-bit n and a 601-bit d: work to split
        n = 2**1024 + 1
        with pytest.raises(InvalidArgument, match="^exponent must be at least 1, got -[0-9]+$"):
            decrypt_message(block_seq(tuple(range(1, 2001)), CODEC_CHUNKED, n),
                            PrivateKey(-(2**600), n))

    def test_messages_write_a_huge_number_by_width(self):
        huge = 10**4400 + 1  # 14617 bits: past str()'s default limit
        with pytest.raises(BlockTooLarge,
                           match="^block <14617-bit number> is not below the modulus 3233$"):
            encrypt_block(huge, PublicKey(17, 3233))
        with pytest.raises(BlockTooLarge, match="^block <14617-bit number> is not below "
                                                "the modulus <14617-bit number>$"):
            encrypt_block(huge + 1, PublicKey(3, huge))
        with pytest.raises(ValueError, match="^block must be non-negative, "
                                             "got <negative 14617-bit number>$"):
            decrypt_block(-huge, PrivateKey(2753, 3233))

    def test_injective_on_full_range(self, small_keypair):
        images = {encrypt_block(m, small_keypair.public) for m in range(143)}
        assert len(images) == 143

    def test_roundtrip_exhaustive_8bit_key(self):
        kp = generate_keypair(8, 3)
        n = kp.public.n
        images = set()
        for m in range(n):
            c = encrypt_block(m, kp.public)
            images.add(c)
            assert decrypt_block(c, kp.private) == m
        assert len(images) == n

    def test_roundtrip_sampled_16bit_key(self):
        kp = generate_keypair(16, 77)
        n = kp.public.n
        rnd = random.Random(16)
        for _ in range(10**4):
            m = rnd.randrange(n)
            assert decrypt_block(encrypt_block(m, kp.public), kp.private) == m

    def test_combined_exponent_identity(self):
        # M^(e*d) mod n = M, the k*phi+1 exponent collapsing in one step
        for seed in (5, 6, 7):
            kp = generate_keypair(12, seed)
            rnd = random.Random(seed)
            for _ in range(50):
                m = rnd.randrange(kp.public.n)
                assert mod_pow(m, kp.public.e * kp.private.d, kp.public.n) == m


def _roundtrip_all(blocks: list, e: int, n: int, d: int, crt: tuple) -> list:
    # A slice of test_roundtrip_every_block, under keys with these fields:
    # each block, encrypted, decrypts to itself by CRT and by d alone.  A
    # failed assertion ends a worker, and its slice is redone in the caller.
    public, with_pq, plain = PublicKey(e, n), PrivateKey(d, n, crt), PrivateKey(d, n)
    for m in blocks:
        c = encrypt_block(m, public)
        assert decrypt_block(c, with_pq) == m
        assert decrypt_block(c, plain) == m
    return [None] * len(blocks)


class TestCrtDecryption:
    # Every block of the key, split across the pool like a message's.
    @pytest.mark.parametrize(
        "p, q, e", [(2, 7, 5), (3, 5, 3), (11, 13, 113), (1721, 1801, 1012333)]
    )
    def test_roundtrip_every_block(self, p, q, e):
        with_pq = keypair_from_primes(p, q, e, retain_provenance=True)
        plain = keypair_from_primes(p, q, e)
        assert with_pq.private.crt is not None and plain.private.crt is None
        n, d = plain.public.n, plain.private.d
        blocks = list(range(p * q))
        work = len(blocks) * n.bit_length() * d.bit_length()
        assert _pool.split_map(_roundtrip_all, blocks, (e, n, d, with_pq.private.crt),
                               work) == [None] * len(blocks)

    @given(st.integers(8, 64), st.integers(1, 2**64 - 1), st.data())
    def test_matches_plain_exponent(self, bits, seed, data):
        sk = generate_keypair(bits, seed, retain_provenance=True).private
        assert sk.crt is not None
        c = data.draw(st.integers(0, sk.n - 1))
        assert decrypt_block(c, sk) == pow(c, sk.d, sk.n)

    def test_crt_halves_the_exponent_only_of_a_wide_d(self, toy_keypair):
        # The facts behind decrypt_block's claim: the textbook key's d is
        # narrower than p, so dP and dQ are d itself, while a drawn e leaves
        # d about as wide as n and dP, dQ about half that.
        sk = toy_keypair.private
        assert sk.crt[2] == sk.crt[3] == sk.d == 997
        sk = generate_keypair(256, 7, retain_provenance=True).private
        assert max(sk.crt[2].bit_length(), sk.crt[3].bit_length()) <= 256
        assert sk.d.bit_length() > 500

    def test_key_with_crt_values_decrypts_by_them(self, toy_keypair):
        # d is not consulted, so a wrong d goes unnoticed and a wrong dP not
        p, q, dp, dq, q_inv = toy_keypair.private.crt
        wrong_d = PrivateKey(998, 3099521, (p, q, dp, dq, q_inv))
        wrong_dp = PrivateKey(997, 3099521, (p, q, dp + 1, dq, q_inv))
        assert decrypt_block(1232817, wrong_d) == 77
        assert decrypt_block(1232817, wrong_dp) != 77


class TestMessageTransform:
    def test_worked_example(self, toy_keypair):
        from rsa_primer.codec import format_cipher_blocks

        bs = encrypt_message(b"Tue 7PM", toy_keypair.public, CODEC_TOY_ASCII)
        assert format_cipher_blocks(bs) == GOLDEN_CIPHERTEXT
        assert decrypt_message(bs, toy_keypair.private) == b"Tue 7PM"

    def test_empty_message(self, toy_keypair):
        bs = encrypt_message(b"", toy_keypair.public, CODEC_TOY_ASCII)
        assert bs.blocks == ()
        assert decrypt_message(bs, toy_keypair.private) == b""

    def test_golden_cipher_blocks_decrypt(self, toy_keypair):
        blocks = tuple(int(t) for t in GOLDEN_CIPHERTEXT.split())
        bs = BlockSeq(blocks, CODEC_TOY_ASCII, 7)
        assert decrypt_message(bs, toy_keypair.private) == b"Tue 7PM"

    def test_wrong_private_exponent_garbles(self, toy_keypair):
        from rsa_primer.keys import PrivateKey

        # 469428^998 mod 3099521 = 2237700, far outside the ASCII range
        assert mod_pow(469428, 998, 3099521) == 2237700
        bs = encrypt_message(b"Tue 7PM", toy_keypair.public, CODEC_TOY_ASCII)
        wrong = PrivateKey(d=998, n=3099521)
        with pytest.raises(BlockOutOfRange):
            decrypt_message(bs, wrong)

    def test_chunked_roundtrip_random(self):
        kp = generate_keypair(16, 123)
        rnd = random.Random(99)
        for _ in range(300):
            data = rnd.randbytes(rnd.randrange(0, 64))
            bs = encrypt_message(data, kp.public, CODEC_CHUNKED)
            assert decrypt_message(bs, kp.private) == data

    def test_beyond_toy_scale_64_bit_primes(self):
        from rsa_primer.keys import validate_keypair

        kp = generate_keypair(64, 90210, retain_provenance=True)
        assert kp.public.n.bit_length() in (127, 128)
        assert validate_keypair(kp) == []
        data = b"fifteen-byte chunks fit many blocks" * 3
        bs = encrypt_message(data, kp.public, CODEC_CHUNKED)
        # 256^15 = 2^120 <= n < 2^128 = 256^16 for any two 64-bit primes
        assert bs.chunk_bytes == 15
        assert decrypt_message(bs, kp.private) == data

    def test_codec_mismatch_rejected(self, toy_keypair):
        bs = encrypt_message(b"hi", toy_keypair.public, CODEC_TOY_ASCII)
        with pytest.raises(ValueError):
            decrypt_message(bs, toy_keypair.private, CODEC_CHUNKED)

    def test_unknown_codec_rejected(self, toy_keypair):
        with pytest.raises(ValueError):
            encrypt_message(b"hi", toy_keypair.public, "rot13")

    @pytest.mark.parametrize("codec_id", CODECS)
    def test_modulus_past_digit_limit_refused(self, codec_id):
        with pytest.raises(KeyTooLarge, match="^a 14617-bit modulus "):
            encrypt_message(b"hi", PublicKey(3, 10**4400 + 1), codec_id)


# Texts with many repeats (a four-symbol alphabet) and texts of any ASCII.
_TEXTS = st.one_of(
    st.lists(st.sampled_from(b"ab \n"), max_size=80).map(bytes),
    st.lists(st.integers(0, 127), max_size=80).map(bytes),
)


class TestOneTransformPerDistinctBlock:
    """Equal blocks give equal cipher blocks, so each value is transformed once."""

    @settings(deadline=None)
    @given(st.sampled_from([CODEC_TOY_ASCII, CODEC_CHUNKED]), st.booleans(),
           st.integers(8, 24), st.integers(1, 2**64 - 1), _TEXTS)
    def test_same_as_the_per_block_map(self, codec_id, with_crt, bits, seed, data):
        kp = generate_keypair(bits, seed, retain_provenance=with_crt)
        assert (kp.private.crt is not None) == with_crt
        plain = codec.encode(data, kp.public.n, codec_id)
        bs = encrypt_message(data, kp.public, codec_id)
        assert bs == replace(
            plain, blocks=tuple(encrypt_block(m, kp.public) for m in plain.blocks))
        per_block = replace(
            bs, blocks=tuple(decrypt_block(c, kp.private) for c in bs.blocks))
        assert decrypt_message(bs, kp.private) == codec.decode(per_block) == data

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        original = getattr(cipher, name)

        def counting(block, key):
            calls.append(block)
            return original(block, key)

        monkeypatch.setattr(cipher, name, counting)
        return calls

    def test_one_encrypt_block_call_per_distinct_byte(self, toy_keypair, monkeypatch):
        text = b"abracadabra, banana bandana"
        calls = self._count_calls(monkeypatch, "encrypt_block")
        bs = encrypt_message(text, toy_keypair.public, CODEC_TOY_ASCII)
        assert len(calls) == len(set(text)) == 8
        assert calls == list(dict.fromkeys(text))
        assert len(bs.blocks) == len(text)
        assert len(set(bs.blocks)) == len(set(text))

    def test_one_decrypt_block_call_per_distinct_block(self, toy_keypair, monkeypatch):
        text = b"abracadabra, banana bandana"
        bs = encrypt_message(text, toy_keypair.public, CODEC_TOY_ASCII)
        calls = self._count_calls(monkeypatch, "decrypt_block")
        assert decrypt_message(bs, toy_keypair.private) == text
        assert calls == list(dict.fromkeys(bs.blocks))
        assert len(calls) == 8

    @pytest.mark.parametrize("crt", [True, False], ids=["crt", "plain"])
    def test_first_block_at_or_above_n_is_named(self, toy_keypair, crt):
        sk = toy_keypair.private if crt else PrivateKey(997, 3099521)
        n = sk.n
        bs = block_seq((469428, n + 5, n, n + 5, 547387), CODEC_TOY_ASCII, n)
        with pytest.raises(BlockTooLarge, match=f"^block {n + 5} is not below"):
            decrypt_message(bs, sk)

    def test_first_negative_block_is_named(self, toy_keypair):
        n = toy_keypair.private.n
        bs = block_seq((469428, -7, n, -3), CODEC_TOY_ASCII, n)
        with pytest.raises(ValueError, match="^block must be non-negative, got -7$"):
            decrypt_message(bs, toy_keypair.private)
        bs = block_seq((469428, n, -7), CODEC_TOY_ASCII, n)
        with pytest.raises(BlockTooLarge, match=f"^block {n} is not below"):
            decrypt_message(bs, toy_keypair.private)


@pytest.fixture(scope="module")
def wide():
    """A key and message above the fan-out line, with the per-block map of
    the message: 256-bit primes (a 512-bit n), a drawn e of about 512 bits
    and 64 KiB chunked, 1041 blocks."""
    kp = generate_keypair(256, 2024, retain_provenance=True)
    data = random.Random(5).randbytes(64 * 1024)
    plain = codec.encode(data, kp.public.n, CODEC_CHUNKED)
    encrypted = replace(plain, blocks=tuple(encrypt_block(m, kp.public) for m in plain.blocks))
    return kp, data, encrypted


@pytest.fixture
def no_fork(three_cpus, monkeypatch):
    def fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the work is split only where fork exists")
class TestFanOut:
    """Distinct blocks of enough work are split across the pooled workers."""

    def test_predicate(self, three_cpus):
        slices = _pool._slices
        assert _pool._FAN_OUT_WORK == 2**20
        assert slices(1041 * 512 * 511) == 3  # bulk decryption: 272 M
        assert slices(1041 * 512 * 17) == 3  # bulk encryption at e = 65537: 9 M
        assert slices(9 * 512 * 511) == 2  # 2.35 M
        assert slices(8 * 512 * 511) == 1  # 2.09 M, just below the line
        assert slices(63 * 256 * 255) == 3  # 63 Miller-Rabin rounds at 256 bits: 4.1 M
        # the command-line benchmark's sizes stay serial: 16-bit primes, 4 KiB
        kp = generate_keypair(16, 77, retain_provenance=True)
        count = len(set(codec.encode(random.Random(8).randbytes(4096), kp.public.n,
                                     CODEC_CHUNKED).blocks))
        assert (count, kp.public.n.bit_length(), kp.private.d.bit_length()) == (1366, 31, 31)
        assert slices(count * 31 * 31) == 1  # 1.3 M
        assert slices(count * 32 * 32) == 1  # the widest such key: 1.4 M

    def test_work_counts_the_exponent_of_the_key(self, wide, forks):
        kp, data, encrypted = wide
        blocks = encrypted.blocks[:9]
        assert len(set(blocks)) == 9
        plain = codec.encode(data, kp.public.n, CODEC_CHUNKED).blocks[:9]
        small_e = PublicKey(65537, kp.public.n)
        assert cipher._map_distinct(plain, small_e) == tuple(pow(m, 65537, small_e.n) for m in plain)
        assert forks == []  # 9 * 512 * 17
        assert cipher._map_distinct(blocks, kp.private) == plain
        assert len(forks) == 1  # 9 * 512 * 511: two slices
        assert_no_children(forks)

    def test_never_more_slices_than_distinct_values(self, forks):
        # One distinct value under a 1500-bit d and n is 2.25 M of work, two
        # slices' worth; the second slice would be empty, so nothing forks.
        n, d = 2**1500 - 1, 2**1499 + 1
        assert cipher._map_distinct((5, 5, 5), PrivateKey(d, n)) == (pow(5, d, n),) * 3
        assert forks == []
        assert_no_children(forks)

    @pytest.mark.parametrize("crt", [True, False], ids=["crt", "plain"])
    def test_same_as_the_per_block_map(self, wide, forks, crt):
        kp, data, encrypted = wide
        sk = kp.private if crt else PrivateKey(kp.private.d, kp.private.n)
        assert encrypt_message(data, kp.public, CODEC_CHUNKED) == encrypted
        assert decrypt_message(encrypted, sk) == data
        # two workers, forked at the first split and reused by the second
        assert len(forks) == 2
        assert [pid for pid, _, _ in _pool._workers] == forks
        assert_no_children(forks)

    @pytest.mark.parametrize("crt", [True, False], ids=["crt", "plain"])
    def test_first_bad_block_raises_before_any_fork(self, wide, no_fork, crt):
        kp, _, encrypted = wide
        sk = kp.private if crt else PrivateKey(kp.private.d, kp.private.n)
        n = sk.n
        blocks = list(encrypted.blocks)
        blocks[700], blocks[800], blocks[900] = n + 5, -3, n
        with pytest.raises(BlockTooLarge, match=f"^block {n + 5} is not below the modulus {n}$"):
            decrypt_message(replace(encrypted, blocks=tuple(blocks)), sk)
        blocks[700] = -7
        with pytest.raises(ValueError, match="^block must be non-negative, got -7$"):
            decrypt_message(replace(encrypted, blocks=tuple(blocks)), sk)

    def test_inputs_below_the_line_never_fork(self, toy_keypair, no_fork):
        bs = encrypt_message(b"Tue 7PM", toy_keypair.public, CODEC_TOY_ASCII)
        assert codec.format_cipher_blocks(bs) == GOLDEN_CIPHERTEXT
        assert decrypt_message(bs, toy_keypair.private) == b"Tue 7PM"
        # the sizes of the command-line benchmark: 16-bit primes, 4 KiB of text
        kp = generate_keypair(16, 77, retain_provenance=True)
        data = random.Random(8).randbytes(4096)
        bs = encrypt_message(data, kp.public, CODEC_CHUNKED)
        assert decrypt_message(bs, kp.private) == data

    def test_threaded_caller_never_forks(self, wide, no_fork):
        kp, data, encrypted = wide
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert _pool._slices(400 * 512 * 511) == 1
            assert cipher._map_distinct(encrypted.blocks[:400], kp.private) \
                == codec.encode(data, kp.public.n, CODEC_CHUNKED).blocks[:400]
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert _pool._slices(400 * 512 * 511) == 3

    @pytest.mark.parametrize("send", [
        lambda results, file: os._exit(1),
        lambda results, file: (file.write(marshal.dumps(results)[:-1]), file.flush(), os._exit(0)),
        lambda results, file: file.write(b"not marshal data"),
        lambda results, file: file.write(marshal.dumps(results[:-1])),
        lambda results, file: file.write(marshal.dumps(marshal.dumps(marshal.loads(results)[:-1]))),
        lambda results, file: file.write(marshal.dumps(marshal.dumps(7))),
        lambda results, file: file.write(marshal.dumps(marshal.dumps("x" * len(marshal.loads(results))))),
    ], ids=["exits-nonzero", "short", "undecodable", "too-few", "one-value-short", "an-int", "a-str"])
    def test_failed_child_slice_is_recomputed(self, wide, forks, monkeypatch, send):
        kp, data, encrypted = wide
        parent, dump = os.getpid(), marshal.dump

        def sending(value, file):
            if os.getpid() == parent:
                return dump(value, file)
            return send(value, file)

        monkeypatch.setattr(marshal, "dump", sending)
        assert decrypt_message(encrypted, kp.private) == data
        assert len(forks) == 2
        assert _pool._workers == []  # each failed worker was dropped
        assert_no_children(forks)

    def test_child_dying_in_its_transform(self, wide, forks, monkeypatch):
        kp, data, encrypted = wide
        parent, original = os.getpid(), cipher.decrypt_block

        def dying(c, sk):
            if os.getpid() != parent:
                os._exit(1)
            return original(c, sk)

        monkeypatch.setattr(cipher, "decrypt_block", dying)
        assert decrypt_message(encrypted, kp.private) == data
        assert len(forks) == 2
        assert _pool._workers == []
        assert_no_children(forks)

    def test_error_in_the_parents_slice_reaps_every_child(self, wide, forks, monkeypatch):
        kp, _, encrypted = wide
        parent, original = os.getpid(), cipher.decrypt_block

        def failing(c, sk):
            if os.getpid() == parent:
                raise RuntimeError("the parent's slice failed")
            return original(c, sk)

        monkeypatch.setattr(cipher, "decrypt_block", failing)
        with pytest.raises(RuntimeError, match="^the parent's slice failed$"):
            decrypt_message(encrypted, kp.private)
        assert len(forks) == 2
        assert _pool._workers == []
        assert_no_children(forks)

    def test_error_in_the_parents_slice_kills_busy_workers(self, wide, forks, monkeypatch):
        # Each worker would spend 30 s on its slice, then die: the caller's
        # error must not wait for that.
        kp, _, encrypted = wide
        parent = os.getpid()

        def failing(c, sk):
            if os.getpid() == parent:
                raise RuntimeError("the parent's slice failed")
            sleep(30)
            os._exit(1)

        monkeypatch.setattr(cipher, "decrypt_block", failing)
        start = perf_counter()
        with pytest.raises(RuntimeError, match="^the parent's slice failed$"):
            decrypt_message(encrypted, kp.private)
        assert perf_counter() - start < 5
        assert len(forks) == 2
        assert _pool._workers == []
        assert_no_children(forks)

    def test_killed_worker_is_recomputed_then_replaced(self, wide, forks):
        kp, data, encrypted = wide
        assert decrypt_message(encrypted, kp.private) == data
        killed, survivor = [pid for pid, _, _ in _pool._workers]
        os.kill(killed, signal.SIGKILL)
        assert decrypt_message(encrypted, kp.private) == data
        assert [pid for pid, _, _ in _pool._workers] == [survivor]
        with pytest.raises(ChildProcessError):
            os.waitpid(killed, os.WNOHANG)  # reaped
        assert decrypt_message(encrypted, kp.private) == data
        assert len(forks) == 3
        assert [pid for pid, _, _ in _pool._workers] == [survivor, forks[2]]
        assert_no_children(forks)

    # The second pipe fails: the first one's two descriptors are closed,
    # and no worker is started.
    def test_a_failed_pipe_leaks_no_descriptor(self, fresh_pool, monkeypatch):
        pipe, opened = os.pipe, []

        def second_fails():
            if opened:
                raise OSError("no descriptor to spare")
            opened.extend(pipe())
            return tuple(opened)

        monkeypatch.setattr(os, "pipe", second_fails)
        with pytest.raises(OSError, match="^no descriptor to spare$"):
            _pool._start_worker()
        assert len(opened) == 2
        for fd in opened:
            with pytest.raises(OSError):
                os.fstat(fd)
        assert _pool._workers == []
        assert_no_children()

    @pytest.mark.parametrize("how", ["eof", "interrupt"])
    def test_worker_leaves_by_exit_0(self, wide, forks, how):
        # on EOF, and on KeyboardInterrupt (SIGINT), without dying of the signal
        kp, data, encrypted = wide
        assert decrypt_message(encrypted, kp.private) == data
        worker = _pool._workers[0]
        if how == "eof":
            _pool._workers.remove(worker)
            worker[1].close()
            worker[2].close()
        else:
            os.kill(worker[0], signal.SIGINT)
        assert wait_status(worker[0]) == 0
        assert decrypt_message(encrypted, kp.private) == data
        assert decrypt_message(encrypted, kp.private) == data
        assert len(forks) == 3  # one replacement
        assert len(_pool._workers) == 2
        assert_no_children(forks)


class _CountingReader:
    """A pipe's reader that counts the calls made on it."""

    def __init__(self, file):
        self.file, self.calls = file, 0

    def read(self, *size):
        self.calls += 1
        return self.file.read(*size)

    def readinto(self, buffer):
        self.calls += 1
        return self.file.readinto(buffer)

    def close(self):
        self.file.close()


class TestHandoff:
    """Each job and reply crosses its pipe as marshal strings, each read whole."""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool needs fork")
    def test_a_reply_is_read_in_at_most_4_calls(self, wide, forks, monkeypatch):
        # marshal.load reads an int from a file one 15-bit digit at a time:
        # this reply of 520 ints of 512 bits would take 19,061 calls.
        kp, data, _ = wide
        monkeypatch.setattr(_pool, "_slices", lambda work: 2)
        key = PublicKey(65537, kp.public.n)
        plain = codec.encode(data, key.n, CODEC_CHUNKED).blocks
        assert len(set(plain)) == 1041  # 521 values for the caller, 520 for the worker
        expected = tuple(pow(m, 65537, key.n) for m in plain)
        assert cipher._map_distinct(plain, key) == expected  # forks the worker
        pid, jobs, results = _pool._workers[0]
        reader = _CountingReader(results)
        _pool._workers[0] = pid, jobs, reader
        assert cipher._map_distinct(plain, key) == expected
        assert 0 < reader.calls <= 4
        assert [pid for pid, _, _ in _pool._workers] == forks
        assert_no_children(forks)

    @pytest.mark.parametrize("extra", [0, 1, 999])
    def test_a_message_past_the_cut_goes_as_several_strings(self, monkeypatch, extra):
        monkeypatch.setattr(_pool, "_STRING_CUT", 1000)
        message = bytes(range(256)) * 16
        message = message[: 3000 + extra - len(marshal.dumps(message[:0]))]
        file = io.BytesIO()
        _pool._write(file, message)
        file.seek(0)
        strings = []
        while file.tell() < len(file.getvalue()):
            strings.append(marshal.load(file))
        assert list(map(len, strings)) == [1000, 1000, 1000, extra]  # the last one short
        file.seek(0)
        assert _pool._read(file) == message
        assert file.tell() == len(file.getvalue())

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool needs fork")
    def test_messages_past_the_cut_cross_whole(self, wide, forks, monkeypatch):
        kp, data, encrypted = wide
        monkeypatch.setattr(_pool, "_STRING_CUT", 4096)  # before any worker forks
        parent, dump, sent = os.getpid(), marshal.dump, []

        def sending(value, file):
            if os.getpid() == parent:
                sent.append(len(value))
            return dump(value, file)

        monkeypatch.setattr(marshal, "dump", sending)
        assert decrypt_message(encrypted, kp.private) == data
        assert len(forks) == 2
        assert sent.count(4096) >= 2 * 5  # each job is 24 KB or more
        assert len(_pool._workers) == 2  # no reply failed
        assert_no_children(forks)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool needs fork")
    def test_a_job_and_reply_past_a_pipe_buffer_cross_in_order(self, forks, monkeypatch):
        monkeypatch.setattr(_pool, "_slices", lambda work: 2)
        key = PublicKey(3, 4294967291 * 4294967279)  # two 32-bit primes
        blocks = tuple(range(2**63, 2**63 + 200_000))
        expected = tuple(pow(m, 3, key.n) for m in blocks)
        for half in blocks[100_000:], expected[100_000:]:  # the worker's job and reply
            assert len(marshal.dumps(half)) > 2**20
        assert cipher._map_distinct(blocks, key) == expected
        assert len(forks) == 1
        assert len(_pool._workers) == 1  # the reply passed its length check
        assert_no_children(forks)


@pytest.fixture
def caller_stat(monkeypatch, tmp_path):
    """The caller's /proc/<pid>/stat as _pool reads it, patched before any
    worker forks: caller_stat(cpu) writes a line whose field 39, the CPU the
    caller last ran on, is cpu (past a name holding ") "); caller_stat(None)
    leaves no file to read."""
    path, caller, real = tmp_path / "stat", f"/proc/{os.getpid()}/stat", open
    monkeypatch.setattr(_pool, "open", lambda file, *args: real(
        path if file == caller else file, *args), raising=False)

    def write(cpu):
        if cpu is None:
            path.unlink()
        else:
            path.write_bytes(b"1 (a) b) R " + b"0 " * 35 + b"%d 0 0\n" % cpu)

    return write


@pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")
                         and os.path.exists(f"/proc/{os.getpid()}/stat")),
                    reason="a worker is placed only where fork, affinity and /proc exist")
class TestPlacement:
    """Before each job a worker limits itself to the CPUs it was forked with
    less the one its caller last ran on, or runs unplaced where that cannot
    be read or set."""

    @pytest.fixture
    def stat(self, fresh_pool, caller_stat, monkeypatch):
        # Every split has two slices.
        monkeypatch.setattr(_pool, "_slices", lambda work: 2)
        yield caller_stat
        assert_no_children()

    @staticmethod
    def _split_in():
        # Two splits of the 63 rounds, each with one job for the worker: the
        # worker's pid once both have returned.
        assert is_probable_prime(2**256 - 189)
        assert not is_probable_prime((2**127 - 1) * (2**129 - 1))
        (pid, _, _), = _pool._workers
        return pid

    # The caller moves between jobs, and the worker follows: after each job
    # it is off the caller's last CPU, inside the set it was forked with.
    def test_a_worker_runs_off_the_callers_cpu(self, stat):
        forked, pids = os.sched_getaffinity(0), set()
        for cpu in sorted(forked) * 2:
            stat(cpu)
            pids.add(pid := self._split_in())
            assert os.sched_getaffinity(pid) == (forked - {cpu} if len(forked) > 1 else forked)
        assert len(pids) == 1  # one worker, placed again before each job

    @pytest.mark.parametrize("lack", ["one-cpu", "unreadable-stat", "no-setaffinity"])
    def test_unplaced_where_it_cannot_place(self, stat, monkeypatch, lack):
        getaffinity = os.sched_getaffinity
        forked = getaffinity(0)
        stat(min(forked))
        if lack == "one-cpu":  # a CPU other than the caller's, where there is one
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {max(forked)})
        elif lack == "unreadable-stat":
            stat(None)
        else:
            monkeypatch.delattr(os, "sched_setaffinity")
        for _ in range(2):
            assert getaffinity(self._split_in()) == forked


class TestCrackPrivateKey:
    def test_worked_example(self, toy_keypair):
        report = crack_private_key(toy_keypair.public)
        assert (report.p, report.q) == (1721, 1801)
        assert report.phi == 3096000
        assert report.d == 997
        assert report.method == TRIAL_DIVISION
        assert report.elapsed >= 0

    def test_small_example(self, small_keypair):
        report = crack_private_key(small_keypair.public)
        assert (report.p, report.q, report.d) == (11, 13, 17)

    def test_pollard_rho(self, toy_keypair):
        report = crack_private_key(toy_keypair.public, POLLARD_RHO)
        assert (report.p, report.q, report.d) == (1721, 1801, 997)

    @pytest.mark.parametrize("method", [TRIAL_DIVISION, POLLARD_RHO])
    def test_recovers_generated_keys(self, method):
        for seed in (1, 2, 3, 4, 5):
            kp = generate_keypair(12, seed)
            report = crack_private_key(kp.public, method)
            assert report.d == kp.private.d
            assert report.p <= report.q
            assert report.p * report.q == kp.public.n

    def test_pollard_rho_scales_past_trial_division_comfort(self):
        kp = generate_keypair(32, 2718)
        report = crack_private_key(kp.public, POLLARD_RHO, timeout=30.0)
        assert report.d == kp.private.d

    def test_recovers_psi12(self):
        # psi_12 = 399165290221 * 798330580441 fools the 12 bases 2..37
        report = crack_private_key(
            PublicKey(65537, 318665857834031151167461), POLLARD_RHO, timeout=30
        )
        assert (report.p, report.q) == (399165290221, 798330580441)

    def test_prime_modulus_rejected(self):
        with pytest.raises(NotSemiprime):
            crack_private_key(PublicKey(e=3, n=101))

    @pytest.mark.parametrize("timeout", [math.nan, math.inf, -math.inf, 0, -1.0])
    def test_timeout_not_positive_and_finite_rejected(self, toy_keypair, timeout):
        with pytest.raises(InvalidArgument, match="^timeout must be positive and finite$"):
            crack_private_key(toy_keypair.public, POLLARD_RHO, timeout)

    # An int compares exactly with inf, but start + timeout would overflow.
    def test_timeout_past_the_largest_float_rejected(self, toy_keypair):
        with pytest.raises(InvalidArgument, match="^timeout must be positive and finite$"):
            crack_private_key(toy_keypair.public, POLLARD_RHO, 10**400)

    def test_prime_power_rejected(self):
        with pytest.raises(NotSemiprime):
            crack_private_key(PublicKey(e=3, n=121))

    def test_three_factor_modulus_rejected(self):
        with pytest.raises(NotSemiprime):
            crack_private_key(PublicKey(e=3, n=3 * 5 * 7))

    # The seconds spent lead the message of the timeout crack_private_key
    # raises.
    def test_timeout(self):
        kp = generate_keypair(40, 31337)
        with pytest.raises(CrackTimeout) as exc_info:
            crack_private_key(kp.public, TRIAL_DIVISION, timeout=0.05)
        assert 0.05 <= exc_info.value.elapsed < 1.0
        assert exc_info.value.method == TRIAL_DIVISION
        message = str(exc_info.value)
        assert message.startswith(f"timed out after {exc_info.value.elapsed:.3f}s: ")
        assert re.fullmatch(r"timed out after \d+\.\d{3}s: "
                            r"trial division still running at f = \d+", message)

    def test_timeout_pollard_rho(self):
        kp = generate_keypair(64, 31337)
        with pytest.raises(CrackTimeout) as exc_info:
            crack_private_key(kp.public, POLLARD_RHO, timeout=0.05)
        assert 0.05 <= exc_info.value.elapsed < 1.0
        assert exc_info.value.method == POLLARD_RHO
        message = str(exc_info.value)
        assert message.startswith(f"timed out after {exc_info.value.elapsed:.3f}s: ")
        assert re.fullmatch(r"timed out after \d+\.\d{3}s: "
                            r"pollard-rho still cycling at r = \d+", message)

    # 10**4400 + 1 has more decimal digits than str() writes by default, so
    # no key file could hold it; the attack refuses it before any arithmetic.
    @pytest.mark.parametrize("method", METHODS)
    def test_modulus_past_digit_limit_refused(self, monkeypatch, method):
        def untouched(*args):
            raise AssertionError("arithmetic on n")

        monkeypatch.setattr(cipher, "is_probable_prime", untouched)
        monkeypatch.setitem(cipher._FACTOR_METHODS, method, untouched)
        with pytest.raises(KeyTooLarge, match="^a 14617-bit modulus "):
            crack_private_key(PublicKey(3, 10**4400 + 1), method)

    # _require_printable lets a negative n through; its message writes n by
    # its width, as str() cannot write it.
    @pytest.mark.parametrize("method", METHODS)
    def test_negative_modulus_past_digit_limit_refused(self, low_digit_limit, method):
        with pytest.raises(NotSemiprime, match="^<negative 16610-bit number> is not a "
                                               "product of two distinct primes$"):
            crack_private_key(PublicKey(3, -(10**5000)), method)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("bits", [12, 20, 28])
    def test_agrees_with_cryptography_recovery(self, bits, method):
        rsa = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.rsa")
        # Seed 3 gives the 28-bit key with the smallest p of seeds 1-3, so
        # trial division there takes seconds, not tens of seconds.
        kp = generate_keypair(bits, 3)
        e, n = kp.public.e, kp.public.n
        report = crack_private_key(kp.public, method, timeout=60.0)
        assert tuple(sorted(rsa.rsa_recover_prime_factors(n, e, kp.private.d))) == (
            report.p, report.q)
        assert tuple(sorted(rsa.rsa_recover_prime_factors(n, e, report.d))) == (
            report.p, report.q)

    # A prime n makes every rho cycle close with gcd = n, so without the
    # check the loop would bump c forever; the deadline keeps a regression
    # from hanging the suite.
    @pytest.mark.parametrize("n", [-15, 0, 1, 2, 3, 1000003, 2**61 - 1])
    def test_pollard_rho_needs_a_composite(self, n):
        with pytest.raises(NoFactor):
            cipher._pollard_rho_factor(n, perf_counter() + 1.0)

    def test_pollard_rho_writes_an_unwritable_n_by_its_width(self, low_digit_limit):
        with pytest.raises(NoFactor, match="^<negative 16610-bit number> is not composite, "
                                           "so rho has no factor to find$"):
            cipher._pollard_rho_factor(-(10**5000), None)

    def test_pollard_rho_splits_every_small_composite(self):
        for n in range(4, 3000):
            if smallest_factor(n) != n:
                f = cipher._pollard_rho_factor(n, perf_counter() + 1.0)
                assert 1 < f < n and n % f == 0

    # The exact factor rho returns pins its walk: the gcd batches, the
    # backtrack from the batch checkpoint and the c restarts.  The moduli
    # are generate_keypair(16, seed).public.n for seeds 1, 5 and 22.
    @pytest.mark.parametrize("n, factor", [
        (2251826491, 43987),  # the batch gcd overshoots; the backtrack splits n
        (1911058337, 49727),  # the larger of the two primes
        (1756364041, 48611),  # after a c restart
        (245, 35),  # a composite factor
        (143, 11),  # after a c restart
        (15, 3),  # in the one-step batch at r = 1, shorter than a group of four
    ])
    def test_pollard_rho_walk_is_pinned(self, n, factor):
        assert cipher._pollard_rho_factor(n, None) == factor

    # The first clock read follows the one step at r = 1, the second the
    # gcd batch after it; without the batch read the walk would go on to
    # r = 2 before it saw the deadline.
    def test_pollard_rho_reads_the_clock_after_each_gcd_batch(self, monkeypatch):
        reads = []

        def clock():
            reads.append(None)
            return 0.0 if len(reads) == 1 else 2.0

        monkeypatch.setattr(cipher, "perf_counter", clock)
        n = generate_keypair(64, 31337).public.n
        with pytest.raises(CrackTimeout, match=r"^pollard-rho still cycling at r = 1$"):
            cipher._pollard_rho_factor(n, 1.0)
        assert len(reads) == 2

    def test_unknown_method(self, toy_keypair):
        with pytest.raises(ValueError):
            crack_private_key(toy_keypair.public, "quantum")

    def test_exponent_not_coprime_to_phi(self):
        # 91 = 7 * 13 factors, but phi = 72 shares 3 with e, so no d exists.
        with pytest.raises(NotCoprime, match=r"^no inverse: gcd\(3, 72\) = 3 != 1$"):
            crack_private_key(PublicKey(3, 91))


def _exit_mid_race(walk, n, deadline, k, m, lost):
    return walk(n, deadline, k, m, lambda: os._exit(1))


def _exit_mid_race_on_walk_1(walk, n, deadline, k, m, lost):
    return walk(n, deadline, k, m, lambda: os._exit(1) if k == 1 else lost())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="walks race only where fork exists")
class TestRhoRace:
    """A long enough rho walk races one walk per CPU the process may use;
    the first factor wins."""

    def test_the_line(self, three_cpus):
        def entrants(n):
            return _pool._slices(math.isqrt(math.isqrt(n)) * cipher._RHO_STEP_WORK)

        assert (entrants(2**40 - 1), entrants(2**40), entrants(2**44)) == (1, 2, 3)
        # the textbook key and every key of 20-bit primes or fewer stay serial
        assert entrants(1721 * 1801) == entrants(2**32) == entrants(2**40 - 1) == 1
        assert_no_children()

    # One walk per CPU the process may use (CPUs 0 to cpus - 1), whichever
    # CPU the caller last ran on: the caller walks, each worker only off the
    # caller's CPU, and the workers an earlier split forked stay for the
    # next: a rho race and a 256-bit search drop none of them.  On one CPU
    # the caller walks alone.
    @pytest.mark.parametrize("cpu, cpus", [(1, 3), (2, 2), (3, 1), (9, 1)])
    def test_walks_only_on_idle_cpus(self, forks, caller_stat, monkeypatch, cpu, cpus):
        import posix  # whose sched_getaffinity, unlike os's here, is the real one

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        caller_stat(cpu)
        kp = generate_keypair(24, 13)
        assert crack_private_key(kp.public, POLLARD_RHO, 30.0).d == kp.private.d
        assert len(forks) == cpus - 1
        assert is_probable_prime(2**256 - 189)  # a split over the same processes
        pooled = [pid for pid, _, _ in _pool._workers]
        assert pooled == forks
        assert crack_private_key(kp.public, POLLARD_RHO, 30.0).d == kp.private.d
        rng = Rng64(1)
        assert (gen_prime(256, rng), rng.state) == SEED_1_PRIME_256  # the serial loop's
        assert [pid for pid, _, _ in _pool._workers] == pooled
        assert len(forks) == cpus - 1
        # A worker whose set less the caller's CPU meets the CPUs it may
        # really use is placed there, off the caller's CPU.
        real = posix.sched_getaffinity(0) if hasattr(posix, "sched_setaffinity") else set()
        if (set(range(cpus)) - {cpu}) & real:
            for pid in pooled:
                assert cpu not in posix.sched_getaffinity(pid)
        assert_no_children(forks)

    def test_keys_below_the_line_never_fork(self, toy_keypair, no_fork):
        report = crack_private_key(toy_keypair.public, POLLARD_RHO)
        assert (report.p, report.q, report.d) == (1721, 1801, 997)
        for bits in (16, 20):
            kp = generate_keypair(bits, 3)
            assert crack_private_key(kp.public, POLLARD_RHO).d == kp.private.d
        assert_no_children()

    # Whichever walk finds the factor, the report orders p < q.
    def test_same_report_raced_or_not(self, three_cpus, monkeypatch):
        keys = [generate_keypair(24, seed).public for seed in range(1, 33)]

        def reports(slices):
            monkeypatch.setattr(_pool, "_slices", lambda work: slices)
            return [replace(crack_private_key(pk, POLLARD_RHO, 30.0), elapsed=0.0)
                    for pk in keys]

        serial = reports(1)
        assert reports(2) == serial
        _pool.stop()  # the worker forked next runs the rigged walk
        rig_walk(monkeypatch, cipher, "_rho_walk", in_caller=walk_once_lost)
        assert reports(2) == serial  # every factor found by the worker
        assert_no_children()

    # More walks than cores: each race reads every reply before it returns,
    # so no worker is ever dropped for a reply out of turn.
    def test_six_walks_on_fewer_cores(self, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
        keys = [generate_keypair(24, seed) for seed in range(40, 72)]
        for kp in keys:
            assert crack_private_key(kp.public, POLLARD_RHO, 30.0).d == kp.private.d
        assert len(forks) == 5
        assert [pid for pid, _, _ in _pool._workers] == forks
        assert_no_children(forks)

    # The same, with walk 1's worker dying mid-race on every key: each race
    # drops and reaps that worker alone, redoes its walk in the caller, and
    # the next race forks a successor.
    def test_six_walks_on_fewer_cores_one_dying_each_race(self, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
        rig_walk(monkeypatch, cipher, "_rho_walk", _exit_mid_race_on_walk_1)
        keys = [generate_keypair(24, seed) for seed in range(40, 72)]
        start = perf_counter()
        for dropped, kp in enumerate(keys, 1):
            assert crack_private_key(kp.public, POLLARD_RHO, 30.0).d == kp.private.d
            assert len(forks) - len(_pool._workers) == dropped  # walk 1's alone
        assert perf_counter() - start < 10
        assert 1 < len(_pool._workers) <= 5
        assert_no_children(forks)

    # Whichever walk wins, the race has read every worker's reply and
    # cleared the flag by the time it returns: nothing waits in a pipe.
    @pytest.mark.parametrize("in_worker, in_caller", [
        (walk_once_lost, None),
        (None, walk_once_lost),
    ], ids=["caller-wins", "worker-wins"])
    def test_no_job_outlives_a_race(self, forks, monkeypatch, in_worker, in_caller):
        rig_walk(monkeypatch, cipher, "_rho_walk", in_worker, in_caller)
        kp = generate_keypair(24, 5)
        assert crack_private_key(kp.public, POLLARD_RHO, 30.0).d == kp.private.d
        sleep(0.2)
        assert select.select([results for _, _, results in _pool._workers], [], [], 0)[0] == []
        assert _pool._flag[0] == 0
        assert [pid for pid, _, _ in _pool._workers] == forks
        assert len(forks) == 2
        assert_no_children(forks)

    @pytest.mark.parametrize("in_worker, in_caller, garbled", [
        (_exit_mid_race, None, False),
        (lambda walk, n, *args: 1, walk_once_lost, False),
        (lambda walk, n, *args: n, walk_once_lost, False),
        (lambda walk, n, *args: "3", walk_once_lost, False),
        (lambda walk, n, *args: 3, walk_once_lost, True),
    ], ids=["exits-mid-race", "one", "n", "not-an-int", "undecodable"])
    def test_failed_workers_are_dropped_and_the_key_still_cracks(self, forks, monkeypatch,
                                                                in_worker, in_caller, garbled):
        if garbled:
            parent, dump = os.getpid(), marshal.dump
            monkeypatch.setattr(marshal, "dump", lambda value, file: dump(value, file)
                                if os.getpid() == parent else file.write(b"not marshal"))
        rig_walk(monkeypatch, cipher, "_rho_walk", in_worker, in_caller)
        kp = generate_keypair(24, 11)
        for _ in range(2):  # every failed worker is dropped, then replaced
            assert crack_private_key(kp.public, POLLARD_RHO, 30.0).d == kp.private.d
            assert _pool._workers == []
        assert len(forks) == 4
        assert_no_children(forks)

    # A dead worker's walk is redone in the caller once walk 0 has returned:
    # it stops at its first poll, one step in.
    def test_a_dropped_walk_is_redone_in_the_caller(self, forks, monkeypatch):
        redone = []

        def in_caller(walk, n, deadline, k, m, lost):
            if k == 0:
                return walk(n, deadline, k, m, lost)
            polls = []

            def polled():
                polls.append(lost())
                return polls[-1]

            redone.append((k, walk(n, deadline, k, m, polled), polls))
            return redone[-1][1]

        rig_walk(monkeypatch, cipher, "_rho_walk", _exit_mid_race, in_caller)
        kp = generate_keypair(24, 11)
        assert crack_private_key(kp.public, POLLARD_RHO, 30.0).d == kp.private.d
        assert redone == [(1, None, [True]), (2, None, [True])]
        assert (_pool._workers, _pool._flag[0]) == ([], 0)
        assert len(forks) == 2
        assert_no_children(forks)

    # No result passes: every worker is dropped, and the caller walks k = 0
    # again from the start, alone, to the serial report.
    def test_no_valid_result_walks_alone(self, forks, monkeypatch):
        pk = generate_keypair(24, 11).public
        with monkeypatch.context() as m:
            m.setattr(_pool, "_slices", lambda work: 1)
            serial = replace(crack_private_key(pk, POLLARD_RHO, 30.0), elapsed=0.0)
        assert forks == []
        walks = rig_walk(monkeypatch, cipher, "_rho_walk", lambda walk, n, *args: 1,
                         walk_once_lost)
        assert replace(crack_private_key(pk, POLLARD_RHO, 30.0), elapsed=0.0) == serial
        assert walks == [(0, 3, None), (0, 1, serial.p)]
        assert (_pool._workers, _pool._flag) == ([], None)
        assert len(forks) == 2
        assert_no_children(forks)

    # No process to spare: the caller walks every index itself, and the
    # first factor stops the rest at their first poll.
    def test_no_process_to_spare(self, three_cpus, monkeypatch):
        def fork():
            raise OSError("no process to spare")

        monkeypatch.setattr(os, "fork", fork)
        walks = rig_walk(monkeypatch, cipher, "_rho_walk")
        kp = generate_keypair(24, 11)
        assert crack_private_key(kp.public, POLLARD_RHO, 30.0).d == kp.private.d
        assert [(k, f is None) for k, _, f in walks] == [(0, False), (1, True), (2, True)]
        assert (_pool._workers, _pool._flag[0]) == ([], 0)
        assert_no_children()

    def test_timeout_then_a_race_and_a_split(self, forks):
        pk = generate_keypair(64, 31337).public
        start = perf_counter()
        with pytest.raises(CrackTimeout):
            crack_private_key(pk, POLLARD_RHO, 0.2)
        assert perf_counter() - start < 0.2 + 0.5
        assert len(forks) == 2
        assert (_pool._workers, _pool._flag) == ([], None)  # killed
        kp = generate_keypair(24, 5)
        assert crack_private_key(kp.public, POLLARD_RHO, 30.0).d == kp.private.d
        raced = [pid for pid, _, _ in _pool._workers]
        assert len(raced) == 2
        # 63 Miller-Rabin rounds at 256 bits: a split over the same workers,
        # which the race left with every reply read and its flag cleared
        assert is_probable_prime(2**256 - 189)
        assert not is_probable_prime((2**127 - 1) * (2**129 - 1))
        assert [pid for pid, _, _ in _pool._workers] == raced
        assert _pool._flag[0] == 0
        assert len(forks) == 4
        assert_no_children(forks)

    def test_serial_crack_straight_after_a_race(self, forks, toy_keypair):
        kp = generate_keypair(24, 7)
        assert crack_private_key(kp.public, POLLARD_RHO, 30.0).d == kp.private.d
        report = crack_private_key(toy_keypair.public, POLLARD_RHO, 30.0)
        assert (report.p, report.q, report.d) == (1721, 1801, 997)
        for seed in range(1, 6):
            kp = generate_keypair(16, seed)
            assert crack_private_key(kp.public, POLLARD_RHO, 30.0).d == kp.private.d
        assert _pool._flag[0] == 0
        assert len(forks) == 2
        assert_no_children(forks)

    def test_a_winning_caller_stops_the_workers(self, forks, monkeypatch):
        # The workers walk a 64-bit-prime key, for 20 s at most; the caller
        # "finds" p at once, and the next race must not wait for their walks.
        kp = generate_keypair(64, 31337, retain_provenance=True)
        p = kp.private.crt[0]
        rig_walk(monkeypatch, cipher, "_rho_walk", in_caller=lambda walk, n, deadline, k, m, lost:
                 walk(n, deadline, k, m, lost) if k else p)
        assert crack_private_key(kp.public, POLLARD_RHO, 20.0).d == kp.private.d
        raced = [pid for pid, _, _ in _pool._workers]
        start = perf_counter()
        assert crack_private_key(kp.public, POLLARD_RHO, 20.0).d == kp.private.d
        assert perf_counter() - start < 1
        assert [pid for pid, _, _ in _pool._workers] == raced
        assert len(forks) == 2
        assert_no_children(forks)

    def test_error_in_the_callers_walk_kills_the_workers(self, forks, monkeypatch):
        # The workers walk a 64-bit-prime key, for 20 s at most; the caller
        # fails 0.1 s in and must not wait for them.
        def failing():
            sleep(0.1)
            raise RuntimeError("the caller's walk failed")

        rig_walk(monkeypatch, cipher, "_rho_walk", in_caller=lambda walk, n, deadline, k, m, lost:
                 walk(n, deadline, k, m, failing if k == 0 else lost))
        pk = generate_keypair(64, 31337).public
        start = perf_counter()
        with pytest.raises(RuntimeError, match="^the caller's walk failed$"):
            crack_private_key(pk, POLLARD_RHO, 20.0)
        assert perf_counter() - start < 5
        assert len(forks) == 2
        assert _pool._workers == []
        assert_no_children(forks)


def _least_prime_factors(limit):
    spf = list(range(limit))
    for f in range(2, math.isqrt(limit - 1) + 1):
        if spf[f] == f:
            for m in range(f * f, limit, f):
                if spf[m] == m:
                    spf[m] = f
    return spf


class TestSmallestFactor:
    @pytest.mark.parametrize("n", [1, 0, -1, -9, -(2**70)])
    def test_below_two_rejected(self, n):
        with pytest.raises(NoFactor, match=f"^{n} has no prime factor"):
            smallest_factor(n)

    def test_matches_sieve_below_50000(self):
        spf = _least_prime_factors(50_000)
        assert [smallest_factor(n) for n in range(2, 50_000)] == spf[2:]

    def test_matches_sympy_on_random_semiprimes(self):
        sympy = pytest.importorskip("sympy")
        rnd = random.Random(20240501)
        for _ in range(20):
            bits = rnd.randrange(15, 21)  # bits per prime: 30-40-bit n
            p = sympy.nextprime(rnd.getrandbits(bits) | 1 << (bits - 1))
            q = sympy.nextprime(rnd.getrandbits(bits) | 1 << (bits - 1))
            n = p * q
            assert smallest_factor(n) == min(sympy.factorint(n))

    # Below 10^13, isqrt(n) reaches past the table's 2^20, so an n with no
    # factor in the table goes on to the wheel.
    def test_matches_sympy_on_random_n_across_the_cap(self):
        sympy = pytest.importorskip("sympy")
        rnd = random.Random(20261018)
        for _ in range(3000):
            n = rnd.randrange(2, 10**13)
            assert smallest_factor(n) == min(sympy.factorint(n))

    # The table holds the primes below 2^20; past it the wheel starts at
    # f = 2^20 + 1 = 6k - 1, whose pair (1048577 = 17 * 61681, 1048579 =
    # 7 * 163 * 919) holds no prime, so 1048583 and 1048589 are the first
    # primes the wheel meets.  1048573 is the last prime in the table.
    @pytest.mark.parametrize("p", [1048573, 1048583, 1048589])
    @pytest.mark.parametrize("q", [1048573, 1048583, 1048589])
    def test_primes_next_to_the_cap(self, p, q):
        assert cipher._WHEEL_START == 1048577 == 2**20 + 1
        assert smallest_factor(p) == p
        assert smallest_factor(p * q) == min(p, q)

    def test_table_stops_at_the_cap(self):
        n = generate_keypair(80, 20261018).public.n
        with pytest.raises(CrackTimeout):
            smallest_factor(n, perf_counter() + 0.05)
        assert len(cipher._prime_table[1]) <= 82025  # pi(2^20)
        # A prime n below the cap sits in the full table, so the gcd with its
        # run of primes is n, yet no prime up to isqrt(n) divides it.
        small = (4, 9, 15, 49, 9409, 84017**2, 7, 97, 719, 727, 1048573)
        assert [smallest_factor(m) for m in small] == [
            2, 3, 3, 7, 97, 84017, 7, 97, 719, 727, 1048573]

    # One gcd tests each run of 128 table primes.  The first five primes
    # below sit next to 2^14, 2^15 and 2^16; the next four at the chunk
    # edges of a 6k +- 1 wheel run from f = 5; the next four at table slots
    # 8191 and 8192 (84017, 84047), 16383 and 16384 (180503, 180511), which
    # are run edges, as 128 divides 8192; the last two pairs straddle the
    # first two run edges: slots 127 and 128 (719, 727), 255 and 256
    # (1619, 1621).
    @pytest.mark.parametrize("p, next_p", [
        (16381, 16411), (16411, 16417), (32749, 32771), (32771, 32779),
        (65537, 65539),
        (73727, 73751), (147457, 147481), (49157, 49169), (122887, 122891),
        (84017, 84047), (84047, 84053), (180503, 180511), (180511, 180533),
        (719, 727), (1619, 1621),
    ])
    def test_primes_next_to_chunk_edges(self, p, next_p):
        assert smallest_factor(p) == p
        assert smallest_factor(next_p) == next_p
        assert smallest_factor(p * p) == p
        assert smallest_factor(p * next_p) == p
        assert smallest_factor(next_p * next_p) == next_p

    # The table walk reads no clock, as the table build before it reads
    # none, so a least factor in the table is found after the deadline.
    def test_table_walk_reads_no_clock(self):
        assert smallest_factor(180511 * 180533, perf_counter() - 1) == 180511

    # The wheel reads the clock once per 8192 divisions, the first time
    # at f = 2^20 + 1 + 3 * 8192.
    def test_wheel_reads_the_clock(self):
        n = generate_keypair(24, 5).public.n
        with pytest.raises(CrackTimeout, match=r"^trial division still running at f = 1073153$"):
            smallest_factor(n, perf_counter() - 1)

    def test_table_chunk_edges(self):
        table, products = cipher._primes_below(2**18)
        assert (table[8191], table[8192]) == (84017, 84047)
        assert (table[16383], table[16384]) == (180503, 180511)
        assert (table[127], table[128]) == (719, 727)
        assert (table[255], table[256]) == (1619, 1621)
        assert products[1] == math.prod(table[128:256])
        assert len(products) == -(-len(table) // 128)


class TestCrackBenchmark:
    def test_rows_and_summary(self):
        trials = crack_benchmark([8, 12], seed=5, trials=3)
        assert len(trials) == 6
        assert [t.bits_per_prime for t in trials] == [8, 8, 8, 12, 12, 12]
        assert [t.trial for t in trials] == [1, 2, 3, 1, 2, 3]
        assert all(t.solved for t in trials)
        summary = benchmark_summary(trials)
        assert [row[0] for row in summary] == [8, 12]
        assert all(row[2] == 3 for row in summary)

    def test_empty(self):
        assert crack_benchmark([], seed=5) == []
        assert benchmark_summary([]) == []

    @pytest.mark.parametrize("trials", [0, -2])
    def test_fewer_than_one_trial_rejected(self, trials):
        with pytest.raises(InvalidArgument, match=f"^trials must be at least 1, got {trials}$"):
            crack_benchmark([8], seed=5, trials=trials)

    @pytest.mark.parametrize("bits_list", [[], [8]])
    def test_bad_timeout_rejected_before_any_key(self, bits_list, monkeypatch):
        monkeypatch.setattr(cipher, "generate_keypair", None)  # calling it fails
        with pytest.raises(InvalidArgument, match="^timeout must be positive and finite$"):
            crack_benchmark(bits_list, seed=5, timeout=math.nan)

    @pytest.mark.parametrize("bits_list", [[3], [8, 3], [8, -1]])
    def test_width_below_4_rejected_before_any_key(self, bits_list, monkeypatch):
        monkeypatch.setattr(cipher, "generate_keypair", None)  # calling it fails
        with pytest.raises(BitsTooSmall, match="^each bit width must be at least 4$"):
            crack_benchmark(bits_list, seed=5)

    def test_timeout_recorded_not_raised(self):
        trials = crack_benchmark([8, 40], seed=5, timeout=0.05, trials=1)
        assert len(trials) == 2
        assert trials[0].solved
        assert not trials[1].solved
        assert trials[1].elapsed >= 0.05

    def test_csv_format(self):
        trials = crack_benchmark([8], seed=9, trials=3)
        text = benchmark_csv(trials)
        lines = text.splitlines()
        assert lines[0] == BENCHMARK_CSV_HEADER
        assert len(lines) == 4
        for line in lines[1:]:
            assert re.fullmatch(
                r"8,trial-division,[1-3],\d+\.\d{6},(true|false)", line
            )
        assert text.endswith("\n")
