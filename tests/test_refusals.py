"""Every library refusal is typed: a numeric public callable given any int
either returns or raises a class of :mod:`rsa_primer.errors`.  A wrong type
may raise ``TypeError``; nothing else may escape."""

import math
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsa_primer.cipher import (
    crack_benchmark,
    crack_private_key,
    decrypt_block,
    decrypt_message,
    encrypt_block,
    smallest_factor,
)
from rsa_primer.codec import (
    CODEC_TOY_ASCII,
    BlockSeq,
    block_seq,
    chunk_size_for,
    decimal_digits,
    decode,
    decode_chunked,
    decode_toy_ascii,
    encode,
    encode_chunked,
    encode_toy_ascii,
    format_plain_blocks,
)
from rsa_primer.errors import Error, InvalidArgument, ModulusTooSmallForCodec
from rsa_primer.keys import (
    KeyPair,
    PrivateKey,
    Provenance,
    PublicKey,
    generate_keypair,
    format_keypair,
    format_public_key,
    keypair_from_primes,
    validate_keypair,
)
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
    totient_bruteforce,
    totient_of_semiprime,
)

# The edges of every rule: signs, 0 and 1, the least prime width, the ends
# of a 64-bit seed, a number past any float, and one str() cannot write.
EDGES = (-(10**5000), -(2**64), -1, 0, 1, 2, 3, 4, 2**64 - 1, 2**64, 10**400)
INTS = st.one_of(st.sampled_from(EDGES), st.integers(-100, 100))

TOY = keypair_from_primes(1721, 1801, 1012333, retain_provenance=True)


def _crack_benchmark(seed, trials):
    # Past 3 trials no width is given, so the call makes no key: a huge
    # count is only ever refused or run over nothing.
    return crack_benchmark([8] if trials <= 3 else [], seed, trials=trials)


# callable -> (how many ints it takes, how to call it with them)
CALLABLES = {
    "mod_reduce": (2, mod_reduce),
    "is_congruent": (3, is_congruent),
    "mod_pow": (3, mod_pow),
    "gcd": (2, gcd),
    "extended_gcd": (2, extended_gcd),
    "mod_inverse": (2, mod_inverse),
    "totient_of_semiprime": (2, totient_of_semiprime),
    "totient_bruteforce": (1, totient_bruteforce),
    "is_probable_prime": (1, is_probable_prime),
    "Rng64": (1, Rng64),
    "gen_prime": (1, lambda bits: gen_prime(bits, Rng64(1))),
    "generate_keypair": (3, generate_keypair),
    "keypair_from_primes": (3, keypair_from_primes),
    "encrypt_block": (1, lambda m: encrypt_block(m, TOY.public)),
    "decrypt_block": (1, lambda c: decrypt_block(c, TOY.private)),
    "chunk_size_for": (1, chunk_size_for),
    "decimal_digits": (1, decimal_digits),
    "encode_toy_ascii": (1, lambda n: encode_toy_ascii(b"Tue 7PM", n)),
    "encode_chunked": (1, lambda n: encode_chunked(b"Tue 7PM", n)),
    "smallest_factor": (1, lambda n: smallest_factor(n, perf_counter() + 0.05)),
    "crack_private_key": (1, lambda t: crack_private_key(TOY.public, timeout=t)),
    "crack_benchmark": (2, _crack_benchmark),
}


@pytest.mark.parametrize("name", CALLABLES)
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_only_typed_errors_escape(name, data):
    arity, call = CALLABLES[name]
    args = data.draw(st.tuples(*[INTS] * arity))
    try:
        call(*args)
    except (Error, TypeError):
        pass


# Each of the library's ten ValueError refusals is an InvalidArgument, an
# Error too, so that cli.main reports it with exit code 2.
_CHUNKED = encode_chunked(b"x", TOY.public.n)
_UNKNOWN = block_seq((1,), "base64", TOY.public.n)


@pytest.mark.parametrize("call", [
    lambda: mod_reduce(-1, 5),
    lambda: Rng64(1 << 64),
    lambda: encrypt_block(-7, TOY.public),
    lambda: decrypt_message(_CHUNKED, TOY.private, CODEC_TOY_ASCII),
    lambda: crack_private_key(TOY.public, "quantum"),
    lambda: decode_toy_ascii(_CHUNKED),
    lambda: decode_chunked(encode_toy_ascii(b"x", TOY.public.n)),
    lambda: format_plain_blocks(_CHUNKED),
    lambda: encode(b"x", TOY.public.n, "base64"),
    lambda: decode(_UNKNOWN),
], ids=["natural", "seed", "block", "codec-mismatch", "method", "toy-ascii-id",
        "chunked-id", "plain-id", "encode-id", "decode-id"])
def test_former_value_errors_are_invalid_arguments(call):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert info.value.exit_code == 2


# A refusal message writes a number str() cannot write as its width, so
# that building the message never raises a bare ValueError of its own.
HUGE = 10**5000


@pytest.mark.parametrize("call, width", [
    (lambda: mod_reduce(-HUGE, 5), "negative 16610"),
    (lambda: Rng64(HUGE), "16610"),
    (lambda: mod_inverse(2 * HUGE, 4), "16611"),
    (lambda: totient_of_semiprime(HUGE, 3), "16610"),
    (lambda: totient_of_semiprime(3, HUGE), "16610"),
    (lambda: totient_bruteforce(HUGE), "16610"),
    (lambda: smallest_factor(-HUGE), "negative 16610"),
    (lambda: chunk_size_for(-HUGE), "negative 16610"),
    (lambda: encode_toy_ascii(b"", -HUGE), "negative 16610"),
    (lambda: gen_prime(HUGE, Rng64(1)), "16610"),
    (lambda: gen_prime(-HUGE, Rng64(1)), "negative 16610"),
    (lambda: generate_keypair(-HUGE, 1), "negative 16610"),
], ids=["natural", "seed", "inverse", "p", "q", "totient", "factor", "chunked",
        "toy-ascii", "prime-width", "negative-prime-width", "negative-key-width"])
def test_messages_write_an_unwritable_number_as_its_width(low_digit_limit, call, width):
    with pytest.raises(Error, match=f"<{width}-bit number>"):
        call()


def test_validation_finding_writes_an_unwritable_factor_as_its_width(low_digit_limit):
    kp = KeyPair(PublicKey(3, 15), PrivateKey(3, 15), Provenance(HUGE, 5, 8))
    assert "p = <16610-bit number> is not prime" in validate_keypair(kp)


# A wrong type raises TypeError naming the argument, before a domain rule
# can misread it: a float modulus is no modulus too small for a codec, and
# a float width or exponent no number for range() or a shift.
@pytest.mark.parametrize("call, message", [
    (lambda: chunk_size_for(1.5), "n must be an int, got float"),
    (lambda: chunk_size_for(math.nan), "n must be an int, got float"),
    (lambda: encode_chunked(b"ab", 1.5), "n must be an int, got float"),
    (lambda: encode_toy_ascii(b"ab", 1.5), "n must be an int, got float"),
    (lambda: format_keypair(None), "kp must be a KeyPair, got NoneType"),
    (lambda: validate_keypair(None), "kp must be a KeyPair, got NoneType"),
    (lambda: validate_keypair(TOY.public), "kp must be a KeyPair, got PublicKey"),
    (lambda: gen_prime(64.0, Rng64(1)), "bits must be an int, got float"),
    (lambda: generate_keypair(16.0, 1), "bits_per_prime must be an int, got float"),
    (lambda: generate_keypair(16, 1, e=65537.0), "e must be an int, got float"),
    (lambda: keypair_from_primes(11, 13, 7.0), "e must be an int, got float"),
    (lambda: smallest_factor("35"), "n must be an int, got str"),
    (lambda: crack_private_key(TOY.public, timeout="1"),
     "timeout must be an int or a float, got str"),
    (lambda: crack_benchmark([16.0], 1), "each bit width must be an int, got float"),
    (lambda: crack_benchmark([16], 1, trials="3"), "trials must be an int, got str"),
    # A record's int field is refused where the record is built.
    (lambda: crack_private_key(PublicKey(3, 35.0)), "PublicKey.n must be an int, got float"),
    (lambda: format_public_key(PublicKey(3.0, 35)), "PublicKey.e must be an int, got float"),
    (lambda: decrypt_message(BlockSeq((1,), CODEC_TOY_ASCII, 2), PrivateKey(7, 35.0)),
     "PrivateKey.n must be an int, got float"),
    (lambda: encrypt_block(2, PublicKey(3.0, 35)), "PublicKey.e must be an int, got float"),
    (lambda: encrypt_block(2, PublicKey(True, 35)), "PublicKey.e must be an int, got bool"),
], ids=["chunk-size", "chunk-size-nan", "chunked", "toy-ascii", "format-pair",
        "validate-pair", "validate-public", "prime-width", "key-width", "drawn-key-e",
        "primes-e", "factor", "timeout", "benchmark-width", "trials", "crack-key-n",
        "format-key-e", "decrypt-key-n", "encrypt-key-e", "encrypt-key-e-bool"])
def test_a_wrong_type_is_refused_by_name(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


# An int keeps its refusal: the class and the message.
@pytest.mark.parametrize("call, message", [
    (lambda: chunk_size_for(255), "chunked codec needs n >= 256, got 255"),
    (lambda: encode_chunked(b"ab", -3), "chunked codec needs n >= 256, got -3"),
    (lambda: encode_toy_ascii(b"ab", 999), "toy-ascii codec needs n > 999, got 999"),
], ids=["chunk-size", "chunked", "toy-ascii"])
def test_an_int_keeps_its_refusal(call, message):
    with pytest.raises(ModulusTooSmallForCodec, match=f"^{message}$"):
        call()
