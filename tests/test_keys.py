import hashlib
import sys

import pytest

import golden
from rsa_primer import keys
from rsa_primer.errors import (
    EqualPrimes,
    InvalidPublicExponent,
    KeyTooLarge,
    MalformedKeyFile,
    NotPrime,
    ZeroState,
)
from rsa_primer.keys import (
    KeyPair,
    PrivateKey,
    Provenance,
    PublicKey,
    format_keypair,
    format_private_key,
    format_public_key,
    generate_keypair,
    keypair_from_primes,
    parse_key_file,
    private_part,
    public_part,
    validate_keypair,
)
from rsa_primer.number_theory import gcd, mod_pow


class TestKeypairFromPrimes:
    def test_worked_example(self, toy_keypair):
        assert toy_keypair.public == PublicKey(e=1012333, n=3099521)
        assert toy_keypair.private == PrivateKey(d=997, n=3099521)
        assert toy_keypair.provenance == Provenance(p=1721, q=1801, phi=3096000)

    def test_small_example(self, small_keypair):
        assert small_keypair.public == PublicKey(e=113, n=143)
        assert small_keypair.private == PrivateKey(d=17, n=143)

    def test_exponent_equal_to_phi_rejected(self):
        with pytest.raises(InvalidPublicExponent):
            keypair_from_primes(11, 13, 120)

    @pytest.mark.parametrize("e", [0, 1, 121, 500])
    def test_exponent_out_of_range_rejected(self, e):
        with pytest.raises(InvalidPublicExponent):
            keypair_from_primes(11, 13, e)

    def test_composite_rejected(self):
        with pytest.raises(NotPrime):
            keypair_from_primes(12, 13, 5)
        with pytest.raises(NotPrime):
            keypair_from_primes(13, 12, 5)

    def test_equal_primes_rejected(self):
        with pytest.raises(EqualPrimes):
            keypair_from_primes(11, 11, 7)

    def test_provenance_dropped_by_default(self):
        assert keypair_from_primes(11, 13, 113).provenance is None


class TestGenerateKeypair:
    def test_deterministic(self):
        a = generate_keypair(12, 42, retain_provenance=True)
        b = generate_keypair(12, 42, retain_provenance=True)
        assert a == b

    # The library's key file is the one keygen writes, as the golden corpus
    # pins it.
    @pytest.mark.parametrize("bits", [16, 18, 28])
    def test_pinned_key_files(self, bits):
        text = format_keypair(generate_keypair(bits, 42))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == golden.digest(
            f"keygen --bits {bits} --seed 42 --out key", "key.key")

    def test_different_seeds_differ(self):
        assert generate_keypair(16, 1) != generate_keypair(16, 2)

    def test_zero_seed_rejected(self):
        with pytest.raises(ZeroState):
            generate_keypair(8, 0)

    @pytest.mark.parametrize("seed", [1, 7, 42, 2**64 - 1])
    @pytest.mark.parametrize("bits", [4, 8, 12, 16])
    def test_key_relations(self, bits, seed):
        kp = generate_keypair(bits, seed, retain_provenance=True)
        pr = kp.provenance
        assert pr.p != pr.q
        assert pr.p.bit_length() == bits and pr.q.bit_length() == bits
        assert kp.public.n == pr.p * pr.q
        assert pr.phi == (pr.p - 1) * (pr.q - 1)
        assert 1 < kp.public.e < pr.phi
        assert gcd(kp.public.e, pr.phi) == 1
        assert 0 < kp.private.d < pr.phi
        assert kp.public.e * kp.private.d % pr.phi == 1

    def test_fixed_exponent(self):
        kp = generate_keypair(12, 9, e=65537, retain_provenance=True)
        assert kp.public.e == 65537
        assert kp.public.e * kp.private.d % kp.provenance.phi == 1

    def test_fixed_even_exponent_rejected(self):
        # phi of two odd primes is even, so an even e can never be coprime
        with pytest.raises(InvalidPublicExponent):
            generate_keypair(12, 42, e=4)

    def test_roundtrip_exhaustive_small_modulus(self):
        kp = generate_keypair(8, 11)
        n = kp.public.n
        assert n < 1 << 16
        for m in range(n):
            c = mod_pow(m, kp.public.e, n)
            assert mod_pow(c, kp.private.d, n) == m


class TestValidateKeypair:
    def test_valid_with_provenance(self, toy_keypair):
        assert validate_keypair(toy_keypair) == []

    def test_valid_without_provenance(self):
        kp = keypair_from_primes(1721, 1801, 1012333)
        assert validate_keypair(kp) == []

    def test_perturbed_d_detected(self, toy_keypair):
        broken = KeyPair(
            toy_keypair.public,
            PrivateKey(d=toy_keypair.private.d + 1, n=toy_keypair.private.n),
            toy_keypair.provenance,
        )
        findings = validate_keypair(broken)
        assert any("inverse check failed" in f for f in findings)

    def test_perturbed_d_detected_without_provenance(self, toy_keypair):
        broken = KeyPair(
            toy_keypair.public,
            PrivateKey(d=toy_keypair.private.d + 1, n=toy_keypair.private.n),
        )
        assert validate_keypair(broken) != []

    def test_modulus_mismatch_detected(self, toy_keypair, small_keypair):
        mixed = KeyPair(toy_keypair.public, small_keypair.private)
        assert validate_keypair(mixed) != []

    def test_bad_provenance_detected(self, toy_keypair):
        lying = KeyPair(
            toy_keypair.public,
            toy_keypair.private,
            Provenance(p=1721, q=1803, phi=3096000),
        )
        findings = validate_keypair(lying)
        assert any("not prime" in f for f in findings)
        assert any("p*q" in f for f in findings)

    @pytest.mark.parametrize("p,q,finding", [
        (1725, 1801, "p = 1725 is not prime"),
        (1721, 1721, "p and q are equal"),
    ])
    def test_provenance_finding(self, toy_keypair, p, q, finding):
        lying = KeyPair(toy_keypair.public, toy_keypair.private,
                        Provenance(p=p, q=q, phi=3096000))
        assert finding in validate_keypair(lying)

    def test_modulus_of_one_detected(self):
        kp = KeyPair(PublicKey(e=3, n=1), PrivateKey(d=3, n=1))
        assert validate_keypair(kp) == ["modulus must exceed 1"]


class TestCrtValues:
    def test_absent_without_provenance(self):
        assert generate_keypair(16, 42).private.crt is None
        assert keypair_from_primes(1721, 1801, 1012333).private.crt is None

    def test_kept_with_provenance(self, toy_keypair):
        assert generate_keypair(16, 42, retain_provenance=True).private.crt is not None
        # d = 997 is below both p - 1 and q - 1; 1801 * 839 = 878 * 1721 + 1
        assert toy_keypair.private.crt == (1721, 1801, 997, 997, 839)

    def test_exponents_stay_positive_when_p_is_2(self):
        # d mod (p - 1) is 0 here, and c^0 = 1 would be wrong for even c
        kp = keypair_from_primes(2, 7, 5, retain_provenance=True)
        assert kp.private.crt == (2, 7, 1, 5, 1)

    def test_invisible_to_equality_repr_and_hash(self, toy_keypair):
        plain = PrivateKey(d=997, n=3099521)
        assert toy_keypair.private == plain
        assert hash(toy_keypair.private) == hash(plain)
        assert repr(toy_keypair.private) == "PrivateKey(d=997, n=3099521)"

    def test_matches_cryptography(self):
        rsa = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.rsa")
        keys = [keypair_from_primes(p, q, e, retain_provenance=True)
                for p, q, e in ((3, 5, 3), (11, 13, 113), (1721, 1801, 1012333))]
        keys += [generate_keypair(bits, seed, retain_provenance=True)
                 for bits in (8, 32, 128) for seed in range(1, 8)]
        for kp in keys:
            p, q, dp, dq, q_inv = kp.private.crt
            d = kp.private.d
            assert dp == rsa.rsa_crt_dmp1(d, p)
            assert dq == rsa.rsa_crt_dmq1(d, q)
            assert q_inv == rsa.rsa_crt_iqmp(p, q)

    @pytest.mark.parametrize("bits", [16, 32, 64, 128, 256, 512])
    def test_cryptography_accepts_the_private_key(self, bits):
        rsa = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.rsa")
        for seed in (1, 2, 3):
            kp = generate_keypair(bits, seed, retain_provenance=True)
            p, q, dp, dq, q_inv = kp.private.crt
            public = rsa.RSAPublicNumbers(kp.public.e, kp.public.n)
            numbers = rsa.RSAPrivateNumbers(p, q, kp.private.d, dp, dq, q_inv, public)
            key = numbers.private_key()  # raises ValueError on an inconsistent key
            assert key.key_size == kp.public.n.bit_length()
            assert key.private_numbers() == numbers


GOLDEN_PUBLIC = "rsa-primer public v1\nn=3099521\ne=1012333\n"
GOLDEN_PRIVATE = "rsa-primer private v1\nn=3099521\nd=997\n"
GOLDEN_PAIR = "rsa-primer pair v1\nn=3099521\ne=1012333\nd=997\n"
GOLDEN_PAIR_FULL = GOLDEN_PAIR + "p=1721\nq=1801\nphi=3096000\n"


class TestKeyFileFormat:
    def test_format_public(self, toy_keypair):
        assert format_public_key(toy_keypair.public) == GOLDEN_PUBLIC

    def test_format_private(self, toy_keypair):
        assert format_private_key(toy_keypair.private) == GOLDEN_PRIVATE

    def test_format_pair_with_provenance(self, toy_keypair):
        assert format_keypair(toy_keypair) == GOLDEN_PAIR_FULL

    def test_format_pair_without_provenance(self):
        kp = keypair_from_primes(1721, 1801, 1012333)
        assert format_keypair(kp) == GOLDEN_PAIR

    # The writers and parse_key_file share one table of headers and fields.
    def test_writers_follow_the_field_table(self, toy_keypair):
        plain = keypair_from_primes(1721, 1801, 1012333)
        written = [
            ("public", format_public_key(toy_keypair.public), ()),
            ("private", format_private_key(toy_keypair.private), ()),
            ("pair", format_keypair(plain), ()),
            ("pair", format_keypair(toy_keypair), keys._PROVENANCE_FIELDS),
        ]
        for kind, text, extra in written:
            header, *body = text.split("\n")[:-1]
            assert keys._KIND_BY_HEADER[header] == kind
            assert [line.split("=")[0] for line in body] == [
                *keys._FIELDS_BY_KIND[kind], *extra]

    def test_parse_public(self):
        assert parse_key_file(GOLDEN_PUBLIC) == PublicKey(e=1012333, n=3099521)

    def test_parse_private(self):
        assert parse_key_file(GOLDEN_PRIVATE) == PrivateKey(d=997, n=3099521)

    def test_parse_pair_roundtrip(self, toy_keypair):
        assert parse_key_file(format_keypair(toy_keypair)) == toy_keypair

    def test_parse_plain_pair_roundtrip(self):
        kp = keypair_from_primes(1721, 1801, 1012333)
        assert parse_key_file(format_keypair(kp)) == kp

    def test_parse_keeps_crt_only_with_provenance(self, toy_keypair):
        assert parse_key_file(GOLDEN_PAIR_FULL).private.crt == toy_keypair.private.crt
        assert parse_key_file(GOLDEN_PAIR).private.crt is None
        assert parse_key_file(GOLDEN_PRIVATE).crt is None

    def test_parse_rejects_inconsistent_provenance(self):
        # the lying provenance of test_bad_provenance_detected, as a file
        lying = GOLDEN_PAIR + "p=1721\nq=1803\nphi=3096000\n"
        with pytest.raises(MalformedKeyFile, match="provenance"):
            parse_key_file(lying)

    def test_parse_rejects_inconsistent_plain_pair(self):
        with pytest.raises(MalformedKeyFile, match="^inconsistent pair: "):
            parse_key_file(GOLDEN_PAIR.replace("d=997", "d=4657"))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "rsa-primer public v2\nn=3\ne=2\n",
            "rsa-primer royal v1\nn=3\ne=2\n",
            GOLDEN_PUBLIC[:-1],  # missing final newline
            "rsa-primer public v1\ne=1012333\nn=3099521\n",  # wrong order
            "rsa-primer public v1\nn=3099521\n",  # missing field
            "rsa-primer public v1\nn=3099521\ne=1012333\nd=997\n",  # extra field
            "rsa-primer public v1\nn = 3099521\ne=1012333\n",  # stray spaces
            "rsa-primer public v1\nn=30995x1\ne=1012333\n",  # non-decimal
            "rsa-primer pair v1\nn=3099521\ne=1012333\nd=997\np=1721\n",
            "rsa-primer public v1\nn=0003099521\ne=1012333\n",  # leading zeros
            "rsa-primer private v1\nn=3099521\nd=0997\n",
            GOLDEN_PAIR + "p=01721\nq=1801\nphi=3096000\n",
            "rsa-primer public v1\nn=1\ne=3\n",  # n <= 1
            "rsa-primer public v1\nn=0\ne=3\n",
            "rsa-primer public v1\nn=3099521\ne=1\n",  # e < 3
            "rsa-primer public v1\nn=3099521\ne=0\n",
            # phi(n) is even, so every usable e and d is odd
            "rsa-primer public v1\nn=3099521\ne=1012334\n",
            "rsa-primer private v1\nn=3099521\nd=0\n",
            "rsa-primer private v1\nn=3099521\nd=998\n",
            "rsa-primer pair v1\nn=3099521\ne=1012333\nd=998\n",
            # 1 < e < phi and e*d = 1 (mod phi) rule out d = 1
            "rsa-primer private v1\nn=3099521\nd=1\n",
            "rsa-primer pair v1\nn=3099521\ne=1012333\nd=1\n",
            # e and d that do not invert each other fail the round trip
            "rsa-primer pair v1\nn=3099521\ne=1012333\nd=4657\n",
            # the header line is matched exactly
            "rsa-primer public v1 \nn=3099521\ne=1012333\n",
            "rsa-primer public v1\r\nn=3099521\ne=1012333\n",
            "Rsa-primer public v1\nn=3099521\ne=1012333\n",
            "rsa-primer  public v1\nn=3099521\ne=1012333\n",
        ],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(MalformedKeyFile):
            parse_key_file(text)

    # CPython's int() refuses more than 4300 decimal digits by default; a
    # field past that is a malformed key file, not a bare ValueError.
    @pytest.mark.parametrize("name", ["n", "e"])
    def test_parse_rejects_number_past_int_string_limit(self, name):
        fields = {"n": "3099521", "e": "1012333", name: "1" * 4400}
        text = f"rsa-primer public v1\nn={fields['n']}\ne={fields['e']}\n"
        with pytest.raises(MalformedKeyFile, match=f"^{name}: "):
            parse_key_file(text)

    def test_public_part_selection(self, toy_keypair):
        assert public_part(toy_keypair) == toy_keypair.public
        assert public_part(toy_keypair.public) == toy_keypair.public
        with pytest.raises(MalformedKeyFile):
            public_part(toy_keypair.private)

    def test_private_part_selection(self, toy_keypair):
        assert private_part(toy_keypair) == toy_keypair.private
        assert private_part(toy_keypair.private) == toy_keypair.private
        with pytest.raises(MalformedKeyFile):
            private_part(toy_keypair.public)


class TestWritersRefuseWhatTheReaderRefuses:
    """A key writer refuses every number parse_key_file refuses, with the
    reader's error and message, and writes nothing."""

    @pytest.mark.parametrize("write, key, text", [
        (format_public_key, PublicKey(-3, 35), "rsa-primer public v1\nn=35\ne=-3\n"),
        (format_public_key, PublicKey(4, 35), "rsa-primer public v1\nn=35\ne=4\n"),
        (format_public_key, PublicKey(3, 1), "rsa-primer public v1\nn=1\ne=3\n"),
        (format_public_key, PublicKey(3, -35), "rsa-primer public v1\nn=-35\ne=3\n"),
        (format_private_key, PrivateKey(-7, 35), "rsa-primer private v1\nn=35\nd=-7\n"),
        (format_private_key, PrivateKey(1, 35), "rsa-primer private v1\nn=35\nd=1\n"),
        (format_keypair, KeyPair(PublicKey(3, 35), PrivateKey(4, 35)),
         "rsa-primer pair v1\nn=35\ne=3\nd=4\n"),
        (format_keypair, KeyPair(PublicKey(3, 1), PrivateKey(-5, 1)),
         "rsa-primer pair v1\nn=1\ne=3\nd=-5\n"),
        (format_keypair, KeyPair(PublicKey(1012333, 3099521), PrivateKey(997, 3099521),
                                 Provenance(-1721, -1801, 3096000)),
         "rsa-primer pair v1\nn=3099521\ne=1012333\nd=997\np=-1721\nq=-1801\nphi=3096000\n"),
    ], ids=["e-negative", "e-even", "n-1", "n-negative", "d-negative", "d-1", "pair-d-even",
            "pair-n-first", "pair-p-negative"])
    def test_refused_with_the_readers_message(self, write, key, text):
        with pytest.raises(MalformedKeyFile) as read:
            parse_key_file(text)
        with pytest.raises(MalformedKeyFile) as written:
            write(key)
        assert str(written.value) == str(read.value)

    # A negative number too wide for str() is refused by its width.
    def test_a_wide_negative_number_refused_by_its_width(self):
        with pytest.raises(MalformedKeyFile,
                           match="^d must be odd and at least 3, got <negative 14617-bit number>$"):
            format_private_key(PrivateKey(-HUGE_N, 3233))
        with pytest.raises(MalformedKeyFile,
                           match="^p must not be negative, got <negative 14617-bit number>$"):
            format_keypair(KeyPair(PublicKey(17, 3233), PrivateKey(2753, 3233),
                                   Provenance(-HUGE_N, 53, 3120)))


# CPython's str() refuses an int of more decimal digits than
# sys.get_int_max_str_digits() allows (4300 by default, 0 for no limit), so
# no key file could hold such a modulus: making or writing one is refused.
HUGE_N = 10**4400 + 1  # 14617 bits; 353 divides it


class TestModulusDigitLimit:
    @pytest.fixture
    def no_prime_drawn(self, monkeypatch):
        def gen_prime(bits, rng):
            raise AssertionError("a prime was drawn")

        monkeypatch.setattr(keys, "gen_prime", gen_prime)

    # 2**14284 < 10**4300 < 2**14285: of the 14285-bit moduli only those
    # below 10**4300 have 4300 digits.
    def test_helper_boundary(self):
        keys._require_printable(14285, 10**4300 - 1)
        keys._require_printable(14284)
        with pytest.raises(KeyTooLarge, match="^a 14285-bit modulus "):
            keys._require_printable(14285, 10**4300)
        with pytest.raises(KeyTooLarge, match="^a 14285-bit modulus "):
            keys._require_printable(14285)

    def test_no_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert format_public_key(PublicKey(3, HUGE_N)).endswith("1\ne=3\n")
        finally:
            sys.set_int_max_str_digits(old)

    # Two 7142-bit primes make at most 14284 bits, which 4300 digits hold;
    # two 7143-bit primes can make a modulus of 4301 digits.
    @pytest.mark.parametrize("bits", [7143, 7200])
    def test_generate_refuses_before_drawing(self, no_prime_drawn, bits):
        with pytest.raises(KeyTooLarge, match=f"^a {2 * bits}-bit modulus "):
            generate_keypair(bits, 1)

    # The width itself has more digits than str() writes, so the message
    # gives the width's own width.
    def test_generate_refuses_unwritable_width(self, no_prime_drawn):
        with pytest.raises(KeyTooLarge, match="^a <16611-bit number>-bit modulus "):
            generate_keypair(10**5000, 1)

    def test_generate_refuses_under_lowered_limit(self, no_prime_drawn, low_digit_limit):
        with pytest.raises(KeyTooLarge, match="^a 2128-bit modulus "):
            generate_keypair(1064, 1)

    def test_from_primes_refuses_under_lowered_limit(self, low_digit_limit):
        # two Mersenne primes, of 2203 and 2281 bits
        with pytest.raises(KeyTooLarge, match="^a 4484-bit modulus "):
            keypair_from_primes(2**2203 - 1, 2**2281 - 1, 65537)

    def test_from_primes_refuses_before_primality(self):
        with pytest.raises(KeyTooLarge, match="^a 14619-bit modulus "):
            keypair_from_primes(HUGE_N, 3, 3)

    @pytest.mark.parametrize("write, key", [
        (format_public_key, PublicKey(3, HUGE_N)),
        (format_private_key, PrivateKey(3, HUGE_N)),
        (format_keypair, KeyPair(PublicKey(3, HUGE_N), PrivateKey(3, HUGE_N))),
    ], ids=["public", "private", "pair"])
    def test_writers_refuse(self, write, key):
        with pytest.raises(KeyTooLarge, match="^a 14617-bit modulus "):
            write(key)

    # An exponent past the limit under a small n: the writers refuse it by
    # name, and the message that writes e gives its width instead.
    @pytest.mark.parametrize("write, key, name", [
        (format_public_key, PublicKey(HUGE_N, 3233), "e"),
        (format_private_key, PrivateKey(HUGE_N, 3233), "d"),
        (format_keypair, KeyPair(PublicKey(17, 3233), PrivateKey(HUGE_N, 3233)), "d"),
    ], ids=["public", "private", "pair"])
    def test_writers_refuse_exponent(self, write, key, name):
        with pytest.raises(KeyTooLarge, match=f"^a 14617-bit {name} has more "):
            write(key)

    def test_exponent_message_writes_its_width(self):
        with pytest.raises(InvalidPublicExponent,
                           match="^e must satisfy 1 < e < 3120, got <14617-bit number>$"):
            keypair_from_primes(61, 53, HUGE_N)

    def test_decimal_helper(self, low_digit_limit):
        assert keys._decimal(3233) == "3233"
        assert keys._decimal(-7) == "-7"
        assert keys._decimal(10**640 - 1) == "9" * 640
        assert keys._decimal(10**640) == "<2127-bit number>"
        assert keys._decimal(-(10**640)) == "<negative 2127-bit number>"
