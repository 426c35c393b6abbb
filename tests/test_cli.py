import hashlib
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import golden
from conftest import DATA, GOLDEN_CIPHERTEXT, search_walks
from rsa_primer import _pool, cipher, number_theory
from rsa_primer.cipher import METHODS
from rsa_primer.cli import FACTOR_BOUND
from rsa_primer.codec import CODECS
from rsa_primer.errors import Error, KeyTooLarge
from rsa_primer.keys import (
    format_keypair,
    format_private_key,
    format_public_key,
    generate_keypair,
    parse_key_file,
)


@pytest.fixture
def toy_key_files(tmp_path, toy_keypair):
    pub = tmp_path / "toy.pub"
    pair = tmp_path / "toy.key"
    pub.write_bytes(format_public_key(toy_keypair.public).encode())
    pair.write_bytes(format_keypair(toy_keypair).encode())
    return pub, pair


class TestKeygen:
    def test_deterministic_files(self, cli, tmp_path):
        a = cli(["keygen", "--bits", "12", "--seed", "42", "--out",
                 str(tmp_path / "a")])
        b = cli(["keygen", "--bits", "12", "--seed", "42", "--out",
                 str(tmp_path / "b")])
        assert a.code == 0 and b.code == 0
        assert (tmp_path / "a.pub").read_bytes() == (tmp_path / "b.pub").read_bytes()
        assert (tmp_path / "a.key").read_bytes() == (tmp_path / "b.key").read_bytes()
        assert a.out == b.out

    def test_teaching_output(self, cli, tmp_path):
        res = cli(["keygen", "--bits", "12", "--seed", "42", "--retain-pq",
                   "--out", str(tmp_path / "k")])
        assert res.code == 0
        for field in ("n=", "e=", "d=", "p=", "q=", "phi="):
            assert field in res.text
        kp = parse_key_file((tmp_path / "k.key").read_text(encoding="ascii"))
        assert kp.provenance is not None

    def test_provenance_destroyed_by_default(self, cli, tmp_path):
        res = cli(["keygen", "--bits", "12", "--seed", "42", "--out",
                   str(tmp_path / "k")])
        assert res.code == 0
        kp = parse_key_file((tmp_path / "k.key").read_text(encoding="ascii"))
        assert kp.provenance is None
        assert "p=" not in res.text

    def test_four_bit_primes_enumerable(self, cli, tmp_path):
        res = cli(["keygen", "--bits", "4", "--seed", "7", "--retain-pq",
                   "--out", str(tmp_path / "t")])
        assert res.code == 0
        kp = parse_key_file((tmp_path / "t.key").read_text(encoding="ascii"))
        assert {kp.provenance.p, kp.provenance.q} == {11, 13}

    def test_even_exponent_rejected(self, cli, tmp_path):
        res = cli(["keygen", "--bits", "12", "--seed", "42", "--e", "4",
                   "--out", str(tmp_path / "k")])
        assert res.code == 2
        assert res.out == b""
        assert b"e" in res.err

    def test_zero_seed_rejected(self, cli, tmp_path):
        res = cli(["keygen", "--bits", "12", "--seed", "0", "--out",
                   str(tmp_path / "k")])
        assert res.code == 2

    def test_flags_do_not_carry_over_between_calls(self, cli, tmp_path):
        fixed = cli(["keygen", "--bits", "12", "--seed", "42", "--e", "65537",
                     "--retain-pq", "--out", str(tmp_path / "f")])
        after = cli(["keygen", "--bits", "12", "--seed", "42", "--out",
                     str(tmp_path / "a")])
        assert fixed.code == 0 and after.code == 0
        assert b"e=65537\n" in fixed.out and b"p=" in fixed.out
        assert b"e=65537\n" not in after.out and b"p=" not in after.out

    # The widest modulus two 1064-bit primes can make, 2128 bits, may have
    # more than the 640 decimal digits str() then writes; the key is refused
    # before any prime is drawn, and no file is written.
    def test_modulus_past_digit_limit_exits_2(self, cli, tmp_path, low_digit_limit):
        res = cli(["keygen", "--bits", "1100", "--seed", "1", "--out",
                   str(tmp_path / "k")])
        assert res.code == 2
        assert res.out == b""
        assert res.err == (b"a 2200-bit modulus has more decimal digits than "
                           b"the int-string limit of 640\n")
        assert list(tmp_path.iterdir()) == []

    def test_modulus_past_default_digit_limit_exits_2(self, cli, tmp_path):
        res = cli(["keygen", "--bits", "7200", "--seed", "1", "--out",
                   str(tmp_path / "k")])
        assert res.code == 2
        assert res.err.startswith(b"a 14400-bit modulus ")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_rejected(self, cli, tmp_path):
        res = cli(["keygen", "--bits", "12", "--seed", "1", "--out",
                   str(tmp_path / "k"), "--fast"])
        assert res.code == 2


@pytest.mark.parametrize(
    "command",
    [
        ["keygen", "--bits", "12", "--out", "k"],
        ["demo"],
        ["crack", "--csv", "--bits", "8"],
    ],
    ids=["keygen", "demo", "crack-csv"],
)
def test_seed_outside_64_bits_exits_2(cli, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    res = cli(command + ["--seed", str(1 << 64)])
    assert res.code == 2
    assert res.out == b""


# The library owns the seed and width rules: a refused value gets its
# message, with no usage line, and keygen writes no file.
@pytest.mark.parametrize("seed, reason", [
    ("0", b"the xorshift64* state must be nonzero\n"),
    (str(1 << 64), b"seed must fit in 64 bits, got 18446744073709551616\n"),
], ids=["0", "2^64"])
def test_keygen_seed_refused_by_the_library(cli, tmp_path, seed, reason):
    res = cli(["keygen", "--bits", "12", "--seed", seed, "--out", str(tmp_path / "k")])
    assert (res.code, res.out, res.err) == (2, b"", reason)
    assert list(tmp_path.iterdir()) == []


def test_csv_width_refused_by_the_library(cli):
    res = cli(["crack", "--csv", "--bits", "8,3", "--seed", "1"])
    assert (res.code, res.out, res.err) == (2, b"", b"each bit width must be at least 4\n")


class TestEncryptDecrypt:
    def test_worked_example_via_stdin(self, cli, toy_key_files):
        pub, pair = toy_key_files
        enc = cli(["encrypt", "--key", str(pub)], stdin=b"Tue 7PM")
        assert enc.code == 0
        assert enc.out == (GOLDEN_CIPHERTEXT + "\n").encode()
        dec = cli(["decrypt", "--key", str(pair)], stdin=enc.out)
        assert dec.code == 0
        assert dec.out == b"Tue 7PM"

    def test_file_input(self, cli, tmp_path, toy_key_files):
        pub, pair = toy_key_files
        src = tmp_path / "msg.txt"
        src.write_bytes(b"Tue 7PM")
        enc = cli(["encrypt", "--key", str(pub), "--in", str(src)])
        assert enc.code == 0
        assert enc.out.decode().strip() == GOLDEN_CIPHERTEXT

    def test_empty_stdin(self, cli, toy_key_files):
        pub, pair = toy_key_files
        enc = cli(["encrypt", "--key", str(pub)], stdin=b"")
        assert enc.code == 0
        assert enc.out == b""
        dec = cli(["decrypt", "--key", str(pair)], stdin=b"")
        assert dec.code == 0
        assert dec.out == b""

    def test_non_ascii_rejected(self, cli, toy_key_files):
        pub, _ = toy_key_files
        res = cli(["encrypt", "--key", str(pub)], stdin=b"caf\xc3\xa9")
        assert res.code == 3

    def test_non_ascii_ciphertext_exits_3(self, cli, toy_key_files):
        _, pair = toy_key_files
        res = cli(["decrypt", "--key", str(pair)], stdin=b"0469428 \xc3\xa9")
        assert res.code == 3
        assert res.out == b""
        assert res.err == b"ciphertext must be ASCII decimal blocks\n"

    def test_chunked_pipeline_roundtrip(self, cli, tmp_path):
        assert cli(["keygen", "--bits", "16", "--seed", "9", "--out",
                    str(tmp_path / "k")]).code == 0
        payload = bytes(range(256)) * 2
        enc = cli(["encrypt", "--key", str(tmp_path / "k.pub"),
                   "--codec", "chunked"], stdin=payload)
        assert enc.code == 0
        dec = cli(["decrypt", "--key", str(tmp_path / "k.key"),
                   "--codec", "chunked"], stdin=enc.out)
        assert dec.code == 0
        assert dec.out == payload

    def test_pair_file_encrypts_like_public_file(self, cli, tmp_path):
        plain = b"a banana, a bandana, abracadabra\nbanana\n"
        (tmp_path / "plain.txt").write_bytes(plain)
        for prefix, flags in (("k", []), ("kpq", ["--retain-pq"])):
            assert cli(["keygen", "--bits", "16", "--seed", "7", *flags,
                        "--out", str(tmp_path / prefix)]).code == 0
        for enc_key, dec_key, ct in (("k.pub", "k.key", "ct"),
                                     ("kpq.key", "kpq.key", "ctpq")):
            enc = cli(["encrypt", "--key", str(tmp_path / enc_key),
                       "--in", str(tmp_path / "plain.txt")])
            assert enc.code == 0
            (tmp_path / ct).write_bytes(enc.out)
            dec = cli(["decrypt", "--key", str(tmp_path / dec_key),
                       "--in", str(tmp_path / ct)])
            assert dec.code == 0
            assert dec.out == plain
        assert (tmp_path / "ct").read_bytes() == (tmp_path / "ctpq").read_bytes()

    def test_block_at_modulus_exits_5(self, cli, toy_key_files):
        _, pair = toy_key_files
        res = cli(["decrypt", "--key", str(pair)], stdin=b"3099521")
        assert res.code == 5

    def test_malformed_cipher_token_exits_3(self, cli, toy_key_files):
        _, pair = toy_key_files
        res = cli(["decrypt", "--key", str(pair)], stdin=b"12ab 34")
        assert res.code == 3

    def test_wrong_key_decode_error_exits_3(self, cli, tmp_path, toy_key_files):
        pub, _ = toy_key_files
        enc = cli(["encrypt", "--key", str(pub)], stdin=b"Tue 7PM")
        wrong = tmp_path / "wrong.key"
        wrong.write_bytes(b"rsa-primer private v1\nn=3099521\nd=999\n")
        res = cli(["decrypt", "--key", str(wrong)], stdin=enc.out)
        assert res.code == 3

    def test_small_example_block(self, cli, tmp_path):
        # block 19 under the (17, 143) private key decodes to control byte 2
        key = tmp_path / "small.key"
        key.write_bytes(b"rsa-primer private v1\nn=143\nd=17\n")
        res = cli(["decrypt", "--key", str(key)], stdin=b"019")
        assert res.code == 0
        assert res.out == b"\x02"

    def test_public_file_cannot_decrypt(self, cli, toy_key_files):
        pub, _ = toy_key_files
        res = cli(["decrypt", "--key", str(pub)], stdin=b"019")
        assert res.code == 4

    def test_private_file_cannot_encrypt(self, cli, tmp_path):
        priv = tmp_path / "p.key"
        priv.write_bytes(b"rsa-primer private v1\nn=3099521\nd=997\n")
        res = cli(["encrypt", "--key", str(priv)], stdin=b"x")
        assert res.code == 4

    @pytest.mark.parametrize("command, kind, needed, got", [
        ("decrypt", "pub", "private", "public-only"),
        ("encrypt", "priv", "public", "private-only"),
        ("crack", "priv", "public", "private-only"),
    ])
    def test_wrong_kind_key_file_names_its_path(self, cli, tmp_path, toy_keypair,
                                                command, kind, needed, got):
        path = tmp_path / f"k.{kind}"
        key = toy_keypair.public if kind == "pub" else toy_keypair.private
        write = format_public_key if kind == "pub" else format_private_key
        path.write_bytes(write(key).encode())
        res = cli([command, "--key", str(path)], stdin=b"019")
        assert res.code == 4
        assert res.out == b""
        assert res.err == (f"key file error: {path}: a {needed} key is required "
                           f"(got a {got} file)\n").encode()

    def test_malformed_key_file_exits_4(self, cli, tmp_path):
        bad = tmp_path / "bad.pub"
        bad.write_bytes(b"not a key file\n")
        res = cli(["encrypt", "--key", str(bad)], stdin=b"x")
        assert res.code == 4
        assert res.out == b""
        assert res.err.decode().splitlines()[0].startswith(f"key file error: {bad}: ")

    @pytest.mark.parametrize(
        "command,key",
        [
            ("encrypt", b"public v1\nn=0003099521\ne=1012333\n"),
            ("encrypt", b"public v1\nn=3099521\ne=1\n"),
            ("encrypt", b"public v1\nn=3099521\ne=0\n"),
            ("encrypt", b"public v1\nn=1\ne=3\n"),
            ("decrypt", b"private v1\nn=3099521\nd=0\n"),
            ("decrypt", b"private v1\nn=3099521\nd=1\n"),
        ],
        ids=["leading-zeros", "e=1", "e=0", "n=1", "d=0", "d=1"],
    )
    def test_degenerate_key_exits_4(self, cli, tmp_path, command, key):
        path = tmp_path / "k"
        path.write_bytes(b"rsa-primer " + key)
        res = cli([command, "--key", str(path)], stdin=b"0469428")
        assert res.code == 4
        assert res.out == b""

    def test_non_ascii_key_file_exits_4(self, cli, tmp_path):
        key = tmp_path / "k.pub"
        key.write_bytes(b"rsa-primer public v1\nn=3099521\ne=1012333\xc3\xa9\n")
        res = cli(["encrypt", "--key", str(key)], stdin=b"x")
        assert res.code == 4
        assert res.out == b""
        assert res.err == f"key file error: {key}: key files are ASCII text\n".encode()

    @pytest.mark.parametrize("command", ["encrypt", "crack"])
    def test_key_number_past_int_string_limit_exits_4(self, cli, tmp_path, command):
        # 4400 digits: more than CPython's int() converts by default
        key = tmp_path / "k.pub"
        key.write_bytes(b"rsa-primer public v1\nn=" + b"1" * 4400 + b"\ne=3\n")
        res = cli([command, "--key", str(key)], stdin=b"x")
        assert res.code == 4
        assert res.out == b""
        assert res.err.startswith(f"key file error: {key}: n: ".encode())

    def test_cipher_token_past_int_string_limit_exits_5(self, cli, toy_key_files):
        _, pair = toy_key_files
        res = cli(["decrypt", "--key", str(pair)], stdin=b"1" * 4400)
        assert res.code == 5
        assert res.out == b""

    def test_inconsistent_provenance_exits_4(self, cli, tmp_path, toy_key_files):
        pub, _ = toy_key_files
        enc = cli(["encrypt", "--key", str(pub)], stdin=b"Tue 7PM")
        lying = tmp_path / "lying.key"
        lying.write_bytes(b"rsa-primer pair v1\nn=3099521\ne=1012333\nd=997\n"
                          b"p=1721\nq=1803\nphi=3096000\n")
        res = cli(["decrypt", "--key", str(lying)], stdin=enc.out)
        assert res.code == 4
        assert res.out == b""

    @pytest.mark.parametrize(
        "command,stdin",
        [("encrypt", b"A"), ("decrypt", b"2206027"), ("crack", b"")],
    )
    def test_inconsistent_plain_pair_exits_4(self, cli, tmp_path, command, stdin):
        # e and d that do not invert each other: 2206027 is "A" encrypted
        # with this e, and decrypting it with this d once printed "M", exit 0
        lie = tmp_path / "lie.key"
        lie.write_bytes(b"rsa-primer pair v1\nn=3099521\ne=1012333\nd=4657\n")
        res = cli([command, "--key", str(lie)], stdin=stdin)
        assert res.code == 4
        assert res.out == b""
        assert res.err.decode().startswith(f"key file error: {lie}: inconsistent")

    def test_missing_key_file_exits_1(self, cli, tmp_path):
        res = cli(["encrypt", "--key", str(tmp_path / "nope.pub")], stdin=b"x")
        assert res.code == 1


class TestCrack:
    @pytest.mark.parametrize("method", METHODS)
    def test_worked_example(self, cli, toy_key_files, method):
        pub, _ = toy_key_files
        res = cli(["crack", "--key", str(pub), "--method", method])
        assert res.code == 0
        lines = res.text.splitlines()
        assert lines[0] == "p=1721 q=1801 phi=3096000 d=997"
        assert re.fullmatch(rf"method={method} elapsed=\d+\.\d{{6}}s", lines[1])

    def test_small_example(self, cli, tmp_path):
        key = tmp_path / "s.pub"
        key.write_bytes(b"rsa-primer public v1\nn=143\ne=113\n")
        res = cli(["crack", "--key", str(key)])
        assert res.code == 0
        assert res.text.splitlines()[0] == "p=11 q=13 phi=120 d=17"

    def test_timeout_exits_6(self, cli, tmp_path):
        assert cli(["keygen", "--bits", "40", "--seed", "8", "--out",
                    str(tmp_path / "big")]).code == 0
        res = cli(["crack", "--key", str(tmp_path / "big.pub"),
                   "--timeout", "0.05"])
        assert res.code == 6
        assert res.out == b""
        first = res.err.decode().splitlines()[0]
        assert re.match(r"timed out after \d+\.\d{3}s: ", first)

    def test_exponent_not_coprime_to_phi_exits_3(self, cli, tmp_path):
        key = tmp_path / "e3.pub"
        key.write_bytes(b"rsa-primer public v1\nn=91\ne=3\n")
        res = cli(["crack", "--key", str(key)])
        assert res.code == 3
        assert res.out == b""
        assert res.err == b"no inverse: gcd(3, 72) = 3 != 1\n"

    @pytest.mark.parametrize("timeout", ["nan", "inf", "-inf", "0", "-1"])
    def test_non_positive_or_non_finite_timeout_exits_2(self, cli, toy_key_files,
                                                        timeout):
        pub, _ = toy_key_files
        res = cli(["crack", "--key", str(pub), "--timeout", timeout])
        assert res.code == 2
        assert res.out == b""

    @pytest.mark.parametrize("timeout", ["nan", "inf", "-inf", "0", "-1"])
    def test_timeout_refused_by_the_library(self, cli, toy_key_files, timeout):
        # "--timeout -inf" is refused by argparse, as an option; joined with
        # "=" every value reaches crack_private_key.
        pub, _ = toy_key_files
        res = cli(["crack", "--key", str(pub), f"--timeout={timeout}"])
        assert (res.code, res.out) == (2, b"")
        assert res.err == b"timeout must be positive and finite\n"

    def test_missing_key_file_is_read_before_the_timeout_is_checked(self, cli, tmp_path):
        res = cli(["crack", "--key", str(tmp_path / "missing.pub"), "--timeout", "0"])
        assert res.code == 1
        assert res.out == b""
        assert res.err.startswith(b"file error: ")

    def test_csv_benchmark(self, cli):
        res = cli(["crack", "--csv", "--bits", "8,10", "--seed", "5",
                   "--trials", "2"])
        assert res.code == 0
        lines = res.text.splitlines()
        assert lines[0] == cipher.BENCHMARK_CSV_HEADER
        assert len(lines) == 5
        assert all(re.fullmatch(
            r"(8|10),trial-division,[12],\d+\.\d{6},true", ln
        ) for ln in lines[1:])

    def test_readme_gives_the_csv_header(self, readme):
        [header] = re.findall(r"\*\*Benchmark CSV\*\* \(`crack --csv`\): header `([^`]*)`",
                              " ".join(readme.split()))
        assert header == cipher.BENCHMARK_CSV_HEADER

    def test_csv_zero_trials_exits_2(self, cli):
        res = cli(["crack", "--csv", "--bits", "8", "--seed", "3", "--trials", "0"])
        assert res.code == 2
        assert res.out == b""
        assert res.err == b"trials must be at least 1, got 0\n"

    @pytest.mark.parametrize("bits", ["1_0", "+8", "٨", " 8", "8,+10", "8,1_0",
                                      "8,", ",8", "8,,10"])
    def test_csv_bits_take_ascii_digits_only(self, cli, bits):
        res = cli(["crack", "--csv", "--bits", bits, "--seed", "3"])
        assert res.code == 2
        assert res.out == b""

    @pytest.mark.parametrize("flags,reason", [
        (["--csv", "--bits", "3", "--seed", "3"], "each bit width must be at least 4"),
        (["--timeout", "abc"], "expected seconds, got 'abc'"),
    ])
    def test_bad_flag_value_exits_2_with_reason(self, cli, flags, reason):
        res = cli(["crack", *flags])
        assert res.code == 2
        assert res.out == b""
        assert reason in res.err.decode()

    @pytest.mark.parametrize("flags", [["--bits", "8"], ["--seed", "3"],
                                       ["--bits", "8", "--seed", "3"],
                                       ["--trials", "5"], ["--trials", "3"]])
    def test_benchmark_flags_need_csv(self, cli, toy_key_files, flags):
        pub, _ = toy_key_files
        res = cli(["crack", "--key", str(pub), *flags])
        assert res.code == 2
        assert res.out == b""
        assert res.err == b"crack --bits, --seed and --trials need --csv\n"

    def test_csv_runs_three_trials_by_default(self, cli):
        res = cli(["crack", "--csv", "--bits", "8", "--seed", "5"])
        assert res.code == 0
        assert [ln.split(",")[2] for ln in res.text.splitlines()[1:]] == [
            "1", "2", "3"]

    def test_csv_needs_bits_and_seed(self, cli):
        res = cli(["crack", "--csv", "--seed", "5"])
        assert res.code == 2
        res = cli(["crack", "--csv", "--bits", "8"])
        assert res.code == 2

    def test_key_or_csv_required(self, cli):
        res = cli(["crack"])
        assert res.code == 2


class TestDemo:
    def test_fixed_transcript_matches_golden_file(self, cli):
        res = cli(["demo"])
        assert res.code == 0
        assert res.out == (DATA / "demo_toy.txt").read_bytes()

    def test_contains_worked_ciphertext(self, cli):
        res = cli(["demo"])
        assert GOLDEN_CIPHERTEXT in res.text

    def test_deterministic(self, cli):
        assert cli(["demo"]).out == cli(["demo"]).out

    def test_final_line_is_message(self, cli):
        assert cli(["demo"]).text.splitlines()[-1] == "Tue 7PM"

    def test_seeded_deterministic(self, cli):
        a = cli(["demo", "--seed", "1"])
        b = cli(["demo", "--seed", "1"])
        assert a.code == 0
        assert a.out == b.out
        assert a.out != cli(["demo"]).out

    def test_seeded_roundtrip(self, cli):
        res = cli(["demo", "--seed", "1"])
        assert res.text.splitlines()[-1] == "Tue 7PM"


class TestCipherTextParsing:
    def test_parse_is_inverse_of_format(self, toy_keypair):
        from rsa_primer.cipher import encrypt_message
        from rsa_primer.cli import parse_cipher_blocks
        from rsa_primer.codec import CODEC_TOY_ASCII, format_cipher_blocks

        bs = encrypt_message(b"Tue 7PM", toy_keypair.public, CODEC_TOY_ASCII)
        text = format_cipher_blocks(bs)
        parsed = parse_cipher_blocks(text, CODEC_TOY_ASCII, toy_keypair.public.n)
        assert parsed == bs
        assert format_cipher_blocks(parsed) == text

    def test_parse_accepts_any_whitespace(self, toy_keypair):
        from rsa_primer.cli import parse_cipher_blocks

        parsed = parse_cipher_blocks(" 019\n0084\t2 ", "toy-ascii", toy_keypair.public.n)
        assert parsed.blocks == (19, 84, 2)

    def test_reader_sits_beside_its_writer(self):
        from rsa_primer import cli, codec

        assert cli.parse_cipher_blocks is codec.parse_cipher_blocks

    def test_parse_rejects_non_decimal(self, toy_keypair):
        from rsa_primer.cli import parse_cipher_blocks
        from rsa_primer.errors import MalformedBlock

        with pytest.raises(MalformedBlock):
            parse_cipher_blocks("12a", "toy-ascii", toy_keypair.public.n)
        with pytest.raises(MalformedBlock):
            parse_cipher_blocks("١٢", "toy-ascii", toy_keypair.public.n)


class TestNt:
    @pytest.mark.parametrize(
        "args,expected",
        [
            (["gcd", "24", "14"], "2"),
            (["xgcd", "24", "14"], "2 3 -5"),
            (["inverse", "113", "120"], "17"),
            (["inverse", "1012333", "3096000"], "997"),
            (["modpow", "2", "113", "143"], "19"),
            (["totient", "8"], "4"),
            (["totient", "6"], "2"),
            (["isprime", "1721"], "true"),
            (["isprime", "3099521"], "false"),
            (["factor", "3099521"], "1721 1801"),
            (["factor", "12"], "2 2 3"),
            (["factor", "999999999989"], "999999999989"),  # largest prime <= 10^12
            (["factor", "847288609443"], " ".join(["3"] * 25)),  # 3^25
            (["factor", "21743566849"], "147457 147457"),
            (["factor", "21747105817"], "147457 147481"),
        ],
    )
    def test_utilities(self, cli, args, expected):
        res = cli(["nt"] + args)
        assert res.code == 0
        assert res.text == expected + "\n"

    def test_domain_errors_exit_3(self, cli):
        assert cli(["nt", "inverse", "4", "8"]).code == 3
        assert cli(["nt", "gcd", "0", "0"]).code == 3
        assert cli(["nt", "totient", "10000001"]).code == 3
        assert cli(["nt", "totient", "1"]).code == 3
        assert cli(["nt", "totient", "0"]).code == 3
        assert cli(["nt", "factor", "2000000000000"]).code == 3
        assert cli(["nt", "factor", "1"]).code == 3
        assert cli(["nt", "modpow", "2", "3", "1"]).code == 3

    def test_malformed_arguments_exit_2(self, cli):
        assert cli(["nt", "gcd", "12x", "4"]).code == 2
        assert cli(["nt", "gcd", "-3", "4"]).code == 2
        assert cli(["nt", "frobnicate", "4"]).code == 2

    def test_diagnostics_on_stderr_only(self, cli):
        res = cli(["nt", "inverse", "4", "8"])
        assert res.out == b""
        assert res.err != b""


class TestSubprocess:
    """A few end-to-end runs through a real interpreter."""

    def _run(self, args, stdin=b"", argv=("-m", "rsa_primer")):
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as in a pipe
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, *argv, *args],
            input=stdin, capture_output=True, env=env, timeout=120,
        )

    def test_demo_matches_in_process(self, cli):
        proc = self._run(["demo"])
        assert proc.returncode == 0
        assert proc.stdout == cli(["demo"]).out

    def test_exit_code_propagates(self):
        proc = self._run(["nt", "inverse", "4", "8"])
        assert proc.returncode == 3
        assert proc.stdout == b""

    def test_flag_conflict_exits_2(self, toy_key_files):
        pub, _ = toy_key_files
        proc = self._run(["crack", "--key", str(pub), "--trials", "5"])
        assert proc.returncode == 2
        assert proc.stderr == b"crack --bits, --seed and --trials need --csv\n"
        assert proc.stdout == b""

    def test_pipeline(self, tmp_path, toy_keypair):
        pub = tmp_path / "t.pub"
        pub.write_bytes(format_public_key(toy_keypair.public).encode())
        proc = self._run(["encrypt", "--key", str(pub)], stdin=b"Tue 7PM")
        assert proc.returncode == 0
        assert proc.stdout.decode().strip() == GOLDEN_CIPHERTEXT

    def test_keygen_with_workers_returns(self, tmp_path, cli):
        # 256-bit primes split their Miller-Rabin rounds across pooled
        # workers (three CPUs faked under -c).  The capture reads stdout to
        # EOF, so a worker still holding it after its parent exited would
        # hang the run; the exit handler has reaped every worker by then.
        args = ["keygen", "--bits", "256", "--seed", "9", "--retain-pq",
                "--out", str(tmp_path / "k")]
        expected = cli(args).out
        proc = self._run(args)
        assert (proc.returncode, proc.stdout) == (0, expected)
        code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1, 2}; "
                "from rsa_primer import _pool; from rsa_primer.cli import main; "
                f"code = main({args!r}); "
                "print(*(pid for pid, _, _ in _pool._workers), file=sys.stderr); "
                "sys.exit(code)")
        proc = self._run([], argv=["-c", code])
        assert (proc.returncode, proc.stdout) == (0, expected)
        workers = [int(pid) for pid in proc.stderr.split(b"\n")[-2].split()]
        assert len(workers) == 2
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.parametrize("missing", [("fork", "register_at_fork"), ("sched_getaffinity",)],
                             ids=["no-fork", "no-affinity"])
    def test_keygen_where_os_lacks(self, tmp_path, missing):
        # Every process imports the pool.  Without fork the rounds run in the
        # caller alone; without sched_getaffinity os.cpu_count() bounds the
        # slices.  Either way the key file is the one the golden corpus pins.
        args = ["keygen", "--bits", "256", "--seed", "7", "--retain-pq",
                "--out", str(tmp_path / "big")]
        code = ("import os, sys\n"
                f"for name in {missing!r}: delattr(os, name)\n"
                "from rsa_primer import _pool; from rsa_primer.cli import main\n"
                f"code = main({args!r})\n"
                "print(_pool._slices(2**40), len(_pool._workers), file=sys.stderr)\n"
                "sys.exit(code)")
        proc = self._run([], argv=["-c", code])
        assert proc.returncode == 0
        assert hashlib.sha256((tmp_path / "big.key").read_bytes()).hexdigest() == golden.digest(
            "keygen --bits 256 --seed 7 --retain-pq --out key", "key.key")
        cpus = 1 if "fork" in missing else os.cpu_count() or 1
        assert proc.stderr.split(b"\n")[-2].split() == [b"%d" % cpus, b"%d" % (min(cpus, 3) - 1)]

    def test_split_decryption_writes_stdout_once(self, tmp_path, cli):
        # 64 KiB under a 512-bit key is enough work to split across pooled
        # workers; a worker must leave without flushing the stdio buffers
        # it inherited, or the plaintext would appear twice.
        prefix = str(tmp_path / "k")
        assert cli(["keygen", "--bits", "256", "--seed", "9", "--retain-pq",
                    "--out", prefix]).code == 0
        data = random.Random(9).randbytes(64 * 1024)  # 1041 distinct blocks
        (tmp_path / "m").write_bytes(data)
        res = cli(["encrypt", "--key", prefix + ".pub", "--codec", "chunked",
                   "--in", str(tmp_path / "m")])
        assert res.code == 0
        args = ["decrypt", "--key", prefix + ".key", "--codec", "chunked"]
        proc = self._run(args, stdin=res.out)
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert proc.stdout == data
        # The same with text left unflushed in sys.stdout when a worker forks.
        code = ("import sys; from rsa_primer.cli import main; "
                f"sys.stdout.buffer.write(b'before\\n'); sys.exit(main({args!r}))")
        proc = self._run([], stdin=res.out, argv=["-c", code])
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert proc.stdout == b"before\n" + data


# Key files shaped like the format, so that fuzzing gets past the header.
_KEY_LINES = st.one_of(
    st.builds("{}={}".format, st.sampled_from(["n", "e", "d", "p", "q", "phi"]),
              st.integers(0, 10**12)),
    st.text(max_size=12),
)
_KEY_SHAPED = st.builds(
    lambda kind, lines: "\n".join([f"rsa-primer {kind} v1", *lines, ""]).encode(),
    st.sampled_from(["public", "private", "pair"]),
    st.lists(_KEY_LINES, max_size=7),
)


@st.composite
def _valid_key_and_ciphertext(draw):
    kp = generate_keypair(draw(st.integers(8, 16)), draw(st.integers(1, 2**64 - 1)),
                          retain_provenance=draw(st.booleans()))
    key = draw(st.sampled_from([format_public_key(kp.public),
                                format_private_key(kp.private), format_keypair(kp)]))
    token = st.one_of(st.integers(0, 2 * kp.public.n).map(str),
                      st.text("0123456789x-+ \n", max_size=8))
    return key.encode(), " ".join(draw(st.lists(token, max_size=6))).encode()


_SMALL = st.integers(0, 10**6)
_NT_ARGS = {
    "gcd": st.tuples(_SMALL, _SMALL),
    "xgcd": st.tuples(_SMALL, _SMALL),
    "inverse": st.tuples(_SMALL, _SMALL),
    "modpow": st.tuples(_SMALL, _SMALL, _SMALL),
    "totient": st.tuples(st.one_of(st.integers(0, 10**4),
                                   st.integers(10**7 + 1, 10**30))),
    "isprime": st.tuples(st.integers(0, 10**30)),
    "factor": st.tuples(st.integers(0, 10**12)),
}

# The cli fixture is a plain function and each example writes its own files,
# so sharing the function-scoped fixtures across examples is safe.
_FUZZ = settings(deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestEveryFailureHasItsCode:
    """main maps every failure to a documented exit code through the classes
    of rsa_primer.errors and OSError alone: it returns 0..6 and raises
    nothing, so an untyped error fails these tests."""

    @pytest.mark.parametrize("command", ["encrypt", "decrypt", "crack"])
    @settings(_FUZZ, max_examples=80)
    @given(files=st.one_of(st.tuples(st.binary(max_size=64), st.binary(max_size=64)),
                           st.tuples(_KEY_SHAPED, st.binary(max_size=64)),
                           _valid_key_and_ciphertext()),
           codec=st.sampled_from(CODECS), method=st.sampled_from(METHODS))
    def test_key_files_and_ciphertext(self, cli, tmp_path, command, files, codec,
                                      method):
        key, data = files
        (tmp_path / "key").write_bytes(key)
        (tmp_path / "in").write_bytes(data)
        args = [command, "--key", str(tmp_path / "key")]
        if command == "crack":
            args += ["--method", method, "--timeout", "0.2"]
        else:
            args += ["--codec", codec, "--in", str(tmp_path / "in")]
        code = cli(args).code
        assert type(code) is int and 0 <= code <= 6

    # Any decimal --seed parses; Rng64 alone decides which it refuses.
    @pytest.mark.parametrize("command", [["keygen", "--bits", "8", "--out", "k"], ["demo"],
                                         ["crack", "--csv", "--bits", "8", "--trials", "1"]],
                             ids=["keygen", "demo", "crack-csv"])
    @settings(_FUZZ, max_examples=20)
    @given(seed=st.one_of(st.sampled_from([0, 2**64 - 1, 2**64, 10**400]),
                          st.integers(0, 2**70)))
    def test_seed(self, cli, tmp_path, monkeypatch, command, seed):
        monkeypatch.chdir(tmp_path)
        code = cli([*command, "--seed", str(seed)]).code
        assert code == (0 if 0 < seed < 2**64 else 2)

    @pytest.mark.parametrize("command", _NT_ARGS)
    @settings(_FUZZ, max_examples=30)
    @given(data=st.data())
    def test_nt(self, cli, command, data):
        args = data.draw(_NT_ARGS[command])
        code = cli(["nt", command, *map(str, args)]).code
        assert type(code) is int and 0 <= code <= 6


# The exit-code table of the README, by error class.
README_EXIT_CODES = {
    "InvalidArgument": 2,
    "ModulusTooSmall": 3,
    "BothZero": 3,
    "NotCoprime": 3,
    "NotPrime": 3,
    "EqualPrimes": 3,
    "OracleBoundExceeded": 3,
    "BitsTooSmall": 2,
    "ZeroState": 2,
    "InvalidPublicExponent": 2,
    "KeyTooLarge": 2,
    "MalformedKeyFile": 4,
    "NonAsciiByte": 3,
    "ModulusTooSmallForCodec": 3,
    "BlockOutOfRange": 3,
    "MalformedBlock": 3,
    "BlockTooLarge": 5,
    "NotSemiprime": 3,
    "NoFactor": 3,
    "CrackTimeout": 6,
}


class TestExitCodes:
    def test_every_error_class_is_listed(self):
        assert {cls.__name__ for cls in Error.__subclasses__()} == set(README_EXIT_CODES)

    @pytest.mark.parametrize("cls", Error.__subclasses__(), ids=lambda cls: cls.__name__)
    def test_exit_code_matches_readme(self, cls, readme):
        assert cls.exit_code == README_EXIT_CODES[cls.__name__]
        assert f"\n| {cls.exit_code} | " in readme

    @pytest.mark.parametrize("argv", [["--help"], ["crack", "--help"]])
    def test_help_exits_0_with_usage_on_stdout(self, cli, argv):
        res = cli(argv)
        assert res.code == 0
        assert res.out.startswith(b"usage: rsa-primer")
        assert res.err == b""


def _least(holds, low, high):
    """The least x in [low, high] for which holds(x), which stays true above it."""
    while low < high:
        mid = (low + high) // 2
        low, high = (low, mid) if holds(mid) else (mid + 1, high)
    return low


def _refuses_keygen(bits):
    try:
        number_theory._require_printable(2 * bits)
    except KeyTooLarge:
        return True
    return False


# Each number README.md keeps: a pattern that finds it in the README, its
# whitespace folded, and the value it must equal, worked out from the code
# it describes on 2 CPUs under Python's default int-string limit.
README_NUMBERS = {
    "psi13": (r"ψ13 = (\d+)", lambda: number_theory._PSI[-1]),
    "screen": (r"(1009²) = (\d+)", lambda: number_theory._SCREEN_LIMIT),
    "random-rounds": (r"it runs (\d+) Miller-Rabin rounds", lambda: number_theory._RANDOM_ROUNDS),
    "table-gcds": (r"at most (\d+) gcds",
                   lambda: len(cipher._primes_below(cipher._TABLE_CAP)[1])),
    "split-work": (r"work of at least (2 × 2\^\d+) \(",
                   lambda: _least(lambda work: _pool._slices(work) > 1, 1, 2**64)),
    "race-line": (r"Pollard rho on n ≥ (2\^\d+) races", lambda: _least(
        lambda n: _pool._slices(math.isqrt(math.isqrt(n)) * cipher._RHO_STEP_WORK) > 1,
        1, 2**64)),
    "search-line": (r"each prime of (\d+) bits or more",
                    lambda: _least(lambda bits: search_walks(bits) > 1, 4, 4096)),
    "wheel-clock": (r"once per (\d+) divisions", lambda: cipher._TIMEOUT_CHECK_EVERY),
    "rho-clock": (r"once per (\d+) Pollard-rho steps", lambda: cipher._RHO_POLL_EVERY),
    "widest-keygen": (r"`keygen --bits` above (\d+) exits 2",
                      lambda: _least(_refuses_keygen, 4, 10**6) - 1),
    "digit-limit": (r"more than the (\d+) digits", lambda: sys.int_info.default_max_str_digits),
    "totient-bound": (r"brute force, n <= (10\^\d+)\)",
                      lambda: number_theory.TOTIENT_ORACLE_BOUND),
    "factor-bound": (r"trial division, n <= (10\^\d+)\)", lambda: FACTOR_BOUND),
}


def _number(text):
    # "2 × 2^20", "1009²" or "10^7" as an int
    expr = text.replace("×", "*").replace("^", "**").replace("²", "**2")
    assert re.fullmatch(r"[0-9* ]+", expr)
    return eval(expr, {"__builtins__": {}})


@pytest.mark.parametrize("name", README_NUMBERS)
def test_readme_number_matches_the_code(readme, monkeypatch, name):
    pattern, value = README_NUMBERS[name]
    [match] = re.findall(pattern, " ".join(readme.split()))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        expected = value()
    finally:
        sys.set_int_max_str_digits(old)
    for text in match if isinstance(match, tuple) else (match,):
        assert _number(text) == expected
