import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import GOLDEN_CIPHERTEXT
from rsa_primer.codec import (
    CODEC_CHUNKED,
    CODEC_TOY_ASCII,
    BlockSeq,
    block_seq,
    chunk_size_for,
    decimal_digits,
    decode,
    decode_chunked,
    decode_toy_ascii,
    encode_chunked,
    encode_toy_ascii,
    format_cipher_blocks,
    format_plain_blocks,
    parse_cipher_blocks,
)
from rsa_primer.errors import (
    BlockOutOfRange,
    BlockTooLarge,
    InvalidArgument,
    KeyTooLarge,
    MalformedBlock,
    ModulusTooSmallForCodec,
    NonAsciiByte,
)

TOY_N = 3099521
HUGE = 10**4400 + 1  # 14617 bits: past str()'s default limit of 4300 digits


class TestToyAscii:
    def test_worked_example(self):
        bs = encode_toy_ascii(b"Tue 7PM", TOY_N)
        assert bs.blocks == (84, 117, 101, 32, 55, 80, 77)
        assert bs.codec_id == CODEC_TOY_ASCII
        assert bs.n_digits == 7
        assert format_plain_blocks(bs) == "084 117 101 032 055 080 077"

    def test_empty(self):
        assert encode_toy_ascii(b"", TOY_N).blocks == ()
        assert decode_toy_ascii(encode_toy_ascii(b"", TOY_N)) == b""

    def test_non_ascii_rejected(self):
        with pytest.raises(NonAsciiByte):
            encode_toy_ascii("é".encode("utf-8"), TOY_N)

    def test_modulus_must_exceed_999(self):
        with pytest.raises(ModulusTooSmallForCodec):
            encode_toy_ascii(b"a", 999)
        assert encode_toy_ascii(b"a", 1000).blocks == (97,)

    def test_decode_inverse(self):
        assert decode_toy_ascii(encode_toy_ascii(b"Tue 7PM", TOY_N)) == b"Tue 7PM"

    def test_decode_rejects_large_block(self):
        bs = BlockSeq((200,), CODEC_TOY_ASCII, 7)
        with pytest.raises(BlockOutOfRange):
            decode_toy_ascii(bs)

    def test_decode_rejects_negative_block(self):
        bs = BlockSeq((-1,), CODEC_TOY_ASCII, 4)
        with pytest.raises(BlockOutOfRange, match="^block -1 is not an ASCII code$"):
            decode_toy_ascii(bs)
        with pytest.raises(BlockOutOfRange, match="^block -1 is not an ASCII code$"):
            decode(bs)

    @given(st.binary(max_size=200).map(lambda b: bytes(x & 0x7F for x in b)))
    def test_roundtrip(self, data):
        assert decode_toy_ascii(encode_toy_ascii(data, TOY_N)) == data


class TestChunkSize:
    def test_worked_example(self):
        # 256^2 = 65536 <= 3099521 < 256^3
        assert chunk_size_for(TOY_N) == 2

    def test_boundaries(self):
        assert chunk_size_for(256) == 1
        assert chunk_size_for(65535) == 1
        assert chunk_size_for(65536) == 2
        assert chunk_size_for(2**64) == 8

    def test_too_small(self):
        with pytest.raises(ModulusTooSmallForCodec):
            chunk_size_for(255)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    @pytest.mark.parametrize("k", range(1, 65))
    def test_matches_definition_around_powers_of_256(self, k, delta):
        n = 256**k + delta
        if n < 256:
            with pytest.raises(ModulusTooSmallForCodec):
                chunk_size_for(n)
            return
        size = chunk_size_for(n)
        assert 256**size <= n < 256 ** (size + 1)


class TestChunked:
    def test_single_byte(self):
        bs = encode_chunked(b"\x41", TOY_N)
        assert bs.chunk_bytes == 2
        # one tail block framed as [length=1][0x41]
        assert bs.blocks == (0x0141,)
        assert decode_chunked(bs) == b"\x41"

    def test_empty(self):
        bs = encode_chunked(b"", TOY_N)
        assert bs.blocks == ()
        assert decode_chunked(bs) == b""

    def test_exact_multiple_of_chunk(self):
        bs = encode_chunked(b"\x01\x02\x03\x04", TOY_N)
        assert bs.blocks == (0x0102, 0x0304, 0)
        assert decode_chunked(bs) == b"\x01\x02\x03\x04"

    def test_leading_zero_bytes_survive(self):
        data = b"\x00\x00A\x00"
        assert decode_chunked(encode_chunked(data, TOY_N)) == data

    def test_every_block_below_modulus(self):
        rnd = random.Random(7)
        for n in (256, 1000, 65536, TOY_N, 2**61 - 1):
            for _ in range(50):
                data = rnd.randbytes(rnd.randrange(0, 64))
                bs = encode_chunked(data, n)
                assert all(b < n for b in bs.blocks)

    def test_modulus_too_small(self):
        with pytest.raises(ModulusTooSmallForCodec):
            encode_chunked(b"hi", 255)

    def test_roundtrip_randomized(self):
        # 10^4 random byte strings across a spread of moduli
        rnd = random.Random(20260809)
        moduli = [256, 257, 999, 65536, TOY_N, 2**31 - 1, 2**127]
        for i in range(10**4):
            n = moduli[i % len(moduli)]
            data = rnd.randbytes(rnd.randrange(0, 48))
            assert decode_chunked(encode_chunked(data, n)) == data

    @given(st.binary(max_size=300))
    def test_roundtrip_property(self, data):
        for n in (256, TOY_N, 2**40):
            assert decode_chunked(encode_chunked(data, n)) == data

    def test_block_at_modulus_rejected(self):
        bs = BlockSeq((TOY_N,), CODEC_CHUNKED, 7, 2)
        with pytest.raises(MalformedBlock):
            decode_chunked(bs)

    def test_full_block_beyond_frame_rejected(self):
        bs = BlockSeq((1 << 16, 0x0141), CODEC_CHUNKED, 7, 2)
        with pytest.raises(MalformedBlock):
            decode_chunked(bs)

    def test_tail_length_inconsistent(self):
        # claims 3 tail bytes inside a 2-byte frame
        bs = BlockSeq((0x03414141,), CODEC_CHUNKED, 7, 2)
        with pytest.raises(MalformedBlock):
            decode_chunked(bs)

    def test_missing_chunk_size(self):
        bs = BlockSeq((0x0141,), CODEC_CHUNKED, 7, None)
        with pytest.raises(MalformedBlock):
            decode_chunked(bs)

    def test_wrong_codec_id(self):
        bs = encode_toy_ascii(b"a", TOY_N)
        with pytest.raises(ValueError):
            decode_chunked(bs)
        chunked = encode_chunked(b"a", TOY_N)
        with pytest.raises(ValueError, match="expected a toy-ascii block sequence"):
            decode_toy_ascii(chunked)
        with pytest.raises(ValueError, match="expected a toy-ascii block sequence"):
            format_plain_blocks(chunked)

    def test_unknown_codec(self):
        with pytest.raises(ValueError, match="unknown codec 'base64'"):
            decode(BlockSeq((1,), "base64", 7))


class TestFormatting:
    def test_worked_example(self, toy_keypair):
        from rsa_primer.cipher import encrypt_message

        bs = encrypt_message(b"Tue 7PM", toy_keypair.public, CODEC_TOY_ASCII)
        assert format_cipher_blocks(bs) == GOLDEN_CIPHERTEXT

    def test_empty(self):
        assert format_cipher_blocks(BlockSeq((), CODEC_TOY_ASCII, 7)) == ""

    # CPython's int() refuses more than 4300 decimal digits by default.
    def test_parse_strips_zero_padding_before_converting(self):
        token = "0" * 4400 + "84"
        assert parse_cipher_blocks(token, CODEC_TOY_ASCII, TOY_N).blocks == (84,)

    def test_parse_rejects_token_past_int_string_limit(self):
        # more significant digits than any key file's n can have
        with pytest.raises(BlockTooLarge):
            parse_cipher_blocks("1" * 4400, CODEC_TOY_ASCII, TOY_N)

    def test_parse_refuses_modulus_past_int_string_limit(self):
        # Checked first: a block past int()'s limit is past n only when n
        # itself is within it (here "1" * 4400 is below n).
        with pytest.raises(KeyTooLarge, match="^a 14617-bit modulus "):
            parse_cipher_blocks("1" * 4400, CODEC_TOY_ASCII, HUGE)

    def test_block_messages_write_a_huge_block_by_width(self):
        with pytest.raises(BlockOutOfRange,
                           match="^block <14617-bit number> is not an ASCII code$"):
            decode_toy_ascii(BlockSeq((HUGE,), CODEC_TOY_ASCII, 7))
        with pytest.raises(MalformedBlock,
                           match="^block <14617-bit number> exceeds the 2-byte chunk frame$"):
            decode_chunked(BlockSeq((HUGE, 1), CODEC_CHUNKED, 5, 2))
        with pytest.raises(MalformedBlock,
                           match="^final block <14617-bit number> has inconsistent framing$"):
            decode_chunked(BlockSeq((HUGE,), CODEC_CHUNKED, 5, 2))

    def test_pad_width_follows_modulus_digits(self):
        assert decimal_digits(143) == 3
        bs = BlockSeq((19,), CODEC_TOY_ASCII, decimal_digits(143))
        assert format_cipher_blocks(bs) == "019"

    # A minus sign is no digit: a negative modulus is refused, not counted.
    @pytest.mark.parametrize("n", [-1, -1001, -(2**64)])
    def test_negative_modulus_refused(self, n):
        with pytest.raises(InvalidArgument, match="^n must be non-negative, got -"):
            decimal_digits(n)
        with pytest.raises(InvalidArgument, match="^n must be non-negative, got -"):
            block_seq((1, 2), CODEC_TOY_ASCII, n)


class TestHandBuiltOutOfRangeBlocks:
    """Only a hand-built BlockSeq holds a negative block, or a toy-ascii
    block past 127; each is refused, never written or decoded."""

    def test_negative_cipher_block_refused(self):
        with pytest.raises(BlockOutOfRange, match="^block -1 is negative$"):
            format_cipher_blocks(BlockSeq((-1, 300), CODEC_TOY_ASCII, 4))

    @pytest.mark.parametrize("blocks, block", [((-1, 300), -1), ((84, 300), 300)])
    def test_plain_block_that_is_no_code_refused(self, blocks, block):
        with pytest.raises(BlockOutOfRange, match=f"^block {block} is not an ASCII code$"):
            format_plain_blocks(BlockSeq(blocks, CODEC_TOY_ASCII, 4))

    @pytest.mark.parametrize("blocks", [(-5,), (-5, 0x0141), (0x41, -(2**64))],
                             ids=["tail", "before-the-tail", "wide"])
    def test_negative_chunked_block_refused(self, blocks):
        block = next(b for b in blocks if b < 0)
        with pytest.raises(BlockOutOfRange, match=f"^block {block} is negative$"):
            decode_chunked(BlockSeq(blocks, CODEC_CHUNKED, 3, 1))
        with pytest.raises(BlockOutOfRange, match=f"^block {block} is negative$"):
            decode(BlockSeq(blocks, CODEC_CHUNKED, 3, 1))
