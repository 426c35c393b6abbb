"""Turn bytes into numeric blocks smaller than the modulus, and back.

RSA encrypts integers modulo n, so longer messages must be split into
blocks each strictly less than n.  Two codecs are provided, ``toy-ascii``
(:func:`encode_toy_ascii`) and ``chunked`` (:func:`encode_chunked`); each
encoder's docstring gives its framing.
"""

from __future__ import annotations

from ._record import Record
from .errors import (
    BlockOutOfRange,
    BlockTooLarge,
    InvalidArgument,
    MalformedBlock,
    ModulusTooSmallForCodec,
    NonAsciiByte,
)
from .number_theory import _decimal, _require_natural, _require_printable, _require_type

__all__ = [
    "CODEC_TOY_ASCII",
    "CODEC_CHUNKED",
    "CODECS",
    "BlockSeq",
    "chunk_size_for",
    "decimal_digits",
    "encode_toy_ascii",
    "decode_toy_ascii",
    "encode_chunked",
    "decode_chunked",
    "encode",
    "decode",
    "block_seq",
    "format_cipher_blocks",
    "parse_cipher_blocks",
    "format_plain_blocks",
]

CODEC_TOY_ASCII = "toy-ascii"
CODEC_CHUNKED = "chunked"
CODECS = (CODEC_TOY_ASCII, CODEC_CHUNKED)


class BlockSeq(Record):
    """An ordered run of message or cipher blocks plus codec bookkeeping.

    ``n_digits`` is the decimal digit count of the modulus and sets the
    zero-pad width when rendering cipher text.  ``chunk_bytes`` is the
    payload width of the chunked codec (None for toy-ascii).
    """

    blocks: tuple[int, ...]
    codec_id: str
    n_digits: int
    chunk_bytes: int | None = None


def decimal_digits(n: int) -> int:
    _require_natural(n, "n")
    _require_printable(n.bit_length(), n)
    return len(str(n))


def chunk_size_for(n: int) -> int:
    """Largest k with 256**k <= n: the bytes that always fit in one block."""
    _require_type(n, int, "n")
    if n < 256:
        raise ModulusTooSmallForCodec(f"chunked codec needs n >= 256, got {_decimal(n)}")
    # 256**k <= n exactly when 8k <= bit_length(n) - 1.
    return (n.bit_length() - 1) // 8


def encode_toy_ascii(text: bytes, n: int) -> BlockSeq:
    """One block per ASCII character; requires n > 999 so blocks fit."""
    _require_type(n, int, "n")
    if n <= 999:
        raise ModulusTooSmallForCodec(f"toy-ascii codec needs n > 999, got {_decimal(n)}")
    for b in text:
        if b >= 128:
            raise NonAsciiByte(f"byte 0x{b:02x} is not ASCII")
    return block_seq(tuple(text), CODEC_TOY_ASCII, n)


def decode_toy_ascii(bs: BlockSeq) -> bytes:
    return bytes(_ascii_codes(bs))


def _ascii_codes(bs: BlockSeq) -> tuple[int, ...]:
    # The blocks of a toy-ascii sequence, each an ASCII code.
    if bs.codec_id != CODEC_TOY_ASCII:
        raise InvalidArgument(f"expected a toy-ascii block sequence, got {bs.codec_id}")
    for b in bs.blocks:
        if not 0 <= b < 128:
            raise BlockOutOfRange(f"block {_decimal(b)} is not an ASCII code")
    return bs.blocks


def _negative(block: int) -> BlockOutOfRange:
    return BlockOutOfRange(f"block {_decimal(block)} is negative")


def encode_chunked(data: bytes, n: int) -> BlockSeq:
    """Pack bytes into base-256 blocks of ``chunk_size_for(n)`` bytes each.

    Full chunks become one block apiece; the remainder (possibly empty)
    always travels in a final block framed as [length byte][bytes], which
    stays below 256**k and therefore below n.  Empty input encodes to an
    empty sequence.
    """
    k = chunk_size_for(n)
    blocks: list[int] = []
    if data:
        full = len(data) // k
        for i in range(full):
            blocks.append(int.from_bytes(data[i * k : (i + 1) * k], "big"))
        tail = data[full * k :]
        blocks.append(int.from_bytes(bytes([len(tail)]) + tail, "big"))
    return block_seq(tuple(blocks), CODEC_CHUNKED, n)


def decode_chunked(bs: BlockSeq) -> bytes:
    """Exact inverse of :func:`encode_chunked`."""
    if bs.codec_id != CODEC_CHUNKED:
        raise InvalidArgument(f"expected a chunked block sequence, got {bs.codec_id}")
    if bs.chunk_bytes is None:
        raise MalformedBlock("chunked block sequence is missing its chunk size")
    k = bs.chunk_bytes
    if not bs.blocks:
        return b""
    out = bytearray()
    for v in bs.blocks[:-1]:
        try:
            out += v.to_bytes(k, "big")
        except OverflowError:
            if v < 0:
                raise _negative(v) from None
            raise MalformedBlock(f"block {_decimal(v)} exceeds the {k}-byte chunk frame") from None
    tail_value = bs.blocks[-1]
    if tail_value < 0:
        raise _negative(tail_value)
    if tail_value == 0:
        return bytes(out)
    field = tail_value.to_bytes((tail_value.bit_length() + 7) // 8, "big")
    length = field[0]
    if length >= k or len(field) != length + 1:
        raise MalformedBlock(f"final block {_decimal(tail_value)} has inconsistent framing")
    out += field[1:]
    return bytes(out)


def encode(data: bytes, n: int, codec_id: str) -> BlockSeq:
    """Encode ``data`` for modulus n with the codec named ``codec_id``."""
    # Called by module-global name, not through a table, so that whatever
    # rebinds encode_chunked (a profiler, a test double) sees every call.
    if codec_id == CODEC_TOY_ASCII:
        return encode_toy_ascii(data, n)
    if codec_id == CODEC_CHUNKED:
        return encode_chunked(data, n)
    raise InvalidArgument(f"unknown codec {codec_id!r}")


def decode(bs: BlockSeq) -> bytes:
    """Decode ``bs`` with the codec it names; inverse of :func:`encode`."""
    if bs.codec_id == CODEC_TOY_ASCII:
        return decode_toy_ascii(bs)
    if bs.codec_id == CODEC_CHUNKED:
        return decode_chunked(bs)
    raise InvalidArgument(f"unknown codec {bs.codec_id!r}")


def block_seq(blocks: tuple[int, ...], codec_id: str, n: int) -> BlockSeq:
    """Frame bare ``blocks`` as the codec ``codec_id`` does for modulus n."""
    chunk = chunk_size_for(n) if codec_id == CODEC_CHUNKED else None
    return BlockSeq(blocks, codec_id, decimal_digits(n), chunk)


def format_cipher_blocks(bs: BlockSeq) -> str:
    """Blocks in decimal, zero-padded to the modulus digit count, spaced."""
    if bs.blocks and min(bs.blocks) < 0:
        raise _negative(min(bs.blocks))
    return " ".join(str(b).zfill(bs.n_digits) for b in bs.blocks)


def parse_cipher_blocks(text: str, codec_id: str, n: int) -> BlockSeq:
    """Inverse of format_cipher_blocks: whitespace-separated decimal blocks."""
    decimal_digits(n)  # first: only then is a block past int()'s limit past n
    blocks: list[int] = []
    for token in text.split():
        if not token.isascii() or not token.isdigit():
            raise MalformedBlock(f"ciphertext token {token!r} is not a decimal block")
        digits = token.lstrip("0") or "0"  # zeros count toward int()'s limit
        try:
            blocks.append(int(digits))
        except ValueError:  # more digits than int() converts: more than n has
            raise BlockTooLarge(f"a {len(digits)}-digit block is not below {n}") from None
    return block_seq(tuple(blocks), codec_id, n)


def format_plain_blocks(bs: BlockSeq) -> str:
    """Display form of toy-ascii message blocks: 3-digit zero-padded codes."""
    return " ".join(str(b).zfill(3) for b in _ascii_codes(bs))
