"""RSA key generation, validation, and the flat key file format.

A key pair is built the textbook way: two distinct random primes p and q,
n = p*q, phi = (p-1)*(q-1), a public exponent e coprime to phi, and
d the inverse of e modulo phi.  The factors and phi are dropped by default
("destroyed"); pass ``retain_provenance=True`` to keep them for teaching
output, deeper validation and CRT decryption.
"""

from __future__ import annotations

import math
import re

from ._record import Record
from .errors import InvalidPublicExponent, MalformedKeyFile
from .number_theory import (Rng64, _decimal, _draw_bits, _require_natural, _require_printable,
                            _require_type, gen_prime, is_probable_prime, mod_inverse, mod_pow,
                            totient_of_semiprime)

__all__ = [
    "PublicKey",
    "PrivateKey",
    "Provenance",
    "KeyPair",
    "generate_keypair",
    "keypair_from_primes",
    "validate_keypair",
    "format_public_key",
    "format_private_key",
    "format_keypair",
    "parse_key_file",
    "public_part",
    "private_part",
]


class PublicKey(Record):
    e: int
    n: int


class PrivateKey(Record, derived=("crt",)):
    """The exponent d and modulus n, plus CRT values when the factors are known.

    ``crt`` is (p, q, dP, dQ, qInv), set only for keys made or parsed with
    their provenance; decryption then works modulo p and q separately.  It
    is derived from p, q and d, so it takes no part in equality, hashing,
    repr or the key file.
    """

    d: int
    n: int
    crt: tuple[int, int, int, int, int] | None = None


class Provenance(Record):
    """The secrets behind a key pair: factors of n and the totient."""

    p: int
    q: int
    phi: int


class KeyPair(Record):
    public: PublicKey
    private: PrivateKey
    provenance: Provenance | None = None


def _check_exponent(e: int, phi: int) -> None:
    if not 1 < e < phi:
        raise InvalidPublicExponent(f"e must satisfy 1 < e < {phi}, got {_decimal(e)}")
    g = math.gcd(e, phi)
    if g != 1:
        raise InvalidPublicExponent(f"gcd(e, phi) = gcd({e}, {phi}) = {g} != 1")


def _draw_exponent(phi: int, rng: Rng64) -> int:
    # phi is even for odd primes p, q, so drawing only odd values loses nothing.
    width = phi.bit_length()
    while True:
        e = _draw_bits(width, rng) | 1
        if 3 <= e < phi and math.gcd(e, phi) == 1:
            return e


def _crt_private_key(d: int, p: int, q: int) -> PrivateKey:
    # RFC 8017 section 3.2 takes dP = d mod (p-1).  Taking it in [1, p-1]
    # instead agrees with that except where d mod (p-1) is 0, as for p = 2,
    # and there c^0 = 1 would be wrong for every block divisible by p.
    dp = (d - 1) % (p - 1) + 1
    dq = (d - 1) % (q - 1) + 1
    return PrivateKey(d, p * q, (p, q, dp, dq, pow(q, -1, p)))


def _assemble(p: int, q: int, phi: int, e: int, retain_provenance: bool) -> KeyPair:
    n = p * q
    _check_exponent(e, phi)
    d = mod_inverse(e, phi)
    if not retain_provenance:
        return KeyPair(PublicKey(e, n), PrivateKey(d, n))
    return KeyPair(PublicKey(e, n), _crt_private_key(d, p, q), Provenance(p, q, phi))


def generate_keypair(
    bits_per_prime: int,
    seed: int,
    e: int | None = None,
    retain_provenance: bool = False,
) -> KeyPair:
    """Generate a key pair deterministically from a nonzero 64-bit seed.

    p and q are drawn at exactly ``bits_per_prime`` bits, q redrawn until it
    differs from p.  With ``e=None`` the public exponent is drawn as a
    uniform odd value in [3, phi) until coprime to phi (no bias toward
    large values); a caller-fixed ``e`` is validated instead and raises
    :class:`InvalidPublicExponent` when unusable.  A width whose widest
    modulus no key file could hold raises :class:`KeyTooLarge` before any
    prime is drawn.
    """
    _require_printable(2 * bits_per_prime)
    rng = Rng64(seed)
    p = gen_prime(bits_per_prime, rng)
    q = gen_prime(bits_per_prime, rng)
    while q == p:
        q = gen_prime(bits_per_prime, rng)
    phi = (p - 1) * (q - 1)
    if e is None:
        e = _draw_exponent(phi, rng)
    return _assemble(p, q, phi, e, retain_provenance)


def keypair_from_primes(
    p: int, q: int, e: int, retain_provenance: bool = False
) -> KeyPair:
    """Build a key pair from explicit primes, with no randomness involved."""
    _require_natural(p, "p")
    _require_natural(q, "q")
    n = p * q  # refused before the primality tests, slow at such a width
    _require_printable(n.bit_length(), n)
    return _assemble(p, q, totient_of_semiprime(p, q), e, retain_provenance)


def validate_keypair(kp: KeyPair) -> list[str]:
    """Check key pair consistency; an empty findings list means valid.

    With provenance the arithmetic relations are checked directly
    (primality of p and q, n = p*q, phi = (p-1)(q-1), e*d = 1 mod phi).
    Without it the only observable contract is the cipher itself, so
    encrypt-then-decrypt is probed on fixed values {2, 3, n-2}.
    """
    _require_type(kp, KeyPair, "kp")
    pub, priv = kp.public, kp.private
    if pub.n != priv.n:
        return ["modulus mismatch between public and private halves"]
    if pub.n <= 1:
        return ["modulus must exceed 1"]
    findings: list[str] = []
    if kp.provenance is not None:
        p, q, phi = kp.provenance.p, kp.provenance.q, kp.provenance.phi
        if not is_probable_prime(p):
            findings.append(f"p = {_decimal(p)} is not prime")
        if not is_probable_prime(q):
            findings.append(f"q = {_decimal(q)} is not prime")
        if p == q:
            findings.append("p and q are equal")
        if p * q != pub.n:
            findings.append("n does not equal p*q")
        if (p - 1) * (q - 1) != phi:
            findings.append("phi does not equal (p-1)*(q-1)")
        if phi > 1 and (pub.e * priv.d) % phi != 1:
            findings.append("inverse check failed: (e*d) mod phi != 1")
    else:
        for probe in (2, 3, pub.n - 2):
            m = probe % pub.n
            if mod_pow(mod_pow(m, pub.e, pub.n), priv.d, priv.n) != m:
                findings.append(f"round trip failed for probe {m}")
    return findings


# --- key file format ---------------------------------------------------------
#
# The format is the one README.md's "Key files" gives: the kind's header
# line, then one `name=<decimal>` line per field of _FIELDS_BY_KIND, in its
# order, and for a pair optionally the _PROVENANCE_FIELDS.

_FIELD_RE = re.compile(r"^([a-z]+)=(0|-?[1-9][0-9]*)$")

_FIELDS_BY_KIND = {
    "public": ("n", "e"),
    "private": ("n", "d"),
    "pair": ("n", "e", "d"),
}
_PROVENANCE_FIELDS = ("p", "q", "phi")
_HEADER_BY_KIND = {kind: f"rsa-primer {kind} v1" for kind in _FIELDS_BY_KIND}
_KIND_BY_HEADER = {header: kind for kind, header in _HEADER_BY_KIND.items()}


def _check_numbers(values: dict[str, int]) -> None:
    # The reader's rules on a key file's numbers, which every writer keeps.
    for name, x in values.items():
        if name == "n" and x <= 1:
            raise MalformedKeyFile(f"n must exceed 1, got {_decimal(x)}")
        if name in ("e", "d") and (x < 3 or x % 2 == 0):
            raise MalformedKeyFile(f"{name} must be odd and at least 3, got {_decimal(x)}")
        if x < 0:
            raise MalformedKeyFile(f"{name} must not be negative, got {_decimal(x)}")


def _format_key_file(kind: str, values: dict[str, object]) -> str:
    # The kind's header, then its table's fields in order; a pair whose
    # values hold its provenance adds the trio.
    names = _FIELDS_BY_KIND[kind] + _PROVENANCE_FIELDS
    values = {name: values[name] for name in names if name in values}
    _check_numbers(values)
    for name, x in values.items():
        _require_printable(x.bit_length(), x, "modulus" if name == "n" else name)
    lines = [_HEADER_BY_KIND[kind], *(f"{name}={x}" for name, x in values.items())]
    return "\n".join(lines) + "\n"


def format_public_key(pk: PublicKey) -> str:
    return _format_key_file("public", vars(pk))


def format_private_key(sk: PrivateKey) -> str:
    return _format_key_file("private", vars(sk))


def format_keypair(kp: KeyPair) -> str:
    _require_type(kp, KeyPair, "kp")
    values = {**vars(kp.private), **vars(kp.public)}
    if kp.provenance is not None:
        values.update(vars(kp.provenance))
    return _format_key_file("pair", values)


def parse_key_file(text: str) -> PublicKey | PrivateKey | KeyPair:
    """Parse a key file, enforcing the format bit-exactly.

    A pair file must pass :func:`validate_keypair`, or
    :class:`MalformedKeyFile` is raised; the private key of a pair with p,
    q and phi then decrypts by CRT, trusting p and q.
    """
    if not text.endswith("\n"):
        raise MalformedKeyFile("key file must end with a newline")
    lines = text.split("\n")[:-1]  # not empty: text ends with a newline
    kind = _KIND_BY_HEADER.get(lines[0])
    if kind is None:
        raise MalformedKeyFile(f"unrecognized header line: {lines[0]!r}")

    expected = _FIELDS_BY_KIND[kind]
    body = lines[1:]
    if kind == "pair" and len(body) == len(expected) + len(_PROVENANCE_FIELDS):
        expected = expected + _PROVENANCE_FIELDS
    if len(body) != len(expected):
        raise MalformedKeyFile(
            f"{kind} key file needs fields {expected}, got {len(body)} lines"
        )
    values: dict[str, int] = {}
    for line, name in zip(body, expected):
        field = _FIELD_RE.match(line)
        if field is None or field.group(1) != name:
            raise MalformedKeyFile(f"expected {name}=<canonical decimal>, got {line!r}")
        try:
            values[name] = int(field.group(2))
        except ValueError as exc:  # more digits than int() converts
            raise MalformedKeyFile(f"{name}: {exc}") from None
    _check_numbers(values)

    public = PublicKey(values["e"], values["n"]) if "e" in values else None
    private = PrivateKey(values["d"], values["n"]) if "d" in values else None
    if kind != "pair":
        return public or private
    provenance = Provenance(values["p"], values["q"], values["phi"]) if "p" in values else None
    findings = validate_keypair(KeyPair(public, private, provenance))
    if findings:
        what = "pair" if provenance is None else "provenance"
        raise MalformedKeyFile(f"inconsistent {what}: " + "; ".join(findings))
    if provenance is not None:
        private = _crt_private_key(private.d, provenance.p, provenance.q)
    return KeyPair(public, private, provenance)


def public_part(key: PublicKey | PrivateKey | KeyPair) -> PublicKey:
    """The public half of any parsed key object, if it has one."""
    if isinstance(key, PublicKey):
        return key
    if isinstance(key, KeyPair):
        return key.public
    raise MalformedKeyFile("a public key is required (got a private-only file)")


def private_part(key: PublicKey | PrivateKey | KeyPair) -> PrivateKey:
    """The private half of any parsed key object, if it has one."""
    if isinstance(key, PrivateKey):
        return key
    if isinstance(key, KeyPair):
        return key.private
    raise MalformedKeyFile("a private key is required (got a public-only file)")
