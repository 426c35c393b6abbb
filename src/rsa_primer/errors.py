"""Exception types raised across the toolkit.

Every error is a subclass of :class:`Error` so callers can catch the whole
family with one clause; :class:`InvalidArgument` is also a ``ValueError``.
A wrong type raises ``TypeError``, as in Python.  Each class carries its
CLI exit code as ``exit_code``, which ``cli.main`` returns: 3 (a codec or
number-theory domain error) unless the class overrides it.
"""


class Error(Exception):
    """Base class for all rsa-primer errors."""
    exit_code = 3


class InvalidArgument(Error, ValueError):
    """An argument outside its range, or flags valid alone but not together."""
    exit_code = 2


# --- number theory ---------------------------------------------------------

class ModulusTooSmall(Error):
    """Modular operation attempted with a modulus of 1 or less."""


class BothZero(Error):
    """gcd(0, 0) requested; the greatest common divisor is undefined."""


class NotCoprime(Error):
    """No modular inverse exists because gcd(a, m) != 1."""


class NotPrime(Error):
    """An argument required to be prime failed the primality test."""


class EqualPrimes(Error):
    """The two primes of a semiprime must be distinct."""


class OracleBoundExceeded(Error):
    """A brute-force oracle was called outside its documented input bound."""


class BitsTooSmall(Error):
    """Prime generation requires a bit width of at least 4."""
    exit_code = 2


class ZeroState(Error):
    """The random stream state must be a nonzero 64-bit value."""
    exit_code = 2


# --- keys ------------------------------------------------------------------

class InvalidPublicExponent(Error):
    """e must satisfy 1 < e < phi(n) and gcd(e, phi(n)) = 1."""
    exit_code = 2


class KeyTooLarge(Error):
    """A modulus, or another number a key file would write, has more
    decimal digits than ``str()`` writes under
    ``sys.get_int_max_str_digits()``, so no key file could hold it."""
    exit_code = 2


class MalformedKeyFile(Error):
    """Key file text does not match the documented format exactly."""
    exit_code = 4


# --- codec -----------------------------------------------------------------

class NonAsciiByte(Error):
    """toy-ascii encoding only accepts bytes below 128."""


class ModulusTooSmallForCodec(Error):
    """The modulus is too small to hold one block of the chosen codec."""


class BlockOutOfRange(Error):
    """A decoded block does not fit the codec's value range."""


class MalformedBlock(Error):
    """A block sequence violates the codec's framing rules."""


# --- cipher / attack -------------------------------------------------------

class BlockTooLarge(Error):
    """Message and cipher blocks must be strictly less than the modulus n."""
    exit_code = 5


class NotSemiprime(Error):
    """The attacked modulus is not a product of two distinct primes."""


class NoFactor(Error):
    """There is no factor to find: n < 2 has no prime factor, and Pollard rho
    needs a composite n (a prime has no proper factor)."""


class CrackTimeout(Error):
    """Factoring exceeded its wall-clock budget.

    Attributes ``elapsed`` (seconds spent) and ``method`` are filled in by
    :func:`rsa_primer.cipher.crack_private_key`, which also leads the
    message with ``timed out after X.XXXs: `` before the error propagates.
    """

    exit_code = 6
    elapsed: float = 0.0
    method: str = ""
