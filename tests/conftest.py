import io
import sys
from dataclasses import dataclass

import pytest

from rsa_primer.cli import main as cli_main
from rsa_primer.keys import keypair_from_primes


@dataclass
class CliResult:
    code: int
    out: bytes
    err: bytes

    @property
    def text(self) -> str:
        return self.out.decode("utf-8")


def invoke_cli(args, stdin: bytes = b"") -> CliResult:
    """Run the CLI in-process with swapped standard streams."""
    old = sys.stdin, sys.stdout, sys.stderr
    out_buf, err_buf = io.BytesIO(), io.BytesIO()
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    sys.stdout = io.TextIOWrapper(out_buf, encoding="utf-8", newline="",
                                  write_through=True)
    sys.stderr = io.TextIOWrapper(err_buf, encoding="utf-8", newline="",
                                  write_through=True)
    try:
        code = cli_main(list(args))
        sys.stdout.flush()
        sys.stderr.flush()
        out, err = out_buf.getvalue(), err_buf.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old
    return CliResult(code, out, err)


@pytest.fixture
def cli():
    return invoke_cli


@pytest.fixture
def low_digit_limit():
    """CPython's int-string limit lowered to its minimum, 640 digits, for one
    test; the widest modulus str() then writes has 2127 bits."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture(scope="session")
def toy_keypair():
    """The worked-example key: p=1721, q=1801, e=1012333, d=997."""
    return keypair_from_primes(1721, 1801, 1012333, retain_provenance=True)


@pytest.fixture(scope="session")
def small_keypair():
    """The two-digit-prime key: (113, 143) public, (17, 143) private."""
    return keypair_from_primes(11, 13, 113, retain_provenance=True)
