"""Command-line surface: keygen, encrypt, decrypt, crack, demo, nt.

Ciphertext travels as space-separated zero-padded decimal blocks so every
transcript stays human-checkable, and intermediate quantities real tools
would hide (phi(n), block encodings, recovered factors) are printed on
purpose; this is a teaching tool.

A command returns nothing.  It fails by raising a class of
:mod:`rsa_primer.errors`, whose message is the diagnostic and whose
``exit_code`` is the exit code (the README's table), or an ``OSError``
(exit 1); ``main`` catches nothing else and alone returns an exit code,
2 for a command line argparse refuses.
"""

from __future__ import annotations

import argparse
import sys

from .cipher import (
    METHODS,
    TRIAL_DIVISION,
    benchmark_csv,
    crack_benchmark,
    crack_private_key,
    decrypt_message,
    encrypt_message,
    smallest_factor,
)
from .codec import (
    CODEC_TOY_ASCII,
    CODECS,
    encode_toy_ascii,
    format_cipher_blocks,
    format_plain_blocks,
    parse_cipher_blocks,
)
from .errors import Error, InvalidArgument, MalformedBlock, MalformedKeyFile, OracleBoundExceeded
from .keys import (
    KeyPair,
    format_keypair,
    format_public_key,
    generate_keypair,
    keypair_from_primes,
    parse_key_file,
    private_part,
    public_part,
)
from .number_theory import (
    extended_gcd,
    gcd,
    is_probable_prime,
    mod_inverse,
    mod_pow,
    totient_bruteforce,
)

__all__ = ["main", "entry", "parse_cipher_blocks"]

# The fixed demo key and message of the classic walkthrough.
DEMO_P = 1721
DEMO_Q = 1801
DEMO_E = 1012333
DEMO_MESSAGE = b"Tue 7PM"
DEMO_SEEDED_BITS = 16

FACTOR_BOUND = 10**12


# --- argparse plumbing -------------------------------------------------------


def _natural(text: str) -> int:
    if not text.isascii() or not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a decimal natural, got {text!r}")
    return int(text)


def _seconds(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected seconds, got {text!r}") from None


def _bits_list(text: str) -> list[int]:
    return [_natural(part) for part in text.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsa-primer",
        description="Educational RSA toolkit: generate keys, encrypt and "
        "decrypt block-encoded text, crack toy keys, and walk the whole "
        "pipeline step by step.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair deterministically")
    p.add_argument("--bits", type=_natural, required=True, help="bits per prime (>= 4)")
    p.add_argument("--seed", type=_natural, required=True, help="nonzero 64-bit seed")
    p.add_argument("--e", type=_natural, default=None, help="fix the public exponent")
    p.add_argument(
        "--retain-pq",
        action="store_true",
        help="keep p, q, phi(n) in the pair file instead of destroying them",
    )
    p.add_argument("--out", required=True, metavar="PREFIX",
                   help="write PREFIX.pub and PREFIX.key")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt bytes to decimal cipher blocks")
    p.add_argument("--key", required=True, help="public or pair key file")
    p.add_argument("--codec", choices=CODECS, default=CODEC_TOY_ASCII)
    p.add_argument("--in", dest="infile", default=None,
                   help="plaintext file (default: stdin)")
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt decimal cipher blocks to bytes")
    p.add_argument("--key", required=True, help="private or pair key file")
    p.add_argument("--codec", choices=CODECS, default=CODEC_TOY_ASCII)
    p.add_argument("--in", dest="infile", default=None,
                   help="ciphertext file (default: stdin)")
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("crack", help="recover a private key by factoring n")
    p.add_argument("--key", default=None, help="public or pair key file")
    p.add_argument("--method", choices=METHODS, default=TRIAL_DIVISION)
    p.add_argument("--timeout", type=_seconds, default=None,
                   help="wall-clock budget in seconds")
    p.add_argument("--csv", action="store_true",
                   help="run the timing benchmark and emit CSV instead")
    p.add_argument("--bits", type=_bits_list, default=None,
                   help="benchmark bit widths, e.g. 8,12,16 (with --csv)")
    p.add_argument("--seed", type=_natural, default=None,
                   help="benchmark key seed (with --csv)")
    p.add_argument("--trials", type=_natural, default=None,
                   help="benchmark trials per bit width, >= 1 (with --csv; default 3)")
    p.set_defaults(func=_cmd_crack)

    p = sub.add_parser("demo", help="narrated end-to-end walkthrough")
    p.add_argument("--seed", type=_natural, default=None,
                   help="run on a freshly generated key instead of the fixed one")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("nt", help="number theory utilities")
    p.set_defaults(func=_cmd_nt)
    nt = p.add_subparsers(dest="nt_command", required=True)
    for name, (_, arg_names, help_text) in _NT_COMMANDS.items():
        q = nt.add_parser(name, help=help_text)
        for arg in arg_names:
            q.add_argument(arg, type=_natural)

    return parser


# --- commands ----------------------------------------------------------------


def _read_input(infile: str | None) -> bytes:
    if infile is None:
        return sys.stdin.buffer.read()
    with open(infile, "rb") as fh:
        return fh.read()


def _read_ascii(infile: str | None, error: Error) -> str:
    try:
        return _read_input(infile).decode("ascii")
    except UnicodeDecodeError:
        raise error from None


def _load_key_file(path: str, part):
    # part is public_part or private_part; every key-file diagnostic gets
    # its prefix and path here.
    not_ascii = MalformedKeyFile("key files are ASCII text")
    try:
        return part(parse_key_file(_read_ascii(path, not_ascii)))
    except MalformedKeyFile as exc:
        raise MalformedKeyFile(f"key file error: {path}: {exc}") from None


def _cmd_keygen(args: argparse.Namespace) -> None:
    kp = generate_keypair(args.bits, args.seed, e=args.e,
                          retain_provenance=args.retain_pq)
    pair_text = format_keypair(kp)
    pub_path = args.out + ".pub"
    key_path = args.out + ".key"
    with open(pub_path, "wb") as fh:
        fh.write(format_public_key(kp.public).encode("ascii"))
    with open(key_path, "wb") as fh:
        fh.write(pair_text.encode("ascii"))
    print(f"wrote {pub_path} (public) and {key_path} (pair)", file=sys.stderr)
    sys.stdout.write(pair_text.split("\n", 1)[1])  # the fields, without the header


def _cmd_encrypt(args: argparse.Namespace) -> None:
    pk = _load_key_file(args.key, public_part)
    data = _read_input(args.infile)
    bs = encrypt_message(data, pk, args.codec)
    if bs.blocks:
        print(format_cipher_blocks(bs))


def _cmd_decrypt(args: argparse.Namespace) -> None:
    sk = _load_key_file(args.key, private_part)
    not_ascii = MalformedBlock("ciphertext must be ASCII decimal blocks")
    bs = parse_cipher_blocks(_read_ascii(args.infile, not_ascii), args.codec, sk.n)
    data = decrypt_message(bs, sk)
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


def _cmd_crack(args: argparse.Namespace) -> None:
    if args.csv:
        if args.key is not None or args.bits is None or args.seed is None:
            raise InvalidArgument("crack --csv needs --bits and --seed, and no --key")
        trials = crack_benchmark(args.bits, args.seed, args.method, args.timeout,
                                 3 if args.trials is None else args.trials)
        sys.stdout.write(benchmark_csv(trials))
        return
    if args.key is None:
        raise InvalidArgument("crack needs --key (or --csv with --bits and --seed)")
    if args.bits is not None or args.seed is not None or args.trials is not None:
        raise InvalidArgument("crack --bits, --seed and --trials need --csv")
    pk = _load_key_file(args.key, public_part)
    report = crack_private_key(pk, args.method, args.timeout)
    print(f"p={report.p} q={report.q} phi={report.phi} d={report.d}")
    print(f"method={report.method} elapsed={report.elapsed:.6f}s")


def _demo_transcript(kp: KeyPair, message: bytes, seed: int | None) -> str:
    pub, priv, pr = kp.public, kp.private, kp.provenance
    plain = encode_toy_ascii(message, pub.n)
    cipher = encrypt_message(message, pub, CODEC_TOY_ASCII)
    recovered = decrypt_message(cipher, priv)
    recovered_blocks = encode_toy_ascii(recovered, pub.n)
    text = message.decode("ascii")

    lines = [
        "RSA walkthrough",
        "===============",
        "",
        "Key setup (receiver)",
    ]
    if seed is not None:
        lines.append(f"  seed                 {seed} ({DEMO_SEEDED_BITS}-bit primes)")
    lines += [
        f"  chosen primes        p = {pr.p}, q = {pr.q}",
        f"  modulus              n = p*q = {pub.n}",
        f"  totient              phi(n) = (p-1)*(q-1) = {pr.phi}",
        f"  public exponent      e = {pub.e} (coprime to phi(n))",
        f"  private exponent     d = {priv.d} (inverse of e modulo phi(n))",
        f"  released to anyone   (e, n) = ({pub.e}, {pub.n})",
        f"  kept by receiver     (d, n) = ({priv.d}, {pub.n}); p, q, phi(n) stay hidden",
        "",
        "Encryption (sender)",
        f"  message              {text}",
        f"  ascii blocks         {format_plain_blocks(plain)}",
        "  block transform      C = M^e mod n",
        f"  ciphertext           {format_cipher_blocks(cipher)}",
        "",
        "Decryption (receiver)",
        "  block transform      M = C^d mod n",
        f"  recovered blocks     {format_plain_blocks(recovered_blocks)}",
        "  recovered message:",
        text,
    ]
    return "\n".join(lines) + "\n"


def _cmd_demo(args: argparse.Namespace) -> None:
    if args.seed is None:
        kp = keypair_from_primes(DEMO_P, DEMO_Q, DEMO_E, retain_provenance=True)
    else:
        kp = generate_keypair(DEMO_SEEDED_BITS, args.seed, retain_provenance=True)
    sys.stdout.write(_demo_transcript(kp, DEMO_MESSAGE, args.seed))


def _factorize(n: int) -> list[int]:
    if not 2 <= n <= FACTOR_BOUND:
        raise OracleBoundExceeded(f"factor handles 2 <= n <= {FACTOR_BOUND}, got {n}")
    out: list[int] = []
    while n > 1:
        f = smallest_factor(n)
        out.append(f)
        n //= f
    return out


# nt subcommand -> (library function, its positional argument names, help)
_NT_COMMANDS = {
    "gcd": (gcd, ("a", "b"), "greatest common divisor"),
    "xgcd": (extended_gcd, ("a", "b"), "extended Euclid: prints g s t"),
    "inverse": (mod_inverse, ("a", "m"), "inverse of a modulo m"),
    "modpow": (mod_pow, ("base", "exponent", "n"), "base^exponent mod n"),
    "totient": (totient_bruteforce, ("n",),
                "Euler's totient by brute force (n <= 10^7)"),
    "isprime": (is_probable_prime, ("n",), "Miller-Rabin primality verdict"),
    "factor": (_factorize, ("n",), f"prime factorization (n <= {FACTOR_BOUND})"),
}


def _cmd_nt(args: argparse.Namespace) -> None:
    func, arg_names, _ = _NT_COMMANDS[args.nt_command]
    result = func(*(getattr(args, name) for name in arg_names))
    if isinstance(result, bool):
        print("true" if result else "false")
    elif isinstance(result, (tuple, list)):
        print(" ".join(map(str, result)))
    else:
        print(result)


# --- entry points ------------------------------------------------------------


_parser: argparse.ArgumentParser | None = None  # built once, on the first call


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except Error as exc:
        print(exc, file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())
