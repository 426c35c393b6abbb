"""The golden corpus: every documented output of the command line, pinned once.

``tests/data/golden.txt`` holds one line per output: its sha256, what the
output is, and the ``rsa-primer`` command that makes it.  An output is a
command's streams (``exit=N``: stdout, then stderr, with N its exit code)
or a file it wrote, by name.  The commands run in file order, in one
directory that holds ``message.txt`` (the demo's message, ``Tue 7PM``),
and each sees only the files its ``--key`` and ``--in`` name; so every
file left after it is one it wrote.  ``crack --csv`` drops its
``elapsed_seconds`` column first, the one output that varies by run.

    python tests/golden.py --check   # run every command; exit 1 on a mismatch
    python tests/golden.py --write   # rewrite golden.txt from COMMANDS

Each command runs in this process, through ``rsa_primer.cli.main``, with
whichever ``rsa_primer`` imports first: the installed package, or ``src``
on ``PYTHONPATH``.  Standard library only.
"""

import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from rsa_primer.cli import main

CORPUS = Path(__file__).resolve().parent / "data" / "golden.txt"
MESSAGE = b"Tue 7PM"

# Every width the proven Miller-Rabin tier decides alone up to 40 bits, then
# widths past psi_13, on both sides of the prime search's race line (183
# bits), and 512 bits.
_WIDTHS = (*range(4, 41), 64, 128, 182, 183, 184, 256, 512)
# The keys each codec encrypts under: README's alice, and the 256-bit key
# TestSubprocess makes where the OS lacks fork or CPU affinity.
_ENCRYPT_UNDER = {(16, 42, False, False), (256, 7, False, True)}


def _keygens(bits):
    # (seed, --e 65537, --retain-pq) of each keygen line at one width: up to
    # 64 bits, three seeds with each pair of flags; past it, where a key
    # takes milliseconds, each pair once with a seed of its own (at 512 bits
    # the first two).
    if bits <= 64:
        return [(seed, fixed, retain) for seed in (1, 7, 42)
                for fixed in (False, True) for retain in (False, True)]
    return [(7, False, True), (42, True, False), (1, False, False),
            (5, True, True)][: 2 if bits == 512 else 4]


def _grid():
    for bits in _WIDTHS:
        for seed, fixed, retain in _keygens(bits):
            yield ["keygen", "--bits", str(bits), "--seed", str(seed),
                   *(["--e", "65537"] if fixed else []),
                   *(["--retain-pq"] if retain else []), "--out", "key"]
            if (bits, seed, fixed, retain) in _ENCRYPT_UNDER:
                for codec in ("toy-ascii", "chunked"):
                    yield ["encrypt", "--key", "key.pub", "--codec", codec,
                           "--in", "message.txt"]
    yield ["demo"]
    for seed in (1, 7, 42):
        yield ["demo", "--seed", str(seed)]
    for method in ("trial-division", "pollard-rho"):
        yield ["crack", "--csv", "--method", method, "--bits", "8,12,16,20", "--seed", "1"]


COMMANDS = list(_grid())


def run(args, stdin: bytes = b""):
    """``main(args)`` with swapped standard streams: (exit code, stdout, stderr)."""
    old = sys.stdin, sys.stdout, sys.stderr
    out, err = io.BytesIO(), io.BytesIO()
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    sys.stdout, sys.stderr = (io.TextIOWrapper(buf, encoding="utf-8", newline="",
                                               write_through=True) for buf in (out, err))
    try:
        code = main(list(args))
        sys.stdout.flush()
        sys.stderr.flush()
        return code, out.getvalue(), err.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old


def _cut_elapsed(csv: bytes) -> bytes:
    rows = [row.split(b",") for row in csv.splitlines(keepends=True)]
    column = rows[0].index(b"elapsed_seconds") if rows else 0
    return b"".join(b",".join(row[:column] + row[column + 1 :]) for row in rows)


def _outputs(args) -> list:
    # (output, sha256) of each output of one command, run in the current
    # directory.
    inputs = {"message.txt", *(value for flag, value in zip(args, args[1:])
                               if flag in ("--key", "--in"))}
    for name in set(os.listdir()) - inputs:
        os.remove(name)
    code, out, err = run(args)
    if args[:2] == ["crack", "--csv"]:
        out = _cut_elapsed(out)
    found = [(f"exit={code}", hashlib.sha256(out + err).hexdigest())]
    for name in sorted(set(os.listdir()) - inputs):
        found.append((name, hashlib.sha256(Path(name).read_bytes()).hexdigest()))
    return found


def _lines(commands) -> list:
    # The corpus lines of commands, run in order in a new directory.
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            Path("message.txt").write_bytes(MESSAGE)
            return [f"{digest}  {output}  rsa-primer {' '.join(args)}"
                    for args in commands for output, digest in _outputs(args)]
        finally:
            os.chdir(home)


def read() -> list:
    """The corpus's lines, comments left out."""
    text = CORPUS.read_text(encoding="ascii")
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def digest(command: str, output: str) -> str:
    """The pinned sha256 of one output of ``rsa-primer <command>``."""
    for line in read():
        pinned, name, text = line.split("  ", 2)
        if (name, text) == (output, f"rsa-primer {command}"):
            return pinned
    raise KeyError(f"no {output} of {command!r} in {CORPUS.name}")


def commands(lines) -> list:
    """The arguments of each command of corpus lines, in order."""
    found = []
    for line in lines:
        args = line.split("  ", 2)[2].split()[1:]
        if not found or found[-1] != args:
            found.append(args)
    return found


def check() -> list:
    """Run the corpus's commands: each line that differs, as the pinned
    line and the one the run made."""
    pinned = read()
    made = _lines(commands(pinned))
    mismatches = [(old, new) for old, new in zip(pinned, made) if old != new]
    if len(made) != len(pinned):
        mismatches.append((f"{len(pinned)} lines", f"{len(made)} lines"))
    return mismatches


_HEADER = """\
# sha256  output  command: the golden corpus of rsa-primer's documented
# outputs (tests/golden.py says how each line is made).  Regenerate with
# `python tests/golden.py --write` only for a change that means to alter
# an output, and say which in CHANGES.md.
"""


def write() -> None:
    CORPUS.write_text(_HEADER + "\n".join(_lines(COMMANDS)) + "\n", encoding="ascii")


if __name__ == "__main__":
    if sys.argv[1:] not in (["--check"], ["--write"]):
        sys.exit("usage: python tests/golden.py --check | --write")
    if sys.argv[1] == "--write":
        write()
        sys.exit(0)
    mismatches = check()
    for old, new in mismatches:
        print(f"pinned: {old}\n  made: {new}", file=sys.stderr)
    print(f"{len(read())} lines, {len(mismatches)} mismatched")
    sys.exit(1 if mismatches else 0)
