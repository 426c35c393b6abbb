"""The benchmark's workloads: inputs drawn from a seed, one timed operation,
and the check of its output.

Each workload is built once per set-up from the workload seed; ``run(i)``
performs operation ``i`` and times only the calls into the program, and
``check(i, op)`` verifies its output outside the timed region.  README.md in
this directory records why each workload exists.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

from tracing import count_children

DEFAULT_SEED = 1
SEED_POOL = 4096  # key seeds per run; operations cycle through them

KEYGEN_BITS = 256

BULK_BITS = 256  # per prime, so the modulus has 512 bits
BULK_E = 65537
BULK_MESSAGE_BYTES = 64 * 1024
BULK_MESSAGES = 4

# Bits per prime for each attack method, small enough that a run cracks over
# a hundred keys: Pollard rho's time varies several-fold from key to key, and
# with fewer keys a run's tail moved between seeds by more than 10 %.
CRACK_BITS = {"trial-division": 18, "pollard-rho": 28}
CRACK_POOL = 256
CRACK_TIMEOUT_S = 30.0

CLI_BITS = 16
CLI_TEXT_BYTES = 4096
CLI_TEXTS = 4
CLI_COMMANDS = ("keygen", "encrypt", "decrypt", "crack")
CLI_TIMEOUT_S = 60.0
CLI_STARTUP_REPS = 5

# sha256 of the documented bytes the first operation produces under the
# default seed.  A change that alters a key file or ciphertext fails the run.
PINS = {
    "keygen": {
        "key_file": "88b57137295586a4bfa39306eb290a5abdf74152b050527a852035fbd6fb546d",
    },
    "bulk": {
        "key_file": "59214e820cd293e520fc8dd3859d285d024b92caf7e43389b911ec977de25276",
        "ciphertext": "163680a827eeea568ed9cb08cc1e5a51d618e537ea93705836c209f0e6918a53",
    },
    "crack": {
        "trial-division.key_file": "8881bf621c093053e692e5806b655142b36a17f39e564d155450c30fc9f33354",
        "pollard-rho.key_file": "98921bfd3f741e103704703d58d5f2c592a9f6e1c49feddc910feae607a3f134",
    },
    "cli": {
        "key_file": "4df4f4a064ada21093236ae3a1b3d1bd46839008cc1c96441a9a52cd65db9387",
        "ciphertext": "ecd6005b20941d93251dc99422738303018fc6f2ead0f760c8e50c4ac4ea3367",
    },
}

_REF_BASE = 3**400
_REF_MODULUS = _REF_BASE + 12345

_LIBRARY_MODULES = ("number_theory", "keys", "codec", "cipher", "cli", "errors")


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("ascii")
    return hashlib.sha256(data).hexdigest()


def load_library(root: Path) -> SimpleNamespace:
    """Import ``rsa_primer`` afresh from ``root/src``; one module per layer.

    Earlier imports are dropped first, so the import itself is part of each
    set-up that calls this.
    """
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "rsa_primer" or m.startswith("rsa_primer.")]:
        del sys.modules[name]
    package = importlib.import_module("rsa_primer")
    if Path(package.__file__).resolve().parent != (src / "rsa_primer").resolve():
        raise ImportError(f"rsa_primer was imported from {package.__file__}, not {src}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"rsa_primer.{name}") for name in _LIBRARY_MODULES}
    )


def _key_seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(1, 1 << 64) for _ in range(count)]


@dataclass
class Op:
    """One operation: its timed seconds and what it produced."""

    seconds: float
    output: object = None  # compared between the traced and untraced passes
    value: object = None  # what check() inspects; dropped once checked
    phases: dict[str, float] = field(default_factory=dict)
    error: str | None = None


class Workload:
    name = ""
    # Public functions whose calls and self time the traced run reports, and
    # the layers whose share of wall time it reports.
    traced_functions: tuple[str, ...] = ()
    layers: tuple[str, ...] = ()
    rss_of_children = False
    # Seconds reference() is taken to need on an uncontended host.
    reference_nominal_s = 0.001

    def __init__(self, lib: SimpleNamespace, seed: int, root: Path):
        self.lib = lib
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def run(self, i: int) -> Op:
        raise NotImplementedError

    def reference(self) -> float:
        """Seconds taken by fixed work that is not part of the program: the
        small-integer interpreter loops and big-integer products the
        in-process workloads spend their time on."""
        start = perf_counter()
        acc = 1
        for i in range(3000):
            acc = (acc * 1103515245 + i) % 2147483647
        for _ in range(60):
            acc = acc * _REF_BASE % _REF_MODULUS
        return perf_counter() - start

    def check(self, i: int, op: Op) -> str | None:
        return None

    def details(self, ops: list[Op]) -> dict[str, tuple[float, str]]:
        """Workload-specific figures, computed from successful operations."""
        return {}

    def derived(self, stats, spans, ops: list[Op]) -> dict[str, tuple[float, str]]:
        """Figures the traced run reports beyond calls, self time and shares."""
        return {}

    def close(self) -> None:
        pass

    def check_pins(self, i: int, **texts: str | bytes) -> str | None:
        if self.seed != DEFAULT_SEED or i != 0:
            return None
        for label, text in texts.items():
            digest = sha256(text)
            if digest != PINS[self.name][label]:
                return f"{label} sha256 {digest} differs from the pinned digest"
        return None


class Keygen(Workload):
    """``generate_keypair(256, seed_i)`` with the default uniform ``e`` draw."""

    name = "keygen"
    traced_functions = (
        "number_theory.mod_pow",
        "number_theory.is_probable_prime",
        "number_theory.gen_prime",
        "number_theory.gcd",
        "number_theory.mod_inverse",
        "keys.generate_keypair",
    )
    layers = ("number_theory", "keys")

    def __init__(self, lib, seed, root):
        super().__init__(lib, seed, root)
        self.key_seeds = _key_seeds(self.rng, SEED_POOL)

    def run(self, i):
        key_seed = self.key_seeds[i % SEED_POOL]
        start = perf_counter()
        kp = self.lib.keys.generate_keypair(KEYGEN_BITS, key_seed, retain_provenance=True)
        seconds = perf_counter() - start
        return Op(seconds, (kp.public.n, kp.public.e, kp.private.d), kp)

    def check(self, i, op):
        findings = self.lib.keys.validate_keypair(op.value)
        if findings:
            return "validate_keypair: " + "; ".join(findings)
        return self.check_pins(i, key_file=self.lib.keys.format_keypair(op.value))

    def derived(self, stats, spans, ops):
        candidates = count_children(
            spans, "number_theory.is_probable_prime", "number_theory.gen_prime"
        )
        keys = stats["keys.generate_keypair"].calls
        return {
            f"{self.name}.number_theory.prime_yield": (
                stats["number_theory.gen_prime"].calls / candidates, "primes/candidate"
            ),
            f"{self.name}.keys.exponent_draws_per_key": (
                stats["keys._draw_bits"].calls / keys, "draws/key"
            ),
        }


class Bulk(Workload):
    """64 KiB messages through the CLI's path: encrypt, format, parse, decrypt."""

    name = "bulk"
    traced_functions = (
        "number_theory.mod_pow",
        "codec.encode_chunked",
        "codec.decode_chunked",
        "codec.format_cipher_blocks",
        "cli.parse_cipher_blocks",
        "cipher.encrypt_message",
        "cipher.decrypt_message",
        "cipher.encrypt_block",
        "cipher.decrypt_block",
    )
    layers = ("number_theory", "codec", "cipher", "cli")

    def __init__(self, lib, seed, root):
        super().__init__(lib, seed, root)
        self.key = self._make_key()
        self.messages = [self.rng.randbytes(BULK_MESSAGE_BYTES) for _ in range(BULK_MESSAGES)]

    def _make_key(self):
        # A fixed e is unusable when it divides phi; draw the next seed then.
        while True:
            try:
                return self.lib.keys.generate_keypair(
                    BULK_BITS, self.rng.randrange(1, 1 << 64), e=BULK_E, retain_provenance=True
                )
            except self.lib.errors.InvalidPublicExponent:
                continue

    def run(self, i):
        cipher, codec = self.lib.cipher, self.lib.codec
        message = self.messages[i % BULK_MESSAGES]
        public, private = self.key.public, self.key.private
        start = perf_counter()
        text = codec.format_cipher_blocks(
            cipher.encrypt_message(message, public, codec.CODEC_CHUNKED)
        )
        encrypted = perf_counter()
        blocks = self.lib.cli.parse_cipher_blocks(text, codec.CODEC_CHUNKED, private.n)
        back = cipher.decrypt_message(blocks, private)
        end = perf_counter()
        return Op(
            end - start,
            (sha256(text), sha256(back)),
            (message, text, back),
            {"encrypt": encrypted - start, "decrypt": end - encrypted},
        )

    def check(self, i, op):
        message, text, back = op.value
        if back != message:
            return "decrypt did not give back the input bytes"
        return self.check_pins(
            i, key_file=self.lib.keys.format_keypair(self.key), ciphertext=text
        )

    def details(self, ops):
        ok = [op for op in ops if op.error is None]
        kib = len(ok) * BULK_MESSAGE_BYTES / 1024
        return {
            f"{self.name}.{phase}_KiB_per_s": (
                kib / sum(op.phases[phase] for op in ok), "KiB/s"
            )
            for phase in ("encrypt", "decrypt")
        } if ok else {}


class Crack(Workload):
    """One trial-division and one Pollard-rho key recovery per operation."""

    name = "crack"
    traced_functions = (
        "number_theory.mod_pow",
        "number_theory.is_probable_prime",
        "number_theory.gcd",
        "number_theory.mod_inverse",
        "cipher.crack_private_key.trial-division",
        "cipher.crack_private_key.pollard-rho",
    )
    layers = ("number_theory", "cipher")

    def __init__(self, lib, seed, root):
        super().__init__(lib, seed, root)
        self.pools = {
            method: [
                lib.keys.generate_keypair(bits, key_seed)
                for key_seed in _key_seeds(self.rng, CRACK_POOL)
            ]
            for method, bits in CRACK_BITS.items()
        }

    def run(self, i):
        phases: dict[str, float] = {}
        recovered = []
        for method, pool in self.pools.items():
            public = pool[i % CRACK_POOL].public
            start = perf_counter()
            report = self.lib.cipher.crack_private_key(public, method, CRACK_TIMEOUT_S)
            phases[method] = perf_counter() - start
            recovered.append(report.d)
        return Op(sum(phases.values()), tuple(recovered), tuple(recovered), phases)

    def check(self, i, op):
        for d, (method, pool) in zip(op.value, self.pools.items()):
            if d != pool[i % CRACK_POOL].private.d:
                return f"{method} recovered d = {d}, not the generated one"
        return self.check_pins(i, **{
            f"{method}.key_file": self.lib.keys.format_keypair(pool[0])
            for method, pool in self.pools.items()
        })

    def details(self, ops):
        ok = [op for op in ops if op.error is None]
        return {
            f"{self.name}.{method}.keys_per_s": (
                len(ok) / sum(op.phases[method] for op in ok), "keys/s"
            )
            for method in CRACK_BITS
        } if ok else {}


class CommandFailed(Exception):
    pass


class Cli(Workload):
    """Real ``python -m rsa_primer`` processes: keygen, encrypt, decrypt, crack."""

    name = "cli"
    rss_of_children = True
    reference_nominal_s = 0.05

    def __init__(self, lib, seed, root):
        super().__init__(lib, seed, root)
        self.key_seeds = _key_seeds(self.rng, SEED_POOL)
        paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        self.workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=root))
        self.texts = []
        for k in range(CLI_TEXTS):
            path = self.workdir / f"plain{k}.txt"
            data = _ascii_text(self.rng, CLI_TEXT_BYTES)
            path.write_bytes(data)
            self.texts.append((path.name, data))
        # Warm-up: the first start compiles bytecode and fills the page cache.
        self.command("--help")

    def python(self, *args: str) -> tuple[float, bytes]:
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, *args], capture_output=True, env=self.env,
            cwd=self.workdir, timeout=CLI_TIMEOUT_S,
        )
        seconds = perf_counter() - start
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            raise CommandFailed(f"{args} exited with {proc.returncode}: {stderr}")
        return seconds, proc.stdout

    def reference(self):
        # Starting a bare interpreter: process creation and start-up are what
        # a shared host slows in this workload, more than computation.
        return self.python("-c", "pass")[0]

    def command(self, *args: str) -> tuple[float, bytes]:
        return self.python("-m", "rsa_primer", *args)

    def run(self, i):
        key_seed = self.key_seeds[i % SEED_POOL]
        plain_name, plain = self.texts[i % CLI_TEXTS]
        phases: dict[str, float] = {}
        phases["keygen"], keygen_out = self.command(
            "keygen", "--bits", str(CLI_BITS), "--seed", str(key_seed), "--out", "k"
        )
        phases["encrypt"], ciphertext = self.command("encrypt", "--key", "k.pub", "--in", plain_name)
        (self.workdir / "ct.txt").write_bytes(ciphertext)
        phases["decrypt"], back = self.command("decrypt", "--key", "k.key", "--in", "ct.txt")
        phases["crack"], crack_out = self.command("crack", "--key", "k.pub")
        key_file = (self.workdir / "k.key").read_bytes()
        recovered = crack_out.split(b"\n")[0]  # the second line holds the elapsed time
        return Op(
            sum(phases.values()),
            (sha256(key_file), sha256(ciphertext), sha256(back), recovered),
            (plain, keygen_out, key_file, ciphertext, back, recovered),
            phases,
        )

    def check(self, i, op):
        plain, keygen_out, key_file, ciphertext, back, recovered = op.value
        if back != plain:
            return "decrypt stdout differs from the plaintext"
        d = re.search(rb"^d=(\d+)$", keygen_out, re.MULTILINE)
        cracked = re.search(rb"\bd=(\d+)", recovered)
        if d is None or cracked is None or d.group(1) != cracked.group(1):
            return "crack did not recover the generated d"
        return self.check_pins(i, key_file=key_file, ciphertext=ciphertext)

    def details(self, ops):
        ok = [op for op in ops if op.error is None]
        if not ok:
            return {}
        out = {
            f"{self.name}.{command}.command_s": (
                median(op.phases[command] for op in ok), "s"
            )
            for command in CLI_COMMANDS
        }
        out[f"{self.name}.command_s.p50"] = (
            median(t for op in ok for t in op.phases.values()), "s"
        )
        return out

    def derived(self, stats, spans, ops):
        # Interpreter start-up and the CLI's imports, as shares of the median
        # command time.
        bare, imported = [], []
        for _ in range(CLI_STARTUP_REPS):
            bare.append(self.reference())
            imported.append(self.python("-c", "import rsa_primer.cli")[0])
        interpreter_s = median(bare)
        import_s = median(imported) - interpreter_s
        command_s = self.details(ops)[f"{self.name}.command_s.p50"][0]
        return {
            f"{self.name}.interpreter_s": (interpreter_s, "s"),
            f"{self.name}.import_s": (import_s, "s"),
            f"{self.name}.interpreter.share": (interpreter_s / command_s, "ratio"),
            f"{self.name}.import.share": (import_s / command_s, "ratio"),
        }

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


_WORDS = (
    "prime modulus totient exponent cipher block key public private message "
    "factor euclid fermat euler square multiply residue inverse seed "
    "the a of to and is in it we"
).split()


def _ascii_text(rng: random.Random, size: int) -> bytes:
    words: list[str] = []
    length = 0
    while length < size:
        word = rng.choice(_WORDS) + ("\n" if rng.random() < 0.1 else " ")
        words.append(word)
        length += len(word)
    return "".join(words).encode("ascii")[:size]


WORKLOADS = {cls.name: cls for cls in (Keygen, Bulk, Crack, Cli)}
