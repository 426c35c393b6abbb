"""Value semantics of the package's immutable value classes.

The seven classes compare, hash, print, copy and pickle like frozen
records: equality needs the exact same class, ``PrivateKey.crt`` stays out
of equality, hashing and ``repr``, and no field can be reassigned.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from rsa_primer._record import replace
from rsa_primer.cipher import CrackReport, CrackTrial, crack_private_key
from rsa_primer.codec import BlockSeq
from rsa_primer.keys import KeyPair, PrivateKey, Provenance, PublicKey

TOY_CRT = (1721, 1801, 997, 997, 839)

# (instance, its exact repr)
SAMPLES = [
    (PublicKey(3, 5), "PublicKey(e=3, n=5)"),
    (PrivateKey(3, 5), "PrivateKey(d=3, n=5)"),
    (PrivateKey(997, 3099521, TOY_CRT), "PrivateKey(d=997, n=3099521)"),
    (Provenance(1721, 1801, 3096000), "Provenance(p=1721, q=1801, phi=3096000)"),
    (KeyPair(PublicKey(3, 5), PrivateKey(3, 5)),
     "KeyPair(public=PublicKey(e=3, n=5), private=PrivateKey(d=3, n=5), "
     "provenance=None)"),
    (KeyPair(PublicKey(1012333, 3099521), PrivateKey(997, 3099521, TOY_CRT),
             Provenance(1721, 1801, 3096000)),
     "KeyPair(public=PublicKey(e=1012333, n=3099521), "
     "private=PrivateKey(d=997, n=3099521), "
     "provenance=Provenance(p=1721, q=1801, phi=3096000))"),
    (BlockSeq((84, 117), "toy-ascii", 7),
     "BlockSeq(blocks=(84, 117), codec_id='toy-ascii', n_digits=7, chunk_bytes=None)"),
    (BlockSeq((1, 2, 3), "chunked", 3, 1),
     "BlockSeq(blocks=(1, 2, 3), codec_id='chunked', n_digits=3, chunk_bytes=1)"),
    (CrackReport(1721, 1801, 3096000, 997, 0.5, "trial-division"),
     "CrackReport(p=1721, q=1801, phi=3096000, d=997, elapsed=0.5, "
     "method='trial-division')"),
    (CrackTrial(8, "pollard-rho", 1, 0.25, True),
     "CrackTrial(bits_per_prime=8, method='pollard-rho', trial=1, elapsed=0.25, "
     "solved=True)"),
]
INSTANCES = [obj for obj, _ in SAMPLES]
IDS = [text.split("(")[0] + str(i) for i, (_, text) in enumerate(SAMPLES)]


def _rebuilt(obj):
    return type(obj)(**vars(obj))


@pytest.mark.parametrize(("obj", "text"), SAMPLES, ids=IDS)
def test_repr_is_exact(obj, text):
    assert repr(obj) == text


def test_readme_crack_report_example_holds(toy_keypair):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    example = next(line for line in readme.read_text(encoding="utf-8").splitlines()
                   if line.startswith("# CrackReport("))
    report = crack_private_key(toy_keypair.public)
    expected = example[2:].replace("elapsed=...", f"elapsed={report.elapsed!r}")
    assert repr(report) == expected


@pytest.mark.parametrize("obj", INSTANCES, ids=IDS)
def test_equal_copies_hash_alike(obj):
    twin = _rebuilt(obj)
    assert twin is not obj
    assert twin == obj and not twin != obj
    assert hash(twin) == hash(obj)


@pytest.mark.parametrize("obj", INSTANCES, ids=IDS)
def test_equality_needs_the_exact_same_class(obj):
    class Sub(type(obj)):
        pass

    assert Sub(**vars(obj)) != obj
    assert obj != Sub(**vars(obj))
    assert obj != tuple(vars(obj).values())
    assert obj != vars(obj)


def test_different_classes_with_equal_fields_differ():
    assert PublicKey(3, 5) != PrivateKey(3, 5)
    assert PrivateKey(3, 5) != PublicKey(3, 5)
    assert PublicKey(3, 5) != (3, 5)
    assert PublicKey(3, 5) != PublicKey(5, 3)
    assert len({PublicKey(3, 5), PublicKey(3, 5), PrivateKey(3, 5)}) == 2


def test_crt_is_outside_equality_hashing_and_repr():
    with_crt = PrivateKey(997, 3099521, TOY_CRT)
    other_crt = PrivateKey(997, 3099521, (1, 2, 3, 4, 5))
    plain = PrivateKey(997, 3099521)
    assert with_crt == plain == other_crt
    assert hash(with_crt) == hash(plain) == hash(other_crt)
    assert repr(with_crt) == repr(plain) == "PrivateKey(d=997, n=3099521)"
    assert with_crt.crt == TOY_CRT and plain.crt is None
    assert PrivateKey(998, 3099521, TOY_CRT) != with_crt


def test_keyword_and_positional_construction_agree():
    assert PublicKey(e=3, n=5) == PublicKey(3, n=5) == PublicKey(n=5, e=3)
    assert PrivateKey(d=997, n=3099521, crt=TOY_CRT).crt == TOY_CRT
    assert BlockSeq(blocks=(1,), codec_id="chunked", n_digits=3, chunk_bytes=1) \
        == BlockSeq((1,), "chunked", 3, 1)


def test_defaults():
    assert PrivateKey(3, 5).crt is None
    assert KeyPair(PublicKey(3, 5), PrivateKey(3, 5)).provenance is None
    assert BlockSeq((1,), "toy-ascii", 1).chunk_bytes is None


@pytest.mark.parametrize("obj", INSTANCES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(obj):
    for name, value in vars(obj).items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == _rebuilt(obj)


@pytest.mark.parametrize("call", [
    lambda: PublicKey(3),
    lambda: PublicKey(),
    lambda: PublicKey(3, 5, 7),
    lambda: PublicKey(3, 5, x=1),
    lambda: PublicKey(3, e=3),
    lambda: PrivateKey(3, 5, None, None),
    lambda: KeyPair(public=PublicKey(3, 5)),
    lambda: BlockSeq((1,), "toy-ascii"),
    lambda: CrackReport(1, 2, 3, 4, 0.5),
    lambda: CrackTrial(8, "trial-division", 1, 0.5, True, None),
], ids=["one-missing", "all-missing", "too-many", "unknown-keyword",
        "repeated", "private-too-many", "pair-missing", "blocks-missing",
        "report-missing", "trial-too-many"])
def test_bad_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_replace_returns_a_new_object_and_keeps_the_other_fields():
    key = PrivateKey(997, 3099521, TOY_CRT)
    changed = replace(key, d=5)
    assert changed is not key
    assert (changed.d, changed.n, changed.crt) == (5, 3099521, TOY_CRT)
    assert key.d == 997
    bs = BlockSeq((1, 2), "chunked", 3, 1)
    assert replace(bs, blocks=(7,)) == BlockSeq((7,), "chunked", 3, 1)
    unchanged = replace(bs)
    assert unchanged == bs and unchanged is not bs


def test_replace_rejects_unknown_fields():
    with pytest.raises(TypeError):
        replace(PublicKey(3, 5), m=7)


@pytest.mark.parametrize("obj", INSTANCES, ids=IDS)
def test_pickle_and_copy_round_trip(obj):
    copies = [pickle.loads(pickle.dumps(obj, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(obj), copy.deepcopy(obj)]
    for twin in copies:
        assert type(twin) is type(obj)
        assert twin == obj and hash(twin) == hash(obj)
        assert vars(twin) == vars(obj)  # PrivateKey.crt survives too
        with pytest.raises(AttributeError):
            twin.extra = 1


def _loaded_by_cli_import(names):
    # Compare sys.modules before and after, so what `site` loaded is ignored.
    code = (
        "import sys; before = set(sys.modules); import rsa_primer.cli; "
        f"print(*sorted({names!r} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, encoding="utf-8", check=True)
    return proc.stdout.split()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert _loaded_by_cli_import({"dataclasses", "inspect"}) == []


def test_cli_import_leaves_array_to_the_prime_table():
    # cipher imports array where it builds the trial-division table.
    assert _loaded_by_cli_import({"array"}) == []
