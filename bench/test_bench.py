"""Self-tests for the benchmark: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer, installed

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_end_to_end_metric(workload, capsys):
    code = run.main(["--workload", workload, "--seconds", "0.01"])
    result = _result(capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["unit"] == units[name] and v["value"] > 0 for name, v in result["metrics"].items())


def test_traced_run_reports_every_per_layer_metric_and_unwraps(capsys):
    code = run.main(["--workload", "keygen", "--seconds", "0.01", "--trace", "1"])
    result = _result(capsys)
    assert code == 0 and result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v["unit"] == units[name] for name, v in result["metrics"].items())
    for name, module in sys.modules.items():
        if name.startswith("rsa_primer"):
            assert not [a for a, v in vars(module).items() if hasattr(v, "__wrapped__")]


def test_wrappers_are_restored_even_when_the_traced_code_raises():
    lib = workloads.load_library(run.ROOT)
    modules = {n: m for n, m in sys.modules.items() if n.startswith("rsa_primer")}
    before = {(n, a): v for n, m in modules.items() for a, v in vars(m).items()}
    tracer = Tracer()
    with pytest.raises(lib.errors.BitsTooSmall):
        with installed(tracer, lib):
            assert lib.keys.mod_pow is not before[("rsa_primer.keys", "mod_pow")]
            lib.keys.generate_keypair(16, 42)
            lib.keys.generate_keypair(2, 42)
    after = {(n, a): v for n, m in modules.items() for a, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {span.name for span in tracer.spans}
    assert {"keys.generate_keypair", "number_theory.gen_prime", "keys._draw_bits"} <= names


def test_a_flipped_ciphertext_digit_fails_the_run(monkeypatch, capsys):
    class FlippedBulk(workloads.Bulk):
        def run(self, i):
            codec = self.lib.codec
            original = codec.format_cipher_blocks

            def flipped(blocks):
                text = original(blocks)
                return text[:-1] + str((int(text[-1]) + 1) % 10)

            monkeypatch.setattr(codec, "format_cipher_blocks", flipped)
            try:
                return super().run(i)
            finally:
                monkeypatch.setattr(codec, "format_cipher_blocks", original)

    monkeypatch.setitem(workloads.WORKLOADS, "bulk", FlippedBulk)
    code = run.main(["--workload", "bulk", "--seconds", "0.01"])
    result = _result(capsys)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "keygen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
