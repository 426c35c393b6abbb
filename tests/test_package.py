"""The package namespace re-exports the library modules' ``__all__``."""

import pytest

import rsa_primer
from rsa_primer import cipher, codec, keys, number_theory


@pytest.mark.parametrize("module", [number_theory, keys, codec, cipher])
def test_package_exports_every_library_name(module):
    missing = [
        name
        for name in module.__all__
        if getattr(rsa_primer, name, None) is not getattr(module, name)
    ]
    assert missing == []
