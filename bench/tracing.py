"""Parent-linked spans around the public functions of ``rsa_primer``.

Tracing is done from outside the library: while :func:`installed` is
active, every target function is replaced, in every ``rsa_primer`` module
namespace that binds it, by a wrapper that records one span per call.
Nested calls see the wrappers through their module globals, so a span's
parent is the span that was open when it started.  Spans stay in memory;
:func:`aggregate` turns them into per-name calls, self time and failures,
where self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from types import ModuleType
from typing import NamedTuple

# (layer, function, only_in): the public functions the benchmark times.
# ``keys._draw_bits`` is the one private name: it is wrapped only where the
# keys module binds it, so each of its calls is one public-exponent draw.
TARGETS = (
    ("number_theory", "mod_pow", None),
    ("number_theory", "is_probable_prime", None),
    ("number_theory", "gen_prime", None),
    ("number_theory", "gcd", None),
    ("number_theory", "mod_inverse", None),
    ("keys", "generate_keypair", None),
    ("keys", "_draw_bits", "keys"),
    ("codec", "encode_chunked", None),
    ("codec", "decode_chunked", None),
    ("codec", "format_cipher_blocks", None),
    ("cli", "parse_cipher_blocks", None),
    ("cipher", "encrypt_message", None),
    ("cipher", "decrypt_message", None),
    ("cipher", "encrypt_block", None),
    ("cipher", "decrypt_block", None),
    ("cipher", "crack_private_key", None),
)


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    failed: bool


class Tracer:
    """Collects spans; :meth:`call` runs a function inside a new span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span_id = len(self.spans) + len(self._open)  # spans started so far
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        failed = True
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans.append(Span(span_id, parent, name, start, end, failed))


def _library_modules(only: str | None) -> list[ModuleType]:
    wanted = None if only is None else f"rsa_primer.{only}"
    return [
        module
        for name, module in list(sys.modules.items())
        if (name == "rsa_primer" or name.startswith("rsa_primer."))
        and (wanted is None or name == wanted)
    ]


def _wrap(tracer: Tracer, name: str, fn):
    if fn.__name__ == "crack_private_key":
        # One span name per attack method, so each method has its own self time.
        default = inspect.signature(fn).parameters["method"].default

        @functools.wraps(fn)
        def traced_crack(pk, method=default, *args, **kwargs):
            return tracer.call(f"{name}.{method}", fn, pk, method, *args, **kwargs)

        return traced_crack

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return traced


@contextmanager
def installed(tracer: Tracer, lib):
    """Wrap every target in every namespace that binds it; restore on exit."""
    patches: list[tuple[ModuleType, str, object]] = []
    try:
        for layer, fn_name, only in TARGETS:
            original = getattr(getattr(lib, layer), fn_name)
            wrapper = _wrap(tracer, f"{layer}.{fn_name}", original)
            for module in _library_modules(only):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


@dataclass
class NameStats:
    calls: int = 0
    self_s: float = 0.0
    failed: int = 0


def aggregate(spans: list[Span]) -> dict[str, NameStats]:
    """Calls, self time and failed calls per span name."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    stats: dict[str, NameStats] = defaultdict(NameStats)
    for span in spans:
        entry = stats[span.name]
        entry.calls += 1
        entry.self_s += span.end - span.start - child_time[span.id]
        entry.failed += span.failed
    return stats


def count_children(spans: list[Span], name: str, parent_name: str) -> int:
    """How many ``name`` spans ran directly under a ``parent_name`` span."""
    names = {span.id: span.name for span in spans}
    return sum(
        1
        for span in spans
        if span.name == name and span.parent is not None
        and names[span.parent] == parent_name
    )
