"""Documented outputs and cited measurements, each held to its one copy."""

import re
from pathlib import Path

import golden
from rsa_primer import _pool

ROOT = Path(__file__).resolve().parents[1]


def test_the_corpus_lists_every_command():
    assert golden.commands(golden.read()) == golden.COMMANDS


# Serial, and with every split and race over three processes: no split or
# race may change an output.
def test_every_documented_output_is_the_pinned_one(fresh_pool, monkeypatch):
    for slices in (1, 3):
        monkeypatch.setattr(_pool, "_slices", lambda work, slices=slices: slices)
        assert golden.check() == [], f"{slices} slices"


# Each "CHANGES.md line N" in src/, in source order, with the figures written
# beside it, which line N of CHANGES.md must hold too.
CITATIONS = [
    ("_pool.py", 63, ["field 39"]),
    ("_pool.py", 32, ["1 ms"]),
    ("_pool.py", 45, ["0.5-0.8 ms", "1041"]),
    ("_pool.py", 36, ["1.6 ms"]),
    ("_pool.py", 45, ["19,061", "520"]),
    ("cipher.py", 49, ["997"]),
    ("cipher.py", 43, ["1.23", "0.98", "0.92", "0.88", "0.77"]),
]


def _citations():
    # (file, cited line, the source from three lines before the citation to
    # one after it)
    for path in sorted((ROOT / "src" / "rsa_primer").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            for cited in re.findall(r"CHANGES\.md line (\d+)", line):
                yield path.name, int(cited), "\n".join(lines[max(0, i - 3) : i + 2])


def _holds(text, figure):
    # figure in text as a whole figure: "1 ms" is not in "0.1 ms" or "11 ms"
    return re.search(rf"(?<![\w.,-]){re.escape(figure)}(?!\w)", text) is not None


def test_every_cited_line_holds_the_figures_beside_its_citation():
    changes = (ROOT / "CHANGES.md").read_text(encoding="utf-8").splitlines()
    found = list(_citations())
    assert [(name, cited) for name, cited, _ in found] == \
        [(name, cited) for name, cited, _ in CITATIONS]
    for (name, cited, beside), (_, _, figures) in zip(found, CITATIONS):
        line = changes[cited - 1] if cited <= len(changes) else ""
        for figure in figures:
            assert _holds(beside, figure), f"{name}: {figure} is not beside line {cited}"
            assert _holds(line, figure), f"CHANGES.md line {cited} does not hold {figure}"


def test_readme_names_the_corpus_widths(readme):
    low, high, rest = re.search(r"covers `keygen` from (\d+) to (\d+) bits per prime "
                                r"and at ([0-9, and]+), with", " ".join(readme.split())).groups()
    widths = [*range(int(low), int(high) + 1), *map(int, re.findall(r"\d+", rest))]
    assert widths == list(golden._WIDTHS)
