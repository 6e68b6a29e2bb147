"""The README names only what the package defines."""

import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "fusionframes"


def _code_spans(text: str) -> list:
    """Single-backtick code spans of markdown ``text`` outside fenced blocks."""
    prose, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif not fenced:
            prose.append(line)
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", "\n".join(prose))]


def test_every_identifier_the_readme_names_occurs_in_the_sources():
    sources = "\n".join(p.read_text() for p in sorted(PACKAGE.glob("*.py")))
    words = set(re.findall(r"\w+", sources))
    allowed = {p.stem for p in PACKAGE.glob("*.py")} | {
        p.name for p in (ROOT / "tests" / "data").iterdir()
    }
    math_symbol = re.compile(r"[A-Za-z]_[0-9a-z]")  # such as m_0, R_0
    identifiers = {
        span for span in _code_spans((ROOT / "README.md").read_text())
        if re.fullmatch(r"[A-Za-z_][\w.]*", span)
    }
    assert len(identifiers) > 100
    unknown = sorted(
        name for name in identifiers
        if name not in allowed
        and not math_symbol.fullmatch(name)
        and not all(part in words for part in name.split("."))
    )
    assert unknown == []
