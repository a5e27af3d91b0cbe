"""Every public module-level name in src/rkl is used by the program itself.

A name defined in src/rkl/<module>.py counts as used when a line outside
its own definition, in src/rkl, scripts/ or bench/, refers to it: as a
Python name or attribute, or as a string literal that spells it (the
benchmark's tracer looks attributes up by name).  __init__.py only
re-exports, so it neither defines nor uses a name.  A name that only tests
call belongs in tests/helpers.py instead.
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rkl"

# Public names kept with no caller in the program, each with its reason.
ALLOWED = {
    "formats.render_enum": "the acceptance gate round-trips .enum files with it",
}


def program_files() -> list[Path]:
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    return modules + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def definitions(path: Path) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each public module-level definition."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [(n, node.lineno, node.end_lineno) for n in names if not n.startswith("_")]
    return found


def references(path: Path) -> list[tuple[str, int]]:
    """(identifier, line) for each name token and each string literal that
    is exactly an identifier; comments and prose never count."""
    found = []
    with path.open("rb") as source:
        for tok in tokenize.tokenize(source.readline):
            if tok.type == tokenize.NAME:
                found.append((tok.string, tok.start[0]))
            elif tok.type == tokenize.STRING:
                try:
                    value = ast.literal_eval(tok.string)
                except ValueError:  # an f-string
                    continue
                if isinstance(value, str) and value.isidentifier():
                    found.append((value, tok.start[0]))
    return found


def test_every_public_name_has_a_caller_in_the_program():
    refs = {path: references(path) for path in program_files()}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name, first, last in definitions(path):
            qualified = f"{path.stem}.{name}"
            used = any(
                ident == name and not (where == path and first <= line <= last)
                for where, found in refs.items()
                for ident, line in found
            )
            if not used and qualified not in ALLOWED:
                unused.append(qualified)
    assert unused == []


def test_allowlist_names_real_definitions():
    defined = {
        f"{path.stem}.{name}"
        for path in SRC.glob("*.py")
        for name, _, _ in definitions(path)
    }
    assert set(ALLOWED) <= defined
