"""Every public name in src/rkl is used by the program itself.

The names checked are each module's public module-level names and the
public methods and properties of its classes.  A name defined in
src/rkl/<module>.py counts as used when a line outside its own definition,
in src/rkl, scripts/ or bench/, refers to it: as a Python name or
attribute, or as a string literal that spells it (the benchmark's tracer
looks attributes up by name).  A method counts as used only through an
attribute (`.name`) or such a literal, not through a plain variable of the
same name; it is matched by name alone, so a use of another class's method
of the same name counts too.  A name that only tests call belongs in
tests/helpers.py instead; the package itself re-exports nothing.

The program refuses input in one way: every exception class in src/rkl
derives from core.Refusal, every raise there raises one, and the CLI
reports only refusals and OSError as invalid input.  A file error with no
line number is one of the whole-file facts the README lists.
"""

from __future__ import annotations

import ast
import builtins
import os
import subprocess
import sys
import tokenize
from pathlib import Path

from rkl import cli, core

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rkl"

# Public names kept with no caller in the program, each with its reason.
ALLOWED = {
    "formats.render_enum": "the acceptance gate round-trips .enum files with it",
}


def program_files() -> list[Path]:
    return [*sorted(SRC.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
            *sorted((ROOT / "bench").glob("*.py"))]


def definitions(path: Path) -> list[tuple[str, str, bool, int, int]]:
    """(qualified name, name, is a method, first line, last line) of each
    public module-level definition and each public method of a module-level
    class."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{item.name}", item.name, True, item.lineno, item.end_lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            ]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [
            (n, n, False, node.lineno, node.end_lineno) for n in names if not n.startswith("_")
        ]
    return found


def fstring_references(text: str, line: int) -> list[tuple[str, int, bool]]:
    """(identifier, line, by attribute) for each name and attribute in the
    replacement fields of an f-string token that starts on the given line.
    Before Python 3.12 tokenize gives an f-string as one STRING token; from
    3.12 on (PEP 701) it gives the names inside as NAME tokens itself."""
    found = []
    for node in ast.walk(ast.parse(text, mode="eval")):
        if isinstance(node, ast.Name):
            found.append((node.id, line + node.lineno - 1, False))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, line + node.end_lineno - 1, True))
    return found


def references(path: Path) -> list[tuple[str, int, bool]]:
    """(identifier, line, by attribute) for each name token and each string
    literal that is exactly an identifier; comments and prose never count.
    A name after a '.' and a literal both name an attribute.  Names in an
    f-string's replacement fields count on every Python version."""
    found = []
    previous = None
    with path.open("rb") as source:
        for tok in tokenize.tokenize(source.readline):
            if tok.type == tokenize.NAME:
                found.append((tok.string, tok.start[0], previous == "."))
            elif tok.type == tokenize.STRING:
                try:
                    value = ast.literal_eval(tok.string)
                except ValueError:  # an f-string
                    found += fstring_references(tok.string, tok.start[0])
                    value = None
                if isinstance(value, str) and value.isidentifier():
                    found.append((value, tok.start[0], True))
            if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
                previous = tok.string
    return found


def test_every_public_name_has_a_caller_in_the_program():
    refs = {path: references(path) for path in program_files()}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for local, name, method, first, last in definitions(path):
            qualified = f"{path.stem}.{local}"
            used = any(
                ident == name
                and (attribute or not method)
                and not (where == path and first <= line <= last)
                for where, found in refs.items()
                for ident, line, attribute in found
            )
            if not used and qualified not in ALLOWED:
                unused.append(qualified)
    assert unused == []


def test_names_in_fstring_fields_are_references(tmp_path):
    snippet = tmp_path / "snippet.py"
    snippet.write_text('line = f"k={en.k} {top(en)!r:>{width}}"\ntext = f"""\n{a.b}"""\n')
    assert {
        ("en", 1, False), ("k", 1, True), ("top", 1, False), ("width", 1, False),
        ("a", 3, False), ("b", 3, True),
    } <= set(references(snippet))


def test_importing_the_package_loads_no_module_of_it():
    code = "import sys, rkl; print(sorted(m for m in sys.modules if m.startswith('rkl.')))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_allowlist_names_real_definitions():
    defined = {
        f"{path.stem}.{local}"
        for path in SRC.glob("*.py")
        for local, *_ in definitions(path)
    }
    assert set(ALLOWED) <= defined


# -- refusals: the one kind of exception the program raises -------------------


def src_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}


def _last_name(node: ast.expr) -> str:
    """The name an expression ends in: `Refusal` for both `Refusal` and
    `core.Refusal`, '' for anything else."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def class_bases() -> dict[str, list[str]]:
    """Each class defined in src/rkl, by name, with the names of its bases."""
    return {
        node.name: [_last_name(base) for base in node.bases]
        for tree in src_trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }


def _descendants(roots: set[str]) -> set[str]:
    """The roots and every class in src/rkl that derives from one of them."""
    bases = class_bases()
    found = set(roots)
    while grown := {c for c, bs in bases.items() if c not in found and found & set(bs)}:
        found |= grown
    return found


def refusal_classes() -> set[str]:
    return _descendants({"Refusal"})


def test_every_exception_class_is_a_refusal():
    builtin_exceptions = {
        name for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    exceptions = _descendants(builtin_exceptions) - builtin_exceptions
    assert class_bases()["Refusal"] == ["ValueError"]
    assert exceptions == refusal_classes()


def test_every_raise_raises_a_refusal():
    refusals = refusal_classes()
    bad = [
        f"{module}.py:{node.lineno}"
        for module, tree in src_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and not (isinstance(node.exc, ast.Call) and _last_name(node.exc.func) in refusals)
    ]
    assert bad == []


def test_cli_reports_only_refusals_and_os_errors():
    assert cli._INVALID_INPUT == (core.Refusal, OSError)


# Each FormatError(None, ...) in src/rkl, by module and the source of its
# message, with the words the README's exit-code paragraph lists it by.
UNLOCATED = {
    ("cli", "str(exc)"): "a non-UTF-8 file",
    ("cli", 'f"unrecognized extension {suffix!r}"'): "an unrecognized `info` extension",
    ("formats", "\"missing 'n <N>' header\""): "a missing `n <N>` header",
    ("formats", 'f"pair ({x},{y}) missing"'): "`pair (x,y) missing`",
    ("formats", '"no stages listed"'): "`no stages listed`",
}


def test_every_error_without_a_line_is_documented():
    found = set()
    for path in SRC.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call) and _last_name(node.func) == "FormatError"
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None):
                found.add((path.stem, ast.get_source_segment(source, node.args[1])))
    assert found == set(UNLOCATED)
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    assert [words for words in UNLOCATED.values() if words not in readme] == []
