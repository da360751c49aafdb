"""Every public name of the package is used somewhere outside the tests.

A public name is a top-level ``def`` or ``class`` in ``src/steklab/*.py``
whose name has no leading underscore, or such a method of a top-level class.
It counts as used when an identifier, or a string literal naming it (alone
or as the last part of a dotted path, as the benchmark tracer does), appears
in a Python file under ``src/``, ``demos/``, ``perfbench/`` or ``tools/``
outside any ``tests`` directory, other than right after ``def`` or ``class``.

The match is by name, not by class, so it misses a method that only tests
call when another class has a method, attribute or variable of the same
name that is used: a call of ``NodalReport.to_csv`` counts for every
``to_csv``. ``FrequencyProfile.to_csv`` and ``FrequencyProfile.to_json``,
since removed, had only test callers and passed this way.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "steklab"
CALLERS = ("src", "demos", "perfbench", "tools")

# names only tests call, kept as references that tests compare against; a
# wrapper that tests could build themselves, such as an eigenpair's field
# ScalarField(pair.evaluate_many), does not belong here
ALLOWED = {
    "reflect_many": "the reflection that the fd_drift and Jacobian oracles difference",
    "zero_coefficients": "A = I, b = c = 0, under which the generalized frequency is the harmonic one",
}


def public_names(path):
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}"


def used_names(path):
    """Identifiers and string-literal names in path, definitions excluded."""
    used = set()
    prev = None
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME and prev not in ("def", "class"):
            used.add(tok.string)
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except (ValueError, SyntaxError):
                value = None
            if isinstance(value, str) and re.fullmatch(r"[\w.]+", value):
                used.add(value.rsplit(".", 1)[-1])
        if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            prev = tok.string
    return used


def caller_files():
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path


def test_every_public_name_has_a_caller_outside_tests():
    used = set(ALLOWED).union(*(used_names(p) for p in caller_files()))
    defined = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in public_names(path)
    ]
    unused = [q for q in defined if q.rsplit(".", 1)[-1] not in used]
    assert unused == [], f"public names only tests call: {unused}"


def test_allowed_names_exist():
    defined = {
        name.rsplit(".", 1)[-1]
        for path in PACKAGE.glob("*.py")
        for name in public_names(path)
    }
    assert set(ALLOWED) <= defined
