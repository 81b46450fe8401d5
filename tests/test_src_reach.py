"""Every top-level definition in the library is reached from a command, a
script or the benchmark, not only from the tests.

The walk reads the source, it imports nothing.  Its roots are the
scripts, the benchmark's modules (its tests excluded) and every
module-level statement of the library that is not itself a definition;
the package's __init__ is left out, since its exports would reach every
public name.  A word is a name, an attribute, an imported name or a
string constant (the tracer binds functions by name); a definition is
reached when its name is a word of something reached, and its body then
adds its own words.  The walk repeats until nothing changes.  Matching is
by name alone, so a definition that shares its name with any reached
word counts as reached: the guard errs toward missing dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _words(node: ast.AST) -> set[str]:
    """Names, attributes, imported names and string constants under node."""
    words = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            words.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            words.add(sub.attr)
        elif isinstance(sub, ast.alias):
            words.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            words.add(sub.value)
    return words


def _definitions(tree: ast.Module):
    """(name, node) of each top-level function, class and assigned name,
    and the module's other statements."""
    defined, rest = [], []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((stmt.name, stmt))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined.extend((t.id, stmt) for t in targets if isinstance(t, ast.Name))
        else:
            rest.append(stmt)
    return defined, rest


def unreached(library: list[Path], roots: list[Path]) -> list[str]:
    """"module.name" of every top-level definition in the library files
    that no root reaches, sorted."""
    words = set()
    for path in roots:
        words |= _words(ast.parse(path.read_text(), str(path)))
    pending = {}
    for path in library:
        defined, rest = _definitions(ast.parse(path.read_text(), str(path)))
        for stmt in rest:
            words |= _words(stmt)
        for name, node in defined:
            pending[f"{path.stem}.{name}"] = (name, node)
    grew = True
    while grew:
        grew = False
        for key, (name, node) in list(pending.items()):
            if name in words:
                del pending[key]
                words |= _words(node)
                grew = True
    return sorted(pending)


def test_every_library_definition_is_reached_outside_the_tests():
    library = sorted(p for p in (ROOT / "src" / "ringchain").glob("*.py") if p.name != "__init__.py")
    roots = sorted((ROOT / "scripts").glob("*.py"))
    roots += sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))
    assert library and roots
    missing = unreached(library, roots)
    assert not missing, "reached only from the tests: " + ", ".join(missing)


def test_the_walk_follows_calls_and_names_what_it_never_reaches(tmp_path):
    lib, root = tmp_path / "lib.py", tmp_path / "run.py"
    lib.write_text(
        "import math\n"
        "LIMIT = 3\n"
        "def _helper():\n    return LIMIT\n"
        "def entry():\n    return _helper()\n"
        "def bound_by_name():\n    pass\n"
        "def only_dead_calls_me():\n    pass\n"
        "def dead():\n    return only_dead_calls_me()\n"
        "class Unused:\n    def entry(self):\n        pass\n"
    )
    root.write_text("from lib import entry\nentry()\nHOOK = 'bound_by_name'\n")
    assert unreached([lib], [root]) == ["lib.Unused", "lib.dead", "lib.only_dead_calls_me"]
