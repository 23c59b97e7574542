"""Every top-level function and class of the package has a user in the
package: its name is read, imported or taken as an attribute somewhere in
`src/specibt`. A definition only tests reach is dead code, unless it is
kept below with its reason."""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "specibt"

KEPT = {
    # the ideal semantics' driver, which the paired walk will explore with;
    # tests use it as the walk's oracle
    "IdealDriver",
    # the JSON round trips of states and traces (acceptance criterion 10)
    "encode_state",
    "decode_trace",
}


def _definitions_and_uses(files):
    defined, used = {}, set()
    for f in files:
        tree = ast.parse(f.read_text())
        defined.update((n.name, f.name) for n in tree.body
                       if isinstance(n, (ast.FunctionDef, ast.ClassDef)))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.alias):
                used.add(n.name)
    return defined, used


def test_every_definition_has_a_user_in_the_package():
    defined, used = _definitions_and_uses(sorted(SRC.glob("*.py")))
    unused = {name: f for name, f in defined.items() if name not in used}
    assert {name: f for name, f in unused.items() if name not in KEPT} == {}
    # a kept name that gains a user leaves the list
    assert set(unused) == KEPT


def test_a_definition_without_a_user_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "from b import g\n\nclass K:\n    pass\n\ndef f():\n    return g().h\n")
    (tmp_path / "b.py").write_text("def g():\n    pass\n\ndef h():\n    pass\n")
    defined, used = _definitions_and_uses(sorted(tmp_path.glob("*.py")))
    assert {name for name in defined if name not in used} == {"K", "f"}
