"""Every name that `ifs_lab` exports, and every public method and property
that an exported class defines, has a reader in the library, or a stated
reason to stay public.

A name counts as read when library code outside its own definition loads
it, as a bare name, as an attribute or as a string (the property registry
looks verdicts up by name).  The package's `__init__.py`, which only
re-exports, does not count.
"""

import ast
import inspect
import pathlib

import ifs_lab

LIBRARY = pathlib.Path(ifs_lab.__file__).parent

# Exported names and `Class.method` names with no library reader, and why
# each stays public.
KEPT = {
    "circ_dist": "the scalar distance that the benchmark oracle replays separations with; "
                 "`_circ_dist_array` is tested bitwise against it",
    "compose_word": "one word applied to one point, for replaying witnesses; the acceptance "
                    "suite reads it and the planned certificate checker will",
    "concat": "word juxtaposition, for the same replays as `compose_word`",
    "word_derivative": "the scalar chain rule that the array word evaluator is tested bitwise "
                       "against, for replaying expansion claims",
    "separation_times": "the separation times of one arc, as cofinite sensitivity defines "
                        "them; the acceptance suite checks them on an expanding map",
    "admissible_itinerary": "walks an expanding cover; the cover-following sensitivity "
                            "strategy on the roadmap will call it",
    "IfsSystem.apply_inverse_word": "the inverse word map on one point; the planned "
                                    "certificate checker replays backward witnesses with it",
    "IfsSystem.word_lift": "one word's lift on the real line; the planned certificate checker "
                           "replays periodic-point witnesses with it",
}


def library_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(LIBRARY.glob("*.py")) if path.name != "__init__.py"}


def read_count(tree: ast.AST, name: str) -> int:
    """Loads of `name` in the tree, the subtree of its own definition left
    out."""
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name == name):
            continue
        count += ((isinstance(node, ast.Name) and node.id == name
                   and isinstance(node.ctx, ast.Load))
                  or (isinstance(node, ast.Attribute) and node.attr == name)
                  or (isinstance(node, ast.Constant) and node.value == name))
        stack.extend(ast.iter_child_nodes(node))
    return count


def unread_names():
    trees = library_trees()
    return [name for name in ifs_lab.__all__
            if not any(read_count(tree, name) for tree in trees.values())]


def unread_methods():
    """`Class.name` for each public method or property that an exported
    class defines itself (dunders and private names left out) and that no
    library code reads."""
    trees = library_trees()
    kinds = (staticmethod, classmethod, property)
    return [f"{owner}.{name}" for owner in ifs_lab.__all__
            if inspect.isclass(cls := getattr(ifs_lab, owner))
            for name, value in vars(cls).items()
            if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))
            and not any(read_count(tree, name) for tree in trees.values())]


def test_every_exported_name_has_a_reader_or_a_reason():
    assert sorted(set(unread_names()) - set(KEPT)) == []


def test_every_public_method_has_a_reader_or_a_reason():
    assert sorted(set(unread_methods()) - set(KEPT)) == []


def test_every_kept_name_is_exported_and_still_unread():
    assert sorted(set(KEPT) - set(unread_names()) - set(unread_methods())) == []


def test_a_string_lookup_counts_as_a_read():
    tree = ast.parse('import x\n\ndef f():\n    return getattr(x, "target")\n\n'
                     'def target():\n    return target()\n')
    assert read_count(tree, "target") == 1
    assert read_count(ast.parse("def target():\n    return target()\n"), "target") == 0
