"""Source hygiene checks over the library modules."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orlicz"


def _unused_imports(path):
    """(line, name) of each import in path that the module never reads
    and does not list in __all__."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports():
    found = ["%s:%d %s" % (path.name, line, name)
             for path in sorted(SRC.glob("*.py"))
             for line, name in _unused_imports(path)]
    assert not found, "unused imports: " + ", ".join(found)


def test_no_unreferenced_private_functions():
    # a module-level _name function, or a _name method of a module-level
    # class, that no module of the package reads, by name or as an
    # attribute, is dead code
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    found = ["%s:%d %s" % (name, node.lineno, node.name)
             for name, tree in trees.items()
             for node in tree.body + [m for c in tree.body
                                      if isinstance(c, ast.ClassDef)
                                      for m in c.body]
             if isinstance(node, ast.FunctionDef)
             and node.name.startswith("_") and not node.name.startswith("__")
             and node.name not in used]
    assert not found, "unreferenced private functions: " + ", ".join(found)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _unused_locals(path):
    """(line, name) of each name a function of path assigns in its own
    scope and never reads, there or in a nested scope; names that start
    with _ are exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                and not isinstance(n.ctx, ast.Store)}
        stack, stores = list(fn.body), []
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stores.append((node.lineno, node.id))
            if not isinstance(node, _SCOPES):
                stack.extend(ast.iter_child_nodes(node))
        found += sorted((line, name) for line, name in set(stores)
                        if name not in read and not name.startswith("_"))
    return found


def test_no_unused_locals():
    found = ["%s:%d %s" % (path.name, line, name)
             for path in sorted(SRC.glob("*.py"))
             for line, name in _unused_locals(path)]
    assert not found, "unused locals: " + ", ".join(found)
