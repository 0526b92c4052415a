"""The library is what the commands run: every top-level function and class in
``src/lamwave`` is reached from the CLI entry points ``cli.main`` and ``cli.run``.

The walk follows name and attribute references through the AST of each module,
from a definition to the top-level bindings it names, across the package's
relative imports.  A docstring mention is no reference, and neither is a
re-export from ``__init__``, which no module walks.  Analysis that only tests
call belongs beside those tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

import lamwave

SRC = Path(lamwave.__file__).parent
ROOTS = [("cli", "main"), ("cli", "run")]


def _bindings(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level statements of a module by the names they bind."""
    out: dict[str, ast.stmt] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            out[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                out.update((n.id, stmt) for n in ast.walk(target) if isinstance(n, ast.Name))
    return out


def _imports(tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    """Local name -> (module, name) of every package-relative import, with name None
    for a module imported whole (``from . import materials``)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                out[local] = (alias.name, None) if node.module is None else (node.module, alias.name)
    return out


def unreached() -> list[str]:
    """``module.name`` of every top-level function or class no entry point reaches."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}
    binds = {m: _bindings(t) for m, t in trees.items()}
    imports = {m: _imports(t) for m, t in trees.items()}

    def resolve(mod: str, name: str) -> tuple[str, str | None] | None:
        """The (module, binding) a name means in ``mod``, (module, None) for a module."""
        while name not in binds[mod]:
            if name not in imports[mod]:
                return None  # a builtin, a local or a name from outside the package
            mod, name = imports[mod][name]
            if name is None:
                return (mod, None)
        return (mod, name)

    seen = set()
    todo = list(ROOTS)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        mod, name = key
        for node in ast.walk(binds[mod][name]):
            if isinstance(node, ast.Name):
                ref = resolve(mod, node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                base = resolve(mod, node.value.id)
                ref = resolve(base[0], node.attr) if base and base[1] is None else None
            else:
                continue
            if ref and ref[1] is not None:
                todo.append(ref)
    return [
        f"{mod}.{stmt.name}"
        for mod, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and (mod, stmt.name) not in seen
    ]


def test_every_definition_is_reached_from_the_cli():
    missing = unreached()
    assert not missing, f"{len(missing)} definitions no command reaches: {', '.join(missing)}"
