"""The benchmark under perfbench/ is frozen: every name it imports from
codedcomp must keep resolving, or each of its operations fails."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PERFBENCH.glob("*.py"))}


def _resolves(module: str, name: str | None) -> bool:
    try:
        found = importlib.import_module(module)
        if name is not None and not hasattr(found, name):
            importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_imported_names_resolve():
    imported = []
    for source, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "codedcomp":
                imported += [(source, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [
                    (source, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "codedcomp"
                ]
    assert imported
    missing = [entry for entry in imported if not _resolves(entry[1], entry[2])]
    assert not missing


def test_cli_keeps_patched_calls():
    (assign,) = [
        node
        for node in _trees()["bench.py"].body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "MAIN_CALL"
    ]
    patched = set(ast.literal_eval(assign.value).values())
    assert patched == {"monte_carlo", "train", "success_table"}
    cli = importlib.import_module("codedcomp.cli")
    assert all(callable(getattr(cli, name, None)) for name in patched)
