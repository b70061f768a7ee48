"""The benchmark under perfbench/ is frozen: every name it imports from
codedcomp must keep resolving, or each of its operations fails."""

import ast
import importlib
from pathlib import Path

import numpy as np

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


def test_replay_matches_untraced_calls(monkeypatch):
    """The traced replays feed ``asn.tasks[o][w]`` to ``PeelingDecoder.ingest``:
    that path must give what the program's own calls give."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    replay = importlib.import_module("replay")
    from codedcomp import assignment_source, concrete_assignment, monte_carlo, parse_config, success_table

    cfg = parse_config({"scheme": "rcs", "workers": 8, "degrees": [1, 2], "q": 0.25, "trials": 20})
    traced = replay.replay_monte_carlo(replay.Tracer(), cfg)
    result = monte_carlo(assignment_source(cfg), cfg.q, cfg.model(), cfg.trials, cfg.seed)
    for name, values in traced.items():
        assert np.array_equal(values, getattr(result, name))

    cfg = parse_config({"scheme": "rcs", "workers": 5, "degrees": [1, 2], "offsets": [1, 2, 4], "q": 0})
    table = success_table(concrete_assignment(cfg), cfg.q)
    assert replay.replay_success_table(replay.Tracer(), cfg) == [
        (ctype.counts, good, total) for ctype, good, total in table
    ]
