"""perfbench's call surface: every bicrit name the benchmark scripts import
or reference resolves, and every call they make into bicrit binds to the
current signature.  perfbench's own smoke run catches the same breakage,
but only after minutes of work."""

import ast
import importlib
import inspect
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _bicrit_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted bicrit path, over every import in the file."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "bicrit":
                    if a.asname:
                        aliases[a.asname] = a.name
                    else:
                        aliases["bicrit"] = "bicrit"
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "bicrit"):
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def _dotted(node) -> list[str] | None:
    """``a.b.c`` as ["a", "b", "c"]; None for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def _resolve(path: str):
    """The object a dotted bicrit path names, importing submodules on the
    way; raises AttributeError or ImportError when it names nothing."""
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part) and inspect.ismodule(obj):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def _uses():
    """(where, bicrit path, call node or None) for every reference."""
    for file in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(file.read_text())
        aliases = _bicrit_aliases(tree)
        for alias, path in aliases.items():
            yield f"{file.name} import {alias}", path, None
        for node in ast.walk(tree):
            target = node.func if isinstance(node, ast.Call) else node
            if not isinstance(target, (ast.Name, ast.Attribute)):
                continue
            chain = _dotted(target)
            if chain is None or chain[0] not in aliases:
                continue
            path = ".".join([aliases[chain[0]]] + chain[1:])
            call = node if isinstance(node, ast.Call) else None
            yield f"{file.name}:{node.lineno}", path, call


def _bind(obj, call: ast.Call) -> None:
    """Bind the call's positional count and keyword names to ``obj``'s
    signature; a starred argument leaves the binding partial."""
    args = [None for a in call.args if not isinstance(a, ast.Starred)]
    kwargs = {k.arg: None for k in call.keywords if k.arg is not None}
    sig = inspect.signature(obj)
    starred = (len(args) < len(call.args)
               or len(kwargs) < len(call.keywords))
    (sig.bind_partial if starred else sig.bind)(*args, **kwargs)


def test_perfbench_calls_into_bicrit_resolve_and_bind():
    failures = []
    calls = 0
    for where, path, call in _uses():
        try:
            obj = _resolve(path)
        except (AttributeError, ImportError) as exc:
            failures.append(f"{where}: {path} does not resolve ({exc})")
            continue
        if call is None:
            continue
        calls += 1
        try:
            _bind(obj, call)
        except TypeError as exc:
            failures.append(f"{where}: {path}(...) does not bind ({exc})")
    assert not failures, "\n".join(failures)
    assert calls >= 20
