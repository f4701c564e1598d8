import ast
from pathlib import Path

import blamekit

SRC = Path(blamekit.__file__).resolve().parent


def test_every_export_resolves():
    assert [name for name in blamekit.__all__ if not hasattr(blamekit, name)] == []


def calls(node, function=None):
    """(enclosing function name, Call node) for every call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield function, child
        is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from calls(child, child.name if is_function else function)


def writes_a_file(call):
    """An open() or Path.open() whose mode may write, os.replace, os.rename,
    or Path.write_text / write_bytes."""
    f = call.func
    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    if name == "open":
        position = 1 if isinstance(f, ast.Name) else 0  # open(path, mode), path.open(mode)
        mode = next((k.value for k in call.keywords if k.arg == "mode"),
                    call.args[position] if len(call.args) > position else None)
        return mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value) <= set("rbt"))
    owner = getattr(f, "value", None)
    on_os = isinstance(owner, ast.Name) and owner.id == "os"
    return name in ("write_text", "write_bytes") or (on_os and name in ("replace", "rename"))


def test_one_writer_for_every_output():
    """cli._write_all is the only code that writes or renames a file, and
    cli.main is its only caller, so every command writes all or nothing."""
    writers, callers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for function, call in calls(ast.parse(path.read_text())):
            if writes_a_file(call):
                writers.add((path.name, function))
            if getattr(call.func, "id", getattr(call.func, "attr", None)) == "_write_all":
                callers.add((path.name, function))
    assert writers == {("cli.py", "_write_all")}
    assert callers == {("cli.py", "main")}


def raises_value_error(node, scope=()):
    """The dotted name of the enclosing classes and functions of every
    `raise ValueError` under node ("" at file level)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                yield ".".join(scope)
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from raises_value_error(child, (*scope, child.name) if named else scope)


def test_only_code_reachable_checks_raise_value_error():
    """A refused setting raises ConfigError, which cli.main maps to exit 2;
    ValueError is left to checks that only code can reach, so a setting
    check that slips back to it fails here instead of as a traceback."""
    raisers = {(path.name, scope) for path in sorted(SRC.glob("*.py"))
               for scope in raises_value_error(ast.parse(path.read_text()))}
    assert raisers == {
        ("attribution.py", "integrated_gradients"),  # path kind, steps: argparse choices
        ("exemplar.py", "distances"),                # metric: argparse choices
        ("network.py", "Layer.__post_init__"),       # artifacts: load_artifact -> ParseError
        ("network.py", "NetworkModel.__post_init__"),
        ("dataio.py", "_finite"),
    }


def catches_all(handler):
    """A bare `except`, or one naming Exception or BaseException, alone or in a tuple."""
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in ("Exception", "BaseException") for t in types)


def test_no_catch_all_handler():
    """An error is handled where it is named; anything else reaches
    cli.main, which maps BlamekitError and OSError to exit codes and lets
    a bug escape as a traceback."""
    handlers = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ExceptHandler) and catches_all(node)]
    assert handlers == []
