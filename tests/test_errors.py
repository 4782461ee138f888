import ast
from pathlib import Path

import pytest

from tdq import errors

SOURCE = Path(errors.__file__).parent
CLASSES = [kind for kind in vars(errors).values()
           if isinstance(kind, type) and kind.__module__ == errors.__name__]


@pytest.mark.parametrize("kind", CLASSES, ids=lambda kind: kind.__name__)
def test_every_class_is_a_tdq_error_with_its_builtin_base(kind):
    assert issubclass(kind, errors.TdqError)
    assert kind is errors.TdqError or issubclass(kind, (ValueError, RuntimeError))


def test_every_raise_in_the_package_raises_a_tdq_error():
    # the CLI maps TdqError to exit 2, so a raise of anything else would end
    # in a traceback; argparse's own error type in `cli._list_of` is the one
    # exception, and argparse turns it into a usage error
    names = {kind.__name__ for kind in CLASSES}
    others = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = target.id if isinstance(target, ast.Name) else ast.unparse(target)
            if name not in names and (path.name, name) != ("cli.py",
                                                           "argparse.ArgumentTypeError"):
                others.append(f"{path.name}:{node.lineno} raises {name}")
    assert others == []
