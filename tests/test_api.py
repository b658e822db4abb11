"""The library surface as documented: every construction runs in the
caller's run, and the README's quick start runs as written."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import invcat
from invcat import partial_identity

README = Path(__file__).resolve().parents[1] / "README.md"


def _functions(module):
    """Every function defined in module, and every method of its classes."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                member = getattr(member, "__func__", member)  # static and class methods
                if inspect.isfunction(member):
                    yield member


def test_no_enum_parameter_has_a_default():
    # a default run would be a second path: a fresh Enumeration per call,
    # its budget fixed, and nothing cached across calls
    modules = [invcat] + [importlib.import_module(f"invcat.{m.name}") for m in pkgutil.iter_modules(invcat.__path__)]
    checked, defaults = 0, []
    for module in modules:
        for fn in _functions(module):
            enum = inspect.signature(fn).parameters.get("enum")
            if enum is not None:
                checked += 1
                if enum.default is not inspect.Parameter.empty:
                    defaults.append(f"{module.__name__}.{fn.__qualname__}")
    assert checked > 50 and not defaults, defaults


def test_readme_quick_start_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    # the transfer-map law group passes, and its report is printed as JSON
    assert scope["report"].passed and scope["report"].exit_code() == 0
    assert '"suite"' in capsys.readouterr().out
    # inverse image: the projection on {1,3}
    assert scope["inverse"] == partial_identity(scope["A"], ("1", "3"))
