"""The public API's settable values and names do not grow past ROADMAP
aim 2's tallies.

A settable value is a parameter with a default of a name in a module's
``__all__``: a function's, a class constructor's (a dataclass field with a
default), or a public method's of such a class.  A public name is an entry
of a module's ``__all__``, and a public function is named in some other
file of the package, the benchmark or the tests.  A CLI option is a flag
of a subcommand other than ``--help`` and ``--out``.  The source lines are
the lines of ``src/wsaw4/*.py``.
"""

import argparse
import importlib
import inspect
import pathlib
import pkgutil
import re

import wsaw4
from wsaw4 import cli

TALLY = 27  # ROADMAP aim 2, "One value in use means a constant"
PUBLIC_TALLY = 64  # ROADMAP aim 2, "No public name without a caller or a test"
CLI_TALLY = 38  # ROADMAP aim 2, "One value in use means a constant"
SRC_TALLY = 3103  # ROADMAP aim 2, "Prefer deleting to adding"
ROOT = pathlib.Path(__file__).resolve().parents[1]


def defaults(obj):
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):  # a constant, not a callable
        return 0
    return sum(p.default is not inspect.Parameter.empty for p in params)


def public_names():
    """``{"module.name": object}`` over the modules' ``__all__`` lists."""
    out = {}
    for info in pkgutil.iter_modules(wsaw4.__path__):
        module = importlib.import_module(f"wsaw4.{info.name}")
        for public in getattr(module, "__all__", ()):
            out[f"{info.name}.{public}"] = getattr(module, public)
    return out


def settable_values():
    count = {}
    for name, obj in public_names().items():
        n = defaults(obj)
        if inspect.isclass(obj):
            n += sum(defaults(m) for k, m in inspect.getmembers(obj)
                     if not k.startswith("_") and callable(m))
        if n:
            count[name] = n
    return count


def test_settable_values_within_tally():
    count = settable_values()
    total = sum(count.values())
    assert total <= TALLY, (
        f"{total} settable values against the tally of {TALLY}: make a value "
        f"with one use a constant, or update ROADMAP aim 2 and TALLY "
        f"({count})")


def test_public_names_within_tally():
    names = sorted(public_names())
    assert len(names) <= PUBLIC_TALLY, (
        f"{len(names)} public names against the tally of {PUBLIC_TALLY}: "
        f"give each a caller or a test, or update ROADMAP aim 2 and "
        f"PUBLIC_TALLY ({names})")


def test_public_functions_named_outside_their_module():
    texts = {path: path.read_text() for folder in ("src/wsaw4", "perfbench",
                                                   "tests")
             for path in (ROOT / folder).glob("*.py")}
    unnamed = []
    for name, obj in public_names().items():
        module, public = name.split(".")
        own = ROOT / "src" / "wsaw4" / f"{module}.py"
        if inspect.isfunction(obj) and not any(
                re.search(rf"\b{public}\b", text)
                for path, text in texts.items() if path != own):
            unnamed.append(name)
    assert not unnamed, (
        f"public functions named only in their own module: {unnamed}; "
        f"make them private or give them a caller or a test")


def cli_options():
    """``{"subcommand": [flag, ...]}`` without ``--help`` and ``--out``."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [act.option_strings[-1] for act in parser._actions
                   if act.option_strings
                   and act.option_strings[-1] not in ("--help", "--out")]
            for name, parser in sub.choices.items()}


def test_cli_options_within_tally():
    options = cli_options()
    total = sum(map(len, options.values()))
    assert total <= CLI_TALLY, (
        f"{total} CLI options against the tally of {CLI_TALLY}: make an "
        f"option that nothing sets a constant, or update ROADMAP aim 2 and "
        f"CLI_TALLY ({options})")


def test_source_lines_within_tally():
    lines = {path.name: len(path.read_text().splitlines())
             for path in sorted((ROOT / "src" / "wsaw4").glob("*.py"))}
    total = sum(lines.values())
    assert total <= SRC_TALLY, (
        f"{total} lines in src/wsaw4 against the tally of {SRC_TALLY}: "
        f"delete as much as the change adds, or update ROADMAP aim 2 and "
        f"SRC_TALLY ({lines})")
