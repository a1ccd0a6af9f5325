"""The public API's settable values do not grow past ROADMAP aim 2's tally.

A settable value is a parameter with a default of a name in a module's
``__all__``: a function's, a class constructor's (a dataclass field with a
default), or a public method's of such a class.
"""

import importlib
import inspect
import pkgutil

import wsaw4

TALLY = 40  # ROADMAP aim 2, "One value in use means a constant"


def defaults(obj):
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):  # a constant, not a callable
        return 0
    return sum(p.default is not inspect.Parameter.empty for p in params)


def settable_values():
    count = {}
    for info in pkgutil.iter_modules(wsaw4.__path__):
        name = info.name
        module = importlib.import_module(f"wsaw4.{name}")
        for public in getattr(module, "__all__", ()):
            obj = getattr(module, public)
            n = defaults(obj)
            if inspect.isclass(obj):
                n += sum(defaults(m) for k, m in inspect.getmembers(obj)
                         if not k.startswith("_") and callable(m))
            if n:
                count[f"{name}.{public}"] = n
    return count


def test_settable_values_within_tally():
    count = settable_values()
    total = sum(count.values())
    assert total <= TALLY, (
        f"{total} settable values against the tally of {TALLY}: make a value "
        f"with one use a constant, or update ROADMAP aim 2 and TALLY "
        f"({count})")
