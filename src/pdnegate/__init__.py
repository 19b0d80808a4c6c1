"""Negations of finite discrete probability distributions.

Implements the Yager, uniform, linear, Tsallis, and involutive negator
families on the probability simplex, together with iterated-negation
orbits, convergence analysis against the uniform distribution, and
contracting/expanding/involutive classification.

``import pdnegate`` loads no submodule. The first lookup of a public
name, of ``__all__`` or of a submodule imports all five and binds their
public names here, so later lookups are plain attribute reads.
"""

import importlib

_SUBMODULES = ("errors", "simplex", "negators", "dynamics", "analysis")


def _load() -> None:
    g = globals()
    mods = [importlib.import_module(f".{name}", __name__) for name in _SUBMODULES]
    for mod in mods:
        g.update((name, getattr(mod, name)) for name in mod.__all__)
    g["__all__"] = [name for mod in mods for name in mod.__all__]


def __getattr__(name: str) -> object:
    # __all__ is bound last, so its presence means the names are all here.
    if "__all__" not in globals():
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _load()
    return list(globals())
