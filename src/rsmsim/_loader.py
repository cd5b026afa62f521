"""Compiled submodules of scipy and numpy, without their package ``__init__``.

``specfun`` calls only the ufuncs of ``scipy.special._ufuncs``, whose
package ``__init__`` loads scipy's array-API layer
(``_support_alternative_backends``, which pulls in ``numpy.f2py`` and
``numpy.testing``), about 0.25 s of start-up that nothing here uses. The
random streams need only ``Generator``, ``PCG64`` and the seed-sequence
classes, whose package ``__init__`` also loads the legacy ``RandomState``
(``mtrand``), ``MT19937``, ``Philox``, ``SFC64`` and ``_pickle``, about
4 ms and 0.8 MB of a run's peak RSS that nothing here uses.

:func:`load` imports such submodules under the global import lock
through a bare stand-in package whose ``__path__`` is the package's
directory, and removes the stand-in again; the submodules stay in
``sys.modules``, so a later import of the package builds the real one
around the same objects, and :class:`_BindSubmodules` binds on it the
modules imported under the stand-in. An already imported package is
used as it is, and if the stand-in import fails (a different package
layout) the plain import gives the same objects, only at the package's
start-up cost.
"""

from __future__ import annotations

import _imp
import functools
import importlib
import importlib.machinery
import os
import sys
import types

__all__ = ["load", "numpy_random"]


class _BindSubmodules:
    """Meta path finder for one real package that :func:`load` stood in for.

    The submodules imported while the stand-in was in place are bound as
    attributes of the stand-in, not of the package built later, and are
    not loaded again (a module that only another submodule imports, such
    as ``scipy.special._ufuncs_cxx``, would not be bound even if it were
    dropped from ``sys.modules``). This finder hands the package's own
    spec to the import system and, once the package has executed, binds
    those modules on it, as a plain import of the package would have; it
    leaves ``sys.meta_path`` when the package executes, not when a spec
    is only looked up.
    """

    def __init__(self, package: str, submodules: dict[str, types.ModuleType]):
        self.package = package
        self.submodules = submodules

    def find_spec(self, name, path=None, target=None):
        if name != self.package:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None and spec.loader is not None:
            exec_module = spec.loader.exec_module

            def exec_and_bind(module: types.ModuleType) -> None:
                # A new list: an import iterating the old one is undisturbed.
                sys.meta_path = [f for f in sys.meta_path if f is not self]
                exec_module(module)
                for attr, submodule in self.submodules.items():
                    vars(module).setdefault(attr, submodule)

            spec.loader.exec_module = exec_and_bind
        return spec


def load(package: str, *names: str) -> tuple[types.ModuleType, ...]:
    """The submodules ``names`` of ``package``, in that order, imported
    without executing ``package`` itself unless it is already imported or
    the stand-in import fails (see the module docstring)."""
    parent_name, _, last = package.rpartition(".")
    parent = importlib.import_module(parent_name)
    _imp.acquire_lock()
    try:
        if package not in sys.modules:
            stub = types.ModuleType(package)
            stub.__path__ = [os.path.join(path, last) for path in parent.__path__]
            stub.__package__ = package
            sys.modules[package] = stub
            try:
                return tuple(importlib.import_module(f"{package}.{name}") for name in names)
            except (ImportError, AttributeError):
                pass
            finally:
                if sys.modules.get(package) is stub:
                    del sys.modules[package]
                # Read the instance dict: a lazy module __getattr__ (scipy's,
                # numpy's) would import the real package.
                if vars(parent).get(last) is stub:
                    del vars(parent)[last]
                submodules = {
                    attr: value
                    for attr, value in vars(stub).items()
                    if isinstance(value, types.ModuleType)
                    and sys.modules.get(f"{package}.{attr}") is value
                }
                if submodules:
                    sys.meta_path = [_BindSubmodules(package, submodules), *sys.meta_path]
    finally:
        _imp.release_lock()
    return tuple(importlib.import_module(f"{package}.{name}") for name in names)


@functools.cache
def numpy_random() -> types.SimpleNamespace:
    """``Generator``, ``PCG64``, ``SeedSequence`` and ``ISeedSequence`` of
    ``numpy.random``, the only names a run draws with, loaded on first use
    through :func:`load` (``numpy.random.bit_generator``, ``_pcg64`` and
    ``_generator``, with ``_common`` and ``_bounded_integers``, which they
    import themselves)."""
    bit_generator, pcg64, generator = load("numpy.random", "bit_generator", "_pcg64", "_generator")
    return types.SimpleNamespace(
        Generator=generator.Generator,
        PCG64=pcg64.PCG64,
        SeedSequence=bit_generator.SeedSequence,
        ISeedSequence=bit_generator.ISeedSequence,
    )
