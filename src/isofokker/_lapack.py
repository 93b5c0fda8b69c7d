"""The four LAPACK routines the package calls, out of the compiled wrapper scipy ships.

``dstebz``/``dstein`` (tridiagonal eigenpairs, in ``spectral``) and
``dgttrf``/``dgttrs`` (tridiagonal LU, in ``oracle`` and ``spectral``) are read from the
extension ``scipy.linalg._flapack``, whose routines the ``lapack`` module of
``scipy.linalg`` re-exports: they are the same objects, in either import
order.  The ``scipy.linalg`` package itself, whose ``__init__`` loads
``numpy.f2py`` and ``numpy.testing``, is not imported.  The top-level
``scipy`` package is (~15 ms): it makes scipy's bundled libraries loadable.
"""

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import scipy

_NAME = "scipy.linalg._flapack"


def _load():
    """``scipy.linalg._flapack``: the one already imported, else loaded from its file."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    folder = os.path.join(scipy.__path__[0], "linalg")
    spec = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_NAME)
    if spec is None:
        raise ImportError(f"scipy's LAPACK wrapper not found: {os.path.join(folder, '_flapack' + EXTENSION_SUFFIXES[0])}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_NAME] = module
    return module


_flapack = _load()
dstebz, dstein, dgttrf, dgttrs = _flapack.dstebz, _flapack.dstein, _flapack.dgttrf, _flapack.dgttrs
