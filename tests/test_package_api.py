"""Public API surface tests.

Guard the package's import-time contract: the names README documents
must exist, ``__all__`` lists must be accurate, and importing the
top-level package must stay cheap and side-effect-free (beyond codec
registration).
"""

import importlib

import pytest

_PUBLIC_MODULES = [
    "repro",
    "repro.api",
    "repro.core",
    "repro.codecs",
    "repro.analysis",
    "repro.linearization",
    "repro.datasets",
    "repro.insitu",
    "repro.bench",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", _PUBLIC_MODULES)
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module is not None


@pytest.mark.parametrize("module_name", _PUBLIC_MODULES[:-1])
def test_all_names_resolve(module_name):
    """Every name a module exports must actually exist on it."""
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__")
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


def test_version_string():
    import repro

    assert repro.__version__ == "1.0.0"


def test_readme_quickstart_names():
    """The names the README's quickstart uses are importable as shown."""
    from repro import (  # noqa: F401
        IsobarCompressor,
        IsobarConfig,
        Preference,
        analyze,
        isobar_compress,
        isobar_decompress,
    )


def test_codec_registry_populated_on_import():
    from repro.codecs import codec_names

    names = set(codec_names())
    assert {"zlib", "bzip2", "lzma"} <= names


def test_no_accidental_test_dependencies():
    """The library itself must not import pytest/hypothesis."""
    import sys

    for module_name in _PUBLIC_MODULES:
        importlib.import_module(module_name)
    library_modules = [
        name for name in sys.modules
        if name.startswith("repro.") or name == "repro"
    ]
    for name in library_modules:
        module = sys.modules[name]
        source = getattr(module, "__file__", "") or ""
        assert "pytest" not in source
