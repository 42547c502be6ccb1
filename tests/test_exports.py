"""The public API: each module's ``__all__`` resolves, and the package root
re-exports exactly those names."""

from __future__ import annotations

import importlib
from pathlib import Path

import sedscore

PACKAGE = Path(__file__).parent.parent / "src" / "sedscore"
ROOT_MODULES = ["errors", "events", "io", "matching", "psdroc", "rates"]
MODULES = ["sedscore"] + [
    f"sedscore.{path.stem}" for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
]
# public names deleted from the API, which no module may define again
REMOVED = ("parse_event_table", "parse_durations_table", "dtc_filter", "gtc_select", "cttc_count")


def test_every_exported_name_resolves():
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        missing.extend(
            f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)
        )
    assert missing == []


def test_root_exports_exactly_each_module_all():
    expected = ["__version__"]
    for name in ROOT_MODULES:
        expected += importlib.import_module(f"sedscore.{name}").__all__
    assert sedscore.__all__ == expected


def test_no_name_is_exported_by_two_modules():
    # A later star import would silently shadow an earlier module's name.
    assert len(sedscore.__all__) == len(set(sedscore.__all__))


def test_root_names_are_the_module_objects():
    for name in ROOT_MODULES:
        module = importlib.import_module(f"sedscore.{name}")
        for attr in module.__all__:
            assert getattr(sedscore, attr) is getattr(module, attr), f"{name}.{attr}"


def test_removed_names_stay_removed():
    assert [name for name in REMOVED if name in sedscore.__all__] == []
    modules = map(importlib.import_module, MODULES)
    assert [f"{m.__name__}.{name}" for m in modules for name in REMOVED if hasattr(m, name)] == []


def test_onset_index_is_internal():
    # its positions are an internal numbering; the class keeps its name in ``events``
    assert "OnsetIndex" not in sedscore.__all__
    assert not hasattr(sedscore, "OnsetIndex")
