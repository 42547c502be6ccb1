"""Every name a module exports in ``__all__`` exists on it."""

from __future__ import annotations

import importlib
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "sedscore"


def test_every_exported_name_resolves():
    modules = ["sedscore"] + [
        f"sedscore.{path.stem}" for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
    ]
    missing = []
    for name in modules:
        module = importlib.import_module(name)
        missing.extend(
            f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)
        )
    assert missing == []
