"""Access to the bundled example corpus."""

from __future__ import annotations

import importlib.resources
import os


def data_dir() -> str:
    return os.fspath(importlib.resources.files("innerscope") / "data")


def data_path(name: str) -> str:
    if not name.endswith(".json"):
        name += ".json"
    path = os.path.join(data_dir(), name)
    if not os.path.exists(path):
        raise FileNotFoundError("no bundled file named %r" % name)
    return path


def resolve(path: str) -> str:
    """path itself if it exists, else the bundled file with its base name."""
    if os.path.exists(path):
        return path
    try:
        return data_path(os.path.basename(path))
    except FileNotFoundError:
        raise FileNotFoundError("no file %r and no bundled entry of that name" % path) from None


def names() -> list[str]:
    return sorted(n[:-5] for n in os.listdir(data_dir()) if n.endswith(".json"))
