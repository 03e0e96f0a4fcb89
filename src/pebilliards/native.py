"""Shared libraries built from generated C source, cached per user and loaded with ctypes.

The native bounce walk (`billiard._native_walk`) and the CSV formatter
(`floattext._formatter`) each emit their C source and take its library from
`load`, which returns None where no library can be built or loaded; each
caller then keeps its Python path.  Nothing is built or loaded at import.
"""

from __future__ import annotations

import os
import zlib

#: The command that compiles a library; "-o <library> <source>" follow it.
#: No contraction into fused multiply-adds and no fast-math: each operation
#: of the source rounds as written.
_CC = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _library(name: str, source: str) -> str | None:
    """The path of the shared library that _CC builds from the C `source`; None where it cannot be built.

    The per-user cache, $XDG_CACHE_HOME/pebilliards or else
    ~/.cache/pebilliards, holds it as <name>-<key>.so beside its source
    <name>-<key>.c, keyed by the CRC-32 of the source and the command, and a
    cached library is taken only where the stored source equals `source`.
    A build compiles in a temporary directory inside the cache (created
    with mode 0700) and moves the library and then its source into place,
    so no reader sees a partial file.
    """
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "pebilliards")
    key = zlib.crc32("\0".join((source, *_CC)).encode())
    base = os.path.join(cache, f"{name}-{key:08x}")
    try:
        with open(base + ".c", encoding="utf-8") as f:
            if f.read() == source and os.path.exists(base + ".so"):
                return base + ".so"
    except OSError:
        pass
    import subprocess
    import tempfile

    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            src, lib = os.path.join(tmp, f"{name}.c"), os.path.join(tmp, f"{name}.so")
            with open(src, "w", encoding="utf-8") as f:
                f.write(source)
            subprocess.run([*_CC, "-o", lib, src], check=True, capture_output=True, timeout=60)
            os.replace(lib, base + ".so")
            os.replace(src, base + ".c")
    except (OSError, subprocess.SubprocessError):
        return None
    return base + ".so"


def load(name: str, source: str):
    """The loaded library (a ctypes.CDLL) that _CC builds from `source`, cached as `name`; None where there is none."""
    path = _library(name, source)
    if path is None:
        return None
    import ctypes

    try:
        return ctypes.CDLL(path)
    except OSError:
        return None
