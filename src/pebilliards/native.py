"""The one shared library of native code, built from C source, cached per user and loaded with ctypes.

Its source is the recorder's pass over an orbit (`billiard._C_RECORD`: the
bounce walk, each row's H and F_k, and the abort tests) followed by the CSV
formatter (`floattext._source`).  `library` builds or loads it once per
process, on first use, and returns None where it cannot be built or loaded;
billiard and floattext then keep their Python paths.  Nothing is built or
loaded at import.
"""

from __future__ import annotations

import functools
import os
import zlib

#: The command that compiles a library; "-o <library> <source>" follow it.
#: No contraction into fused multiply-adds and no fast-math: each operation
#: of the source rounds as written.  Without errno, a square root is the
#: instruction alone and the library needs no libm.
_CC = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")


def _library(source: str) -> str | None:
    """The path of the shared library that _CC builds from the C `source`; None where it cannot be built.

    The per-user cache, $XDG_CACHE_HOME/pebilliards or else
    ~/.cache/pebilliards, holds it as native-<key>.so beside its source
    native-<key>.c, keyed by the CRC-32 of the source and the command, and a
    cached library is taken only where the stored source equals `source`.
    A relative $XDG_CACHE_HOME counts as unset, as the XDG base directory
    specification asks; where ~ does not expand to an absolute path there
    is no cache and nothing is built.  A build compiles in a temporary
    directory inside the cache (created with mode 0700) and moves the
    library and then its source into place, so no reader sees a partial file.
    """
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.expanduser("~/.cache")
        if not os.path.isabs(root):
            return None
    cache = os.path.join(root, "pebilliards")
    key = zlib.crc32("\0".join((source, *_CC)).encode())
    base = os.path.join(cache, f"native-{key:08x}")
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
            src, lib = os.path.join(tmp, "native.c"), os.path.join(tmp, "native.so")
            with open(src, "w", encoding="utf-8") as f:
                f.write(source)
            subprocess.run([*_CC, "-o", lib, src], check=True, capture_output=True, timeout=60)
            os.replace(lib, base + ".so")
            os.replace(src, base + ".c")
    except (OSError, subprocess.SubprocessError):
        return None
    return base + ".so"


@functools.cache
def library():
    """The loaded library (a ctypes.CDLL) with `record` and `csv_rows` declared; None where there is none."""
    from . import billiard, floattext

    path = _library(billiard._C_RECORD + floattext._source())
    if path is None:
        return None
    import ctypes

    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    pointer, long, int64 = ctypes.c_void_p, ctypes.c_long, ctypes.c_int64
    lib.record.argtypes = (pointer, pointer, ctypes.POINTER(long), long, long)
    lib.record.restype = long
    lib.csv_rows.argtypes = (pointer, int64, int64, pointer, pointer)
    lib.csv_rows.restype = int64
    return lib
