import pytest

from pebilliards import billiard, floattext, native


@pytest.fixture
def no_compiler(tmp_path, monkeypatch):
    """Libraries built afresh with no C compiler to be found and an empty cache.

    The recorder takes the Python walk, and `floattext.csv_rows` writes every
    cell with ``repr``.
    """
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_CC", ("pebilliards-no-such-compiler", *native._CC[1:]))
    billiard._kernels.cache_clear()
    floattext._formatter.cache_clear()
    yield
    billiard._kernels.cache_clear()
    floattext._formatter.cache_clear()
