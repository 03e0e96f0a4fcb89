import pytest

from pebilliards import native


@pytest.fixture
def no_compiler(tmp_path, monkeypatch):
    """The native library built afresh with no C compiler to be found and an empty cache.

    The recorder takes its numpy pass, and `floattext.csv_rows` writes every
    cell with ``repr``.
    """
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_CC", ("pebilliards-no-such-compiler", *native._CC[1:]))
    native.library.cache_clear()
    yield
    native.library.cache_clear()
