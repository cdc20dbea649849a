"""Fixtures shared by the runtime tests."""

import pytest

from repro.runtime import durability


@pytest.fixture
def small_segments(monkeypatch):
    """WAL segments rotate past 256 bytes, a handful of frames each, so
    short streams span several segments and truncation has work to do."""
    monkeypatch.setattr(durability, "_SEGMENT_BYTES", 256)
