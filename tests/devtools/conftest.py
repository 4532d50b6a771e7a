"""Shared fixtures for the lint test suite."""

import pytest


@pytest.fixture
def make_project(tmp_path):
    """Write ``{relative_path: source}`` files under one root and return it."""

    def _make(files, name="proj"):
        root = tmp_path / name
        for relative, source in files.items():
            target = root / relative
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        return root

    return _make
