"""File collection for the lint driver.

Files are collected in sorted order and de-duplicated, which is half of
why ``lint_project`` reports are byte-identical at any ``--jobs`` value
(the other half: the combined violation list is re-sorted).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence

from ...errors import LintError


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files and directories into a sorted, de-duplicated file list."""
    seen = set()
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise LintError(f"no such file or directory: {raw}")
        for candidate in candidates:
            key = str(candidate.resolve())
            if key not in seen:
                seen.add(key)
                files.append(candidate)
    return files
