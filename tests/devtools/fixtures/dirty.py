"""Seeded lint fixture: exactly one violation per registered rule.

Never imported — ``tests/devtools/test_lint_cli.py`` lints this file and
asserts that every rule in the pack fires exactly once.  Keep one
violation per rule; the tests assert the exact multiset of rule ids.
"""

import glob
import os

_SCHEMA = """
CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT);
"""

BY_B = "SELECT * FROM t ORDER BY b"  # SQL002: b does not cover the key a


def det004_unsorted_listing(path):
    return [name for name in os.listdir(path)]  # DET004: unsorted listing


def obs003_dynamic_alert_name(site):
    return Alert(f"spike-{site}", "warning", "msg")  # OBS003: built alert name


def glob_is_fine_when_sorted(pattern):
    return sorted(glob.glob(pattern))
