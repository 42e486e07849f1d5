"""Shared test helpers."""

import os

import pytest


def slow(reason: str):
    """Skip the test unless SEMLAB_SLOW=1. `reason` says what the test
    costs; the skip message adds how to run it."""
    return pytest.mark.skipif(
        os.environ.get("SEMLAB_SLOW") != "1", reason=f"{reason}; set SEMLAB_SLOW=1"
    )
