"""Helpers that more than one test module uses."""

from unittest import mock

from smol import forest


def _processes(count: int):
    """Grow a fit's batches in ``count`` processes, and descend a forest's
    blocks with ``count`` workers, whatever the CPUs."""
    return mock.patch.object(forest, "_process_count", lambda: count)
