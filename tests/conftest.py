"""Suite-wide fixtures."""

from __future__ import annotations

import pytest

from repro.expr.compile import KERNEL_CACHE


@pytest.fixture(autouse=True)
def fresh_kernel_cache():
    """Every test starts from an empty process-global kernel cache.

    Kernels are shared by canonical structure key, which flattens
    associative chains, so a model runs the kernel of whichever
    equivalent model compiled first in the process, and its last bits
    would depend on which tests ran before.
    """
    KERNEL_CACHE.clear()
