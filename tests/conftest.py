import math

import pytest

from pavlov_cycle import experiments, weights


def compensated_sum(iterable):
    """The builtin sum() as Python 3.12 has it: ints exactly, floats with Neumaier compensation."""
    total, comp = 0, 0.0
    for x in iterable:
        if isinstance(total, int) and isinstance(x, int):
            total += x
            continue
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


@pytest.fixture
def python312_sums(monkeypatch):
    """The builtin sum() of Python 3.12 in the modules whose float sums reach pinned outputs.

    The pins were made with 3.11's left-to-right sum(); 3.12's compensates
    float sums, so a pinned sum left to the builtin would move its last bits.
    """
    for module in (weights, experiments):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
