import mmap

# Import iec before numpy, as the iec command does: the package then sets one BLAS
# thread where the environment names no count.  Training forks its helper process
# only under one thread, and the tests that force the helper on
# (test_ann.force_helper) need that condition too.
import iec  # noqa: F401
import pytest


@pytest.fixture
def mapped(monkeypatch):
    """The length of each anonymous mapping made during the test, in order.  A training
    step with a helper keeps its hidden layer in one, which tracemalloc does not see."""
    sizes, mapping = [], mmap.mmap

    def recorded(fileno, length, *args, **kwargs):
        sizes.append(length)
        return mapping(fileno, length, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", recorded)
    return sizes
