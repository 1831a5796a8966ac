import mmap

# Import iec before numpy, as the iec command does: the package then sets one BLAS
# thread where the environment names no count.  Nothing forks, neither the training
# helper nor the benchmark's workers, in a process of more threads, and the tests that
# run the real CPU rule (test_ann.TestRealProbes, and test_ensemble's thread test) need
# one thread too.
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
