# Import iec before numpy, as the iec command does: the package then sets one BLAS
# thread where the environment names no count.  Training splits its BLAS products
# with the helper process only under one thread, and the tests that force the
# helper on (test_ann.force_helper) need that condition too.
import iec  # noqa: F401
