"""The core, the build config and the thread count of the OpenBLAS that numpy loaded, read
from the library.

Run as a script, it prints the three with numpy's version, as CI's "OpenBLAS core, config
and thread count" step does, so the log shows the thread count the tests ran with:

    python tests/blas_probe.py
"""

import ctypes

import numpy

# numpy's wheels name the getters with a scipy_ prefix and a 64_ suffix; a system OpenBLAS
# exports the plain names.  The thread getters are those perfbench/run.py's blas_threads tries.
GETTERS = {"core": ("scipy_openblas_get_corename64_", "openblas_get_corename"),
           "config": ("scipy_openblas_get_config64_", "openblas_get_config"),
           "threads": ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_")}


def openblas_build() -> dict:
    """``{"core": ..., "config": ..., "threads": ...}`` of the loaded OpenBLAS, as text,
    "unknown" where none tells."""
    found = dict.fromkeys(GETTERS, "unknown")
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for what, symbols in GETTERS.items():
            for symbol in symbols:
                getter = getattr(lib, symbol, None)
                if getter is not None and found[what] == "unknown":
                    getter.argtypes = []
                    getter.restype = ctypes.c_int if what == "threads" else ctypes.c_char_p
                    found[what] = str(getter()) if what == "threads" else getter().decode()
    return found


if __name__ == "__main__":
    build = openblas_build()
    print(f"numpy {numpy.__version__}; OpenBLAS core: {build['core']}; "
          f"config: {build['config']}; threads: {build['threads']}")
