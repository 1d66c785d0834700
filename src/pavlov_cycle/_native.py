"""Lazily built C kernels (source: _native.c).

Three kernels, each the fast path of a reference that gives the same bits:
mf_rk4 runs the mean-field RK4 loop (meanfield.integrate, else
meanfield._rk4_numpy), merge_min scans a weight table's merge margins
(weights._evaluate_constraints, else weights._merge_min_numpy) and
drift_sums prices one state's one-step drift (weights.one_step_drift, else
weights._drift_sums_python).

load() compiles the source with the system C compiler on first use, caches
the library in this package's __pycache__ under a name keyed by the sha256
of the source and flags, and returns it.  It returns None whenever the
library cannot be built or loaded; the callers then run their references.
Only load() imports the build tools (hashlib, subprocess, numpy.ctypeslib),
so a run that calls no kernel does not pay for them.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import tempfile

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_native.c")
# No -ffast-math or -march=native: the library must compute the same bytes on
# every machine, and a library built for the build machine's CPU could not be
# shared with an older one.  The source picks its AVX2 code at load time
# instead (target_clones in _native.c), with the same IEEE operations.
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


class DriftSums(ctypes.Structure):
    """drift_sums' result, returned by value: (w0, change)."""

    _fields_ = [("w0", ctypes.c_double), ("change", ctypes.c_double)]


@functools.cache
def load() -> ctypes.CDLL | None:
    """The kernel library, built on first use; None when it cannot be built or loaded."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    import hashlib
    import subprocess

    try:
        with open(_SOURCE, "rb") as handle:
            source = handle.read()
        digest = hashlib.sha256(source + " ".join(_FLAGS).encode()).hexdigest()
        cache_dir = os.path.join(_HERE, "__pycache__")
        target = os.path.join(cache_dir, f"_native-{digest}.so")
        if not os.path.exists(target):
            os.makedirs(cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
            os.close(fd)
            try:
                cmd = [cc, *_FLAGS, "-o", tmp, _SOURCE]
                subprocess.run(cmd, check=True, capture_output=True, timeout=120)
                os.replace(tmp, target)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(target)
    except (OSError, subprocess.SubprocessError):
        return None
    # mf_rk4(p, dt, n_steps, stride, L, start, out, work)
    scalars = [ctypes.c_double, ctypes.c_double, ctypes.c_long, ctypes.c_long, ctypes.c_long]
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    lib.mf_rk4.argtypes = scalars + [doubles] * 3
    lib.mf_rk4.restype = ctypes.c_long
    # merge_min(w, n)
    lib.merge_min.argtypes = [doubles, ctypes.c_long]
    lib.merge_min.restype = ctypes.c_double
    # drift_sums(states, n, w, rows, nrows, cycle_term), every buffer by address:
    # it runs once per state, and an ndpointer check would cost more than the scan
    address = ctypes.c_void_p
    lib.drift_sums.argtypes = [address, ctypes.c_long, address, address, ctypes.c_long, ctypes.c_double]
    lib.drift_sums.restype = DriftSums
    return lib
