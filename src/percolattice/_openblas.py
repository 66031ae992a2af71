"""LAPACK from the OpenBLAS that numpy's wheels bundle, called through ctypes.

np.linalg.eigvalsh copies every input into a private Fortran-ordered
matrix before it calls LAPACK dsyevd.  `in_place_eigvalsh` returns a solver
that calls the same routine of the same library, with the same workspace
query, on the caller's own buffer instead.  The library is the one numpy
has already loaded, so it shares numpy's BLAS thread pool and
OPENBLAS_NUM_THREADS setting.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

# ILP64 name of dsyevd in the scipy-openblas build that numpy's wheels ship
_DSYEVD = "scipy_dsyevd_64_"


def _library_path() -> str | None:
    """The libscipy_openblas64_ in numpy's wheel, or None if there is not exactly one."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    found = glob.glob(os.path.join(libs, "libscipy_openblas64_*"))
    return found[0] if len(found) == 1 else None


@functools.cache
def in_place_eigvalsh():
    """A solver that overwrites its matrix, or None where numpy uses another LAPACK.

    The solver takes a C-contiguous, writeable float64 N x N array A and
    returns its eigenvalues, ascending, with the bits of
    np.linalg.eigvalsh(A) provided A's upper triangle equals its lower one
    bit for bit: LAPACK sees the C-ordered buffer as A^T and reads the
    lower triangle of that, which is A's upper triangle.  A's contents
    are undefined afterwards.
    """
    path = _library_path()
    if path is None:
        return None
    try:
        dsyevd = getattr(ctypes.CDLL(path), _DSYEVD)
    except (OSError, AttributeError):
        return None
    integer = ctypes.POINTER(ctypes.c_int64)
    real = ctypes.POINTER(ctypes.c_double)
    # the two trailing size_t are the lengths of JOBZ and UPLO, as Fortran passes them
    dsyevd.argtypes = [ctypes.c_char_p, ctypes.c_char_p, integer, real, integer, real,
                       real, integer, integer, integer, integer,
                       ctypes.c_size_t, ctypes.c_size_t]
    dsyevd.restype = None

    def solve(matrix: np.ndarray) -> np.ndarray:
        n = len(matrix)
        if not (matrix.shape == (n, n) and matrix.dtype == np.float64
                and matrix.flags.c_contiguous and matrix.flags.writeable):
            raise ValueError("dsyevd in place needs a writeable C-contiguous float64 "
                             f"square matrix, got {matrix.dtype} {matrix.shape}")
        size, lda = ctypes.c_int64(n), ctypes.c_int64(max(1, n))
        values = np.empty(n)
        info = ctypes.c_int64(0)

        def call(work, lwork, iwork, liwork):
            dsyevd(b"N", b"L", size, matrix.ctypes.data_as(real), lda,
                   values.ctypes.data_as(real), work, lwork, iwork, liwork, info, 1, 1)
            if info.value < 0:
                raise RuntimeError(f"dsyevd rejected argument {-info.value}")
            if info.value > 0:
                # np.linalg.eigvalsh's error for the same failure
                raise np.linalg.LinAlgError("Eigenvalues did not converge")

        # the workspace query eigvalsh makes: LWORK = LIWORK = -1
        query_work, query_iwork = ctypes.c_double(0.0), ctypes.c_int64(0)
        call(ctypes.byref(query_work), ctypes.c_int64(-1),
             ctypes.byref(query_iwork), ctypes.c_int64(-1))
        lwork, liwork = int(query_work.value), query_iwork.value
        work, iwork = np.empty(lwork), np.empty(liwork, dtype=np.int64)
        call(work.ctypes.data_as(real), ctypes.c_int64(lwork),
             iwork.ctypes.data_as(integer), ctypes.c_int64(liwork))
        return values

    return solve
