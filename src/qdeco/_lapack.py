"""Symmetric and Hermitian eigensolvers that work inside the caller's matrix,
on the LAPACK of the OpenBLAS that numpy links.

numpy's ``eigh`` and scipy's LAPACK wrappers both copy a C-ordered matrix to
Fortran order before LAPACK sees it, and numpy's returns its eigenvectors in
a third array.  Here LAPACK gets the C-ordered buffer itself.  A real
symmetric matrix is its own transpose, so that buffer already is the
Fortran matrix; a complex Hermitian one is conjugated in place first (exact),
since its transpose is its conjugate.  ``dsyevd`` then writes the
eigenvectors over the matrix, and ``zheevr`` writes them to one new array.

The routines are those of ``numpy.linalg._umath_linalg``'s OpenBLAS (the
``scipy_*_64_`` symbols of numpy's wheels: 64-bit integers, and Fortran's
hidden string lengths after the last argument), so a run's eigensolvers and
its numpy BLAS calls share one library and its threads.  As in scipy,
non-finite input raises ``ValueError`` and a nonzero LAPACK ``info`` raises
``np.linalg.LinAlgError``.

The same library's thread control, ``blas_threads``, serves ``fan_out``,
which runs a call's independent jobs (kicked-Ising evolutions, random-matrix
Hamiltonians) with OpenBLAS on one thread, in forked processes.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import threading
from contextlib import contextmanager
from functools import cache

import numpy as np
from numpy.linalg import _umath_linalg

_INT = ctypes.c_int64
# each routine's arguments, all passed by reference (``info`` included), and
# how many of them are characters
_SIGNATURES = {"dsyevd": (11, 2), "zheevr": (23, 3), "zheevd": (13, 2)}


@cache
def _routine(symbol: str, argtypes: tuple, restype=None):
    try:
        fn = getattr(ctypes.CDLL(_umath_linalg.__file__), symbol)
    except AttributeError:
        raise ImportError(f"numpy's OpenBLAS exports no {symbol}: qdeco needs "
                          "a numpy wheel that bundles scipy-openblas64") from None
    fn.argtypes = list(argtypes)
    fn.restype = restype
    return fn


def _lapack_routine(name: str):
    arguments, characters = _SIGNATURES[name]
    return _routine(f"scipy_{name}_64_",
                    (ctypes.c_void_p,) * arguments + (ctypes.c_size_t,) * characters)


@contextmanager
def blas_threads(n: int):
    """Run the block with numpy's OpenBLAS on ``n`` threads, and restore the
    previous count afterwards, also when the block raises.  Yields a function
    that stops the library's idle threads, as its ``pthread_atfork`` handler
    does, or ``None``, changing nothing, where it exports no thread control."""
    try:
        get = _routine("scipy_openblas_get_num_threads64_", (), ctypes.c_int)
        set_ = _routine("scipy_openblas_set_num_threads64_", (ctypes.c_int,))
        stop = _routine("blas_thread_shutdown_", (), ctypes.c_int)
    except ImportError:
        yield None
        return
    before = get()
    set_(n)
    try:
        yield stop
    finally:
        set_(before)


def usable_cores() -> int:
    """Cores this process may run on; one without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def fan_out(run, costs, workers: int | None = None) -> list:
    """``run(i)`` of each job i, whose cost is ``costs[i]``, in job order,
    with OpenBLAS on one thread (``blas_threads``).  The costliest jobs go
    first to the least loaded of up to ``workers`` shares (the usable cores
    for ``None``), run here and in forked children, which pickle their
    results or exception into pipes read before reaping; OpenBLAS's idle
    threads are stopped before the fork.  A job's result is that of the
    serial loop on one thread, which runs for one worker, without
    ``os.fork`` or thread control, and beside other Python threads."""
    workers = usable_cores() if workers is None else workers
    workers = min(workers, len(costs)) if hasattr(os, "fork") else 1
    with blas_threads(1) as stop:
        if workers < 2 or not stop or threading.active_count() > 1:
            return [run(i) for i in range(len(costs))]
        stop()
        shares = [[] for _ in range(workers)]
        for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
            min(shares, key=lambda share: sum(costs[j] for j in share)).append(i)
        results, pids, pipes = {}, [], []
        try:
            for share in shares[1:]:
                read, write = os.pipe()
                pipes.append(open(read, "rb"))
                try:
                    pid = os.fork()
                    if not pid:
                        try:
                            os.close(read)  # so its pipe breaks if the caller dies
                            try:
                                out = [(i, run(i)) for i in share]
                            except BaseException as err:
                                out = err
                            with open(write, "wb") as pipe:
                                pipe.write(pickle.dumps(out))
                        finally:
                            os._exit(0)  # no atexit handler, no inherited buffer flushed
                finally:
                    os.close(write)
                pids.append(pid)
            results.update((i, run(i)) for i in shares[0])
            for pid, pipe in zip(pids, pipes):
                data = pipe.read()
                out = pickle.loads(data) if data else ChildProcessError(
                    f"worker {pid} sent nothing")
                if isinstance(out, BaseException):
                    raise out
                results.update(out)
        finally:
            for pipe in pipes:
                pipe.close()
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [results[i] for i in range(len(costs))]


def _call(name: str, *args) -> None:
    """Call a LAPACK routine: characters by reference with their lengths
    appended, Python ints as 64-bit integers, floats as doubles, arrays and
    ctypes integers by address; then its ``info`` argument, which must be 0."""
    refs, lengths = [], []
    for a in args:
        if isinstance(a, str):
            refs.append(a.encode())
            lengths.append(len(a))
        elif isinstance(a, np.ndarray):
            refs.append(a.ctypes.data)
        elif isinstance(a, float):
            refs.append(ctypes.byref(ctypes.c_double(a)))
        elif isinstance(a, int):
            refs.append(ctypes.byref(_INT(a)))
        else:
            refs.append(ctypes.byref(a))
    info = _INT()
    _lapack_routine(name)(*refs, ctypes.byref(info), *lengths)
    if info.value:
        raise np.linalg.LinAlgError(f"LAPACK {name} failed with info = {info.value}")


def _with_workspace(name: str, head, kinds) -> None:
    """Call ``name(*head, work_1, lwork_1, work_2, lwork_2, ...)`` with
    workspaces of the dtypes ``kinds``, sized by LAPACK's own query."""
    query = [np.zeros(1, kind) for kind in kinds]
    _call(name, *head, *[x for q in query for x in (q, -1)])
    work = [np.empty(int(q[0].real), kind) for q, kind in zip(query, kinds)]
    _call(name, *head, *[x for w in work for x in (w, len(w))])


def _consumable(a) -> int:
    """Order of the square matrix ``a``, checked for what LAPACK is handed."""
    if not (isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[0] == a.shape[1]
            and a.dtype in (np.float64, np.complex128)
            and a.flags.c_contiguous and a.flags.writeable):
        raise ValueError("expected a writeable C-ordered square float64 or "
                         "complex128 matrix")
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return len(a)


def eigh(a):
    """Ascending eigenvalues and eigenvectors (as columns) of the real
    symmetric or complex Hermitian matrix ``a``, read from its lower
    triangle.  ``a`` is consumed.  Real matrices go to ``dsyevd``, and ``a``
    is returned holding the eigenvectors, transposed in place to numpy's C
    order once the workspace is freed, so GEMMs with them make numpy's
    calls bit for bit.  Complex ones go to ``zheevr``, whose eigenvectors
    come in Fortran order, as scipy returns them."""
    n = _consumable(a)
    w = np.empty(n)
    if a.dtype == np.float64:
        _with_workspace("dsyevd", ("V", "L", n, a, n, w), (np.float64, np.int64))
        a[...] = a.T
        return w, a
    z = np.empty_like(a)
    isuppz = np.empty(2 * n, np.int64)
    _with_workspace("zheevr", ("V", "A", "L", n, np.conjugate(a, out=a), n,
                               0.0, 0.0, 1, n, 0.0, _INT(), w, z, n, isuppz),
                    (np.complex128, np.float64, np.int64))
    return w, z.T


def eigvalsh(a) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric or complex Hermitian
    matrix ``a`` (``dsyevd`` or ``zheevd``, no eigenvectors), which is
    consumed."""
    n = _consumable(a)
    w = np.empty(n)
    if a.dtype == np.float64:
        _with_workspace("dsyevd", ("N", "L", n, a, n, w), (np.float64, np.int64))
    else:
        _with_workspace("zheevd", ("N", "L", n, np.conjugate(a, out=a), n, w),
                        (np.complex128, np.float64, np.int64))
    return w
