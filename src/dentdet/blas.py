"""Run dentdet's matrix products on one OpenBLAS thread per caller, and
split a training step over two callers.

The products are small: a decoder pass multiplies 64 proposals by weights a
few hundred columns wide, and RoI pooling multiplies 256 bin rows by the
feature grid.  OpenBLAS splits every product above about 2.6e5
multiply-adds over all cores, and at these sizes the split costs more than
it saves.  On a 2-core host a 32-image, 4-step ``infer`` call took 0.18 to
0.23 s on one thread against 0.25 to 0.31 s on two, while the second thread
kept a core busy.  In some processes the threaded path also took about
40 000 page faults per call (500 on one thread), which made detection
throughput differ by a quarter from one process to the next.

:func:`one_thread` sets the thread count for the calls it wraps and
restores it afterwards.  Results are unchanged: OpenBLAS splits a product
by output blocks, so each entry is summed in the same order either way.
With a BLAS other than OpenBLAS it does nothing.

The thread count is one setting for the whole process, so a second thread
that calls numpy inside ``one_thread`` runs its products on one thread too.
:func:`in_parallel` uses that to put the second core to work: it runs one
share of a training step on the step worker, a single persistent thread
started by the first call (never at import), while the caller runs the
other share.  numpy drops the GIL inside each product, so the two shares'
products run at the same time.  The shares write into disjoint arrays the
caller owns, so what they compute does not depend on which runs first, and
the call returns only after both have finished.  Inference keeps to the
calling thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import os

# (get, set) thread-count symbols: numpy 2 wheels, numpy 1 wheels, a system
# OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            ext = importlib.import_module(name)
            break
        except ImportError:
            continue
    else:
        return None
    # A symbol lookup on the extension's handle also searches the libraries
    # it links, the BLAS among them.
    lib = ctypes.CDLL(ext.__file__)
    for get_name, set_name in _SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def one_thread():
    """Context manager and decorator: one OpenBLAS thread inside."""
    fns = _openblas()
    if fns is None:
        yield
        return
    get, set_ = fns
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


_worker = None  # a one-thread concurrent.futures.ThreadPoolExecutor


def _forget_worker() -> None:
    # A forked child has no copy of the thread; its first call starts one.
    global _worker
    _worker = None


os.register_at_fork(after_in_child=_forget_worker)


def in_parallel(here, there):
    """``(here(), there())``, with ``there`` run on the step worker while
    ``here`` runs on the calling thread.

    Returns, or raises, only after both have finished, so neither share
    outlives the caller's buffers.  An exception from ``here`` wins;
    otherwise one from ``there`` reaches the caller as it was raised.
    """
    from concurrent import futures  # only training imports it

    global _worker
    if _worker is None:
        _worker = futures.ThreadPoolExecutor(1, thread_name_prefix="dentdet-step")
    pending = _worker.submit(there)
    try:
        mine = here()
    finally:
        futures.wait((pending,))
    return mine, pending.result()
