"""Run dentdet's matrix products on one OpenBLAS thread per caller, and
split a call's images over two callers.

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
:func:`halves` uses that to put the second core to work.  It holds the one
rule for sharing a call's images: the calling thread takes the first
``ceil(n / 2)``, the step worker the rest, and fewer than two run on the
calling thread alone.  The sampler, ``train.encode_images`` and a training
step's forward pass split this way, once per call; each image is computed
on its own, so the split changes no bit.  A training step's backward pass
splits by tensor through :func:`in_parallel`.  The step worker is one
persistent daemon thread, started by the first split (never at import) and
served by a plain queue: an executor would import ``concurrent.futures``
and ``logging``, which raised the sampler's peak RSS.  numpy's products
and the encoder's ufuncs drop the GIL, so the two shares run at once.  They
write into disjoint arrays the caller owns, and the call returns only
after both have finished.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import os
import threading

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


_jobs = None  # the step worker's queue of (share, reply queue), once it runs


def _forget_worker() -> None:
    # A forked child has no copy of the thread; its first call starts one.
    global _jobs
    _jobs = None


os.register_at_fork(after_in_child=_forget_worker)


def _serve(jobs) -> None:
    while True:
        _run(*jobs.get())


def _run(there, reply) -> None:
    # Its own frame, so the worker keeps no reference to a share, nor to
    # what it returned, while it waits for the next: those hold the
    # caller's buffers.
    try:
        reply.put((there(), None))
    except BaseException as error:  # raised again on the caller's thread
        reply.put((None, error))


def in_parallel(here, there):
    """``(here(), there())``, with ``there`` run on the step worker while
    ``here`` runs on the calling thread.

    Returns, or raises, only after both have finished, so neither share
    outlives the caller's buffers.  An exception from ``here`` wins;
    otherwise one from ``there`` reaches the caller as it was raised.
    """
    from queue import SimpleQueue  # imported by the first call, not at import

    global _jobs
    if _jobs is None:
        _jobs = SimpleQueue()
        threading.Thread(
            target=_serve, args=(_jobs,), name="dentdet-step", daemon=True
        ).start()
    reply = SimpleQueue()
    _jobs.put((there, reply))
    try:
        mine = here()
    finally:
        theirs, error = reply.get()
    if error is not None:
        raise error
    return mine, theirs


def halves(share, n: int) -> list:
    """``[share(range(0, h)), share(range(h, n))]``, ``h = ceil(n / 2)``, the
    second share run on the step worker (:func:`in_parallel`); with ``n < 2``
    only ``[share(range(n))]``, on this thread, and no thread starts."""
    if n < 2:
        return [share(range(n))]
    h = (n + 1) // 2
    return list(in_parallel(lambda: share(range(h)), lambda: share(range(h, n))))
