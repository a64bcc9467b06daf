"""The native CDCL core: build, cache and load ``_cdcl.c``, and drive it.

:func:`library` compiles ``_cdcl.c`` with the system ``cc`` the first
time a process needs it and loads it with ctypes.  The shared object is
cached under the user cache directory (``$XDG_CACHE_HOME`` or
``~/.cache``), named by a hash of the source, the compiler command and
the platform, so an edit to the source or a new toolchain builds afresh
and an unchanged one loads in milliseconds.  It is written to a temporary
file and renamed into place, so parallel workers never load a half-written
file; when the cache directory is not writable the build goes to a
per-process temporary directory instead.  A failing build raises with the
compiler's output: a host with a compiler never falls back silently to
the pure-Python core.

The flags keep the search identical to the reference: ``-O2`` without
``-march=native`` (a cached object must run on any CPU of the platform)
and ``-ffp-contract=off`` (a fused multiply-add would change the VSIDS
activity arithmetic).

:class:`NativeCore` is the ctypes side of one C solver.  Its ``solve``
runs the C search in slices of 64 conflicts, returning to the
interpreter at the reference's clock check, so timeouts and signal
handlers (``KeyboardInterrupt``, SIGTERM through the CLI) work as they
do on the reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import time
import weakref
from array import array
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.sat.solver import SolveResult, SolverStats

SOURCE = Path(__file__).with_name("_cdcl.c")
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: ``SolverStats`` fields the C solver counts, in ``_Public`` order.
COUNTERS = ("conflicts", "decisions", "propagations", "learned", "deleted", "restarts")

# cdcl_solve / cdcl_resume statuses (the CDCL_* enum in _cdcl.c).
_SAT, _UNSAT, _UNKNOWN, _CLOCK, _REFUTED = 1, 2, 3, 4, 5
# Errors of the calls that take DIMACS literals (ERR_* in _cdcl.c).
_ERRORS = {-1: "literal 0 is not allowed", -2: "variable index out of range"}
_NO_LIMIT = 2**63 - 1

_library: ctypes.CDLL | None = None


class _Public(ctypes.Structure):
    """The leading ``Public`` block of the C ``Solver``, read in place."""

    _fields_ = [(name, ctypes.c_int64) for name in COUNTERS] + [
        ("n_vars", ctypes.c_int32),
        ("ok", ctypes.c_int32),
    ]


def cache_dir() -> Path:
    """Where built cores are cached."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "dynunlock-repro"


def _compile(command: list[str], output: Path) -> None:
    done = subprocess.run(
        [*command, "-o", str(output), str(SOURCE)], capture_output=True, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"building the native CDCL core failed ({' '.join(command)}):\n"
            + (done.stderr or done.stdout)
        )


def build(compiler: str) -> Path:
    """Path of the built core for ``compiler``, compiling it if not cached."""
    command = [compiler, *CFLAGS]
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update("\0".join(["", *command, platform.platform()]).encode())
    name = f"cdcl-{key.hexdigest()[:16]}.so"
    directory = cache_dir()
    target = directory / name
    if target.exists():
        return target
    try:
        directory.mkdir(parents=True, exist_ok=True)
        handle, partial = tempfile.mkstemp(dir=directory, prefix=".cdcl-", suffix=".so")
    except OSError:  # cache not writable: build for this process only
        scratch = Path(tempfile.mkdtemp(prefix="dynunlock-cdcl-"))
        try:
            _compile(command, scratch / name)
        except RuntimeError:
            shutil.rmtree(scratch, ignore_errors=True)
            raise
        return scratch / name
    os.close(handle)
    try:
        _compile(command, Path(partial))
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return target


def library() -> ctypes.CDLL:
    """The loaded native core, built on the first call in a process."""
    global _library
    if _library is None:
        compiler = shutil.which("cc")
        if compiler is None:
            raise RuntimeError("the native CDCL core needs a C compiler (cc) on PATH")
        path = build(compiler)
        lib = ctypes.CDLL(str(path))
        if path.parent != cache_dir():  # a per-process build
            shutil.rmtree(path.parent, ignore_errors=True)
        vp, i32, i64 = ctypes.c_void_p, ctypes.c_int, ctypes.c_int64
        signatures = {
            "cdcl_new": (vp, [ctypes.c_double, i64, i64]),
            "cdcl_free": (None, [vp]),
            "cdcl_new_var": (i32, [vp]),
            "cdcl_add_clause": (i32, [vp, vp, i32]),
            "cdcl_add_clauses": (i32, [vp, vp, vp, i32, i32]),
            "cdcl_solve": (i32, [vp, vp, i32, i64]),
            "cdcl_resume": (i32, [vp]),
            "cdcl_stop": (None, [vp]),
            "cdcl_model": (vp, [vp]),
            "cdcl_core": (vp, [vp, ctypes.POINTER(i32)]),
        }
        for name, (restype, argtypes) in signatures.items():
            function = getattr(lib, name)
            function.restype = restype
            function.argtypes = argtypes
        _library = lib
    return _library


def _address(buffer: array) -> int:
    return buffer.buffer_info()[0]


def _clause_buffers(lits, lengths) -> tuple[int, int, int]:
    """Addresses of a clause intake's buffers, and its clause count.

    Both must be 1-D contiguous C ints, the lengths non-negative and
    summing to the number of literals, so the C core reads only inside
    them.  No view of either outlives the call: the caller's buffers
    stay free to grow once the C call is done.
    """
    flat, sizes = np.asarray(lits), np.asarray(lengths)
    for array in (flat, sizes):
        if array.dtype != np.intc or array.ndim != 1 or not array.flags.c_contiguous:
            raise TypeError("clause buffers must be 1-D contiguous C ints")
    if (sizes < 0).any() or int(sizes.sum()) != flat.size:
        raise ValueError("clause lengths do not match the literal buffer")
    return flat.ctypes.data, sizes.ctypes.data, sizes.size


def _check(status: int) -> int:
    if status < 0:
        raise ValueError(_ERRORS[status])
    return status


class NativeCore:
    """One C solver behind :class:`repro.sat.solver.CdclSolver`.

    The interface is :class:`repro.sat.solver.PythonCore`'s.  ``stats``
    is synced from the C counters after every call that can move them.
    """

    name = "native"

    def __init__(self, var_decay: float, restart_base: int, reduce_base: int):
        lib = library()
        handle = lib.cdcl_new(1.0 / var_decay, restart_base, reduce_base)
        if not handle:
            raise MemoryError("cannot allocate a native CDCL solver")
        self._lib = lib
        self._handle = handle
        self._public = _Public.from_address(handle)
        weakref.finalize(self, lib.cdcl_free, handle)
        self.stats = SolverStats()

    @property
    def n_vars(self) -> int:
        return self._public.n_vars

    def _sync(self) -> None:
        public, stats = self._public, self.stats
        stats.conflicts = public.conflicts
        stats.decisions = public.decisions
        stats.propagations = public.propagations
        stats.learned = public.learned
        stats.deleted = public.deleted
        stats.restarts = public.restarts

    def new_var(self) -> int:
        return self._lib.cdcl_new_var(self._handle)

    def add_clauses(self, lits, lengths, n_vars: int) -> None:
        """Create variables up to ``n_vars``, then add every clause.

        ``lits`` and ``lengths`` are flat buffers of C ints, passed to
        the C core in place.
        """
        lits_address, lengths_address, n_clauses = _clause_buffers(lits, lengths)
        status = self._lib.cdcl_add_clauses(
            self._handle, lits_address, lengths_address, n_clauses, n_vars
        )
        self._sync()
        _check(status)

    def add_clause(self, lits: Sequence[int]) -> bool:
        buffer = array("i", lits)
        status = self._lib.cdcl_add_clause(self._handle, _address(buffer), len(buffer))
        self._sync()
        return _check(status) == 1

    def solve(
        self,
        assumptions: Iterable[int] = (),
        max_conflicts: int | None = None,
        timeout_s: float | None = None,
    ) -> SolveResult:
        started = time.perf_counter()
        stats = self.stats
        stats.solve_calls += 1
        lib, handle = self._lib, self._handle
        codes = array("i", assumptions)
        limit = _NO_LIMIT if max_conflicts is None else min(max_conflicts, _NO_LIMIT)
        try:
            status = _check(lib.cdcl_solve(handle, _address(codes), len(codes), limit))
            while status == _CLOCK:
                if timeout_s is not None and time.perf_counter() - started > timeout_s:
                    lib.cdcl_stop(handle)
                    status = _UNKNOWN
                    break
                status = lib.cdcl_resume(handle)
        finally:
            self._sync()
        if status == _REFUTED:  # before any search; the reference does not time it
            return SolveResult(satisfiable=False, stats=stats, core=[])
        stats.solve_time += time.perf_counter() - started
        if status == _SAT:
            model = list(ctypes.string_at(lib.cdcl_model(handle), self.n_vars + 1))
            return SolveResult(satisfiable=True, model=model, stats=stats)
        if status == _UNSAT:
            size = ctypes.c_int()
            address = lib.cdcl_core(handle, ctypes.byref(size))
            core = (ctypes.c_int * size.value).from_address(address) if size.value else []
            return SolveResult(satisfiable=False, stats=stats, core=list(core))
        return SolveResult(satisfiable=None, stats=stats)
