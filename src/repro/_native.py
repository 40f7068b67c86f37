"""Optional fused C kernel suite behind the packed uint64 substrate.

NumPy cannot fuse ``bitwise_and`` → ``bitwise_count`` → reduce into
one pass, so every pure-numpy word kernel materialises a
``words``-sized intermediate and pays extra memory sweeps where one
would do. This module compiles (once, lazily, with the system C
compiler) a small suite of fused loops and loads them through
:mod:`ctypes`:

* ``repro_class_supports_batch`` — the PR-4 scoring kernel::

      out[b][j] = sum_w popcount(words[j][w] & rows[b][w])

  behind :meth:`repro.bitmat.BitMatrix.class_supports_batch` (and,
  flattened over classes, :meth:`~repro.bitmat.BitMatrix.
  class_supports_multi`);

* ``repro_subset_mask`` — the enumeration closure/subset check::

      out[j] = all_w ((query[w] & ~words[j][w]) == 0)

  with early exit per row, behind
  :func:`repro.bitmat.superset_mask` and thus
  :meth:`repro.mining.tidsets.VerticalView.superset_positions` (the
  closed miner's closure primitive);

* ``repro_andnot_counts`` — the diffset recurrence join::

      out[j] = sum_w popcount(a[j][w] & ~b[j][w])

  behind :func:`repro.bitmat.andnot_counts`, which sizes the
  word-wise ``parent \\ child`` difference blocks of the Fig 4
  Diffsets arm (:class:`repro.ablation.ReferenceForest`);

* ``repro_pvalue_buffer`` — the p-value buffers of Section 4.2.3
  (Figure 2) for a whole batch of coverages of one ``(n, n_c)`` null,
  written back to back into one flat float64 array, behind
  :func:`repro.stats.pvalue_buffer.build_buffers`. Unlike the word
  kernels it computes floats, so it repeats the Python construction
  (:func:`repro.stats.hypergeom.pmf_table` and
  :func:`repro.stats.pvalue_buffer._two_ends_sum_up`) op for op: the
  same libm ``exp``, the same left-to-right sums, the same tie
  grouping and clamps. Every flag set therefore carries
  ``-ffp-contract=off`` (no fused multiply-add), and none may ever
  carry ``-ffast-math``.

Each call releases the GIL, so the kernels also scale on the
``threads`` backend — and callers batch their work into few calls,
since a thread that drops and retakes the GIL per small call convoys
behind the others. Everything here is best-effort: no compiler
(``CC=/bin/false`` is the CI leg for that), a sandboxed filesystem, a
failed compile, or ``REPRO_NATIVE=0`` all degrade silently to the
numpy/Python paths. Results are bit-identical either way — the word
kernels count exact integers or compare exact words, and the p-value
kernel performs the same IEEE operations in the same order as its
Python twin.

The shared object is cached under ``$REPRO_NATIVE_CACHE`` (default: a
per-user directory beneath the system temp dir), keyed by a hash of
the source, the compiler identity (``$CC`` and its version banner)
and flags, and published with an atomic rename so concurrent workers
never load a half-written library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import stat
import subprocess
import sys
import tempfile
from typing import Optional

from .testing import faults

__all__ = ["KernelSuite", "load_suite", "native_status"]

_SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* Fused word kernels over packed little-endian uint64 record sets.
   The multi-array numpy pipelines are memory bound; each loop here
   reads every word once and keeps its accumulator in a register. */

#if defined(__GNUC__) || defined(__clang__)
#define POPCOUNT64 __builtin_popcountll
#else
static int POPCOUNT64(uint64_t x) {
    int count = 0;
    while (x) { x &= x - 1; ++count; }
    return count;
}
#endif

/* out[b][j] = sum_w popcount(words[j][w] & rows[b][w]) */
void repro_class_supports_batch(
    const uint64_t *words,   /* (n_rows, n_words), row-major */
    const uint64_t *rows,    /* (n_batch, n_words), row-major */
    int64_t *out,            /* (n_batch, n_rows), row-major */
    int64_t n_rows,
    int64_t n_words,
    int64_t n_batch)
{
    for (int64_t b = 0; b < n_batch; ++b) {
        const uint64_t *row = rows + b * n_words;
        int64_t *dst = out + b * n_rows;
        for (int64_t j = 0; j < n_rows; ++j) {
            const uint64_t *node = words + j * n_words;
            int64_t acc = 0;
            for (int64_t w = 0; w < n_words; ++w)
                acc += POPCOUNT64(node[w] & row[w]);
            dst[j] = acc;
        }
    }
}

/* out[j] = 1 iff query is a subset of words[j] (query & ~row == 0),
   early exit on the first uncovered word. */
void repro_subset_mask(
    const uint64_t *words,   /* (n_rows, n_words), row-major */
    const uint64_t *query,   /* (n_words,) */
    uint8_t *out,            /* (n_rows,) */
    int64_t n_rows,
    int64_t n_words)
{
    for (int64_t j = 0; j < n_rows; ++j) {
        const uint64_t *row = words + j * n_words;
        uint8_t covered = 1;
        for (int64_t w = 0; w < n_words; ++w) {
            if (query[w] & ~row[w]) { covered = 0; break; }
        }
        out[j] = covered;
    }
}

/* out[j] = sum_w popcount(a[j][w] & ~b[j][w]) — the diffset size of
   row pair j. */
void repro_andnot_counts(
    const uint64_t *a,       /* (n_rows, n_words), row-major */
    const uint64_t *b,       /* (n_rows, n_words), row-major */
    int64_t *out,            /* (n_rows,) */
    int64_t n_rows,
    int64_t n_words)
{
    for (int64_t j = 0; j < n_rows; ++j) {
        const uint64_t *pa = a + j * n_words;
        const uint64_t *pb = b + j * n_words;
        int64_t acc = 0;
        for (int64_t w = 0; w < n_words; ++w)
            acc += POPCOUNT64(pa[w] & ~pb[w]);
        out[j] = acc;
    }
}

/* ln C(a, b) from the log-factorial table, in the op order of
   LogFactorialBuffer.log_binomial: (t[a] - t[b]) - t[a - b]. */
static double log_binomial(const double *t, int64_t a, int64_t b)
{
    return t[a] - t[b] - t[a - b];
}

/* pmf[k - low] = H(k; n, n_c, s) for k in [low, high], exactly as
   hypergeom.pmf_table: one exp seed, then the integer-ratio
   recurrence; a seed that underflows to 0.0 sends every entry
   through its own log-space evaluation instead. */
static void pmf_table(int64_t n, int64_t n_c, int64_t s, int64_t low,
                      int64_t high, const double *t, double *pmf)
{
    double first = exp(log_binomial(t, n_c, low)
                       + log_binomial(t, n - n_c, s - low)
                       - log_binomial(t, n, s));
    if (first == 0.0) {
        for (int64_t k = low; k <= high; ++k)
            pmf[k - low] = exp(log_binomial(t, n_c, k)
                               + log_binomial(t, n - n_c, s - k)
                               - log_binomial(t, n, s));
        return;
    }
    double value = first;
    pmf[0] = first;
    for (int64_t k = low; k < high; ++k) {
        int64_t numerator = (n_c - k) * (s - k);
        int64_t denominator = (k + 1) * (n - n_c - s + k + 1);
        value = value * (double)numerator / (double)denominator;
        pmf[k - low + 1] = value;
    }
}

/* Figure 2's two-ends-inward walk over pmf[0..m), as
   pvalue_buffer._two_ends_sum_up: the right end is taken only when
   strictly smaller (Python's min), each tie group sums its left
   members ascending, then its right members descending, and every
   member receives the running total. Returns -1 on a NaN table. */
static int two_ends_sum_up(const double *pmf, int64_t m, double tol,
                           double *out)
{
    int64_t left = 0, right = m - 1;
    double total = 0.0;
    while (left <= right) {
        double smallest = pmf[right] < pmf[left] ? pmf[right] : pmf[left];
        double ceiling = smallest * tol;
        int64_t first_left = left, first_right = right;
        while (left <= right && pmf[left] <= ceiling)
            ++left;
        while (left <= right && pmf[right] <= ceiling)
            --right;
        if (left == first_left && right == first_right)
            return -1;
        double group = 0.0;
        for (int64_t i = first_left; i < left; ++i)
            group += pmf[i];
        for (int64_t i = first_right; i > right; --i)
            group += pmf[i];
        total += group;
        for (int64_t i = first_left; i < left; ++i)
            out[i] = total;
        for (int64_t i = first_right; i > right; --i)
            out[i] = total;
    }
    return 0;
}

/* The p-value buffers of coverages[0..n_coverages) for one (n, n_c)
   null, back to back in out (buffer i spans high_i - low_i + 1
   doubles). pmf is scratch for the longest buffer. Returns 0, or
   i + 1 when coverage i's pmf table holds NaN. */
int64_t repro_pvalue_buffer(
    int64_t n,
    int64_t n_c,
    const int64_t *coverages,
    int64_t n_coverages,
    const double *log_factorials,  /* ln(k!) for k = 0..n */
    int64_t midp,
    double tol,
    double *out,
    double *pmf)
{
    for (int64_t i = 0; i < n_coverages; ++i) {
        int64_t s = coverages[i];
        int64_t low = n_c + s - n > 0 ? n_c + s - n : 0;
        int64_t high = n_c < s ? n_c : s;
        int64_t m = high - low + 1;
        pmf_table(n, n_c, s, low, high, log_factorials, pmf);
        if (two_ends_sum_up(pmf, m, tol, out) != 0)
            return i + 1;
        for (int64_t k = 0; k < m; ++k)
            out[k] = out[k] < 1.0 ? out[k] : 1.0;
        if (midp) {
            for (int64_t k = 0; k < m; ++k) {
                double mid = out[k] - 0.5 * pmf[k];
                out[k] = mid > 0.0 ? mid : 0.0;
            }
        }
        out += m;
    }
    return 0;
}
"""

#: Flag sets tried in order; the first successful compile wins. The
#: -march=native build unlocks vectorised popcount (AVX-512 VPOPCNTQ
#: where available); the plain build is the portable fallback. Every
#: set keeps IEEE semantics for the p-value kernel: -ffp-contract=off
#: stops -march=native from fusing ``p - 0.5 * pmf`` into an FMA, and
#: no set may enable -ffast-math or -Ofast.
_FLAG_SETS = (
    ("-O3", "-march=native", "-funroll-loops", "-ffp-contract=off"),
    ("-O3", "-ffp-contract=off"),
)

_CACHE_ENV = "REPRO_NATIVE_CACHE"
_DISABLE_ENV = "REPRO_NATIVE"
_CC_ENV = "CC"

_UINT64_P = ctypes.POINTER(ctypes.c_uint64)
_INT64_P = ctypes.POINTER(ctypes.c_int64)
_UINT8_P = ctypes.POINTER(ctypes.c_uint8)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)

#: (symbol, restype, argtypes) for every kernel the suite must export;
#: a library missing any of them is rejected as a whole.
_KERNEL_SIGNATURES = (
    ("repro_class_supports_batch", None,
     [_UINT64_P, _UINT64_P, _INT64_P,
      ctypes.c_int64, ctypes.c_int64, ctypes.c_int64]),
    ("repro_subset_mask", None,
     [_UINT64_P, _UINT64_P, _UINT8_P,
      ctypes.c_int64, ctypes.c_int64]),
    ("repro_andnot_counts", None,
     [_UINT64_P, _UINT64_P, _INT64_P,
      ctypes.c_int64, ctypes.c_int64]),
    ("repro_pvalue_buffer", ctypes.c_int64,
     [ctypes.c_int64, ctypes.c_int64, _INT64_P, ctypes.c_int64,
      _DOUBLE_P, ctypes.c_int64, ctypes.c_double, _DOUBLE_P,
      _DOUBLE_P]),
)


class KernelSuite:
    """The loaded native kernels, one attribute per C entry point.

    Attributes are ctypes functions with argtypes/restype set:
    ``class_supports_batch``, ``subset_mask``, ``andnot_counts``,
    ``pvalue_buffer``. The
    whole suite loads from one shared object — either every kernel is
    native or none is, so callers never mix generations.
    """

    __slots__ = ("class_supports_batch", "subset_mask", "andnot_counts",
                 "pvalue_buffer", "_handle")

    def __init__(self, handle: ctypes.CDLL) -> None:
        self._handle = handle
        for symbol, restype, argtypes in _KERNEL_SIGNATURES:
            fn = getattr(handle, symbol)  # AttributeError -> rejected
            fn.restype = restype
            fn.argtypes = argtypes
            setattr(self, symbol[len("repro_"):], fn)


# Memoised load result: "unset" -> not tried yet; None -> unavailable.
_kernel: object = "unset"
_status = "not loaded"

# Memoised compiler probe: "unset" -> not probed; None -> no usable
# compiler; str -> its identity banner (hashed into the cache tag so
# a compiler upgrade or a CC= switch never reuses a stale library).
_compiler: object = "unset"


def _cache_dir() -> Optional[str]:
    """A private, owned cache directory — or ``None`` to not cache.

    Loading a shared object executes its code, so the cache must not
    be hijackable: the directory is created ``0o700`` and rejected
    unless it is a directory owned by the current user and writable
    by nobody else (the default lives under the world-writable system
    temp dir, where any local user could otherwise pre-create the
    path and plant a library).
    """
    configured = os.environ.get(_CACHE_ENV)
    uid = os.getuid() if hasattr(os, "getuid") else 0
    directory = configured or os.path.join(tempfile.gettempdir(),
                                           f"repro-native-{uid}")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        # lstat + explicit symlink rejection: a pre-planted symlink at
        # the expected path would otherwise redirect the ownership
        # check, the chmod, and the compiler artifacts to its target.
        info = os.lstat(directory)
    except OSError:
        return None
    if stat.S_ISLNK(info.st_mode) or not stat.S_ISDIR(info.st_mode):
        return None
    if hasattr(os, "getuid") and info.st_uid != uid:
        return None
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        # Our own directory from an earlier version (or a permissive
        # umask): tighten it rather than losing the cache. Anything
        # still loose afterwards is rejected.
        try:
            os.chmod(directory, 0o700)
            info = os.stat(directory)
        except OSError:
            return None
        if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
            return None
    return directory


def _compiler_command() -> str:
    """The C compiler to invoke (``$CC``, default ``cc``)."""
    return os.environ.get(_CC_ENV, "").strip() or "cc"


def _compiler_fingerprint() -> Optional[str]:
    """Identity banner of the configured compiler, or ``None``.

    Probed once per process. A missing or broken compiler (the
    ``CC=/bin/false`` CI leg) returns ``None``, which short-circuits
    every compile attempt — the numpy fallback engages without ever
    writing to the cache.
    """
    global _compiler
    if _compiler != "unset":
        return _compiler  # type: ignore[return-value]
    command = _compiler_command()
    try:
        probe = subprocess.run([command, "--version"],
                               capture_output=True, timeout=30)
    except Exception:
        _compiler = None
        return None
    if probe.returncode != 0 or not probe.stdout.strip():
        _compiler = None
        return None
    banner = probe.stdout.splitlines()[0].decode("utf-8", "replace")
    _compiler = f"{command} {banner}"
    return _compiler


def _compile(flags) -> Optional[str]:
    """Compile the suite with ``flags``; return the .so path or None.

    The object is written to a unique temp name and published with
    ``os.replace`` so a concurrent worker either sees the finished
    library or none at all — never a partial write. The cache tag
    hashes the compiler identity and the host identity alongside
    source and flags: ``-march=native`` output is CPU-specific (a
    library built on one machine must never be picked up on another
    through a shared cache directory — SIGILL at call time is
    uncatchable), and a compiler upgrade must rebuild.
    """
    if faults.should_fire("native-compile-failure"):
        # Chaos injection: behave exactly like a failed cc invocation
        # so the caller exercises the numpy-fallback path.
        return None
    compiler = _compiler_fingerprint()
    if compiler is None:
        return None
    tag = hashlib.sha256(
        (_SOURCE + " ".join(flags) + sys.version + compiler
         + platform.machine() + platform.node()).encode()
    ).hexdigest()[:16]
    directory = _cache_dir()
    if directory is None:
        return None
    library = os.path.join(directory, f"bitmat_{tag}.so")
    if os.path.exists(library):
        return library
    # Every attempt compiles from its own unique source and scratch
    # files (mkstemp): concurrent first-use compiles — thread workers,
    # process workers — must never write through each other's paths,
    # or a half-written .so could be published into the cache.
    source_fd, source_path = tempfile.mkstemp(
        dir=directory, prefix=f"bitmat_{tag}_", suffix=".c")
    scratch_fd, scratch = tempfile.mkstemp(
        dir=directory, prefix=f"bitmat_{tag}_", suffix=".so.tmp")
    os.close(scratch_fd)
    try:
        with os.fdopen(source_fd, "w") as handle:
            handle.write(_SOURCE)
        subprocess.run(
            [_compiler_command(), "-shared", "-fPIC", *flags,
             source_path, "-o", scratch, "-lm"],
            check=True, capture_output=True, timeout=120)
        os.replace(scratch, library)
        return library
    except Exception:
        try:
            os.unlink(scratch)
        except OSError:
            pass
        return None
    finally:
        try:
            os.unlink(source_path)
        except OSError:
            pass


def load_suite() -> Optional[KernelSuite]:
    """The loaded :class:`KernelSuite`, or ``None`` when unavailable.

    Lazy and memoised; safe to call from any thread or worker
    process (each process compiles at most once, against the shared
    on-disk cache). ``REPRO_NATIVE=0`` disables the whole suite.
    """
    global _kernel, _status
    if _kernel != "unset":
        return _kernel  # type: ignore[return-value]
    if os.environ.get(_DISABLE_ENV, "").strip() == "0":
        _kernel, _status = None, "disabled via REPRO_NATIVE=0"
        return None
    for flags in _FLAG_SETS:
        library = _compile(flags)
        if library is None:
            continue
        try:
            suite = KernelSuite(ctypes.CDLL(library))
        except (OSError, AttributeError):
            # Unloadable, or an older-generation library missing a
            # kernel (the tag hashes the source, so this only happens
            # on a corrupted cache) — try the next flag set.
            continue
        _kernel = suite
        _status = f"loaded ({' '.join(flags)})"
        return suite
    _kernel, _status = None, "compile failed (numpy fallback)"
    return None


def native_status() -> str:
    """Human-readable state of the native kernel suite (diagnostics)."""
    return _status
