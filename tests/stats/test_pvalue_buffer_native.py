"""The native p-value buffer kernel ≡ its Python twin, bit for bit.

:func:`repro.stats.pvalue_buffer.build_buffers` runs the native
``repro_pvalue_buffer`` kernel when the suite loads and the Python
construction of :class:`PValueBuffer` otherwise. CSVs write ``repr``
p-values and sort rows by them, so the two must agree on every bit:
these tests compare them with ``float.hex``.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.stats import pvalue_buffer
from repro.stats.hypergeom import log_pmf
from repro.stats.pvalue_buffer import PValueBuffer, build_buffers

#: adult: n records, and the support of class ``<=50K``.
ADULT_N, ADULT_LE50K = 32561, 24720


def _hex(buffers):
    return [[value.hex() for value in buffer.p_values()]
            for buffer in buffers]


def _twin(n, n_c, coverages, midp):
    return [PValueBuffer(n, n_c, s, midp=midp) for s in coverages]


def _native_batch(n, n_c, coverages, midp):
    if _native.load_suite() is None:
        pytest.skip("native kernel suite unavailable")
    return list(build_buffers(n, n_c, coverages, midp=midp))


def _assert_identical(n, n_c, coverages, midp=False):
    native = _native_batch(n, n_c, coverages, midp)
    twin = _twin(n, n_c, coverages, midp)
    assert [(b.low, b.high) for b in native] == \
        [(b.low, b.high) for b in twin]
    assert _hex(native) == _hex(twin), (n, n_c, coverages, midp)


def _grid():
    rng = random.Random(13)
    cases = []
    for n in (60, 100, 1000, 2000, 8124, 32561):
        for _ in range(6):
            n_c = rng.randint(1, n - 1)
            cases.append((n, n_c, sorted(
                rng.sample(range(n + 1), 12))))
    return cases


class TestKernelIdentity:
    @pytest.mark.parametrize("midp", [False, True])
    @pytest.mark.parametrize("n,n_c,coverages", _grid())
    def test_seeded_grid(self, n, n_c, coverages, midp):
        _assert_identical(n, n_c, coverages, midp)

    @pytest.mark.parametrize("midp", [False, True])
    def test_adult_underflow_seeds(self, midp):
        coverages = list(range(1000, ADULT_N + 1, 731))
        # The grid must reach the log-space fallback: the pmf seed
        # underflows to exactly 0.0 for most of these coverages.
        seeds = [log_pmf(max(0, ADULT_LE50K + s - ADULT_N), ADULT_N,
                         ADULT_LE50K, s) for s in coverages]
        assert sum(math.exp(seed) == 0.0 for seed in seeds) > \
            len(coverages) // 2
        _assert_identical(ADULT_N, ADULT_LE50K, coverages, midp)

    @pytest.mark.parametrize("midp", [False, True])
    @pytest.mark.parametrize("n", [60, 1000, 8124])
    def test_ties_at_half(self, n, midp):
        # n_c = n/2 makes the two flanks mirror images: every step of
        # the two-ends walk is a tie group.
        _assert_identical(n, n // 2, [1, 2, n // 4, n // 2, n - 1],
                          midp)

    @pytest.mark.parametrize("midp", [False, True])
    @pytest.mark.parametrize("n", [1, 60, 8124])
    def test_degenerate_class_and_coverage(self, n, midp):
        for n_c in (0, n):
            _assert_identical(n, n_c, [0, 1, n // 2, n], midp)
        _assert_identical(n, n // 2 or 1, [0, n], midp)

    def test_repeated_coverages(self):
        _assert_identical(1000, 300, [40, 40, 7, 40, 7, 999, 999])

    def test_single_coverage(self):
        _assert_identical(8124, 3916, [600])

    # Tables of n=3000, n_c=300: 301 entries from coverage 300 up,
    # 101 for coverage 100, 51 for 50. A table larger than the budget
    # still gets a call of its own.
    @pytest.mark.parametrize("budget,calls", [(700, [2, 3, 1]),
                                              (300, [1, 1, 1, 2, 1])])
    def test_batches_split_at_batch_bytes(self, monkeypatch, budget,
                                          calls):
        suite = _native.load_suite()
        if suite is None:
            pytest.skip("native kernel suite unavailable")
        made = []

        class Spy:
            def pvalue_buffer(self, n, n_c, coverages, count, *args):
                made.append(count)
                return suite.pvalue_buffer(n, n_c, coverages, count,
                                           *args)

        monkeypatch.setattr(pvalue_buffer, "load_suite", lambda: Spy())
        monkeypatch.setattr(pvalue_buffer, "BATCH_BYTES", 8 * budget)
        coverages = [400, 500, 600, 100, 50, 700]
        got = list(build_buffers(3000, 300, coverages))
        assert made == calls
        assert _hex(got) == _hex(_twin(3000, 300, coverages, False))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), midp=st.booleans())
    def test_random_nulls(self, data, midp):
        n = data.draw(st.integers(1, 5000), label="n")
        n_c = data.draw(st.integers(0, n), label="n_c")
        coverages = data.draw(st.lists(st.integers(0, n), min_size=1,
                                       max_size=8), label="coverages")
        _assert_identical(n, n_c, coverages, midp)


class TestPythonTwin:
    def test_fallback_runs_python_construction(self, monkeypatch):
        monkeypatch.setattr(pvalue_buffer, "load_suite", lambda: None)
        got = list(build_buffers(2000, 700, [5, 600, 1999], midp=True))
        assert _hex(got) == _hex(_twin(2000, 700, [5, 600, 1999], True))

    def test_buffers_are_read_only_float64(self):
        for buffer in (*build_buffers(100, 40, [30]),
                       PValueBuffer(100, 40, 30)):
            assert buffer.values.dtype.name == "float64"
            assert not buffer.values.flags.writeable
            assert buffer.nbytes == 8 * len(buffer)
            assert type(buffer.p_value(buffer.low)) is float

    def test_empty_batch(self):
        assert list(build_buffers(100, 40, [])) == []


class TestBuildFlags:
    def test_every_flag_set_keeps_ieee_order(self):
        for flags in _native._FLAG_SETS:
            assert "-ffp-contract=off" in flags, flags
            assert "-ffast-math" not in flags, flags
            assert "-Ofast" not in flags, flags
