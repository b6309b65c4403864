"""Bloom filter substrate tests: the no-false-negative contract (§5.1.2)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom import BloomFilter
from repro.bloom.bloom import encode_vt


class TestEncodeVT:
    def test_scalar_roundtrip_fields(self):
        k = encode_vt(5, 3, qid=2)
        assert int(k) == (2 << 48) | (5 << 16) | 3

    def test_vectorized(self):
        v = np.array([1, 2, 3])
        i = np.array([4, 5, 6])
        ks = encode_vt(v, i, qid=np.array([0, 1, 2]))
        assert len(np.unique(ks)) == 3

    def test_distinct_fields_distinct_keys(self):
        assert encode_vt(1, 2) != encode_vt(2, 1)
        assert encode_vt(1, 2, qid=0) != encode_vt(1, 2, qid=1)

    def test_iteration_width(self):
        # 16 bits of iteration — far beyond any IFE depth here.
        assert encode_vt(0, 65535) != encode_vt(1, 0)

    def test_largest_legal_fields(self):
        k = encode_vt(2**32 - 1, 2**16 - 1, qid=2**16 - 1)
        assert int(k) == 2**64 - 1

    @pytest.mark.parametrize(
        "vertex, iteration, qid",
        [
            (2**32, 0, 0),
            (0, 2**16, 0),
            (0, 0, 2**16),
            (-1, 0, 0),
            (0, -1, 0),
            (0, 0, -1),
            (np.array([1, 2**32]), np.array([0, 0]), 0),
        ],
        ids=["vertex", "iteration", "qid", "neg-vertex", "neg-iteration", "neg-qid", "array"],
    )
    def test_out_of_range_raises(self, vertex, iteration, qid):
        with pytest.raises(ValueError):
            encode_vt(vertex, iteration, qid=qid)


class TestBloomFilter:
    def test_empty_contains_nothing(self):
        b = BloomFilter(100)
        assert not b.contains(np.arange(50, dtype=np.uint64)).any()

    def test_no_false_negatives_small(self):
        b = BloomFilter(1000)
        keys = np.arange(500, dtype=np.uint64) * 7919
        b.add(keys)
        assert b.contains(keys).all()

    def test_fp_rate_reasonable(self):
        b = BloomFilter(5000, fp_rate=0.01)
        g = np.random.default_rng(0)
        inserted = g.integers(0, 2**62, 5000).astype(np.uint64)
        b.add(inserted)
        probes = g.integers(2**62, 2**63, 20000).astype(np.uint64)
        fpr = b.contains(probes).mean()
        assert fpr < 0.05  # design point 1%, generous margin

    def test_size_fixed_under_insertion(self):
        b = BloomFilter(1000)
        before = b.size_bytes
        b.add(np.arange(10_000, dtype=np.uint64))
        assert b.size_bytes == before  # the Prob-Drop scalability property

    def test_size_scales_with_capacity_not_content(self):
        small, big = BloomFilter(100), BloomFilter(100_000)
        assert big.size_bytes > small.size_bytes

    def test_add_empty(self):
        b = BloomFilter(10)
        b.add(np.array([], dtype=np.uint64))
        assert b.n_inserted == 0

    def test_contains_empty(self):
        b = BloomFilter(10)
        assert len(b.contains(np.array([], dtype=np.uint64))) == 0

    def test_scalar_add_contains(self):
        b = BloomFilter(10)
        b.add(42)
        assert b.contains(42).all()

    def test_invalid_fp_rate(self):
        with pytest.raises(ValueError):
            BloomFilter(10, fp_rate=1.5)

    def test_counts(self):
        b = BloomFilter(10)
        b.add(np.array([1, 2, 3], dtype=np.uint64))
        assert b.n_inserted == 3

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=300))
    def test_no_false_negatives_property(self, xs):
        b = BloomFilter(max(1, len(xs)))
        keys = np.array(xs, dtype=np.uint64)
        b.add(keys)
        if len(keys):
            assert b.contains(keys).all()
