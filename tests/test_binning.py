import numpy as np
import pytest

from gpmmc import Binning, tally


class TestBinning:
    def test_delta_and_centers(self):
        b = Binning(-1.0, 54.0, 55)
        assert b.delta == 1.0
        np.testing.assert_allclose(b.centers, -0.5 + np.arange(55))
        np.testing.assert_allclose(b.edges, -1.0 + np.arange(56))

    def test_index_examples(self):
        b = Binning(-1.0, 54.0, 55)
        assert b.index(-1.0) == 0
        assert b.index(0.0) == 1
        assert b.index(54.0) == 54      # closure point joins the last bin
        assert b.index(54.0001) is None
        assert b.index(-1.0001) is None

    def test_index_interior(self):
        b = Binning(0.0, 1.0, 2)
        assert b.index(0.1) == 0
        assert b.index(0.5) == 1
        assert b.index(0.9999) == 1

    def test_non_finite_rejected(self):
        b = Binning(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            b.index(float("nan"))
        with pytest.raises(ValueError):
            b.index(float("inf"))
        with pytest.raises(ValueError):
            b.indices(np.array([0.5, np.nan]))

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            Binning(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            Binning(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            Binning(0.0, float("inf"), 4)

    @pytest.mark.parametrize("m", [2.5, 2.0, np.float64(2.0), "2", None],
                             ids=["float", "whole", "numpy_float", "str",
                                  "none"])
    def test_non_integer_bin_count_rejected(self, m):
        with pytest.raises(ValueError, match="must be an integer"):
            Binning(0.0, 1.0, m)

    @pytest.mark.parametrize("m", [2, np.int64(2), np.int32(2), np.uint8(2)],
                             ids=["int", "int64", "int32", "uint8"])
    def test_numpy_integer_bin_count_accepted(self, m):
        b = Binning(0.0, 1.0, m)
        assert b.index(0.99) == 1 and type(b.index(0.99)) is int
        assert tally(b, np.array([0.2, 0.7, 0.9])).tolist() == [1, 2]

    def test_partition_property(self):
        """Every in-range value lands in exactly one bin whose edges
        bracket it."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            lo, span = rng.uniform(-10, 10), rng.uniform(0.1, 20)
            m = int(rng.integers(1, 60))
            b = Binning(lo, lo + span, m)
            ys = rng.uniform(lo, lo + span, size=200)
            for y in ys:
                i = b.index(y)
                assert i is not None
                assert b.edges[i] <= y
                if i < m - 1:
                    assert y < b.edges[i + 1]

    def test_edges_are_half_open(self):
        b = Binning(0.0, 10.0, 10)
        for i in range(1, 10):
            assert b.index(float(i)) == i


class TestHistogram:
    """A histogram is the counts array tally returns: nonnegative by
    construction (a bincount), and, since a non-finite value raises, its sum
    is the number of values in [lo, hi]."""

    def test_tally_example(self):
        b = Binning(0.0, 1.0, 2)
        counts = tally(b, np.array([0.1, 0.6, 0.7]))
        np.testing.assert_array_equal(counts, [1, 2])
        assert counts.dtype == np.int64

    def test_tally_overflow(self):
        # out-of-range values are not counted in any bin
        b = Binning(0.0, 1.0, 2)
        counts = tally(b, np.array([-0.5, 0.2, 1.5, 2.0]))
        np.testing.assert_array_equal(counts, [1, 0])

    def test_closure_point_tallied_inside(self):
        b = Binning(0.0, 1.0, 4)
        np.testing.assert_array_equal(tally(b, np.array([1.0])), [0, 0, 0, 1])

    def test_tally_non_finite_raises(self):
        b = Binning(0.0, 1.0, 4)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                tally(b, np.array([0.5, bad]))

    def test_tally_invariant_random(self):
        rng = np.random.default_rng(7)
        b = Binning(-2.0, 3.0, 13)
        for _ in range(20):
            ys = rng.normal(0.5, 2.0, size=500)
            counts = tally(b, ys)
            inside = (ys >= b.lo) & (ys <= b.hi)
            assert 0 < inside.sum() < ys.size
            assert counts.sum() == inside.sum()
            loop = np.zeros(b.m, dtype=np.int64)
            for y in ys:
                i = b.index(y)
                if i is not None:
                    loop[i] += 1
            np.testing.assert_array_equal(counts, loop)

    def test_tally_order_invariant(self):
        rng = np.random.default_rng(3)
        b = Binning(0.0, 1.0, 7)
        ys = rng.uniform(-0.2, 1.2, size=300)
        np.testing.assert_array_equal(tally(b, ys),
                                      tally(b, rng.permutation(ys)))
