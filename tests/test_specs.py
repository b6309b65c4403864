"""QuerySpec tests: the IFE bindings table (§3.2)."""
import pytest

from repro.core import specs


class TestConstruction:
    def test_sssp(self):
        s = specs.sssp_spec({0: 5}, targets={0: 7})
        assert s.agg == "min" and not s.base_all and s.max_iters is None

    def test_khop_requires_k(self):
        with pytest.raises(ValueError):
            specs.QuerySpec(kind="khop", sources={0: 1})

    def test_khop(self):
        s = specs.khop_spec({0: 1, 1: 2}, k=5)
        assert s.max_iters == 5 and s.qids() == [0, 1]

    def test_rpq(self):
        s = specs.rpq_spec({3: 12})
        assert s.agg == "min" and s.qids() == [3]

    def test_wcc(self):
        s = specs.wcc_spec()
        assert s.base_all and s.qids() == [0] and s.agg == "min"

    def test_pr(self):
        s = specs.pr_spec()
        assert s.agg == "sum" and s.max_iters == 10 and s.needs_outdeg

    def test_sources_required(self):
        with pytest.raises(ValueError):
            specs.QuerySpec(kind="sssp")

    @pytest.mark.parametrize(
        "make", [lambda: specs.pr_spec(iters=0), lambda: specs.khop_spec({0: 1}, k=0)],
        ids=["pr-0-iters", "khop-k-0"],
    )
    def test_zero_iterations_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            specs.QuerySpec(kind="bfs", sources={0: 1})


class TestBaseValues:
    def test_wcc_base_is_id(self):
        assert specs.wcc_spec().base_value(7) == 7.0

    def test_pr_base(self):
        assert specs.pr_spec().base_value(7) == 0.15

    def test_source_kind_has_no_base_all(self):
        with pytest.raises(ValueError):
            specs.sssp_spec({0: 1}).base_value(3)
