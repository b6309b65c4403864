"""Smoke tests for the provided scaffolding (the DuckDB oracle)."""
import pytest

from repro import oracle
from tests.helpers import tiny_graph

OUTDEG_SQL = "SELECT src, COUNT(*) AS n FROM edges GROUP BY src"


@pytest.fixture
def outdeg(spark):
    edges = spark.createDataFrame(tiny_graph())
    return edges, edges.groupBy("src").count().withColumnRenamed("count", "n")


class TestOracle:
    def test_agreement_passes(self, outdeg):
        edges, got = outdeg
        oracle.assert_equivalent(got, OUTDEG_SQL, edges=edges)

    def test_disagreement_fails(self, outdeg):
        edges, got = outdeg
        with pytest.raises(AssertionError):
            oracle.assert_equivalent(
                got, OUTDEG_SQL.replace("COUNT(*)", "COUNT(*) + 1"), edges=edges
            )
