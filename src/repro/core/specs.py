"""Query specifications binding the IFE template to concrete queries (§3.2).

Every query the paper evaluates is the same IFE dataflow — Join then an
aggregation — with a different message function, aggregator, base (initial
vertex state) and stop condition:

==========  =========  ==========================  =================  ========
kind        agg        message f(state_w, edge)    base(v)            stop
==========  =========  ==========================  =================  ========
sssp/spsp   min        state_w + weight            0 at source        fixpoint
khop        min        state_w + 1                 0 at source        K iters
rpq         min        state_w + 1 (product graph) 0 at (src, q0)     fixpoint
wcc         min        state_w                     float(v)           fixpoint
pr          sum        0.85 * state_w / outdeg_w   0.15 every v       10 iters
==========  =========  ==========================  =================  ========

States are float64; "unreachable" is represented as +inf and never stored
in the difference index (the paper stores explicit ``+(v, inf)`` rows at
iteration 0; omitting them is the standard sparse representation and the
Table-3 trace test accounts for it).
"""
from __future__ import annotations

from dataclasses import dataclass, field

INF = float("inf")

# Rounding applied to states before change detection. Recursive-query
# states are small integers/sums of weights, so 9 decimals is exact for
# them; for PageRank it stops float noise from nondeterministic Spark sum
# order cascading into spurious differences.
STATE_DECIMALS = 9

KINDS = ("sssp", "khop", "rpq", "wcc", "pr")


@dataclass(frozen=True)
class QuerySpec:
    """One registered workload of concurrent queries over a shared edge set.

    ``sources`` maps query id -> source vertex for source-rooted queries
    (sssp/khop/rpq); it is ``None`` for whole-graph computations (wcc, pr),
    which run as a single query with qid 0 and a base state at every vertex.
    ``targets`` optionally maps qid -> destination vertex (SPSP answers).
    """

    kind: str
    sources: dict[int, int] | None = None
    targets: dict[int, int] = field(default_factory=dict)
    max_iters: int | None = None  # K for khop, 10 for pr, None = fixpoint

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown query kind {self.kind!r}")
        if self.kind in ("sssp", "khop", "rpq") and not self.sources:
            raise ValueError(f"{self.kind} requires sources")
        if self.kind == "khop" and self.max_iters is None:
            raise ValueError("khop requires max_iters=K")
        if self.kind == "pr" and self.max_iters is None:
            object.__setattr__(self, "max_iters", 10)
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")

    @property
    def agg(self) -> str:
        return "sum" if self.kind == "pr" else "min"

    @property
    def base_all(self) -> bool:
        """True when every vertex has a base state (wcc, pr)."""
        return self.kind in ("wcc", "pr")

    @property
    def needs_outdeg(self) -> bool:
        """PR messages divide by the sender's current out-degree."""
        return self.kind == "pr"

    def qids(self) -> list[int]:
        return sorted(self.sources) if self.sources else [0]

    def base_value(self, v: int) -> float:
        """Base (iteration-0) state for vertex v — for base_all kinds."""
        if self.kind == "wcc":
            return float(v)
        if self.kind == "pr":
            return 0.15
        raise ValueError(f"{self.kind} has source bases only")


def sssp_spec(sources: dict[int, int], targets: dict[int, int] | None = None) -> QuerySpec:
    return QuerySpec(kind="sssp", sources=sources, targets=targets or {})


def khop_spec(sources: dict[int, int], k: int = 5) -> QuerySpec:
    return QuerySpec(kind="khop", sources=sources, max_iters=k)


def rpq_spec(sources: dict[int, int]) -> QuerySpec:
    """Sources must already be product-encoded (see repro.rpq.product)."""
    return QuerySpec(kind="rpq", sources=sources)


def wcc_spec() -> QuerySpec:
    return QuerySpec(kind="wcc")


def pr_spec(iters: int = 10) -> QuerySpec:
    return QuerySpec(kind="pr", max_iters=iters)
