"""Independent correctness check of an engine's maintained states.

Nothing here goes through the engines' own graph code: the live edge
multiset is rebuilt from the initial edges and the batches applied so far
with a plain counter, and the expected answers come from networkx
(Dijkstra over the minimum weight of parallel edges for SSSP, BFS with a
cutoff of K hops for K-hop). For SSSP two properties are checked on the
engine's own states as well: no live edge can still relax a distance, and
every reached vertex other than a source has a tight in-edge.
"""
from __future__ import annotations

import hashlib
from collections import Counter

import networkx as nx
import numpy as np
import pandas as pd

_DECIMALS = 9


def live_edges(initial: pd.DataFrame, batches) -> Counter:
    """Multiset of live (src, dst, weight) edges after ``batches``."""
    live = Counter(
        zip(initial["src"].tolist(), initial["dst"].tolist(), initial["weight"].tolist())
    )
    for b in batches:
        ch = b.changes
        for s, d, w, m in zip(ch["src"], ch["dst"], ch["weight"], ch["mult"]):
            key = (int(s), int(d), int(w))
            if m > 0:
                live[key] += int(m)
            else:
                if live[key] < -m:
                    raise ValueError(f"delete of absent edge {key}")
                live[key] += int(m)
                if not live[key]:
                    del live[key]
    return live


def _digraph(live: Counter, sources) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(sources)
    for (s, d, w), _ in live.items():
        if not g.has_edge(s, d) or g[s][d]["weight"] > w:
            g.add_edge(s, d, weight=w)
    return g


def expected_states(spec, live: Counter) -> dict[tuple[int, int], float]:
    """(qid, v) -> state for every reached vertex, from networkx."""
    g = _digraph(live, spec.sources.values())
    out: dict[tuple[int, int], float] = {}
    for qid, src in spec.sources.items():
        if spec.kind == "sssp":
            dist = nx.single_source_dijkstra_path_length(g, src, weight="weight")
        elif spec.kind == "khop":
            dist = nx.single_source_shortest_path_length(g, src, cutoff=spec.max_iters)
        else:
            raise ValueError(f"no reference for query kind {spec.kind!r}")
        out.update({(qid, int(v)): float(d) for v, d in dist.items()})
    return out


def sssp_property_errors(spec, live: Counter, got: dict) -> list[str]:
    """Relaxation and tightness of SSSP distances over the live edges."""
    e = pd.DataFrame(list(live), columns=["u", "v", "w"]).astype({"w": np.float64})
    d = pd.DataFrame(
        [(q, v, val) for (q, v), val in got.items()], columns=["qid", "v", "d"]
    )
    errs = []
    ev = e.merge(d.rename(columns={"v": "u", "d": "du"}), on="u")
    ev = ev.merge(d.rename(columns={"d": "dv"}), on=["qid", "v"], how="left")
    ev["via"] = np.round(ev["du"] + ev["w"], _DECIMALS)
    loose = ev[ev["dv"].isna() | (ev["dv"] > ev["via"])]
    if len(loose):
        errs.append(f"{len(loose)} edges still relax a distance, e.g. {loose.iloc[0].to_dict()}")
    best = ev.groupby(["qid", "v"], as_index=False)["via"].min()
    d = d.merge(best, on=["qid", "v"], how="left")
    srcs = pd.DataFrame(list(spec.sources.items()), columns=["qid", "v"]).assign(src=True)
    d = d.merge(srcs, on=["qid", "v"], how="left")
    is_src = d["src"].eq(True).to_numpy()
    bad_src = d[is_src & (d["d"] != 0.0)]
    if len(bad_src):
        errs.append(f"{len(bad_src)} sources with a non-zero distance, e.g. {bad_src.iloc[0].to_dict()}")
    untight = d[~is_src & (d["via"] != d["d"])]
    if len(untight):
        errs.append(f"{len(untight)} reached vertices without a tight in-edge, e.g. {untight.iloc[0].to_dict()}")
    return errs


def check_engine(engine, spec, live: Counter) -> tuple[list[str], str]:
    """Compare ``engine.final_states()`` against networkx.

    Returns the errors found and a digest of the engine's states.

    On a Det/Prob engine ``final_states`` resolves dropped differences and
    so adds to the engine's recomputation counters: read them before this.
    """
    fs = engine.final_states()
    fs = fs[np.isfinite(fs["val"].to_numpy())]
    got = {
        (int(q), int(v)): float(val)
        for q, v, val in zip(fs["qid"], fs["v"], np.round(fs["val"], _DECIMALS))
    }
    want = expected_states(spec, live)
    errs = []
    missing = want.keys() - got.keys()
    extra = got.keys() - want.keys()
    wrong = [k for k in want.keys() & got.keys() if got[k] != want[k]]
    for label, keys in (("missing", missing), ("unexpected", extra), ("wrong", wrong)):
        if keys:
            k = sorted(keys)[0]
            errs.append(
                f"{len(keys)} {label} states, e.g. {k}: got {got.get(k)} want {want.get(k)}"
            )
    if spec.kind == "sssp":
        errs += sssp_property_errors(spec, live, got)
    digest = hashlib.sha256(repr(sorted(got.items())).encode()).hexdigest()[:16]
    return errs, digest
