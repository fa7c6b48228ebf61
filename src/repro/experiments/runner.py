"""Running one algorithm on one workload on one machine configuration.

Since the engine refactor this module is a thin façade over
:class:`repro.core.engine.TriangleEngine`: the experiment sweeps hand it an
already-canonical edge list, it builds an identity-label engine (no
canonicalisation, no translation) and runs the count-only fast path.  The
:class:`RunResult` re-exported here is the package-wide unified result type
from :mod:`repro.core.result`.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.model import MachineParams
from repro.core.engine import TriangleEngine
from repro.core.result import RunResult

__all__ = ["RunResult", "run_on_edges"]


def run_on_edges(
    edges: list[tuple[int, int]],
    algorithm: str,
    params: MachineParams,
    seed: int = 0,
    shards: int | None = None,
    jobs: int = 1,
    **options: Any,
) -> RunResult:
    """Run ``algorithm`` on an already-canonical edge list and measure it.

    Unlike :func:`repro.core.api.enumerate_triangles` this skips graph
    canonicalisation and triangle collection, which keeps parameter sweeps
    fast; it is the entry point used by the experiments and benchmarks.  For
    several runs over the *same* edge list, build one
    :meth:`TriangleEngine.from_canonical_edges` and call
    :meth:`~repro.core.engine.TriangleEngine.run` repeatedly instead.

    ``shards``/``jobs`` select the engine's colour-sharded execution path
    (shardable algorithms only; see :mod:`repro.core.sharding`).
    """
    engine = TriangleEngine.from_canonical_edges(edges, params=params, validate=False)
    return engine.run(
        algorithm, seed=seed, collect=False, shards=shards, jobs=jobs, options=options
    )
