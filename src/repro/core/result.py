"""The unified result type of every triangle-enumeration run.

Before the engine refactor the repo had two near-duplicate result classes:
``repro.core.api.EnumerationResult`` (label-level, carried the triangle list
and the :class:`~repro.graph.graph.DegreeOrder`) and
``repro.experiments.runner.RunResult`` (rank-level, carried flat counters and
the per-phase I/O attribution).  :class:`RunResult` below is the union of the
two: every entry path -- :class:`repro.core.engine.TriangleEngine`, the
``enumerate_triangles`` wrapper, ``run_on_edges`` sweeps, the join layer --
returns this one type.  ``EnumerationResult`` is kept as a back-compatible
alias.

Field conventions:

* ``triangles`` is the collected list of label triangles, or ``None`` when
  the run did not collect (count-only sweeps); ``triangle_count`` is always
  populated.
* ``reads``/``writes``/``operations`` are views over the immutable
  :class:`~repro.extmem.stats.IOSnapshot` in ``io``.
* ``phases`` is the per-phase I/O attribution of machine-backed runs (the
  explicit cache-aware machine records phases; the oblivious VM and the
  in-memory oracle do not, so it is ``None`` there).
* ``order`` is the canonical degree order used for the run, or ``None``
  when the engine was built directly from already-canonical ranked edges.
  It is a read-only property resolved through the ``order_source`` field
  (the constructor keyword; not part of equality), so a count-only run of
  an engine built from an edge array never builds the tuple list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.model import MachineParams
from repro.extmem.stats import IOSnapshot
from repro.graph.graph import DegreeOrder


@dataclass
class RunResult:
    """Everything a caller (or an experiment) needs to know about one run."""

    algorithm: str
    params: MachineParams
    num_edges: int
    triangle_count: int
    io: IOSnapshot
    disk_peak_words: int
    wall_time_seconds: float
    num_vertices: int = 0
    triangles: list[tuple[Any, Any, Any]] | None = None
    report: Any = None
    phases: dict[str, int] | None = None
    #: Returns the run's degree order (see :attr:`order`); ``None`` means
    #: the run has none.
    order_source: Callable[[], DegreeOrder | None] | None = field(
        default=None, repr=False, compare=False
    )
    #: Sharded-execution metadata (``repro.core.sharding.ShardingStats``) for
    #: runs with ``shards=c``; ``None`` for serial runs.
    sharding: Any = None

    @property
    def order(self) -> DegreeOrder | None:
        """The canonical degree order used for the run (built on first read)."""
        return self.order_source() if self.order_source is not None else None

    @property
    def reads(self) -> int:
        """Simulated block reads of the run."""
        return self.io.reads

    @property
    def writes(self) -> int:
        """Simulated block writes of the run."""
        return self.io.writes

    @property
    def operations(self) -> int:
        """Elementary RAM operations charged by the run (work, not I/O)."""
        return self.io.operations

    @property
    def total_ios(self) -> int:
        """Total simulated block transfers of the run."""
        return self.io.total


#: Back-compatible alias: the old label-level result class of ``core.api``.
EnumerationResult = RunResult
