"""Built-in algorithm registrations.

Each of the paper's algorithms (and each baseline) is registered here as a
thin adapter from the uniform :class:`~repro.core.registry.SubstrateContext`
calling convention to the algorithm's native signature, together with its
typed options dataclass.  This module is imported (once, lazily) by the
registry accessors, so merely asking for an algorithm by name brings the
built-ins into the registry; nothing else in the package hard-codes the
algorithm list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.baselines.bnlj import block_nested_loop_join
from repro.core.baselines.dementiev import dementiev_sort_based
from repro.core.baselines.hu_tao_chung import hu_tao_chung
from repro.core.baselines.in_memory import triangles_in_memory
from repro.core.cache_aware import cache_aware_randomized
from repro.core.cache_oblivious import cache_oblivious_randomized
from repro.core.derandomized import deterministic_cache_aware
from repro.core.registry import (
    AlgorithmOptions,
    SubstrateContext,
    register_algorithm,
)
from repro.exceptions import OptionsError


@dataclass(frozen=True)
class CacheAwareOptions(AlgorithmOptions):
    """Knobs of the randomized cache-aware algorithm (Section 2)."""

    #: Override for the number of colours ``c``; default is the paper's
    #: ``sqrt(E / M)``.
    num_colors: int | None = None

    def validate(self) -> None:
        self._require_optional_positive_int("num_colors")


@dataclass(frozen=True)
class DeterministicOptions(AlgorithmOptions):
    """Knobs of the derandomized cache-aware algorithm (Section 4)."""

    #: Override for the number of colours (rounded up to a power of two).
    num_colors: int | None = None
    #: Cap on the AGHP small-bias family scanned by the greedy colouring.
    max_family_size: int = 256

    def validate(self) -> None:
        self._require_optional_positive_int("num_colors")
        if isinstance(self.max_family_size, bool) or not isinstance(self.max_family_size, int):
            raise OptionsError(f"max_family_size must be an int, got {self.max_family_size!r}")
        if self.max_family_size < 1:
            raise OptionsError(f"max_family_size must be >= 1, got {self.max_family_size}")


@dataclass(frozen=True)
class CacheObliviousOptions(AlgorithmOptions):
    """Knobs of the randomized cache-oblivious algorithm (Section 3)."""

    #: Override of the recursion depth limit; default is the paper's ``log4 E``.
    max_depth: int | None = None
    #: Optional callback ``(depth, size)`` invoked for every subproblem.
    size_recorder: Callable[[int, int], None] | None = None

    def validate(self) -> None:
        self._require_optional_positive_int("max_depth", minimum=0)
        if self.size_recorder is not None and not callable(self.size_recorder):
            raise OptionsError(
                f"size_recorder must be callable or None, got {self.size_recorder!r}"
            )


@register_algorithm(
    "cache_aware",
    summary="Randomized cache-aware (paper Section 2, Theorem 4)",
    section="2",
    io_bound="O(E^{3/2}/(sqrt(M) B))",
    substrate="machine",
    accepts_seed=True,
    options=CacheAwareOptions,
    shardable=True,
)
def _run_cache_aware(context: SubstrateContext, sink: Any, options: CacheAwareOptions) -> Any:
    return cache_aware_randomized(
        context.machine,
        context.edge_file,
        sink,
        seed=context.seed,
        num_colors=options.num_colors,
        triples_executor=context.triples_executor,
        high_degree_executor=context.high_degree_executor,
    )


@register_algorithm(
    "deterministic",
    summary="Deterministic cache-aware (paper Section 4, Theorem 2)",
    section="4",
    io_bound="O(E^{3/2}/(sqrt(M) B))",
    substrate="machine",
    accepts_seed=False,
    options=DeterministicOptions,
    shardable=True,
)
def _run_deterministic(context: SubstrateContext, sink: Any, options: DeterministicOptions) -> Any:
    return deterministic_cache_aware(
        context.machine,
        context.edge_file,
        sink,
        num_colors=options.num_colors,
        max_family_size=options.max_family_size,
        triples_executor=context.triples_executor,
        high_degree_executor=context.high_degree_executor,
    )


@register_algorithm(
    "cache_oblivious",
    summary="Randomized cache-oblivious (paper Section 3, Theorem 1)",
    section="3",
    io_bound="O(E^{3/2}/(sqrt(M) B))",
    substrate="oblivious-vm",
    accepts_seed=True,
    options=CacheObliviousOptions,
)
def _run_cache_oblivious(
    context: SubstrateContext, sink: Any, options: CacheObliviousOptions
) -> Any:
    return cache_oblivious_randomized(
        context.vm,
        context.edge_vector,
        sink,
        seed=context.seed,
        max_depth=options.max_depth,
        size_recorder=options.size_recorder,
    )


@register_algorithm(
    "hu_tao_chung",
    summary="Hu-Tao-Chung SIGMOD 2013 baseline, O(E^2/(MB))",
    section="baseline (Hu, Tao & Chung, SIGMOD 2013)",
    io_bound="O(E^2/(M B))",
    substrate="machine",
    accepts_seed=False,
)
def _run_hu_tao_chung(context: SubstrateContext, sink: Any, options: AlgorithmOptions) -> Any:
    return hu_tao_chung(context.machine, context.edge_file, sink)


@register_algorithm(
    "dementiev",
    summary="Sort-based wedge-join baseline, O(sort(E^{3/2}))",
    section="baseline (Dementiev, 2006)",
    io_bound="O(sort(E^{3/2}))",
    substrate="machine",
    accepts_seed=False,
)
def _run_dementiev(context: SubstrateContext, sink: Any, options: AlgorithmOptions) -> Any:
    return dementiev_sort_based(context.machine, context.edge_file, sink)


@register_algorithm(
    "bnlj",
    summary="Block-nested-loop-join baseline, O(E^3/(M^2 B))",
    section="baseline (block-nested-loop join)",
    io_bound="O(E^3/(M^2 B))",
    substrate="machine",
    accepts_seed=False,
)
def _run_bnlj(context: SubstrateContext, sink: Any, options: AlgorithmOptions) -> Any:
    return block_nested_loop_join(context.machine, context.edge_file, sink)


@register_algorithm(
    "in_memory",
    summary="Compact-forward in-memory oracle (no simulated I/O)",
    section="1.3 (compact-forward oracle)",
    io_bound="none (internal memory)",
    substrate="in-memory",
    accepts_seed=False,
)
def _run_in_memory(context: SubstrateContext, sink: Any, options: AlgorithmOptions) -> Any:
    triangles_in_memory(context.edge_records(), sink)
    return None


# The vectorized in-memory backend registers ``vector_count`` /
# ``vector_enum`` on import, and the out-of-core backend registers
# ``oocore_count`` / ``oocore_enum``, both riding the same lazy
# _ensure_builtins path as the registrations above (repro.fastpath never
# imports back into this module, so the imports are cycle-free).
import repro.fastpath.algorithms  # noqa: E402,F401
import repro.fastpath.oocore  # noqa: E402,F401
