"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import glob
import os

import pytest

from repro.analysis.model import MachineParams
from repro.core.baselines.in_memory import triangles_in_memory
from repro.extmem.machine import Machine
from repro.extmem.oblivious import ObliviousVM
from repro.extmem.stats import IOStats
from repro.graph.graph import Graph
from repro.poolexec.segments import SEGMENT_PREFIX


def owned_segments() -> set[str]:
    """``/dev/shm`` segments published by this process (empty off Linux)."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-{os.getpid()}-*"))


@pytest.fixture(scope="module", autouse=True)
def no_leaked_segments(request):
    """Fail a module that leaves shared-memory segments of this process live.

    Segment publishing is deduplicated by content, so a segment leaked by
    one module (an engine never closed) is silently reused by a later module
    publishing the same graph, and that module's lifecycle assertions then
    fail far from the leak.
    """
    before = owned_segments()
    yield
    leaked = sorted(owned_segments() - before)
    if leaked:
        pytest.fail(
            f"{request.module.__name__} left {len(leaked)} shared-memory segment(s) "
            f"behind (close every engine, service and handle it opens): {leaked}"
        )


@pytest.fixture
def small_params() -> MachineParams:
    """A deliberately tiny machine so that even small inputs exceed memory."""
    return MachineParams(memory_words=64, block_words=8)


@pytest.fixture
def default_params() -> MachineParams:
    """The default machine used by most integration-style tests."""
    return MachineParams(memory_words=256, block_words=16)


@pytest.fixture
def machine_factory():
    """Factory building a fresh machine (and stats) for a given parameter set."""

    def build(params: MachineParams | None = None) -> Machine:
        return Machine(params if params is not None else MachineParams(64, 8), IOStats())

    return build


@pytest.fixture
def vm_factory():
    """Factory building a fresh cache-oblivious VM for a given parameter set."""

    def build(params: MachineParams | None = None) -> ObliviousVM:
        return ObliviousVM(params if params is not None else MachineParams(64, 8), IOStats())

    return build


def canonical_edges(graph: Graph) -> list[tuple[int, int]]:
    """Canonical ranked edge list of a graph (shared helper, not a fixture)."""
    return graph.degree_order().edges


def oracle_triangles(edges) -> set[tuple[int, int, int]]:
    """Ground-truth triangle set of a canonical edge list."""
    return set(triangles_in_memory(edges))
