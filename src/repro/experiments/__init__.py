"""Experiment harness reproducing the paper's quantitative claims.

The paper has no empirical tables or figures (it is a theory paper), so each
experiment here operationalises one theorem or lemma; DESIGN.md Section 5
maps experiment ids to claims, ``run_all`` records the outcomes in
``results/results.json``, and ``tests/test_experiments.py`` asserts the
shape of each claim on the quick tables.

Every experiment module exposes three hooks:

``specs(quick: bool = True) -> list[RunSpec]``
    The experiment expanded into a flat list of independent run cells.
``tabulate(results, quick: bool = True) -> Table | list[Table]``
    Re-render the experiment's table(s) from executed (or stored) cells.
``run(quick: bool = True) -> Table | list[Table]``
    Legacy serial entry point (``tabulate(execute_specs(specs(quick)))``).

``python -m repro.experiments.run_all`` orchestrates them all: cells of the
selected experiments are deduplicated, executed across a worker pool
(``--jobs N``) and persisted as JSON artifacts in a content-addressed store
(``results/<spec_hash>.json``) that later runs resume from.
"""

from repro.experiments.parallel import ParallelRunner, ResultSet, execute_specs
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments
from repro.experiments.runner import RunResult, run_on_edges
from repro.experiments.specs import RunSpec, make_spec, workload_ref
from repro.experiments.store import ResultStore
from repro.experiments.tables import Table

__all__ = [
    "EXPERIMENTS",
    "ParallelRunner",
    "ResultSet",
    "ResultStore",
    "RunResult",
    "RunSpec",
    "Table",
    "execute_specs",
    "get_experiment",
    "list_experiments",
    "make_spec",
    "run_on_edges",
    "workload_ref",
]
