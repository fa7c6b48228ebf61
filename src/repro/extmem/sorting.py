"""External multiway merge sort for the cache-aware machine.

The implementation follows the textbook external merge sort the paper's
``sort(n)`` primitive refers to (Aggarwal & Vitter):

1. *Run formation*: read the input in chunks of ``M`` records, sort each
   chunk in internal memory and write it back as a sorted run --
   ``2 * ceil(n/B)`` I/Os.
2. *Merging*: repeatedly merge up to ``max(2, M/B - 1)`` runs at a time until
   a single run remains -- ``2 * ceil(n/B)`` I/Os per pass and
   ``ceil(log_{M/B}(n/M))`` passes.

The resulting I/O count matches ``sort(n) = O((n/B) log_{M/B}(n/B))`` up to
constants, and the output is really sorted, so correctness of algorithms
built on top of it is meaningful.

Data path (see DESIGN.md, "Block-granular data path"): when a ``key`` is
given, run formation *decorates* each record as ``(key(record), input
position, record)`` so the key is computed exactly once per record for the
whole sort; the merge passes then compare plain tuples in C instead of
calling the key per comparison, and the final pass strips the decoration.
The input-position component makes ties resolve to the original input
order, which is exactly the stable order the undecorated sort produced.
Decorated records are a simulation artifact: each still occupies one word
of simulated disk.

The charges of a merge depend only on the run lengths and ``B``: every run
of a group is read once (``ceil(len(run)/B)`` reads), every record costs
one operation, and the output costs ``ceil(n/B)`` writes.  The host
therefore evaluates a group as one stable ``list.sort`` over the
concatenated runs, charged in one step, instead of a record-at-a-time heap
merge; the output, the counters and the disk peak are those of the k-way
merge the model describes.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.extmem.disk import ExtFile, Readable, Record


def merge_fan_in(memory_words: int, block_words: int) -> int:
    """Maximum number of runs merged per pass: one input block per run.

    One block of internal memory is reserved for the output buffer, hence
    ``M/B - 1``; the fan-in is never smaller than 2 so the sort always makes
    progress.
    """
    return max(2, memory_words // block_words - 1)


def external_merge_sort(
    machine: "Machine",
    readable: Readable,
    key: Callable[[Record], Any] | None = None,
    name: str | None = None,
    key_many: Callable[[Sequence[Record]], list[Any]] | None = None,
) -> ExtFile:
    """Sort ``readable`` into a new file using external multiway merge sort.

    ``key_many``, when given, computes the keys of a whole memory-resident
    chunk at once (e.g. one bulk colouring lookup per chunk) and takes
    precedence over ``key`` for key computation; the sorted order is the
    same as sorting with ``key`` record-by-record.  Either is called
    exactly once per input record.
    """
    from repro.extmem.machine import Machine  # local import to avoid a cycle

    assert isinstance(machine, Machine)
    total = len(readable)

    # Small inputs: a single in-memory sort (still charged as one read pass
    # and one write pass, as the model prescribes).
    if total <= machine.memory_size:
        with machine.lease(total, "in-memory sort"):
            records = machine.load(readable, 0, total)
            machine.stats.charge_operations(max(1, total))
            records = _sort_chunk(records, key, key_many, base_position=0)
            if key is not None or key_many is not None:
                records = [item[2] for item in records]
            return machine.write_file(records, name=name)

    runs = _form_runs(machine, readable, key, key_many)
    decorated = key is not None or key_many is not None
    fan_in = merge_fan_in(machine.memory_size, machine.block_size)
    while len(runs) > 1:
        # The last pass merges everything that is left; it is the one that
        # strips the decoration so the output file holds plain records.
        undecorate = decorated and len(runs) <= fan_in
        runs = _merge_pass(machine, runs, fan_in, undecorate=undecorate)
    result = runs[0]
    if name is not None:
        machine.disk.rename(result, name)
    return result


def _sort_chunk(
    records: list[Record],
    key: Callable[[Record], Any] | None,
    key_many: Callable[[Sequence[Record]], list[Any]] | None,
    base_position: int,
) -> list[Record]:
    """Sort one memory-resident chunk, decorating it when a key is in play.

    Decorated entries are ``(key, base_position + index, record)``; the
    position component preserves the stability of the old ``sort(key=...)``
    path and guarantees ties never fall back to comparing raw records.
    """
    if key_many is not None:
        keys = key_many(records)
    elif key is not None:
        keys = list(map(key, records))
    else:
        records.sort()
        return records
    positions = range(base_position, base_position + len(records))
    decorated = list(zip(keys, positions, records))
    decorated.sort()
    return decorated


def _form_runs(
    machine: "Machine",
    readable: Readable,
    key: Callable[[Record], Any] | None,
    key_many: Callable[[Sequence[Record]], list[Any]] | None,
) -> list[ExtFile]:
    """Split the input into sorted runs of at most ``M`` records each."""
    runs: list[ExtFile] = []
    total = len(readable)
    chunk = machine.memory_size
    position = 0
    while position < total:
        count = min(chunk, total - position)
        with machine.lease(count, "run formation"):
            records = machine.load(readable, position, count)
            machine.stats.charge_operations(max(1, count))
            records = _sort_chunk(records, key, key_many, base_position=position)
            runs.append(machine.write_file(records))
        position += count
    return runs


def _merge_pass(
    machine: "Machine",
    runs: list[ExtFile],
    fan_in: int,
    undecorate: bool,
) -> list[ExtFile]:
    """Merge groups of at most ``fan_in`` runs, deleting the inputs.

    Runs hold either plain records or decorated ``(key, position, record)``
    tuples; either way the merge compares them natively (no Python key
    function in the loop).  A group's inputs are deleted only after its
    output is written, so the disk peak is that of a streaming merge.
    """
    merged: list[ExtFile] = []
    for group_start in range(0, len(runs), fan_in):
        group = runs[group_start : group_start + fan_in]
        if len(group) == 1:
            merged.append(group[0])
            continue
        with machine.writer() as out:
            _merge_group(machine, group, out, undecorate)
        for run in group:
            run.delete()
        merged.append(out.file)
    return merged


def _merge_group(
    machine: "Machine",
    group: Sequence[ExtFile],
    out: "BufferedWriter",
    undecorate: bool,
) -> None:
    """Merge sorted runs into ``out`` with one stable sort of their concatenation.

    Each run is read whole by :meth:`Machine.scan_all`, which charges what
    the k-way merge's streams charge: ``ceil(len(run)/B)`` reads per run and
    one operation per record; ``out`` charges one write per ``B`` records.
    ``list.sort`` (Timsort) finds the runs in the concatenation and merges
    them, and its stability keeps equal records in run order, as
    ``heapq.merge`` does.
    """
    records: list[Record] = []
    for run in group:
        records += machine.scan_all(run)
    records.sort()
    out.extend([entry[2] for entry in records] if undecorate else records)
