"""Tests for the fault-tolerant execution tier (:mod:`repro.resilience`).

Covers the deterministic fault-injection harness (plan parsing, seeded
sampling, the env-var spawn boundary), the backoff policy, the supervised
pool itself against every injected failure mode (crash, hang, raised
exception) on both the serial and the pool paths, pool teardown when the
iterator is abandoned or on ``KeyboardInterrupt``, the store's
corrupt-artifact quarantine and failure records, and the end-to-end
determinism property: orchestrated and sharded runs under an injected
fault plan are bit-identical to fault-free runs.

Every test that could conceivably hang runs under a SIGALRM watchdog.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from repro.analysis.model import MachineParams
from repro.core.engine import TriangleEngine
from repro.core.sharding import ShardExecutionError
from repro.exceptions import OptionsError, StreamWorkerError
from repro.experiments.parallel import ParallelRunner
from repro.experiments.specs import make_spec, workload_ref
from repro.experiments.store import ResultStore
from repro.graph.generators import erdos_renyi_gnm
from repro.resilience import (
    FAULT_PLAN_ENV,
    BackoffPolicy,
    FaultInjected,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    active_plan,
    supervised_map_unordered,
)

#: Zero-delay backoff so retry-heavy tests do not sleep.
FAST = BackoffPolicy(base_seconds=0.0, jitter=0.0)


@contextmanager
def watchdog(seconds: float):
    """Fail the test (instead of hanging the suite) after ``seconds``."""

    def alarm(signum, frame):
        raise TimeoutError(f"watchdog: test exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_children_gone(before: set[int], deadline: float = 15.0) -> None:
    """Poll until every child process spawned since ``before`` is reaped."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        leftover = {child.pid for child in multiprocessing.active_children()} - before
        if not leftover:
            return
        time.sleep(0.05)
    raise AssertionError(f"orphan worker processes survived teardown: {leftover}")


def child_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


# -- worker functions (module level: importable across the spawn boundary) --
def double(x):
    return x * 2


def boom(x):
    raise ValueError(f"boom {x}")


def exit_if_three(x):
    if x == 3:
        os._exit(1)
    return x


def hang_if_two(x):
    if x == 2:
        time.sleep(60)
    return x


def slow_double(x):
    time.sleep(5)
    return x * 2


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            rules=(
                FaultRule(kind="crash", match="spec:*", rate=0.25, seed=7),
                FaultRule(kind="hang", attempts=None, hang_seconds=12.5),
                FaultRule(kind="corrupt", match="spec:ab*"),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_env_activation_restores_previous_value(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        plan = FaultPlan(rules=(FaultRule(kind="exception"),))
        assert active_plan() is None
        with plan.activate():
            assert os.environ[FAULT_PLAN_ENV] == plan.to_json()
            assert active_plan() == plan
        assert FAULT_PLAN_ENV not in os.environ
        assert active_plan() is None

    def test_plan_loadable_from_file(self, tmp_path, monkeypatch):
        plan = FaultPlan(rules=(FaultRule(kind="crash", match="shard:*"),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        assert active_plan() == plan

    def test_rate_samples_a_deterministic_fraction(self):
        rule = FaultRule(kind="crash", rate=0.2, seed=3)
        keys = [f"spec:{i:06x}" for i in range(2000)]
        selected = {key for key in keys if rule.applies(key, 0)}
        # A sha256 coin flip at rate 0.2 over 2000 keys: well within 0.2 +/- 0.05.
        assert 300 <= len(selected) <= 500
        assert selected == {key for key in keys if rule.applies(key, 0)}
        # A different seed samples a (very probably) different subset.
        other = FaultRule(kind="crash", rate=0.2, seed=4)
        assert selected != {key for key in keys if other.applies(key, 0)}

    def test_attempt_gating(self):
        first_only = FaultRule(kind="exception", attempts=(0,))
        assert first_only.applies("spec:x", 0)
        assert not first_only.applies("spec:x", 1)
        permanent = FaultRule(kind="exception", attempts=None)
        assert permanent.applies("spec:x", 0) and permanent.applies("spec:x", 5)

    def test_fire_raises_for_exception_kind(self):
        plan = FaultPlan(rules=(FaultRule(kind="exception", match="spec:bad"),))
        with pytest.raises(FaultInjected):
            plan.fire("spec:bad", 0)
        plan.fire("spec:good", 0)  # no matching rule: no-op

    def test_crash_and_hang_degrade_to_exceptions_in_process(self):
        for kind in ("crash", "hang"):
            plan = FaultPlan(rules=(FaultRule(kind=kind),))
            with pytest.raises(FaultInjected, match="in-process"):
                plan.fire("spec:x", 0, in_process=True)

    def test_should_corrupt_only_matches_corrupt_rules(self):
        plan = FaultPlan(
            rules=(
                FaultRule(kind="crash", match="spec:a"),
                FaultRule(kind="corrupt", match="spec:b"),
            )
        )
        assert plan.should_corrupt("spec:b")
        assert not plan.should_corrupt("spec:a")

    @pytest.mark.parametrize(
        "payload",
        [
            "not json at all",
            '{"rules": [{"kind": "meteor-strike"}]}',
            '{"rules": [{"kind": "crash", "rate": 1.5}]}',
            '{"rules": [{"kind": "crash", "hang_seconds": -1}]}',
            '{"rules": [{"match": "*"}]}',
            '{"rules": [{"kind": "crash", "typo_field": 1}]}',
            '{"rules": ["not a dict"]}',
            '{"no_rules": true}',
        ],
    )
    def test_invalid_plans_rejected(self, payload):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json(payload)


class TestBackoffPolicy:
    def test_deterministic_and_capped(self):
        policy = BackoffPolicy(base_seconds=0.1, factor=2.0, cap_seconds=0.5, jitter=0.1)
        delays = [policy.delay("spec:abc", attempt) for attempt in (1, 2, 3, 10)]
        assert delays == [policy.delay("spec:abc", attempt) for attempt in (1, 2, 3, 10)]
        assert all(delay <= 0.5 * 1.1 for delay in delays)
        assert delays[0] < delays[1]
        exact = BackoffPolicy(base_seconds=0.1, factor=2.0, cap_seconds=10.0, jitter=0.0)
        assert [exact.delay("k", a) for a in (1, 2, 3)] == pytest.approx([0.1, 0.2, 0.4])

    def test_jitter_varies_by_key(self):
        policy = BackoffPolicy(base_seconds=1.0, jitter=0.1)
        assert policy.delay("spec:a", 1) != policy.delay("spec:b", 1)


# ----------------------------------------------------------------------
# the supervisor: serial path
# ----------------------------------------------------------------------
class TestSupervisedSerial:
    def test_plain_run_yields_input_order(self):
        results = list(supervised_map_unordered(double, [3, 1, 2], 1))
        assert [r.value for r in results] == [6, 2, 4]
        assert all(r.ok and r.outcome.attempts == 1 for r in results)
        assert all(r.outcome.executed_serially for r in results)

    def test_injected_crash_degrades_to_in_process_retry(self):
        plan = FaultPlan(rules=(FaultRule(kind="crash", match="0"),))
        with plan.activate():
            results = list(supervised_map_unordered(double, [5, 6], 1, backoff=FAST))
        assert [r.value for r in results] == [10, 12]
        assert results[0].outcome.attempts == 2
        assert results[0].outcome.failures == ["exception"]
        assert results[1].outcome.attempts == 1

    def test_permanent_failure_yields_failed_outcome(self):
        results = list(supervised_map_unordered(boom, [1, 2], 1, max_retries=1, backoff=FAST))
        assert all(not r.ok and r.value is None for r in results)
        assert all(r.outcome.attempts == 2 for r in results)
        assert all("ValueError: boom" in r.outcome.error for r in results)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            list(supervised_map_unordered(double, [1], 1, max_retries=-1))
        with pytest.raises(ValueError):
            list(supervised_map_unordered(double, [1], 1, task_timeout=0))


# ----------------------------------------------------------------------
# the supervisor: pool path (each test under a watchdog)
# ----------------------------------------------------------------------
class TestSupervisedPool:
    def test_crashed_worker_is_detected_and_task_retried(self):
        plan = FaultPlan(rules=(FaultRule(kind="crash", match="3"),))
        before = child_pids()
        with watchdog(90), plan.activate():
            results = {
                r.index: r
                for r in supervised_map_unordered(double, list(range(6)), 2, backoff=FAST)
            }
        assert {i: r.value for i, r in results.items()} == {i: i * 2 for i in range(6)}
        assert results[3].outcome.attempts == 2
        assert results[3].outcome.failures == ["worker-lost"]
        assert all(results[i].outcome.failures == [] for i in range(6) if i != 3)
        assert_children_gone(before)

    def test_hung_task_times_out_and_retries(self):
        plan = FaultPlan(rules=(FaultRule(kind="hang", match="1", hang_seconds=60.0),))
        before = child_pids()
        with watchdog(90), plan.activate():
            results = {
                r.index: r
                for r in supervised_map_unordered(
                    double, list(range(4)), 2, task_timeout=2.0, backoff=FAST
                )
            }
        assert {i: r.value for i, r in results.items()} == {i: i * 2 for i in range(4)}
        assert results[1].outcome.failures == ["timeout"]
        assert results[1].outcome.attempts == 2
        assert_children_gone(before)

    def test_worker_os_exit_without_fault_plan_terminates_cleanly(self):
        # The satellite scenario: a task that always kills its worker must
        # exhaust retries and be reported, never hang the run or leak workers.
        before = child_pids()
        with watchdog(90):
            results = {
                r.index: r
                for r in supervised_map_unordered(
                    exit_if_three, list(range(5)), 2, max_retries=1, backoff=FAST
                )
            }
        assert not results[3].ok
        assert results[3].outcome.failures == ["worker-lost", "worker-lost"]
        assert all(results[i].value == i for i in range(5) if i != 3)
        assert_children_gone(before)

    def test_task_sleeping_past_timeout_terminates_cleanly(self):
        before = child_pids()
        with watchdog(90):
            results = {
                r.index: r
                for r in supervised_map_unordered(
                    hang_if_two, list(range(4)), 2, task_timeout=1.5, max_retries=1, backoff=FAST
                )
            }
        assert not results[2].ok
        assert results[2].outcome.failures == ["timeout", "timeout"]
        assert all(results[i].value == i for i in range(4) if i != 2)
        assert_children_gone(before)

    def test_permanent_exception_fails_only_the_poisoned_item(self):
        plan = FaultPlan(rules=(FaultRule(kind="exception", match="2", attempts=None),))
        with watchdog(90), plan.activate():
            results = {
                r.index: r
                for r in supervised_map_unordered(
                    double, list(range(4)), 2, max_retries=1, backoff=FAST
                )
            }
        assert not results[2].ok
        assert results[2].outcome.failures == ["exception", "exception"]
        assert "FaultInjected" in results[2].outcome.error
        assert all(results[i].value == i * 2 for i in range(4) if i != 2)

    def test_abandoning_the_iterator_reaps_the_pool(self):
        before = child_pids()
        with watchdog(90):
            iterator = supervised_map_unordered(slow_double, list(range(6)), 2)
            iterator.close()
        assert_children_gone(before)


KEYBOARD_INTERRUPT_SCRIPT = """\
import multiprocessing
import os
import sys
import threading
import time

sys.path.insert(0, {src_path!r})
from repro.resilience import supervised_map_unordered


def slow(x):
    time.sleep(60)
    return x


def snapshot_children(path):
    seen = set()
    while True:
        for child in multiprocessing.active_children():
            if child.pid is not None:
                seen.add(child.pid)
        with open(path + ".tmp", "w") as handle:
            handle.write("\\n".join(str(pid) for pid in sorted(seen)))
        os.replace(path + ".tmp", path)
        time.sleep(0.05)


if __name__ == "__main__":
    pid_file = sys.argv[1]
    threading.Thread(target=snapshot_children, args=(pid_file,), daemon=True).start()
    print("READY", flush=True)
    for result in supervised_map_unordered(slow, list(range(4)), 2):
        pass
"""


class TestKeyboardInterrupt:
    def test_sigint_during_supervised_run_terminates_cleanly(self, tmp_path):
        src_path = str((os.path.dirname(os.path.dirname(os.path.abspath(__file__)))) or ".")
        script = tmp_path / "interrupt_me.py"
        script.write_text(
            KEYBOARD_INTERRUPT_SCRIPT.format(src_path=os.path.join(src_path, "src"))
        )
        pid_file = tmp_path / "worker_pids.txt"
        with watchdog(120):
            process = subprocess.Popen(
                [sys.executable, str(script), str(pid_file)],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            )
            try:
                assert process.stdout.readline().strip() == "READY"
                # Wait until at least one pool worker is up before interrupting.
                deadline = time.monotonic() + 60
                workers: list[int] = []
                while time.monotonic() < deadline and not workers:
                    if pid_file.exists() and pid_file.read_text().strip():
                        workers = [int(line) for line in pid_file.read_text().split()]
                    time.sleep(0.1)
                assert workers, "pool workers never started"
                process.send_signal(signal.SIGINT)
                returncode = process.wait(timeout=60)
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait()
            assert returncode != 0  # KeyboardInterrupt, not a clean exit
            # Every worker the run ever started must be gone shortly after.
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                alive = [pid for pid in workers if _pid_alive(pid)]
                if not alive:
                    break
                time.sleep(0.1)
            assert not alive, f"orphaned pool workers after SIGINT: {alive}"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


# ----------------------------------------------------------------------
# store hardening: quarantine and failure records
# ----------------------------------------------------------------------
def tiny_spec(num_edges=60, seed=1):
    return make_spec(
        "edges",
        workload=workload_ref("sparse_random", num_edges=num_edges),
        algorithm="hu_tao_chung",
        memory=64,
        block=8,
        seed=seed,
    )


class TestStoreQuarantine:
    def test_truncated_artifact_is_quarantined_and_logged(self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        path = store.put(spec, {"triangles": 3})
        text = path.read_text()
        path.write_text(text[: len(text) // 2])

        with caplog.at_level("WARNING", logger="repro.experiments.store"):
            assert store.get(spec) is None
        assert "quarantined corrupt artifact" in caplog.text
        assert not path.exists()
        quarantined = path.with_name(f"{path.name}.corrupt")
        assert quarantined.exists()
        assert quarantined.read_text() == text[: len(text) // 2]
        # The store recovers: the cell is a clean miss and can be re-put.
        assert store.get(spec) is None
        store.put(spec, {"triangles": 3})
        assert store.get(spec) == {"triangles": 3}

    def test_schema_mismatch_is_a_miss_without_quarantine(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        path = store.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        # repro-lint: ignore[RPR105] -- writes a foreign artifact on purpose
        path.write_text(json.dumps({"schema": "other/v9"}))
        assert store.get(spec) is None
        assert path.exists()  # valid JSON, wrong schema: kept in place

    def test_quarantined_files_do_not_match_the_artifact_glob(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        path = store.put(spec, {"triangles": 3})
        path.write_text("{ torn")
        assert store.get(spec) is None
        assert store.artifact_paths() == []


class TestFailureRecords:
    def test_round_trip_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        assert store.get_failure(spec) is None
        store.put_failure(spec, "Traceback: boom", attempts=3)
        record = store.get_failure(spec)
        assert record["attempts"] == 3
        assert record["error"] == "Traceback: boom"
        assert record["spec_hash"] == spec.spec_hash
        # Failure records never masquerade as artifacts.
        assert store.artifact_paths() == []
        assert store.get(spec) is None
        store.clear_failure(spec)
        assert store.get_failure(spec) is None
        store.clear_failure(spec)  # idempotent

    def test_failed_cell_persists_record_and_success_clears_it(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec()
        plan = FaultPlan(
            rules=(FaultRule(kind="exception", match=f"spec:{spec.spec_hash}", attempts=None),)
        )
        with plan.activate():
            failed = ParallelRunner(store=store, jobs=1, max_retries=0, backoff=FAST).run([spec])
        assert list(failed.errors) == [spec.spec_hash]
        assert store.get_failure(spec) is not None
        assert store.get(spec) is None

        # Next run (fault gone): reports the retry, succeeds, clears the record.
        messages: list[str] = []
        ok = ParallelRunner(store=store, jobs=1, progress=messages.append).run([spec])
        assert ok.errors == {}
        assert any("1 cells failed last run, retrying" in m for m in messages)
        assert store.get_failure(spec) is None
        assert store.get(spec) == ok[spec]


# ----------------------------------------------------------------------
# end-to-end determinism under injected faults
# ----------------------------------------------------------------------
def strip_wall_time(result: dict) -> dict:
    return {k: v for k, v in result.items() if k != "wall_time_seconds"}


class TestOrchestrationUnderFaults:
    def test_faulted_parallel_run_is_bit_identical_to_fault_free(self, tmp_path):
        specs = [tiny_spec(seed=seed) for seed in (1, 2, 3, 4, 5)]
        baseline = ParallelRunner(store=None, jobs=1).run(specs)

        # Deterministically fault 3 of the 5 cells: one crash, one hang
        # (reaped by the task timeout), one first-attempt exception.
        keys = [f"spec:{spec.spec_hash}" for spec in specs]
        plan = FaultPlan(
            rules=(
                FaultRule(kind="crash", match=keys[0]),
                FaultRule(kind="hang", match=keys[1], hang_seconds=60.0),
                FaultRule(kind="exception", match=keys[2]),
            )
        )
        store = ResultStore(tmp_path)
        with watchdog(300), plan.activate():
            faulted = ParallelRunner(
                store=store, jobs=2, task_timeout=30.0, backoff=FAST
            ).run(specs)

        assert faulted.errors == {}
        assert faulted.retried == 3
        for spec in specs:
            assert strip_wall_time(faulted[spec]) == strip_wall_time(baseline[spec])
        outcomes = faulted.outcomes
        assert outcomes[specs[0].spec_hash].failures == ["worker-lost"]
        assert outcomes[specs[1].spec_hash].failures == ["timeout"]
        assert outcomes[specs[2].spec_hash].failures == ["exception"]

    def test_corrupt_fault_round_trips_through_quarantine(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path)
        plan = FaultPlan(
            rules=(FaultRule(kind="corrupt", match=f"spec:{spec.spec_hash}"),)
        )
        with plan.activate():
            first = ParallelRunner(store=store, jobs=1).run([spec])
        assert first.executed == 1
        # The persisted artifact was truncated post-put; the resume path
        # quarantines it and re-executes, bit-identically.
        second = ParallelRunner(store=store, jobs=1).run([spec])
        assert second.cached == 0 and second.executed == 1
        assert strip_wall_time(second[spec]) == strip_wall_time(first[spec])
        assert store.path_for(spec).with_name(
            f"{store.path_for(spec).name}.corrupt"
        ).exists()
        # Third run resumes from the freshly stored artifact.
        third = ParallelRunner(store=store, jobs=1).run([spec])
        assert third.cached == 1 and third.executed == 0


class TestShardingUnderFaults:
    @pytest.fixture
    def engine(self):
        """A small engine, closed (its segments unlinked) after the test."""
        graph = erdos_renyi_gnm(60, 240, seed=3)
        with TriangleEngine(graph, params=MachineParams(memory_words=64, block_words=8)) as engine:
            yield engine

    def test_faulted_sharded_run_matches_serial_bit_for_bit(self, engine):
        serial = engine.run("cache_aware", seed=1, options={"num_colors": 2}, collect=True)
        plan = FaultPlan(
            rules=(
                FaultRule(kind="crash", match="shard:*", rate=0.4, seed=11),
                FaultRule(kind="exception", match="shard:*", rate=0.3, seed=12),
            )
        )
        # The sampled rules must actually fault a decent fraction of shards
        # for this test to mean anything.
        faulted_keys = [k for k in (f"shard:{i}" for i in range(8)) if plan.rule_for(k, 0)]
        assert len(faulted_keys) >= 2
        with watchdog(300), plan.activate():
            sharded = engine.run("cache_aware", seed=1, shards=2, jobs=2, collect=True)
        assert sharded.io == serial.io
        assert sharded.phases == serial.phases
        assert sharded.triangle_count == serial.triangle_count
        assert sharded.triangles == serial.triangles

    def test_persistent_shard_fault_raises_instead_of_hanging(self, engine):
        plan = FaultPlan(rules=(FaultRule(kind="exception", match="shard:0", attempts=None),))
        with watchdog(300), plan.activate():
            with pytest.raises(ShardExecutionError, match="attempts"):
                engine.run("cache_aware", seed=1, shards=2, jobs=2, max_retries=1)

    def test_timeout_knobs_require_shards(self, engine):
        with pytest.raises(OptionsError, match="require shards"):
            engine.run("cache_aware", task_timeout=5.0)
        with pytest.raises(OptionsError, match="require shards"):
            engine.count("cache_aware", max_retries=1)


class TestStreamTypedErrors:
    def test_worker_exception_surfaces_as_stream_worker_error(self, monkeypatch):
        engine = TriangleEngine([(1, 2), (2, 3), (1, 3)])

        def exploding_run(self, *args, **kwargs):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr(TriangleEngine, "run", exploding_run)
        with watchdog(60):
            with pytest.raises(StreamWorkerError, match="cache_aware"):
                try:
                    list(engine.stream("cache_aware"))
                except StreamWorkerError as error:
                    assert isinstance(error.__cause__, RuntimeError)
                    raise

    def test_library_errors_keep_their_type(self):
        engine = TriangleEngine([(1, 2), (2, 3), (1, 3)])
        with watchdog(60):
            with pytest.raises(OptionsError):
                list(engine.stream("cache_aware", nonsense=1))
