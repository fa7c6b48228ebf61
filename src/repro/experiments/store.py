"""Content-addressed JSON artifact store for experiment results.

Every completed :class:`repro.experiments.specs.RunSpec` is persisted as
``<root>/<spec_hash>.json`` so that

* re-running an experiment suite resumes from completed cells (a cell is
  looked up by content address before it is executed),
* tables are re-rendered from stored artifacts instead of in-memory state,
* CI jobs and notebooks can consume the raw counters without re-running
  anything.

Artifact schema (``repro-run/v3``)::

    {
      "schema":    "repro-run/v3",
      "spec_hash": "<16 hex digits>",
      "task":      "<task name>",
      "payload":   { ... task keyword arguments ... },
      "result":    { ... task result dictionary ... }
    }

Artifacts are written atomically (temp file + rename) and validated on
read: a corrupt, truncated or mismatching artifact is treated as a cache
miss, never as an error.  An artifact that is not even valid JSON is
additionally *quarantined* -- moved aside to ``<spec_hash>.json.corrupt``
with a logged warning -- so the damaged bytes are preserved for inspection
while the cell cleanly re-executes on the next run.

The store also keeps *failure records* (``<spec_hash>.failed``, schema
``repro-failure/v1``) for cells whose execution failed after exhausting
retries, so the next ``run_all`` can report how many cells it is retrying
and a success can clear the record.  The ``.failed`` suffix keeps them out
of the ``*.json`` artifact glob.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import threading
from pathlib import Path
from typing import Any

from repro.experiments.specs import RunSpec

#: Bumped whenever stored results would go stale: v2 when the canonical
#: degree order began ranking ties by label, which moved simulated counters;
#: v3 when report summaries gained the greedy colouring's per-level potentials.
#: An artifact of another schema is a miss, so its cell re-executes.
ARTIFACT_SCHEMA = "repro-run/v3"
FAILURE_SCHEMA = "repro-failure/v1"

logger = logging.getLogger(__name__)

#: Default artifact directory, relative to the current working directory.
DEFAULT_RESULTS_DIR = "results"


#: Per-process counter making concurrent temp names unique: pid alone is not
#: enough once the service's executor threads write the same spec hash at
#: the same time (both would open the same temp file and one ``os.replace``
#: would find it already gone).
_write_serial = itertools.count()


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    A crash mid-write can never leave a torn file at ``path``: readers see
    either the previous complete content or the new complete content.  The
    temporary lives next to the target (same filesystem, so the replace is
    atomic) under a name unique per process, thread, and call that no
    ``*.json`` glob matches.  Parent directories are created as needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(
        f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}-{next(_write_serial)}"
    )
    try:
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return path


def atomic_write_json(path: str | Path, payload: Any) -> Path:
    """Serialise ``payload`` as stable JSON and write it atomically.

    The artifact store, the ``results.json`` suite summary and the rendered
    table output all write through here, so a crashed or interrupted run
    can never corrupt a summary that downstream tabulation or CI trusts.
    """
    return atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


class ResultStore:
    """A directory of ``<spec_hash>.json`` artifacts."""

    def __init__(self, root: str | Path = DEFAULT_RESULTS_DIR) -> None:
        self.root = Path(root)

    def path_for(self, spec: RunSpec) -> Path:
        """Where the artifact for ``spec`` lives (whether or not it exists)."""
        return self.root / f"{spec.spec_hash}.json"

    def __contains__(self, spec: RunSpec) -> bool:
        return self.get(spec) is not None

    def get(self, spec: RunSpec) -> dict[str, Any] | None:
        """The stored result for ``spec``, or ``None`` on any kind of miss.

        A file that is not valid JSON (truncated write, disk corruption) is
        quarantined to ``<name>.corrupt`` with a logged warning; the cell
        then re-executes cleanly instead of the resume path raising.
        """
        path = self.path_for(spec)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            artifact = json.loads(text)
        except ValueError:
            self._quarantine(path)
            return None
        if not isinstance(artifact, dict):
            return None
        if artifact.get("schema") != ARTIFACT_SCHEMA:
            return None
        if artifact.get("spec_hash") != spec.spec_hash or artifact.get("task") != spec.task:
            return None
        result = artifact.get("result")
        return result if isinstance(result, dict) else None

    def put(self, spec: RunSpec, result: dict[str, Any]) -> Path:
        """Persist ``result`` for ``spec`` atomically; returns the path."""
        artifact = {
            "schema": ARTIFACT_SCHEMA,
            "spec_hash": spec.spec_hash,
            "task": spec.task,
            "payload": spec.payload,
            "result": result,
        }
        return atomic_write_json(self.path_for(spec), artifact)

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt artifact aside to ``<name>.corrupt``."""
        quarantined = path.with_name(f"{path.name}.corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:
            return
        logger.warning(
            "quarantined corrupt artifact %s -> %s; the cell will re-execute",
            path,
            quarantined.name,
        )

    def artifact_paths(self) -> list[Path]:
        """All artifact files currently in the store (sorted for stability)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.json"))

    def list(self) -> list[dict[str, Any]]:
        """All valid artifacts in the store, sorted by spec hash.

        Sidecar files are skipped, never read as artifacts: ``.failed``
        failure records, ``.corrupt`` quarantines, in-flight ``.tmp<pid>``
        temporaries, and any ``*.json`` that is not an
        :data:`ARTIFACT_SCHEMA` document (e.g. a ``results.json`` suite
        summary, or an artifact of an older schema).  This is a pure
        read -- unlike :meth:`get`, a damaged file is left in place, not
        quarantined, because no spec asked for it.
        """
        artifacts: list[dict[str, Any]] = []
        if not self.root.is_dir():
            return artifacts
        for path in sorted(self.root.iterdir()):
            if path.suffix != ".json" or not path.is_file():
                continue
            try:
                artifact = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if not isinstance(artifact, dict) or artifact.get("schema") != ARTIFACT_SCHEMA:
                continue
            if not isinstance(artifact.get("result"), dict):
                continue
            artifacts.append(artifact)
        return artifacts

    def __iter__(self):
        """Iterate over valid artifacts (same filtering as :meth:`list`)."""
        return iter(self.list())

    # -- failure records ------------------------------------------------

    def failure_path_for(self, spec: RunSpec) -> Path:
        """Where the failure record for ``spec`` lives (if any)."""
        return self.root / f"{spec.spec_hash}.failed"

    def put_failure(self, spec: RunSpec, error: str, attempts: int = 1) -> Path:
        """Persist a small failure record so the next run can report it."""
        record = {
            "schema": FAILURE_SCHEMA,
            "spec_hash": spec.spec_hash,
            "task": spec.task,
            "attempts": attempts,
            "error": error,
        }
        return atomic_write_json(self.failure_path_for(spec), record)

    def get_failure(self, spec: RunSpec) -> dict[str, Any] | None:
        """The failure record for ``spec``, or ``None``."""
        path = self.failure_path_for(spec)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("schema") != FAILURE_SCHEMA:
            return None
        if record.get("spec_hash") != spec.spec_hash:
            return None
        return record

    def clear_failure(self, spec: RunSpec) -> None:
        """Drop the failure record for ``spec`` (after a later success)."""
        self.failure_path_for(spec).unlink(missing_ok=True)
