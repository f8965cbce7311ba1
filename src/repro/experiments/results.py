"""On-disk results store for figure rows.

A paper reproduction is only useful if it leaves artifacts behind: rows
that can be re-plotted, diffed against a previous run, or attached to a
CI job, without re-running hours of simulation.  This module persists
the ``{figure name: rows}`` mapping every pipeline entry point produces
(:func:`~repro.experiments.presets.run_paper`, the examples) into a
**run directory** and loads it back.

Layout of a run directory::

    <run_dir>/
        manifest.json      # figure list + run metadata (see below)
        figure3.json       # {"figure": "figure3", "rows": [...]}
        figure3.csv        # the same rows, one column per key
        figure3c.json
        figure3c.csv
        ...
        cells/             # incremental re-run cache (run_paper(out_dir=...))
            provenance.json
            <sha256 cell key>.pkl

* ``manifest.json`` records the figure names in paper order plus
  whatever run metadata the writer supplied — ``run_paper`` stores the
  seed preset and the resolved per-family seed lists, the backend name
  and worker count, the base seed, the git commit/branch/dirty flag
  of the producing checkout and every figure's claim verdicts, so a
  stored run is attributable and reproducible.  :func:`save_run`
  writes it last, so a run directory without one is incomplete and
  :func:`load_run` refuses it.
* ``<figure>.json`` is the canonical row store (what :func:`load_run`
  reads back); the sibling ``.csv`` carries the same rows for
  spreadsheet and plotting tools and is write-only as far as this
  module is concerned.
* ``cells/`` is the :class:`CellStore` — one pickled
  :class:`~repro.experiments.parallel.ScenarioRecord` per completed
  figure cell, written as cells finish so an interrupted
  ``run_paper(out_dir=...)`` resumes instead of restarting.  The cache
  is keyed on the same provenance fields ``compare_runs`` gates on;
  see :class:`CellStore` and ``docs/distributed.md`` for the exact
  reuse semantics.  :func:`save_run`'s stale-row cleanup never touches
  the subdirectory.

Rows are lists of flat dictionaries (the one shape every figure in
:mod:`repro.experiments.figures` now produces, trace figures included
via their ``*_rows`` adapters).  Values that JSON does not know are
stringified rather than rejected, so an enum-valued row cannot poison a
whole run's persistence.

:func:`load_run` returns a :class:`RunResults` whose ``rows`` mapping
is directly consumable by :func:`repro.experiments.report.format_run`
(``python -m repro.experiments <run_dir>`` renders a stored run
as the paper-style tables without re-simulating anything) and by the
image pipeline (``python -m repro.plots <run_dir>`` renders one PNG
per figure; ``--compare`` overlays two stored runs).  The on-disk
layout and the full manifest schema are documented for external
consumers in ``docs/results.md``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import pickle
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

Row = Dict[str, object]
PathLike = Union[str, Path]

#: Name of the per-run metadata file inside a run directory.
MANIFEST_NAME = "manifest.json"
#: Version stamp written into every manifest; bump on layout changes.
MANIFEST_FORMAT = 1
#: Subdirectory of a run directory holding the per-cell result cache.
CELLS_DIR_NAME = "cells"
#: Provenance sidecar inside the cells directory; a mismatch with the
#: current run's provenance invalidates every cached cell.
CELLS_PROVENANCE_NAME = "provenance.json"


def git_metadata(cwd: Optional[PathLike] = None) -> Dict[str, object]:
    """Commit, branch and dirty flag of the checkout producing the run.

    Best-effort: outside a git checkout (or without a ``git`` binary)
    an empty mapping comes back and persistence proceeds without
    provenance rather than failing the run.  The default anchor is the
    process working directory — the checkout the experiment is run
    from — not this module's install location, which for a non-editable
    install says nothing about the run.
    """
    where = Path(cwd) if cwd is not None else Path.cwd()

    def _git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ("git", *args),
                cwd=where,
                capture_output=True,
                text=True,
                timeout=5.0,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        if proc.returncode != 0:
            return None
        return proc.stdout.strip()

    commit = _git("rev-parse", "HEAD")
    if commit is None:
        return {}
    status = _git("status", "--porcelain")
    return {
        "commit": commit,
        "branch": _git("rev-parse", "--abbrev-ref", "HEAD"),
        "dirty": bool(status) if status is not None else None,
    }


def _row_columns(rows: Sequence[Mapping[str, object]]) -> List[str]:
    """Union of row keys in first-seen order (rows may differ in keys)."""
    columns: List[str] = []
    seen = set()
    for row in rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                columns.append(key)
    return columns


def save_rows(directory: PathLike, name: str, rows: Sequence[Mapping[str, object]]) -> Path:
    """Persist one figure's rows as ``<name>.json`` + ``<name>.csv``.

    Creates the run directory if needed and returns the JSON path (the
    canonical store; the CSV is a convenience mirror for external
    tools).  The manifest is left to :func:`save_run` /
    :func:`write_manifest`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = [dict(row) for row in rows]
    json_path = directory / f"{name}.json"
    json_path.write_text(
        json.dumps({"figure": name, "rows": rows}, indent=2, default=str) + "\n"
    )
    columns = _row_columns(rows)
    with (directory / f"{name}.csv").open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _csv_value(value) for key, value in row.items()})
    return json_path


def _csv_value(value: object) -> object:
    if value is None:
        return ""
    if isinstance(value, (int, float, str, bool)):
        return value
    return str(value)


def write_manifest(
    directory: PathLike,
    figures: Sequence[str],
    metadata: Optional[Mapping[str, object]] = None,
) -> Path:
    """Write (or overwrite) a run directory's ``manifest.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": MANIFEST_FORMAT,
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "figures": list(figures),
        "metadata": dict(metadata or {}),
    }
    path = directory / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    return path


def cell_key(figure: str, scenario: str, params: Mapping[str, object], seed: int) -> str:
    """Content hash identifying one figure cell for the resume cache.

    The key covers everything that determines a cell's simulated
    record: the figure it belongs to, the scenario name, the builder's
    parameter mapping and the seed.  It deliberately does *not* cover
    the backend or worker count — those change scheduling, never
    results (the cross-backend bit-identity pins in tests/test_backends
    are what make this safe).  Run-level provenance (seed policy,
    figure-parameter overrides) is handled separately by
    :class:`CellStore`, which invalidates the whole cache when it
    drifts.
    """
    payload = {
        "figure": figure,
        "scenario": scenario,
        "params": dict(params),
        "seed": seed,
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CellStore:
    """Per-cell result cache inside a run directory (``cells/``).

    Each completed figure cell is pickled to
    ``<run_dir>/cells/<cell_key>.pkl`` as it finishes, so a
    ``run_paper(out_dir=...)`` that dies partway can be rerun and only
    simulate the cells it is missing.  A ``provenance.json`` sidecar
    records the run-level provenance (the same fields
    ``compare_runs`` gates on: seed policy, resolved seeds, base seed,
    figure-parameter overrides); if the sidecar of an existing cache
    does not match the current run's provenance — or ``resume=False``
    is passed — every cached cell is discarded up front rather than
    risking rows from a differently-configured run.

    Payloads are pickled, not JSON: scenario records carry mappings
    with non-string keys (e.g. per-node energy keyed by node id) that a
    JSON round-trip would silently corrupt.  A cell that fails to read
    back (truncated write, foreign file) is deleted and recomputed —
    corruption can cost time, never correctness.
    """

    def __init__(
        self,
        run_dir: PathLike,
        provenance: Mapping[str, object],
        *,
        resume: bool = True,
    ) -> None:
        self.directory = Path(run_dir) / CELLS_DIR_NAME
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Cells served from the cache this run.
        self.hits = 0
        #: Cells persisted by this run.
        self.stored = 0
        canonical = json.dumps(dict(provenance), sort_keys=True, default=str)
        sidecar = self.directory / CELLS_PROVENANCE_NAME
        stale = True
        if resume:
            try:
                stale = sidecar.read_text() != canonical + "\n"
            except OSError:
                stale = True
        if stale:
            for cached in self.directory.glob("*.pkl"):
                cached.unlink(missing_ok=True)
            sidecar.write_text(canonical + "\n")

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str) -> Optional[Any]:
        """Return the cached payload for ``key``, or ``None``.

        Unreadable cells are deleted so the caller recomputes them.
        """
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            payload = pickle.loads(raw)
        except Exception:
            path.unlink(missing_ok=True)
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Any) -> None:
        """Persist one cell atomically (tmp file + rename)."""
        path = self._path(key)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(pickle.dumps(payload))
        tmp.replace(path)
        self.stored += 1


def _is_row_store(path: Path) -> bool:
    """Whether a ``.json`` file is a row store written by :func:`save_rows`.

    Requires both the ``rows`` list and the ``figure`` self-naming field
    matching the file stem — the exact shape :func:`save_rows` writes —
    so a foreign export that merely happens to contain a ``rows`` key is
    never mistaken for (or deleted as) one of ours.
    """
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return False
    return (
        isinstance(payload, dict)
        and isinstance(payload.get("rows"), list)
        and payload.get("figure") == path.stem
    )


def save_run(
    results: Mapping[str, Sequence[Mapping[str, object]]],
    directory: PathLike,
    metadata: Optional[Mapping[str, object]] = None,
) -> Path:
    """Persist a whole ``{figure: rows}`` mapping plus its manifest.

    Returns the run directory.  ``metadata`` lands verbatim in the
    manifest's ``metadata`` field (callers typically record seeds,
    preset, backend and :func:`git_metadata`).

    A run directory holds exactly one run: row stores left over from a
    previous ``save_run`` to the same directory (figures not in this
    run's ``results``) are deleted along with their CSV mirrors, so a
    reused ``out_dir`` can never mix a stale figure's rows into a fresh
    run's manifest.  Files that are not row stores are left alone.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # Clear the previous run *before* writing anything: drop its
    # manifest (this run writes its own at the end) and every row store
    # it left — including figures this run is about to rewrite, so an
    # interrupted save can never leave an old figure's rows to be loaded
    # as if they belonged to the new run.  At worst the directory holds
    # a partial prefix of the new run and no manifest, which load_run
    # refuses.
    (directory / MANIFEST_NAME).unlink(missing_ok=True)
    for stale in directory.glob("*.json"):
        if _is_row_store(stale):
            stale.unlink()
            (directory / f"{stale.stem}.csv").unlink(missing_ok=True)
    for name, rows in results.items():
        save_rows(directory, name, rows)
    write_manifest(directory, list(results), metadata)
    return directory


def load_rows(directory: PathLike, name: str) -> List[Row]:
    """Load one figure's rows back from ``<name>.json``."""
    path = Path(directory) / f"{name}.json"
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict) or not isinstance(payload.get("rows"), list):
        raise ValueError(f"{path} is not a row store written by save_rows")
    if payload.get("figure") not in (None, name):
        raise ValueError(
            f"{name}.json claims to hold figure {payload.get('figure')!r}, not {name!r}"
        )
    return [dict(row) for row in payload["rows"]]


@dataclass(frozen=True)
class RunResults:
    """A loaded run directory: manifest plus every figure's rows."""

    directory: Path
    manifest: Dict[str, object] = field(default_factory=dict)
    rows: Dict[str, List[Row]] = field(default_factory=dict)

    @property
    def figures(self) -> List[str]:
        return list(self.rows)

    @property
    def metadata(self) -> Dict[str, object]:
        meta = self.manifest.get("metadata", {})
        return dict(meta) if isinstance(meta, dict) else {}


def load_run(directory: PathLike) -> RunResults:
    """Load a run directory written by :func:`save_run`.

    The manifest's figure list is authoritative (order preserved) and
    every row file it names must exist.  A directory without a manifest
    raises :class:`FileNotFoundError`: :func:`save_run` writes the
    manifest last, so its absence means the save never completed.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"no run directory at {directory}")
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"{manifest_path} is missing: the run directory is incomplete")
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path} is not a run manifest written by save_run")
    figures_value = manifest.get("figures", [])
    if not isinstance(figures_value, list):
        raise ValueError(f"{manifest_path} has a malformed figure list")
    names = [str(name) for name in figures_value]
    missing = [name for name in names if not (directory / f"{name}.json").exists()]
    if missing:
        raise FileNotFoundError(f"run directory {directory} is missing row files for {missing}")
    rows = {name: load_rows(directory, name) for name in names}
    return RunResults(directory=directory, manifest=manifest, rows=rows)
