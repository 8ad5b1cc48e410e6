"""Append-only JSONL run ledger: every run leaves one auditable row.

The perf-regression observatory needs history: the BENCH JSON records
capture one run each, but answering "did this change regress anything?"
needs *rows over time* -- config, fault schedule, simulated series, wall
seconds, peak RSS, pool hit rates, round counts and the critical-path
summary, per run, in one greppable place.  This module
provides that as newline-delimited JSON under ``REPRO_TRACE_DIR`` (or an
explicit ``REPRO_LEDGER`` path): the CLI's ``mst``/``profile`` commands and
the benchmark recorder append one row per run, and ``repro report`` reads
the file back for diffs and regression tables.

Schema stability: every row carries ``schema_version`` (stamped from
:data:`repro.obs.validate.SCHEMA_VERSION`) and is checked by
:func:`repro.obs.validate.validate_ledger_record` before it is written --
a malformed row never reaches the file.  Rows are purely observational
(host facts plus already-computed simulated numbers); writing the ledger
never touches machine state, so it sits outside the tracing-invisibility
invariant by construction.
"""

from __future__ import annotations

import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional

from .validate import SCHEMA_VERSION, validate_ledger_record

#: File name used under ``REPRO_TRACE_DIR`` when no explicit path is set.
LEDGER_FILENAME = "ledger.jsonl"


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process so far, in bytes.

    ``ru_maxrss`` covers the whole process lifetime (it never decreases),
    so the value recorded for a run is an upper bound including any
    earlier work in the same interpreter.  Returns ``None`` where
    ``resource`` is missing.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return int(peak) * (1 if sys.platform == "darwin" else 1024)


def ledger_path(explicit=None) -> Optional[Path]:
    """Resolve where ledger rows go, or ``None`` when no ledger is active.

    Precedence: the ``explicit`` argument, then ``REPRO_LEDGER`` (a file
    path), then ``$REPRO_TRACE_DIR/ledger.jsonl``.  With none of the three
    set, ledger appends are silent no-ops -- plain runs never scatter
    files.
    """
    if explicit:
        return Path(explicit)
    env = os.environ.get("REPRO_LEDGER", "").strip()
    if env:
        return Path(env)
    trace_dir = os.environ.get("REPRO_TRACE_DIR", "").strip()
    if trace_dir:
        return Path(trace_dir) / LEDGER_FILENAME
    return None


def _pool_stats(machine) -> Dict[str, float]:
    """Buffer-pool reuse summary from the machine's plain-int pool stats."""
    pool = machine.pool
    total = pool.hits + pool.misses
    return {
        "hits": int(pool.hits),
        "misses": int(pool.misses),
        "hit_rate": (pool.hits / total) if total else 0.0,
        "bytes_reused": int(pool.bytes_reused),
        "bytes_allocated": int(pool.bytes_allocated),
    }


def make_record(kind: str, name: str, *,
                config: Optional[Dict] = None,
                machine=None,
                simulated: Optional[List[Dict]] = None,
                rounds: Optional[int] = None,
                wall_seconds: Optional[float] = None,
                critical_path: Optional[Dict] = None,
                extra: Optional[Dict] = None) -> Dict:
    """Build one ledger row (validated, JSON-ready).

    ``kind`` classifies the producer (``cli`` / ``benchmark`` / test);
    ``name`` identifies the run (subcommand or BENCH family).  When a
    ``machine`` is given, its fault schedule and pool hit rates are
    recorded; ``simulated`` entries
    must be ``{"label": ..., "simulated_seconds": ...}`` pairs the caller
    already computed (the ledger never recomputes simulated numbers).
    """
    record: Dict = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "name": name,
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "config": dict(config or {}),
        "wall_seconds": wall_seconds,
        "peak_rss_bytes": peak_rss_bytes(),
    }
    if machine is not None:
        record["n_procs"] = machine.n_procs
        record["pool"] = _pool_stats(machine)
        faults = getattr(machine, "faults", None)
        record["fault_schedule"] = (str(faults.schedule)
                                    if faults is not None else None)
    if simulated is not None:
        record["simulated"] = list(simulated)
    if rounds is not None:
        record["rounds"] = int(rounds)
    if critical_path is not None:
        record["critical_path"] = critical_path
    if extra:
        record.update(extra)
    return record


def append_record(record: Dict, path=None) -> Optional[Path]:
    """Validate and append one row; returns the path (None = no-op).

    The row is checked by :func:`validate_ledger_record` first and a
    ``ValueError`` raised on problems -- the ledger file only ever holds
    schema-valid rows.  With no resolvable path (see :func:`ledger_path`)
    nothing is written.
    """
    path = ledger_path(path)
    if path is None:
        return None
    problems = validate_ledger_record(record)
    if problems:
        raise ValueError("refusing to append invalid ledger record: "
                         + "; ".join(problems))
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def read_ledger(path) -> List[Dict]:
    """Read every row of a ledger file (skipping blank lines).

    Raises ``FileNotFoundError`` when the file does not exist and
    ``ValueError`` on unparseable lines; schema validation is left to the
    caller (``repro report`` validates and reports per-row problems).
    """
    path = Path(path)
    rows: List[Dict] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{lineno}: unparseable ledger line: {exc}") from exc
    return rows


def latest_by_name(rows: List[Dict]) -> Dict[str, Dict]:
    """The most recent row per run ``name`` (file order = append order)."""
    out: Dict[str, Dict] = {}
    for row in rows:
        name = row.get("name")
        if isinstance(name, str) and name:
            out[name] = row
    return out
