"""Output check of a run directory against stored reference values.

A reference holds, for every CSV a preset writes, its header, its row
count, the sha256 of its bytes, and a subsample of its rows.  A run
passes when every CSV is present with the same header and row count,
every numeric cell in the whole file is finite, and every sampled cell
is within ``ATOL + RTOL * |reference|`` of the stored value (non-numeric
cells must match exactly).  The tolerance is about 100 times the 9e-9
that separates two integrators of equal accuracy, so a different but
equally accurate method passes while a changed result does not.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

ATOL = 1e-6
RTOL = 1e-6
SAMPLE_ROWS = 200

REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def make_reference(directory, preset: str) -> dict:
    """Reference record for the CSVs a finished run left in ``directory``."""
    files = {}
    for path in sorted(Path(directory).glob("*.csv")):
        header, rows = _read_csv(path)
        n = len(rows)
        stride = max(1, n // SAMPLE_ROWS)
        picks = sorted(set(range(0, n, stride)) | {n - 1})
        files[path.name] = {
            "header": header,
            "n_rows": n,
            "sha256": _sha256(path),
            "rows": {str(i): rows[i] for i in picks},
        }
    return {"preset": preset, "atol": ATOL, "rtol": RTOL, "files": files}


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def check_run(directory, reference: dict) -> dict:
    """Compare a run directory with a reference.

    Returns ``{"ok", "errors", "max_abs_dev", "digest_match"}``; ``ok`` is
    False on any missing file, shape change, non-finite value or sampled
    cell outside tolerance.
    """
    directory = Path(directory)
    errors = []
    max_dev = 0.0
    digest_match = True
    atol, rtol = reference["atol"], reference["rtol"]
    if not (directory / "manifest.json").is_file():
        errors.append("manifest.json: missing")
    for name, ref in reference["files"].items():
        path = directory / name
        if not path.is_file():
            errors.append(f"{name}: missing")
            continue
        digest_match &= _sha256(path) == ref["sha256"]
        header, rows = _read_csv(path)
        if header != ref["header"] or len(rows) != ref["n_rows"]:
            errors.append(f"{name}: header or row count differs")
            continue
        bad = [
            (r, c) for r, row in enumerate(rows) for c, cell in enumerate(row)
            if (x := _number(cell)) is not None and not math.isfinite(x)
        ]
        if bad:
            errors.append(f"{name}: {len(bad)} non-finite cells, first at {bad[0]}")
            continue
        for idx, ref_row in ref["rows"].items():
            row = rows[int(idx)]
            if len(row) != len(ref_row):
                errors.append(f"{name}: row {idx} has {len(row)} cells")
                continue
            for col, (cell, ref_cell) in enumerate(zip(row, ref_row)):
                x, y = _number(cell), _number(ref_cell)
                if x is None or y is None:
                    if cell != ref_cell:
                        errors.append(f"{name}[{idx}][{header[col]}]: {cell!r} != {ref_cell!r}")
                    continue
                dev = abs(x - y)
                max_dev = max(max_dev, dev)
                if dev > atol + rtol * abs(y):
                    errors.append(f"{name}[{idx}][{header[col]}]: {x!r} vs {y!r}")
    return {"ok": not errors, "errors": errors[:10], "max_abs_dev": max_dev,
            "digest_match": bool(digest_match)}
