"""Output checks: exact repeat fingerprints and recorded reference values.

A call's outputs are `report.json` plus CSV files.  Within a run every pass
must reproduce the first pass byte for byte (report `wall_clock_s` aside).
At the reference seed the outputs must also match the values recorded in
`reference/<workload>.json`: floats to a relative 1e-9, everything else
exactly.  Large CSVs are recorded as a strided sample of rows plus the row
count and the sum of absolute values of each numeric column.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

IGNORED_KEYS = ("wall_clock_s",)
SAMPLE_ROWS = 32
REL_TOL = 1e-9
# Values that are zero up to rounding get an absolute floor.
ABS_TOL = 1e-15


def load_report(out_dir: Path) -> dict:
    with open(out_dir / "report.json") as fh:
        report = json.load(fh)
    for key in IGNORED_KEYS:
        report.pop(key, None)
    return report


def fingerprint(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file, with the report's timing removed."""
    prints = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "report.json":
            data = json.dumps(load_report(out_dir), sort_keys=True).encode()
        else:
            data = path.read_bytes()
        prints[path.name] = hashlib.sha256(data).hexdigest()
    return prints


def _cell(text: str):
    for typ in (int, float):
        try:
            return typ(text)
        except ValueError:
            pass
    return text


def _csv_summary(path: Path) -> dict:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    rows = [[_cell(c) for c in row] for row in rows]
    stride = max(1, math.ceil(len(rows) / SAMPLE_ROWS))
    picked = sorted(set(range(0, len(rows), stride)) | {len(rows) - 1}) \
        if rows else []
    abs_sums = []
    for j in range(len(header)):
        col = [row[j] for row in rows]
        numeric = all(isinstance(v, (int, float)) for v in col)
        abs_sums.append(math.fsum(abs(v) for v in col) if numeric else None)
    return {"header": header, "rows": len(rows),
            "sample": {str(i): rows[i] for i in picked},
            "abs_sums": abs_sums}


def snapshot(out_dir: Path) -> dict:
    """The values of a call's outputs that the reference records."""
    return {"report": load_report(out_dir),
            "csv": {p.name: _csv_summary(p)
                    for p in sorted(out_dir.glob("*.csv"))}}


def mismatches(reference, actual, where: str = "") -> list[str]:
    """Differences of `actual` from `reference`, ignoring keys it lacks."""
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object"]
        found = []
        for key, ref in reference.items():
            if key in IGNORED_KEYS:
                continue
            if key not in actual:
                found.append(f"{where}/{key}: missing")
            else:
                found.extend(mismatches(ref, actual[key], f"{where}/{key}"))
        return found
    if isinstance(reference, list):
        if not isinstance(actual, list) or len(actual) != len(reference):
            return [f"{where}: expected a list of {len(reference)}"]
        found = []
        for i, (ref, act) in enumerate(zip(reference, actual)):
            found.extend(mismatches(ref, act, f"{where}[{i}]"))
        return found
    if isinstance(reference, float) and type(actual) in (float, int):
        if math.isclose(reference, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
    elif type(reference) is type(actual) and reference == actual:
        return []
    return [f"{where}: {actual!r} != reference {reference!r}"]
