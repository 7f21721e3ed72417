"""Run records and their versioned CSV serialization.

The refusal reason is the last column and is parsed with a bounded split,
so it may contain commas.  ``without_timing`` strips the wall-clock field,
the one run-to-run nondeterministic value; everything else is a pure
function of (config, base seed).
"""

from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

SCHEMA_LINE = "#schema=1"


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one (algorithm, n, epsilon, trial) cell."""

    algorithm: str
    p: float
    d: int
    n: int
    epsilon: float
    delta: float
    trial: int
    seed: int
    excess_risk: Optional[float]
    trunc_fraction: Optional[float]
    wall_ms: float
    refused: bool = False
    refusal_reason: str = ""

    def __post_init__(self):
        if self.refused and self.excess_risk is not None:
            raise ValueError("refused cells must not carry an excess_risk value")


def without_timing(records):
    """Copies with wall_ms zeroed, for determinism comparisons."""
    return [replace(r, wall_ms=0.0) for r in records]


# Column order and per-column parsing both come from RunRecord's fields.
_COLUMNS = [f.name for f in fields(RunRecord)]
_PARSE = {
    str: str,
    int: int,
    float: float,
    bool: lambda s: s == "1",
    Optional[float]: lambda s: float(s) if s else None,
}
_PARSERS = [_PARSE[f.type] for f in fields(RunRecord)]


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, str):
        return v.replace("\n", " ")
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_records(records, path):
    """Emit records as CSV, prefixed by the schema comment line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SCHEMA_LINE + "\n")
        fh.write(",".join(_COLUMNS) + "\n")
        for r in records:
            fh.write(",".join(_fmt(getattr(r, c)) for c in _COLUMNS) + "\n")


def read_records(path):
    """Parse a CSV written by ``write_records``; round-trips field-for-field.

    A row with too few fields, or with a value that does not parse, raises
    ValueError naming the file and the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != SCHEMA_LINE:
            raise ValueError(f"unrecognized schema line: {first!r}")
        header = fh.readline().strip().split(",")
        if header != _COLUMNS:
            raise ValueError("CSV columns do not match schema 1")
        out = []
        for lineno, line in enumerate(fh, start=3):
            line = line.rstrip("\n")
            if not line:
                continue
            values = line.split(",", len(_COLUMNS) - 1)
            if len(values) < len(_COLUMNS):
                raise ValueError(f"{path}, line {lineno}: {len(values)} fields, schema 1 has {len(_COLUMNS)}")
            try:
                out.append(RunRecord(**{c: parse(v) for c, parse, v in zip(_COLUMNS, _PARSERS, values)}))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from exc
    return out
