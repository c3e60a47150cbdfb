"""Compositional regression pipeline for soil-texture pH data.

Loads (sand, silt, clay, pH) records, renormalizes the three texture parts to
sum to one and keeps (sand, silt) as the simplex coordinates, selects the
local linear bandwidth by leave-one-out cross-validation, evaluates the
smoother on a barycentric grid, and labels each grid value with a standard
soil pH category.  Gaps between the published category ranges (they are
stated at 0.1 pH resolution) are closed downward so the classification is
total and monotone.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .bandwidth import BandwidthResult, BandwidthSearch, select_loocv_ll
from .errors import EmptyDatasetError, ParseError
from .estimators import LL, Design, batch_estimate


@dataclass(frozen=True)
class PhCategory:
    """Half-open pH band ``[lower, upper)`` with its descriptive label."""

    label: str
    lower: float
    upper: float

    def __contains__(self, value: float) -> bool:
        return self.lower <= value < self.upper


PH_CATEGORIES: tuple[PhCategory, ...] = (
    PhCategory("Extremely acidic", -math.inf, 4.5),
    PhCategory("Very strongly acidic", 4.5, 5.1),
    PhCategory("Strongly acidic", 5.1, 5.6),
    PhCategory("Moderately acidic", 5.6, 6.1),
    PhCategory("Slightly acidic", 6.1, 6.6),
    PhCategory("Neutral", 6.6, 7.4),
    PhCategory("Slightly alkaline", 7.4, 7.9),
    PhCategory("Moderately alkaline", 7.9, 8.5),
    PhCategory("Strongly alkaline", 8.5, 9.1),
    PhCategory("Very strongly alkaline", 9.1, math.inf),
)

_BOUNDS = [c.lower for c in PH_CATEGORIES[1:]]


def classify_ph(value: float) -> PhCategory:
    """The unique category containing a finite pH value."""
    if not math.isfinite(value):
        raise ValueError(f"pH value must be finite, got {value}")
    return PH_CATEGORIES[bisect_right(_BOUNDS, value)]


@dataclass(frozen=True)
class CompositionColumns:
    """Column names of a composition CSV file."""

    sand: str = "sand"
    silt: str = "silt"
    clay: str = "clay"
    response: str = "pH"


@dataclass(frozen=True)
class LoadedComposition:
    """A composition design plus the number of dropped (incomplete) rows."""

    design: Design
    dropped_rows: int


_MISSING = {"", "na", "nan", "n/a", "null", "none", "-"}


def load_composition_csv(
    path, columns: CompositionColumns | None = None
) -> LoadedComposition:
    """Load a composition regression dataset from a headered CSV file.

    Each row's (sand, silt, clay) values are renormalized to proportions
    summing to one; the design point is (sand, silt) and the response is the
    pH column.  Rows with any missing field are dropped and counted; rows
    with malformed numbers raise :class:`ParseError` with their row number.
    """
    columns = columns or CompositionColumns()
    points: list[tuple[float, float]] = []
    responses: list[float] = []
    dropped = 0
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ParseError("file has no header row")
        needed = [columns.sand, columns.silt, columns.clay, columns.response]
        for name in needed:
            if name not in reader.fieldnames:
                raise ParseError(f"missing column {name!r} in header")
        for rownum, record in enumerate(reader, start=2):
            raw = [record.get(name) for name in needed]
            if any(v is None or v.strip().lower() in _MISSING for v in raw):
                dropped += 1
                continue
            try:
                sand, silt, clay, ph = (float(v) for v in raw)
            except ValueError as exc:
                raise ParseError(str(exc), row=rownum) from None
            total = sand + silt + clay
            if not math.isfinite(total) or total <= 0 or min(sand, silt, clay) < 0:
                raise ParseError(
                    f"invalid composition ({sand}, {silt}, {clay})", row=rownum
                )
            if not math.isfinite(ph):
                dropped += 1
                continue
            points.append((sand / total, silt / total))
            responses.append(ph)
    if not points:
        raise EmptyDatasetError(f"no usable rows in {path}")
    return LoadedComposition(
        design=Design(points=np.array(points), responses=np.array(responses)),
        dropped_rows=dropped,
    )


def barycentric_grid(resolution: int) -> np.ndarray:
    """All points ``(i, j)/resolution`` with ``i + j <= resolution``."""
    if resolution < 1:
        raise ValueError("grid resolution must be >= 1")
    pts = [
        (i / resolution, j / resolution)
        for i in range(resolution + 1)
        for j in range(resolution + 1 - i)
    ]
    return np.array(pts)


@dataclass(frozen=True)
class GridRow:
    """One evaluated grid point with its pH category."""

    s1: float
    s2: float
    s3: float
    estimate: float
    category: PhCategory


@dataclass(frozen=True)
class FitResult:
    """Selected bandwidth and the evaluated smoother grid."""

    b_hat: float
    loocv_value: float
    search: BandwidthResult
    grid: tuple[GridRow, ...] = field(repr=False)


def fit_and_grid(
    design: Design,
    search: BandwidthSearch | None = None,
    grid_resolution: int = 50,
) -> FitResult:
    """Select the local linear bandwidth by LOOCV and evaluate it on a grid."""
    result = select_loocv_ll(design, search)
    grid_points = barycentric_grid(grid_resolution)
    est = batch_estimate(LL, design, result.b_hat, grid_points)
    rows = []
    for (s1, s2), value in zip(grid_points, est):
        s3 = max(0.0, 1.0 - s1 - s2)
        category = classify_ph(float(value)) if math.isfinite(value) else None
        rows.append(
            GridRow(
                s1=float(s1),
                s2=float(s2),
                s3=s3,
                estimate=float(value),
                category=category,
            )
        )
    return FitResult(
        b_hat=result.b_hat,
        loocv_value=result.objective_value,
        search=result,
        grid=tuple(rows),
    )


def atomic_write_text(path, text: str) -> None:
    """Write a file via a temporary sibling and an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_value(x: float) -> str:
    """12-significant-digit formatting so exported grids round-trip."""
    return format(float(x), ".12g")


def csv_text(header: str, rows) -> str:
    """CSV text: the ``header`` line, then one line per row of cells; string
    cells pass through and numbers are written with :func:`format_value`."""
    lines = [header]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else format_value(c) for c in row))
    return "\n".join(lines) + "\n"


def grid_csv_text(rows) -> str:
    """Render grid rows as CSV with header ``s1,s2,s3,estimate,category``."""
    return csv_text(
        "s1,s2,s3,estimate,category",
        (
            (r.s1, r.s2, r.s3, r.estimate, "" if r.category is None else r.category.label)
            for r in rows
        ),
    )


__all__ = [
    "PhCategory",
    "PH_CATEGORIES",
    "classify_ph",
    "CompositionColumns",
    "LoadedComposition",
    "load_composition_csv",
    "barycentric_grid",
    "GridRow",
    "FitResult",
    "fit_and_grid",
    "atomic_write_text",
    "format_value",
    "csv_text",
    "grid_csv_text",
]
