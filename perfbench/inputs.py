"""Seeded inputs that the benchmark builds outside the program.

The program only ever sees the files written here; nothing in this module
imports simplexreg.
"""

from __future__ import annotations

import numpy as np

SOIL_ROWS = 1000
SOIL_MISSING_ROWS = 10  # about 1%, so the loader's dropped-row path runs
SOIL_COLUMNS = ("sand", "silt", "clay", "pH")


def soil_csv_text(seed: int) -> tuple[str, int]:
    """A synthetic soil-texture survey as CSV text, deterministic in ``seed``.

    Sand, silt and clay are percentages with one decimal (they need not sum
    to exactly 100, as in real surveys); pH is a smooth trend in the
    composition plus Gaussian noise.  ``SOIL_MISSING_ROWS`` rows have one
    blank field.  Returns the text and the number of incomplete rows.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    parts = rng.dirichlet([2.5, 2.0, 1.5], size=SOIL_ROWS)
    # keep every part off the simplex edge; the loader renormalizes
    pct = np.maximum(np.round(parts * 100.0, 1), 0.5)
    frac = pct / pct.sum(axis=1, keepdims=True)
    ph = (
        6.2
        + 1.4 * frac[:, 2]
        - 1.1 * frac[:, 0]
        + 0.4 * np.sin(3.0 * frac[:, 1])
        + rng.normal(0.0, 0.25, SOIL_ROWS)
    )
    cells = [
        [f"{a:.1f}", f"{b:.1f}", f"{c:.1f}", f"{p:.2f}"]
        for (a, b, c), p in zip(pct, ph)
    ]
    holes = rng.choice(SOIL_ROWS, SOIL_MISSING_ROWS, replace=False)
    fields = rng.integers(0, len(SOIL_COLUMNS), SOIL_MISSING_ROWS)
    for row, col in zip(holes, fields):
        cells[row][col] = ""
    lines = [",".join(SOIL_COLUMNS)] + [",".join(r) for r in cells]
    return "\n".join(lines) + "\n", SOIL_MISSING_ROWS
