"""The SQL-parity rounding kernel.

The oracle comparisons are exact integer matches, so every op must
scale floats with the SAME convention DuckDB's ``round()`` uses
(half-AWAY-from-zero — Python's ``round`` and ``np.round`` are
half-even).  Callers scale first: ``round_half_away(x * 1e4)``.
"""

from __future__ import annotations

import numpy as np


def round_half_away(x: np.ndarray) -> np.ndarray:
    """round(x) half-away-from-zero, as int64 — DuckDB parity."""
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
