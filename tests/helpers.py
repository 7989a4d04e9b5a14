"""Conveniences the test files share and the package does not need."""

import numpy as np

from rsma_vlc.scenarios import CATALOG_NAMES, catalog_scene


def catalog() -> dict:
    """Every catalog scene by name, as fresh spec objects."""
    return {name: catalog_scene(name) for name in CATALOG_NAMES}


def on_columns(layout, matrix) -> np.ndarray:
    """(..., fixtures, n) precoders of the n columns `layout` fills, placed
    on its K + 1 RSMA columns; the columns it leaves empty are 0."""
    m = np.asarray(matrix, dtype=float)
    active = layout.active
    if m.shape[-1:] != (active.sum(),):
        raise ValueError(f"precoders of shape {m.shape} do not fill the layout's {active.sum()} columns")
    out = np.zeros(m.shape[:-1] + active.shape)
    out[..., active] = m
    return out


def for_scheme(result, scheme: str) -> tuple:
    """The rows of a SweepResult of one scheme, in order."""
    return tuple(r for r in result.rows if r.scheme == scheme)


def wsr_series(result, scheme: str) -> list:
    """(sweep value, WSR) of each row of a SweepResult of one scheme."""
    return [(r.sweep_value, r.wsr) for r in for_scheme(result, scheme)]


def max_row_l1(precoder) -> float:
    """The largest L1 norm of a precoder's rows: the most drive a fixture uses."""
    return float(np.abs(precoder.matrix).sum(axis=1).max()) if precoder.matrix.size else 0.0
