"""Dipole-dipole survey geometry."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Survey:
    """Electrode positions plus one (A, B, M, N) electrode-index row per
    datum, both read-only.  A transmitter is a run of consecutive rows with
    the same (A, B); :meth:`source_rows` gives where each run starts.
    """

    electrodes: np.ndarray
    abmn: np.ndarray

    def __post_init__(self):
        electrodes = np.array(self.electrodes, dtype=float)  # copies: the caller's stay writable
        abmn = np.array(self.abmn)
        if abmn.dtype.kind not in "iu" or abmn.ndim != 2 or abmn.shape[1] != 4 or not len(abmn):
            raise ValueError("abmn must be an (n_data, 4) integer array with n_data >= 1")
        abmn = abmn.astype(np.intp, copy=False)
        object.__setattr__(self, "electrodes", electrodes)
        object.__setattr__(self, "abmn", abmn)
        electrodes.setflags(write=False)
        abmn.setflags(write=False)
        same = abmn[:, ::2] == abmn[:, 1::2]  # A == B, M == N
        if np.count_nonzero(same):
            raise ValueError("source electrodes A and B must differ" if same[:, 0].any()
                             else "receiver electrodes M and N must differ")
        outside = abmn.view(np.uintp) >= electrodes.size  # a negative index reads huge
        if np.count_nonzero(outside):
            raise ValueError(f"{'source' if outside[:, :2].any() else 'receiver'} "
                             "electrode index out of range")

    @property
    def n_data(self) -> int:
        return len(self.abmn)

    def source_rows(self) -> np.ndarray:
        """The row where each transmitter starts, then ``n_data``: the data of
        transmitter s are rows ``source_rows()[s]:source_rows()[s + 1]``."""
        ab = self.abmn[:, :2]
        start = np.ones(len(ab) + 1, dtype=bool)
        (ab[1:] != ab[:-1]).any(axis=1, out=start[1:-1])
        return start.nonzero()[0]


# (A, B, M, N) of receiver k of transmitter i: i + _BASE + k * _STEP.
_BASE = np.array([0, 1, 2, 3])
_STEP = np.array([0, 0, 1, 1])


@lru_cache(maxsize=1)
def build_dipole_dipole_survey(line_length: float, station_spacing: float,
                               max_receivers: int, x0: float = 0.0) -> Survey:
    """Standard dipole-dipole array along a straight line.

    Stations sit every ``station_spacing`` from ``x0`` to ``x0 +
    line_length``.  Transmitter dipoles are adjacent-station pairs
    advancing one station at a time; for transmitter (i, i+1) the receiver
    dipoles are the adjacent-station pairs strictly beyond it, (i+2, i+3)
    onward, sharing no electrode with the transmitter, up to
    ``max_receivers`` or the end of the line.  Transmitters with no
    receiver are dropped.  The rows come transmitter by transmitter,
    nearest receiver first.  Equal arguments share one immutable Survey: a
    scenario builds its survey when it is checked and again for its run.
    """
    if not station_spacing > 0:  # NaN fails each test
        raise ValueError("station_spacing must be positive")
    if max_receivers < 1:
        raise ValueError("max_receivers must be >= 1")
    n_intervals = line_length / station_spacing
    if not (0 < line_length < np.inf and abs(n_intervals - round(n_intervals)) <= 1e-9):
        raise ValueError("line_length must be a positive multiple of station_spacing")
    n_stations = int(round(n_intervals)) + 1
    n_tx = n_stations - 3  # transmitters (i, i+1) with a receiver (i+2, i+3) on the line
    if n_tx < 1:
        raise ValueError("line too short for any dipole-dipole datum (need >= 4 stations)")

    # Each transmitter's first receiver slots, less those past the line's end:
    # transmitter i keeps min(max_receivers, n_tx - i), so the grid holds
    # under twice the data.
    stations = np.arange(n_stations)
    slots = stations[:min(max_receivers, n_tx), None] * _STEP + _BASE
    grid = stations[:n_tx, None, None] + slots
    return Survey(electrodes=x0 + station_spacing * stations,
                  abmn=grid[grid[:, :, 3] < n_stations])


def survey_from_rows(rows: np.ndarray) -> Survey:
    """Rebuild a Survey from (n_data, 4) electrode-position rows.

    Electrode indices number the sorted distinct positions; the rows keep
    their order, so each run of consecutive rows with the same (Ax, Bx) is
    one transmitter.  ``Survey`` refuses rows that are not four wide.
    """
    rows = np.asarray(rows, dtype=float)
    positions = np.unique(rows)
    return Survey(electrodes=positions, abmn=np.searchsorted(positions, rows))
