"""Dipole-dipole survey geometry."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Survey:
    """Electrode positions plus source/receiver dipole index pairs.

    ``sources[s]`` is the (A, B) electrode index pair of transmitter s and
    ``receivers[s]`` its (M, N) pairs; data are ordered source-major, in
    receiver order within each source.
    """

    electrodes: np.ndarray
    sources: tuple[tuple[int, int], ...]
    receivers: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        electrodes = np.asarray(self.electrodes, dtype=float)
        object.__setattr__(self, "electrodes", electrodes)
        electrodes.setflags(write=False)
        if len(self.sources) != len(self.receivers):
            raise ValueError("sources and receivers lists must align")
        n = electrodes.size
        for (a, b), rx in zip(self.sources, self.receivers):
            if a == b:
                raise ValueError("source electrodes A and B must differ")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("source electrode index out of range")
            for m, nn in rx:
                if m == nn:
                    raise ValueError("receiver electrodes M and N must differ")
                if not (0 <= m < n and 0 <= nn < n):
                    raise ValueError("receiver electrode index out of range")

    @property
    def n_data(self) -> int:
        return sum(len(rx) for rx in self.receivers)

    @property
    def n_sources(self) -> int:
        return len(self.sources)


def build_dipole_dipole_survey(line_length: float, station_spacing: float,
                               max_receivers: int, x0: float = 0.0) -> Survey:
    """Standard dipole-dipole array along a straight line.

    Stations sit every ``station_spacing`` from ``x0`` to ``x0 +
    line_length``.  Transmitter dipoles are adjacent-station pairs
    advancing one station at a time; for transmitter (i, i+1) the receiver
    dipoles are the adjacent-station pairs strictly beyond it, (i+2, i+3)
    onward, sharing no electrode with the transmitter, up to
    ``max_receivers`` or the end of the line.  Transmitters with no
    receiver are dropped.
    """
    if not station_spacing > 0:  # NaN fails each test
        raise ValueError("station_spacing must be positive")
    if max_receivers < 1:
        raise ValueError("max_receivers must be >= 1")
    n_intervals = line_length / station_spacing
    if not (0 < line_length < np.inf and abs(n_intervals - round(n_intervals)) <= 1e-9):
        raise ValueError("line_length must be a positive multiple of station_spacing")
    n_stations = int(round(n_intervals)) + 1

    electrodes = x0 + station_spacing * np.arange(n_stations)
    n_dipoles = n_stations - 1
    sources = []
    receivers = []
    for i in range(n_dipoles):
        rx = [(j, j + 1) for j in range(i + 2, min(n_dipoles, i + 2 + max_receivers))]
        if rx:
            sources.append((i, i + 1))
            receivers.append(tuple(rx))
    if not sources:
        raise ValueError("line too short for any dipole-dipole datum (need >= 4 stations)")
    return Survey(electrodes=electrodes, sources=tuple(sources), receivers=tuple(receivers))


def survey_from_rows(rows: np.ndarray) -> Survey:
    """Rebuild a Survey from (n_data, 4) electrode-position rows.

    Consecutive rows with the same (Ax, Bx) are grouped into one source;
    electrode indices are assigned from the sorted unique positions.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError("expected rows of Ax Bx Mx Nx")
    positions = np.unique(rows)
    index = {pos: i for i, pos in enumerate(positions)}

    sources = []
    receivers = []
    current_ab = None
    for ax, bx, mx, nx in rows:
        ab = (index[ax], index[bx])
        if ab != current_ab:
            sources.append(ab)
            receivers.append([])
            current_ab = ab
        receivers[-1].append((index[mx], index[nx]))
    return Survey(electrodes=positions,
                  sources=tuple(sources),
                  receivers=tuple(tuple(r) for r in receivers))

