"""Per-iteration run records shared by both inversion flavours."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError

TRACE_HEADER = "# dcinv trace v1"
GRID_HEADER = "# dcinv grid v1"


@dataclass
class EpochRecord:
    epoch: int
    beta: float
    phi_d: float
    phi_m: float
    chi: float
    loss: float = float("nan")


@dataclass
class InversionTrace:
    records: list[EpochRecord] = field(default_factory=list)
    final_model: np.ndarray | None = None
    final_params: object = None  # NetParams for the reparameterized flavour
    converged: bool = False
    models: list[np.ndarray] | None = None  # per-epoch models when requested
    # Why Gauss-Newton ended: "target_chi", "line_search" or "budget"; not
    # written to trace files.
    stop_reason: str = ""

    @property
    def n_epochs(self) -> int:
        return len(self.records)


def save_trace(path, trace: InversionTrace, method: str = "") -> None:
    """One record per line: ``epoch beta phi_d phi_m chi``."""
    with open(path, "w") as f:
        f.write(f"{TRACE_HEADER} method={method} converged={int(trace.converged)}\n")
        f.write("# epoch beta phi_d phi_m chi\n")
        for r in trace.records:
            f.write(f"{r.epoch} {float(r.beta)!r} {float(r.phi_d)!r} {float(r.phi_m)!r} {float(r.chi)!r}\n")


def load_trace(path) -> InversionTrace:
    trace = InversionTrace()
    with open(path) as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "converged=" in line:
                    trace.converged = line.split("converged=")[1].split()[0] == "1"
                continue
            tok = line.split()
            if len(tok) != 5:
                raise ParseError(f"expected 5 values per record, got {len(tok)}", ln)
            try:
                trace.records.append(EpochRecord(
                    epoch=int(tok[0]), beta=float(tok[1]), phi_d=float(tok[2]),
                    phi_m=float(tok[3]), chi=float(tok[4])))
            except ValueError:
                raise ParseError("non-numeric value", ln) from None
    return trace


def save_grid(path, values: np.ndarray, nx: int, nz: int) -> None:
    """Model grid file: ``nx nz`` header, then one row of values per depth slice."""
    grid = np.asarray(values, dtype=float).reshape(nz, nx)
    with open(path, "w") as f:
        f.write(f"{GRID_HEADER}\n{nx} {nz}\n")
        for row in grid:
            f.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_grid(path):
    """Returns (values flattened row-major, nx, nz)."""
    nx = nz = None
    rows = []
    with open(path) as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tok = line.split()
            if nx is None:
                if len(tok) != 2:
                    raise ParseError("expected header 'nx nz'", ln)
                try:
                    nx, nz = int(tok[0]), int(tok[1])
                except ValueError:
                    raise ParseError("non-integer grid dimensions", ln) from None
                if nx < 1 or nz < 1:
                    raise ParseError("grid dimensions must be positive", ln)
                continue
            try:
                row = [float(t) for t in tok]
            except ValueError:
                raise ParseError("non-numeric value", ln) from None
            if len(row) != nx:
                raise ParseError(f"expected {nx} values per row, got {len(row)}", ln)
            rows.append(row)
    if nx is None:
        raise ParseError("empty grid file", 1)
    if len(rows) != nz:
        raise ParseError(f"expected {nz} rows, got {len(rows)}", ln)
    return np.asarray(rows).reshape(-1), nx, nz
