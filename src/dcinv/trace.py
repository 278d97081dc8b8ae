"""Per-iteration run records shared by both inversion flavours."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .fileio import read_rows

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
    """A record per epoch or Gauss-Newton iteration, the final model and why the
    run stopped; a DIP run's trained generator is the params it trained in place."""

    records: list[EpochRecord] = field(default_factory=list)
    final_model: np.ndarray | None = None
    converged: bool = False
    # Why Gauss-Newton ended: "target_chi", "line_search" or "budget"; empty
    # for runs that do not set one.
    stop_reason: str = ""


def save_trace(path, trace: InversionTrace, method: str) -> None:
    """One record per line: ``epoch beta phi_d phi_m chi``.  The header
    carries the method, whether the run converged and, when set, why it
    stopped (``stop=<reason>``)."""
    stop = f" stop={trace.stop_reason}" if trace.stop_reason else ""
    with open(path, "w") as f:
        f.write(f"{TRACE_HEADER} method={method} converged={int(trace.converged)}{stop}\n")
        f.write("# epoch beta phi_d phi_m chi\n")
        for r in trace.records:
            f.write(f"{r.epoch} {float(r.beta)!r} {float(r.phi_d)!r} {float(r.phi_m)!r} {float(r.chi)!r}\n")


def load_trace(path) -> InversionTrace:
    header, rows = read_rows(path, width=5)
    ln, converged = header.get("converged", (1, "0"))
    if converged not in ("0", "1"):
        raise ParseError(f"converged must be 0 or 1, got {converged!r}", ln, path)
    records = []
    for ln, (epoch, beta, phi_d, phi_m, chi) in rows:
        if not epoch.is_integer():
            raise ParseError("non-integer epoch", ln, path)
        records.append(EpochRecord(int(epoch), beta, phi_d, phi_m, chi))
    return InversionTrace(records=records, converged=converged == "1",
                          stop_reason=header.get("stop", (1, ""))[1])


def save_grid(path, values: np.ndarray, nx: int, nz: int) -> None:
    """Model grid file: ``nx nz`` header, then one row of values per depth slice."""
    grid = np.asarray(values, dtype=float).reshape(nz, nx)
    with open(path, "w") as f:
        f.write(f"{GRID_HEADER}\n{nx} {nz}\n")
        for row in grid:
            f.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_grid(path):
    """Returns (values flattened row-major, nx, nz)."""
    _, rows = read_rows(path)
    if not rows:
        raise ParseError("empty grid file", 1, path)
    (ln, dims), body = rows[0], rows[1:]
    if len(dims) != 2 or not all(d.is_integer() and d >= 1 for d in dims):
        raise ParseError("expected header 'nx nz' of positive integers", ln, path)
    nx, nz = int(dims[0]), int(dims[1])
    for ln, row in body:
        if len(row) != nx:
            raise ParseError(f"expected {nx} values per row, got {len(row)}", ln, path)
    if len(body) != nz:
        raise ParseError(f"expected {nz} rows, got {len(body)}", ln, path)
    return np.array([row for _, row in body]).reshape(-1), nx, nz
