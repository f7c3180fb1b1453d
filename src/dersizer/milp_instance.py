"""Standard-form sparse MILP container and LP-format export.

A :class:`MilpInstance` is solver-agnostic: named, bounded columns (some
binary), sparse rows with a sense and right-hand side, and a minimize
objective. Names serve the LP-format export and lookups by name; indexed
variables use the ``name_s{s}_t{t}`` convention so they stay legal
LP-format identifiers. A model builder that needs its variables back by
index records them itself in ``meta`` (see ``milp_builder.build_model``'s
``meta["blocks"]``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import BuildError

LE, GE, EQ = "<=", ">=", "="
_SENSES = (LE, GE, EQ)

# HiGHS reads a cost or a bound this large as infinite, and refuses a
# matrix coefficient this large, so the external backend and the oracle
# cannot solve what the reference backend would.
INFINITE_COST = 1e20
INFINITE_BOUND = 1e20
LARGE_MATRIX_VALUE = 1e15


@dataclass(frozen=True)
class MilpInstance:
    """Immutable standard-form minimize MILP with named columns and rows.

    Construction keeps read-only copies of the arrays and raises
    ``BuildError`` on the first malformed piece, so a built instance is valid.
    """

    col_names: tuple[str, ...]
    col_lower: np.ndarray
    col_upper: np.ndarray
    col_binary: np.ndarray
    objective: np.ndarray
    row_names: tuple[str, ...]
    row_sense: tuple[str, ...]
    rhs: np.ndarray
    matrix: sp.csr_matrix
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, dtype in (("col_lower", float), ("col_upper", float),
                            ("col_binary", bool), ("objective", float), ("rhs", float)):
            values = np.array(getattr(self, name), dtype=dtype)
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        matrix = sp.csr_matrix(self.matrix, copy=True)
        for values in (matrix.data, matrix.indices, matrix.indptr):
            values.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        if not (len(self.col_lower) == len(self.col_upper) == len(self.objective)
                == len(self.col_binary) == self.n_cols):
            raise BuildError("column array lengths disagree")
        if not (len(self.rhs) == len(self.row_sense) == self.n_rows):
            raise BuildError("row array lengths disagree")
        if self.matrix.shape != (self.n_rows, self.n_cols):
            raise BuildError(f"matrix shape {self.matrix.shape} does not match "
                             f"({self.n_rows}, {self.n_cols})")
        if len(set(self.col_names)) != self.n_cols:
            raise BuildError("duplicate column names")
        binaries = self.col_binary
        if np.any(self.col_lower[binaries] < 0) or np.any(self.col_upper[binaries] > 1):
            raise BuildError("binary column with bounds outside [0, 1]")
        if np.any(self.col_lower > self.col_upper):
            raise BuildError("column with lower bound above upper bound")
        if not np.all(np.isfinite(self.matrix.data)):
            raise BuildError("non-finite constraint coefficient")
        if not np.all(np.isfinite(self.rhs)):
            raise BuildError("non-finite rhs")
        if not np.all(np.isfinite(self.objective)):
            raise BuildError("non-finite objective coefficient")
        for what, values, names, limit, limit_name in (
                ("objective coefficient", self.objective, self.col_names,
                 INFINITE_COST, "infinite cost"),
                ("lower bound", self.col_lower, self.col_names,
                 INFINITE_BOUND, "infinite bound"),
                ("upper bound", self.col_upper, self.col_names,
                 INFINITE_BOUND, "infinite bound"),
                ("rhs", self.rhs, self.row_names, INFINITE_BOUND, "infinite bound")):
            huge = np.flatnonzero(np.isfinite(values) & (np.abs(values) >= limit))
            if huge.size:
                j = int(huge[0])
                raise BuildError(f"{what} {values[j]:.10g} of {names[j]} is at or "
                                 f"above HiGHS's {limit_name} {limit:g}")
        huge = np.flatnonzero(np.abs(self.matrix.data) >= LARGE_MATRIX_VALUE)
        if huge.size:
            k = int(huge[0])
            i = int(np.searchsorted(self.matrix.indptr, k, side="right")) - 1
            raise BuildError(f"coefficient {self.matrix.data[k]:.10g} of "
                             f"{self.col_names[self.matrix.indices[k]]} in row "
                             f"{self.row_names[i]} is at or above HiGHS's large "
                             f"matrix value {LARGE_MATRIX_VALUE:g}")
        for sense in self.row_sense:
            if sense not in _SENSES:
                raise BuildError(f"bad row sense {sense!r}")

    @property
    def n_cols(self) -> int:
        return len(self.col_names)

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    @property
    def binary_indices(self) -> np.ndarray:
        return np.flatnonzero(self.col_binary)

    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper activity bounds of every row; infinite on an open side."""
        senses = np.array(self.row_sense)
        return (np.where(senses == LE, -np.inf, self.rhs),
                np.where(senses == GE, np.inf, self.rhs))

    def col(self, name: str, s: int | None = None, t: int | None = None) -> int:
        """Column index of a symbol, optionally indexed by scenario/interval."""
        if s is not None:
            name = f"{name}_s{s}" + (f"_t{t}" if t is not None else "")
        try:
            return self.col_names.index(name)
        except ValueError:
            raise KeyError(f"no column named {name}") from None


def _coef(value: float) -> str:
    return format(value, ".12g")


def write_lp(instance: MilpInstance, path) -> None:
    """Write the instance as a CPLEX-style LP text file, names preserved."""
    matrix = instance.matrix.tocsr()
    lines: list[str] = ["\\ generated by dersizer", "Minimize", " obj:"]
    terms = []
    for j, coef in enumerate(instance.objective):
        if coef != 0.0:
            terms.append(f" {'+' if coef >= 0 else '-'} {_coef(abs(coef))} "
                         f"{instance.col_names[j]}")
    if not terms:
        terms.append(f" + 0 {instance.col_names[0]}")
    lines.extend("  " + term for term in terms)
    lines.append("Subject To")
    for i in range(instance.n_rows):
        start, end = matrix.indptr[i], matrix.indptr[i + 1]
        pieces = []
        for j, value in zip(matrix.indices[start:end], matrix.data[start:end]):
            pieces.append(f"{'+' if value >= 0 else '-'} {_coef(abs(value))} "
                          f"{instance.col_names[j]}")
        body = " ".join(pieces) if pieces else f"+ 0 {instance.col_names[0]}"
        lines.append(f" {instance.row_names[i]}: {body} {instance.row_sense[i]} "
                     f"{_coef(instance.rhs[i])}")
    lines.append("Bounds")
    for j, name in enumerate(instance.col_names):
        lo, hi = instance.col_lower[j], instance.col_upper[j]
        if lo == hi:
            lines.append(f" {name} = {_coef(lo)}")
        elif np.isneginf(lo) and np.isposinf(hi):
            lines.append(f" {name} free")
        elif np.isposinf(hi):
            lines.append(f" {name} >= {_coef(lo)}")
        else:
            lines.append(f" {_coef(lo)} <= {name} <= {_coef(hi)}")
    binaries = [instance.col_names[j] for j in instance.binary_indices]
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
