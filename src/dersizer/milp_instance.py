"""Standard-form sparse MILP container and LP-format export.

A :class:`MilpInstance` is solver-agnostic: named, bounded columns (some
binary), sparse rows with a sense and right-hand side, and a minimize
objective. Names serve the LP-format export and lookups by name; indexed
variables use the ``name_s{s}_t{t}`` convention so they stay legal
LP-format identifiers. A model builder that needs its variables back by
index records them itself (see ``milp_builder.variable_blocks``).

:class:`ModelBuilder` is the scalar builder for hand-written models: one
``add_col``/``add_row`` call per column or row, each checked as it is
added. The sizing model does not use it; ``milp_builder.build_model`` lays
out whole families as arrays and constructs the instance directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import BuildError

LE, GE, EQ = "<=", ">=", "="
_SENSES = (LE, GE, EQ)


class ModelBuilder:
    """Incremental column/row accumulator for a MilpInstance."""

    def __init__(self):
        self._col_names: list[str] = []
        self._col_set: set[str] = set()
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._binary: list[bool] = []
        self._objective: list[float] = []
        self._row_names: list[str] = []
        self._row_sense: list[str] = []
        self._rhs: list[float] = []
        self._coo_rows: list[int] = []
        self._coo_cols: list[int] = []
        self._coo_vals: list[float] = []

    def add_col(self, name: str, lower: float = 0.0, upper: float = np.inf,
                objective: float = 0.0, binary: bool = False) -> int:
        if name in self._col_set:
            raise BuildError(f"duplicate column {name}")
        if binary and not (lower >= 0.0 and upper <= 1.0):
            raise BuildError(f"binary column {name} must have bounds within [0, 1]")
        if not lower <= upper:
            raise BuildError(f"column {name}: lower {lower} exceeds upper {upper}")
        index = len(self._col_names)
        self._col_names.append(name)
        self._col_set.add(name)
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        self._binary.append(bool(binary))
        self._objective.append(float(objective))
        return index

    def add_row(self, name: str, coefficients: list[tuple[int, float]],
                sense: str, rhs: float) -> int:
        if sense not in _SENSES:
            raise BuildError(f"row {name}: bad sense {sense!r}")
        if not np.isfinite(rhs):
            raise BuildError(f"row {name}: non-finite rhs")
        row = len(self._row_names)
        for col, value in coefficients:
            if not 0 <= col < len(self._col_names):
                raise BuildError(f"row {name}: unknown column index {col}")
            if not np.isfinite(value):
                raise BuildError(f"row {name}: non-finite coefficient on column {col}")
            if value != 0.0:
                self._coo_rows.append(row)
                self._coo_cols.append(col)
                self._coo_vals.append(float(value))
        self._row_names.append(name)
        self._row_sense.append(sense)
        self._rhs.append(float(rhs))
        return row

    @property
    def n_cols(self) -> int:
        return len(self._col_names)

    @property
    def n_rows(self) -> int:
        return len(self._row_names)

    def build(self, meta: dict | None = None) -> "MilpInstance":
        n_rows, n_cols = len(self._row_names), len(self._col_names)
        matrix = sp.coo_matrix(
            (self._coo_vals, (self._coo_rows, self._coo_cols)),
            shape=(n_rows, n_cols)).tocsr()
        return MilpInstance(
            col_names=tuple(self._col_names),
            col_lower=np.array(self._lower),
            col_upper=np.array(self._upper),
            col_binary=np.array(self._binary, dtype=bool),
            objective=np.array(self._objective),
            row_names=tuple(self._row_names),
            row_sense=tuple(self._row_sense),
            rhs=np.array(self._rhs),
            matrix=matrix,
            meta=dict(meta or {}),
        )


@dataclass(frozen=True)
class MilpInstance:
    """Immutable standard-form minimize MILP with named columns and rows."""

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

    def validate(self) -> None:
        """Raise BuildError on any malformed piece of the instance."""
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
        for sense in self.row_sense:
            if sense not in _SENSES:
                raise BuildError(f"bad row sense {sense!r}")

    def with_bounds(self, lower: np.ndarray, upper: np.ndarray) -> "MilpInstance":
        """Copy of the instance with replaced column bounds (same matrix)."""
        return MilpInstance(
            col_names=self.col_names, col_lower=np.asarray(lower, dtype=float),
            col_upper=np.asarray(upper, dtype=float), col_binary=self.col_binary,
            objective=self.objective, row_names=self.row_names,
            row_sense=self.row_sense, rhs=self.rhs, matrix=self.matrix,
            meta=self.meta)


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
        elif np.isneginf(lo):
            lines.append(f" -inf <= {name} <= {_coef(hi)}")
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
