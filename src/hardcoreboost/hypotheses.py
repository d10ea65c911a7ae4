"""Finite weak-learner classes with range [-1, +1] and the operator H.

Three kinds are provided: coordinate projections over [-1, +1]^d, lattice
subcube indicators tiling [-i, i)^d at resolution i (the structural-risk
family used by the consistency experiments), and explicit pass-through
feature tables.
"""

from __future__ import annotations

import abc
import warnings
from dataclasses import dataclass, field

import numpy as np

MAX_LATTICE_CELLS = 10**6


class ResourceLimitError(ValueError):
    """Raised when a requested class would exceed the enumeration budget."""


def _point_masses(labels: np.ndarray, weights) -> np.ndarray:
    """Check labels in {-1, +1} and return the point masses (uniform if None)."""
    if labels.size == 0:
        raise ValueError("sample is empty")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if weights is None:
        return np.full(labels.size, 1.0 / labels.size)
    w = np.asarray(weights, dtype=float)
    if w.shape != labels.shape or np.any(w < 0):
        raise ValueError("weights must be nonnegative, one per point")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")
    return w


def _read_csv(path) -> tuple[list[str] | None, np.ndarray]:
    """A comma-separated numeric table and its header tokens (None if absent).

    The first line is a header unless all its nonempty fields parse as
    numbers.  Quoted fields parse as numbers, empty and whitespace-only
    lines are skipped, and a row whose field count differs from the others
    (or from the header)
    is an error, as is a file without data rows.  Errors read
    "<path>: line <N>: <reason>" with N the 1-based line in the file.
    """
    with open(path) as fh:
        first = fh.readline()
        header = [tok.strip().strip('"') for tok in first.split(",")]
        try:
            [float(tok) for tok in header if tok]
        except ValueError:
            pass  # a header: the table starts on the next line
        else:
            header = None
            fh.seek(0)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data: raised below
                table = np.loadtxt(
                    (line for line in fh if not line.isspace()),
                    delimiter=",", ndmin=2, quotechar='"',
                )
        except ValueError as exc:
            raise ValueError(f"{path}: {_bad_line(path, header) or exc}") from None
    if table.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if header is not None and len(header) != table.shape[1]:
        raise ValueError(
            f"{path}: the header has {len(header)} fields, the rows {table.shape[1]}"
        )
    return header, table


def _bad_line(path, header) -> str | None:
    """"line <N>: <reason>" for the first data line np.loadtxt rejects, if any.

    Whitespace-only lines are skipped as _read_csv skips them.  Each other
    line is parsed on its own, so np.loadtxt's own rules decide what is a
    comment, an empty line or a number; every row needs as many fields
    as the header, or else as the first row.
    """
    width = None if header is None else len(header)
    with open(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty and comment lines
        for lineno, line in enumerate(fh, start=1):
            if (lineno == 1 and header is not None) or line.isspace():
                continue
            try:
                row = np.loadtxt([line], delimiter=",", ndmin=1, quotechar='"')
            except ValueError as exc:
                return f"line {lineno}: {str(exc).split(' at row')[0]}"
            width = width or row.size
            if row.size not in (0, width):
                return f"line {lineno}: the number of columns is {row.size}, not {width}"
    return None


@dataclass(frozen=True)
class FeatureMatrix:
    """Materialized hypotheses on a sample: entry (j, i) = h_i(x_j).

    weights are the sample-point masses (uniform 1/m by default) and are
    carried along so risk sums and optimizers need no separate handle on the
    originating sample.
    """

    features: np.ndarray  # (m, n)
    labels: np.ndarray  # (m,), values in {-1, +1}
    weights: np.ndarray | None = None

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)
        if f.ndim != 2 or y.shape != (f.shape[0],):
            raise ValueError("features must be (m, n) with matching labels")
        if not np.all(np.abs(f) <= 1.0 + 1e-12):
            raise ValueError("feature entries must lie in [-1, +1]")
        object.__setattr__(self, "weights", _point_masses(y, self.weights))

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]


class HypothesisClass(abc.ABC):
    """A finite family {h_i} of features mapping instances into [-1, +1]."""

    n: int

    @abc.abstractmethod
    def evaluate(self, x) -> np.ndarray:
        """All hypothesis values (h_1(x), ..., h_n(x)) for one instance."""

    def apply(self, lam: np.ndarray, x) -> float:
        """(H lam)(x) = sum_i lam_i h_i(x)."""
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (self.n,):
            raise ValueError(f"weighting must have length {self.n}")
        return float(self.evaluate(x) @ lam)

    def materialize(self, sample) -> FeatureMatrix:
        """Evaluate every hypothesis on every sample point."""
        xs = np.atleast_2d(np.asarray(sample.x, dtype=float))
        if xs.shape[0] == 0:
            raise ValueError("sample is empty")
        rows = np.vstack([self.evaluate(x) for x in xs])
        return FeatureMatrix(rows, sample.y, sample.weights)


@dataclass(frozen=True)
class ProjectionClass(HypothesisClass):
    """h_i(x) = x_i over the cube [-1, +1]^d."""

    dim: int

    @property
    def n(self) -> int:
        return self.dim

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape != (self.dim,):
            raise ValueError(f"instance must have dimension {self.dim}")
        if np.any(np.abs(x) > 1.0 + 1e-12):
            raise ValueError("projection instances must lie in [-1, +1]^d")
        return x

    def materialize(self, sample) -> FeatureMatrix:
        xs = np.atleast_2d(np.asarray(sample.x, dtype=float))
        if xs.shape[1] != self.dim:
            raise ValueError(f"instance must have dimension {self.dim}")
        return FeatureMatrix(xs, sample.y, sample.weights)


@dataclass(frozen=True)
class LatticeCellClass(HypothesisClass):
    """Indicators of the (2 i^2)^d half-open subcubes of side 1/i tiling [-i, i)^d.

    Points outside the support cube get all-zero features.
    """

    resolution: int
    dim: int

    def __post_init__(self):
        if self.resolution < 1 or self.dim < 1:
            raise ValueError("resolution and dimension must be >= 1")
        if self.cells_per_axis**self.dim > MAX_LATTICE_CELLS:
            raise ResourceLimitError(
                f"lattice_cells({self.resolution}, {self.dim}) would enumerate "
                f"{self.cells_per_axis ** self.dim} cells (> {MAX_LATTICE_CELLS})"
            )

    @property
    def cells_per_axis(self) -> int:
        return 2 * self.resolution * self.resolution

    @property
    def n(self) -> int:
        return self.cells_per_axis**self.dim

    def cells(self, xs) -> np.ndarray:
        """Flat subcube index of each row of xs (m, dim), -1 for rows outside."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if xs.shape[1] != self.dim:
            raise ValueError(f"instance must have dimension {self.dim}")
        i, k = self.resolution, self.cells_per_axis
        inside = np.all((xs >= -i) & (xs < i), axis=1)
        # (x + i) * i rounds up to 2 i^2 for the largest doubles below i
        axis = np.minimum(np.floor((xs[inside] + i) * i).astype(int), k - 1)
        out = np.full(xs.shape[0], -1)
        out[inside] = np.ravel_multi_index(axis.T, (k,) * self.dim)
        return out

    def cell_index(self, x) -> int | None:
        """Flat index of the subcube containing x, or None when x is outside."""
        k = int(self.cells(np.reshape(x, (1, -1)))[0])
        return None if k < 0 else k

    def evaluate(self, x) -> np.ndarray:
        out = np.zeros(self.n)
        k = self.cell_index(x)
        if k is not None:
            out[k] = 1.0
        return out

    def materialize(self, sample) -> FeatureMatrix:
        cells = self.cells(sample.x)
        inside = cells >= 0
        rows = np.zeros((cells.size, self.n))
        rows[inside, cells[inside]] = 1.0
        return FeatureMatrix(rows, sample.y, sample.weights)


@dataclass(frozen=True)
class ExplicitClass(HypothesisClass):
    """Pass-through features: instances are already rows of hypothesis values.

    When a fixed table is attached, materialize ignores the sample instances
    and uses the table rows (matched by index) instead.
    """

    n_features: int
    table: np.ndarray | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.n_features

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape != (self.n_features,):
            raise ValueError(f"instance must have {self.n_features} feature values")
        if np.any(np.abs(x) > 1.0 + 1e-12):
            raise ValueError("explicit feature values must lie in [-1, +1]")
        return x

    def materialize(self, sample) -> FeatureMatrix:
        if self.table is not None:
            tab = np.asarray(self.table, dtype=float)
            if tab.shape[0] != len(sample.y):
                raise ValueError("feature table row count must match the sample")
            return FeatureMatrix(tab, sample.y, sample.weights)
        xs = np.atleast_2d(np.asarray(sample.x, dtype=float))
        if xs.shape[1] != self.n_features:
            raise ValueError(f"instance must have {self.n_features} feature values")
        return FeatureMatrix(xs, sample.y, sample.weights)


def lsrm_schedule(dim: int, i_max: int) -> list[LatticeCellClass]:
    """The increasing lattice-cell family [H_1, ..., H_{i_max}] in dimension dim."""
    if dim < 1 or i_max < 1:
        raise ValueError("dim and i_max must be >= 1")
    return [LatticeCellClass(i, dim) for i in range(1, i_max + 1)]


def parse_class_spec(spec: str) -> HypothesisClass:
    """Parse "proj:<d>" | "lattice:<i>x<d>" | "explicit:<path.csv>"."""
    spec = spec.strip()
    if spec.startswith("proj:"):
        return ProjectionClass(int(spec.split(":", 1)[1]))
    if spec.startswith("lattice:"):
        res, _, dim = spec.split(":", 1)[1].partition("x")
        return LatticeCellClass(int(res), int(dim))
    if spec.startswith("explicit:"):
        _, table = _read_csv(spec.split(":", 1)[1])
        return ExplicitClass(table.shape[1], table=table)
    raise ValueError(f"unknown class spec {spec!r}")
