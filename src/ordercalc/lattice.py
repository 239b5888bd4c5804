"""Exact arithmetic of the atomic vector lattice R^A.

Elements are finite real vectors indexed by atoms 0..dim-1; bands are
coordinate subsets acting as their own projections.  All operations are
pure, exact, and coordinatewise; nothing here involves tolerances except
the opt-in one on :func:`band_eq`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "Element",
    "Band",
    "BandDecomposition",
    "OrderInterval",
    "band_leq",
    "band_eq",
    "band_lt",
    "trichotomy",
    "totally_ordered_decomposition",
    "totord",
    "totord_by_lattice_polynomial",
]


class DimensionMismatchError(ValueError):
    pass


def _check_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


class Element:
    """Immutable vector in R^A.  Coordinates must be finite."""

    __slots__ = ("_data",)

    def __init__(self, coords):
        data = np.array(coords, dtype=np.float64).reshape(-1)
        if data.size == 0:
            raise ValueError("Element needs at least one atom")
        if not np.all(np.isfinite(data)):
            raise ValueError("Element coordinates must be finite")
        data.flags.writeable = False
        self._data = data

    @classmethod
    def _wrap(cls, data: np.ndarray) -> "Element":
        # Internal fast path; data must already be a fresh finite float64 vector.
        obj = cls.__new__(cls)
        data.flags.writeable = False
        obj._data = data
        return obj

    @classmethod
    def zeros(cls, dim: int) -> "Element":
        return cls._wrap(np.zeros(dim))

    @classmethod
    def ones(cls, dim: int) -> "Element":
        """The multiplicative unit: all-ones."""
        return cls._wrap(np.ones(dim))

    @classmethod
    def full(cls, dim: int, value: float) -> "Element":
        return cls(np.full(dim, float(value)))

    @property
    def data(self) -> np.ndarray:
        """Read-only coordinate array."""
        return self._data

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    def __getitem__(self, i: int) -> float:
        return float(self._data[i])

    def __iter__(self):
        return iter(self._data.tolist())

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        return f"Element({self._data.tolist()})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.dim == other.dim and bool(np.all(self._data == other._data))

    def __hash__(self) -> int:
        return hash(self._data.tobytes())

    # -- vector space and f-algebra structure ------------------------------

    def __add__(self, other: "Element") -> "Element":
        _check_same_dim(self, other)
        return Element._wrap(self._data + other._data)

    def __sub__(self, other: "Element") -> "Element":
        _check_same_dim(self, other)
        return Element._wrap(self._data - other._data)

    def __mul__(self, other):
        """Coordinatewise product with an Element, or scaling by a real."""
        if isinstance(other, Element):
            _check_same_dim(self, other)
            return Element._wrap(self._data * other._data)
        return Element._wrap(self._data * float(other))

    def __rmul__(self, scalar) -> "Element":
        return Element._wrap(float(scalar) * self._data)

    def __neg__(self) -> "Element":
        return Element._wrap(-self._data)

    def __abs__(self) -> "Element":
        return Element._wrap(np.abs(self._data))

    # -- lattice structure --------------------------------------------------

    def sup(self, other: "Element") -> "Element":
        _check_same_dim(self, other)
        return Element._wrap(np.maximum(self._data, other._data))

    def inf(self, other: "Element") -> "Element":
        _check_same_dim(self, other)
        return Element._wrap(np.minimum(self._data, other._data))

    def leq(self, other: "Element") -> bool:
        _check_same_dim(self, other)
        return bool((self._data <= other._data).all())

    def strictly_below(self, other: "Element") -> bool:
        """True iff other - self is a weak order unit (strict in every atom)."""
        _check_same_dim(self, other)
        return bool((self._data < other._data).all())

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list[float]:
        return self._data.tolist()

    @classmethod
    def from_json(cls, obj) -> "Element":
        return cls(obj)


class Band:
    """A set of atoms; acts as its own band projection."""

    __slots__ = ("_atoms", "_dim")

    def __init__(self, atoms, dim: int):
        dim = int(dim)
        if dim < 1:
            raise ValueError("dim must be positive")
        atom_set = frozenset(int(a) for a in atoms)
        for a in atom_set:
            if not 0 <= a < dim:
                raise ValueError(f"atom {a} outside 0..{dim - 1}")
        self._atoms = atom_set
        self._dim = dim

    @classmethod
    def empty(cls, dim: int) -> "Band":
        return cls((), dim)

    @classmethod
    def full(cls, dim: int) -> "Band":
        return cls(range(dim), dim)

    @property
    def atoms(self) -> frozenset[int]:
        return self._atoms

    @property
    def dim(self) -> int:
        return self._dim

    def __contains__(self, atom: int) -> bool:
        return atom in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Band):
            return NotImplemented
        return self._dim == other._dim and self._atoms == other._atoms

    def __hash__(self) -> int:
        return hash((self._dim, self._atoms))

    def __repr__(self) -> str:
        return f"Band({sorted(self._atoms)}, dim={self._dim})"

    def complement(self) -> "Band":
        """The disjoint band B^d."""
        return Band(set(range(self._dim)) - self._atoms, self._dim)

    def union(self, other: "Band") -> "Band":
        _check_same_dim(self, other)
        return Band(self._atoms | other._atoms, self._dim)

    def intersect(self, other: "Band") -> "Band":
        _check_same_dim(self, other)
        return Band(self._atoms & other._atoms, self._dim)

    def mask(self) -> np.ndarray:
        m = np.zeros(self._dim, dtype=bool)
        if self._atoms:
            m[sorted(self._atoms)] = True
        return m

    def project(self, x: Element) -> Element:
        """Zero the coordinates outside the band; idempotent and linear."""
        _check_same_dim(self, x)
        out = np.where(self.mask(), x.data, 0.0)
        return Element._wrap(out)

    def to_json(self) -> list[int]:
        return sorted(self._atoms)

    @classmethod
    def from_json(cls, obj, dim: int) -> "Band":
        return cls(obj, dim)


@dataclass(frozen=True)
class BandDecomposition:
    """Pairwise disjoint bands covering all atoms."""

    parts: tuple[Band, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("decomposition needs at least one part")
        dim = self.parts[0].dim
        seen: set[int] = set()
        for band in self.parts:
            if band.dim != dim:
                raise DimensionMismatchError("parts have mixed dimensions")
            if seen & band.atoms:
                raise ValueError("parts are not pairwise disjoint")
            seen |= band.atoms
        if seen != set(range(dim)):
            raise ValueError("parts do not cover all atoms")

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def to_json(self) -> list[list[int]]:
        return [band.to_json() for band in self.parts]


@dataclass(frozen=True)
class OrderInterval:
    """The order interval [lo, hi]; requires lo <= hi coordinatewise."""

    lo: Element
    hi: Element

    def __post_init__(self):
        _check_same_dim(self.lo, self.hi)
        if not self.lo.leq(self.hi):
            raise ValueError("interval needs lo <= hi in every atom")

    @property
    def dim(self) -> int:
        return self.lo.dim

    def width(self) -> Element:
        return self.hi - self.lo

    def contains(self, x: Element) -> bool:
        return self.lo.leq(x) and x.leq(self.hi)

    def sample(self, rng: np.random.Generator) -> Element:
        u = rng.uniform(0.0, 1.0, self.dim)
        return Element._wrap(self.lo.data + u * (self.hi.data - self.lo.data))


# --------------------------------------------------------------------------
# Band calculus
# --------------------------------------------------------------------------

def band_leq(x: Element, y: Element) -> Band:
    """Largest band on which the projection of x is <= that of y."""
    _check_same_dim(x, y)
    return Band(np.flatnonzero(x.data <= y.data), x.dim)


def band_eq(x: Element, y: Element, tol: float = 0.0) -> Band:
    """Largest band on which x and y project equally.

    Comparison is exact floating equality unless a positive absolute
    tolerance is passed.
    """
    _check_same_dim(x, y)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if tol == 0.0:
        idx = np.flatnonzero(x.data == y.data)
    else:
        idx = np.flatnonzero(np.abs(x.data - y.data) <= tol)
    return Band(idx, x.dim)


def band_lt(x: Element, y: Element) -> Band:
    """Largest band on which y - x projects to a weak order unit."""
    _check_same_dim(x, y)
    return Band(np.flatnonzero(x.data < y.data), x.dim)


def trichotomy(x: Element, y: Element) -> BandDecomposition:
    """Split the atoms into [x < y], [y < x], [x = y]."""
    return BandDecomposition((band_lt(x, y), band_lt(y, x), band_eq(x, y)))


# --------------------------------------------------------------------------
# Total orderisation
# --------------------------------------------------------------------------

def _as_matrix(elements) -> np.ndarray:
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one element")
    dim = elements[0].dim
    for e in elements:
        if e.dim != dim:
            raise DimensionMismatchError(f"dimension mismatch: {dim} vs {e.dim}")
    return np.stack([e.data for e in elements])


def totally_ordered_decomposition(elements) -> BandDecomposition:
    """Group atoms by the comparison signature the elements induce on them.

    Atoms i and j share a part iff every pair of elements compares the same
    way (<, =, >) on i as on j.  Each projected set is then totally ordered.
    Finer than strictly necessary when ties occur, but canonical and unique.
    """
    mat = _as_matrix(elements)  # (n, dim)
    n, dim = mat.shape
    signatures: dict[tuple, list[int]] = {}
    order: list[tuple] = []
    for atom in range(dim):
        col = mat[:, atom]
        sig = tuple(
            (-1 if col[a] < col[b] else (1 if col[a] > col[b] else 0))
            for a, b in combinations(range(n), 2)
        )
        if sig not in signatures:
            signatures[sig] = []
            order.append(sig)
        signatures[sig].append(atom)
    parts = tuple(Band(signatures[sig], dim) for sig in order)
    return BandDecomposition(parts)


def totord(elements) -> list[Element]:
    """The canonical chain M_1 <= ... <= M_n: per-atom ascending sort."""
    mat = _as_matrix(elements)
    chain = np.sort(mat, axis=0)
    return [Element._wrap(chain[k].copy()) for k in range(chain.shape[0])]


def totord_by_lattice_polynomial(elements) -> list[Element]:
    """The same chain via sup-over-subsets-of-infima lattice polynomials.

    M_k is the supremum, over all subsets of size n+1-k, of the subset
    infimum.  Exponential in n; kept as the independent construction the
    fast per-atom sort is checked against.
    """
    mat = _as_matrix(elements)
    n, dim = mat.shape
    out = []
    for k in range(1, n + 1):
        size = n + 1 - k
        best = np.full(dim, -np.inf)
        for subset in combinations(range(n), size):
            best = np.maximum(best, mat[list(subset)].min(axis=0))
        out.append(Element._wrap(best))
    return out
