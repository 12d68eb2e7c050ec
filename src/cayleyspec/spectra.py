"""Closed-form spectra and eigenvector bases of Cayley color graphs.

Two formula paths, plus a wrapper over the second, produce labeled
spectral lines and, on request, eigenvectors in one of two claim forms
(``Spectrum.vectors`` on the normal path, ``Spectrum.factors`` on the
split path), so an independent residual check can certify every claim:

* ``spectrum_normal``: alpha is a class function; each irrep rho_k of G
  contributes the eigenvalue (1/d_k) * sum_g alpha(g) chi_k(g) with
  multiplicity d_k^2, on the span of rho_k's matrix coefficients.
* ``spectrum_split``: G = K x| H is a split extension with cyclic normal
  part; when alpha(h * g k g^{-1}) = alpha(h k) for all g in G (condition
  A) and alpha(h' h h'^{-1} k) = alpha(h k) for all h' in H (condition B),
  the eigenvalue at a pair (u, v) of H- and K-irreps is
  sum_i lambda_ui * sigma_vi over H-classes C_i, where
  lambda_ui = |C_i| chi_u(rep_i) / d_u and
  sigma_vi = sum_k alpha(rep_i * k) chi_v(k) (K is cyclic, so d_v = 1),
  with multiplicity d_u^2 on tensor products of coefficient vectors.
* ``spectrum_metacyclic``: C_m x| C_l with a layered connection set whose
  exponent layers are each closed under multiplication by r, which is
  condition A; B holds as H = C_l is abelian.  It runs the split path on
  the layers' indicator color, over the singleton H-classes {h^t}, and
  names its result ``metacyclic``.

Every route holds its lines as ``SpectralLines`` columns: eigenvalues,
multiplicities, u, v and the label axes.  The class terms lambda_ui and
sigma_vi are the split path's intermediates; its lines keep only their sums.
The split path takes every sigma_vi from one FFT over K and every sum from
one GEMM over the H classes (``_split_grid``); the normal path sums its
characters in element order (``irreps._character_sums``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from math import sqrt
from typing import Optional

import numpy as np

from .cayley import ColorFunction, _check_color_group, adjacency_matrix
from .errors import (
    CapacityExceeded,
    HypothesesViolated,
    InvalidAction,
    LayerNotInvariant,
    NotClassFunction,
)
from .groups import (
    CyclicGroup,
    FiniteGroup,
    MetacyclicGroup,
    SplitExtensionGroup,
    _first_conjugator,
    _integer,
    _intern_new,
    _memoized,
)
from .irreps import (
    FourierBlock,
    IrrepSet,
    PMatrix,
    _character_gather,
    _character_sums,
    _check_complete,
    _cmul,
    _degree_batches,
    _fourier_sums,
    _frozen,
    build_p_matrix,
    builtin_irreps,
    ensure_trusted,
    irreps_cyclic,
)


@dataclass(frozen=True, eq=False)
class SpectralLine:
    """One labeled eigenvalue with its multiplicity, as ``Spectrum.lines``
    forms it on demand from its columns.  The line's vectors are claimed
    by its spectrum; read them with ``Spectrum.vector_rows``.
    ``eigenvectors`` is always None: it is kept only for readers of the old
    per-line rows.

    ``==`` is identity, as for ``Spectrum``.
    """

    u: int
    v: Optional[int]
    labels: tuple
    eigenvalue: complex
    multiplicity: int
    eigenvectors: Optional[np.ndarray] = field(default=None, init=False, repr=False)


class SpectralLines(Sequence):
    """The lines of a spectrum, held as read-only columns.

    ``eigenvalues`` (complex), ``multiplicities`` (int64) and ``u`` hold
    one entry per line; so does ``v``, or it is None when the lines have
    no v (the normal route).  u and v are non-negative integers, each
    within its label axis when it has one.  Labels are held
    per axis: line k's labels are ``(axes[0][u[k]],)``, plus
    ``(axes[1][v[k]],)`` when there is a second axis, or ``()`` when
    there is none.

    Indexing and iteration form ``SpectralLine`` objects on demand, and a
    slice is a list of them: the columns are the only storage.
    """

    def __init__(self, eigenvalues, multiplicities, u, v=None, axes: tuple = ()):
        self.eigenvalues = _frozen(eigenvalues, complex)
        self.multiplicities = _frozen(multiplicities, np.int64)
        self.u = _label_column(u, "u")
        self.v = None if v is None else _label_column(v, "v")
        self.axes = tuple(tuple(axis) for axis in axes)
        columns = (self.eigenvalues, self.multiplicities, self.u, self.v)
        if any(c is not None and c.shape != (len(self.u),) for c in columns):
            raise ValueError("a spectrum's line columns must be 1-D and of one length")
        if any(c is not None and c.min(initial=0) < 0 for c in (self.u, self.v)):
            raise ValueError("a line's u and v must be non-negative")
        if len(self.axes) > 1 + (v is not None):
            raise ValueError("lines carry at most one label axis, or two when they have a v")
        for name, column, axis in zip("uv", (self.u, self.v), self.axes):
            if column.max(initial=-1) >= len(axis):
                raise ValueError(f"a line's {name} indexes past its {len(axis)} labels")

    def v_values(self):
        """Each line's v as an int, or None when the lines have no v."""
        if self.v is None:
            return itertools.repeat(None, len(self))
        return self.v.tolist()

    def __len__(self) -> int:
        return len(self.u)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = range(len(self))[k]
        v = None if self.v is None else int(self.v[k])
        return self._line(int(self.u[k]), v, complex(self.eigenvalues[k]),
                          int(self.multiplicities[k]))

    def __iter__(self):
        return itertools.starmap(self._line, zip(
            self.u.tolist(), self.v_values(), self.eigenvalues.tolist(),
            self.multiplicities.tolist()))

    def _line(self, u: int, v: Optional[int], eigenvalue: complex,
              multiplicity: int) -> SpectralLine:
        axes = self.axes
        labels = (() if not axes else (axes[0][u],) if len(axes) == 1
                  else (axes[0][u], axes[1][v]))
        return SpectralLine(u=u, v=v, labels=labels, eigenvalue=eigenvalue,
                            multiplicity=multiplicity)

    def __repr__(self):
        return f"<SpectralLines: {len(self)} lines>"


def _label_column(values, name: str) -> np.ndarray:
    """``values`` as a read-only int64 column; ValueError unless each
    value is an integer (an integer-valued float counts, no other)."""
    column = np.asarray(values)
    if column.dtype.kind not in "iu" and column.size and not (
            column.dtype.kind == "f" and np.isfinite(column).all()
            and (column == np.round(column)).all()):
        raise ValueError(f"a line's {name} must be integers, got {column.dtype} values")
    return _frozen(column, np.int64)


@dataclass(frozen=True, eq=False)
class KroneckerFactors:
    """The factored basis of a split (so also a metacyclic) spectrum.

    Vector t is ``kron(h_rows[h], k_rows[k])`` with ``(h, k) = pairs[t]``:
    the rows are H- and K-coefficient vectors, of lengths l and m.  The
    arrays are read-only.  ``==`` is identity; compare their bytes instead.
    """

    h_rows: np.ndarray
    k_rows: np.ndarray
    pairs: np.ndarray


def _kronecker_rows(factors: KroneckerFactors, pairs: np.ndarray) -> np.ndarray:
    """The rows ``kron(h_rows[h], k_rows[k])`` for each (h, k) in ``pairs``."""
    h, k = factors.h_rows[pairs[:, 0]], factors.k_rows[pairs[:, 1]]
    return (h[:, :, None] * k[:, None, :]).reshape(len(pairs), h.shape[1] * k.shape[1])


@dataclass(eq=False)
class Spectrum:
    """A full labeled spectrum; total multiplicity covers the whole space.

    ``lines`` holds the lines as columns, a ``SpectralLines``, and
    anything else raises TypeError.  ``eigenvalues``, ``multiplicities``,
    ``u`` and ``v`` read the columns.

    A spectrum claims N vectors in one form, or none: ``vectors``, an
    (N, n) complex array (the normal route), or ``factors``, Kronecker
    factors with N pairs (the split route, which the metacyclic one runs).
    Line k owns vectors ``offsets[k]:offsets[k + 1]`` with offsets the
    running sum of the multiplicities clipped at 0, capped at N: a line of
    multiplicity <= 0 owns none.

    ``==`` is identity: the fields hold arrays, which have no single truth
    value.  Compare eigenvalue multisets with ``verify.compare_spectra``
    and vectors with ``vector_rows(0, n).tobytes()``.
    """

    n: int
    method: str
    lines: SpectralLines
    theorem_verified: bool = True
    factors: Optional[KroneckerFactors] = None
    vectors: Optional[np.ndarray] = None

    def __post_init__(self):
        if not isinstance(self.lines, SpectralLines):
            raise TypeError("a spectrum holds its lines as a SpectralLines, got "
                            f"{type(self.lines).__name__}")
        if self.vectors is not None and self.factors is not None:
            raise ValueError("a spectrum claims its vectors as `vectors` or as "
                             "`factors`, not both")

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.lines.eigenvalues

    @property
    def multiplicities(self) -> np.ndarray:
        return self.lines.multiplicities

    @property
    def u(self) -> np.ndarray:
        return self.lines.u

    @property
    def v(self) -> Optional[np.ndarray]:
        return self.lines.v

    @property
    def total_multiplicity(self) -> int:
        return int(self.multiplicities.sum())

    @property
    def claims_vectors(self) -> bool:
        return self.vectors is not None or self.factors is not None

    def vector_count(self) -> int:
        """N, the number of vectors claimed."""
        if self.factors is not None:
            return len(self.factors.pairs)
        return 0 if self.vectors is None else len(self.vectors)

    def eigenvalues_expanded(self) -> list:
        return np.repeat(self.eigenvalues, np.maximum(self.multiplicities, 0)).tolist()

    def _vector_offsets(self) -> np.ndarray:
        """Where each line's vectors start; the last entry is where the
        last line's end."""
        offsets = np.zeros(len(self.lines) + 1, dtype=np.int64)
        np.cumsum(np.maximum(self.multiplicities, 0), out=offsets[1:])
        return np.minimum(offsets, self.vector_count())

    def vector_rows(self, lo: int, hi: int) -> np.ndarray:
        """Vectors lo..hi-1 as the rows of one read-only complex array,
        the range clipped to the N claimed: a slice of ``vectors``, or the
        Kronecker products of the pairs formed in one broadcast."""
        hi = min(max(hi, 0), self.vector_count())
        lo = min(max(lo, 0), hi)
        if self.factors is not None:
            rows = _kronecker_rows(self.factors, self.factors.pairs[lo:hi])
        elif self.vectors is not None:
            rows = np.asarray(self.vectors[lo:hi], dtype=complex)
        else:
            rows = np.empty((0, self.n), dtype=complex)
        rows.flags.writeable = False
        return rows

    def multiset(self) -> list:
        """``cluster_eigenvalues(self.eigenvalues_expanded())``, clustered
        from one value per line weighted by its multiplicity; a line of
        multiplicity <= 0 contributes nothing and bridges nothing."""
        kept = self.multiplicities > 0
        return list(zip(*_clusters(self.eigenvalues[kept], self.multiplicities[kept], 1e-9)))


# member pairs ``_chain_cells`` compares in one block
_PAIR_BLOCK = 1 << 16


def _value_order(values: np.ndarray) -> np.ndarray:
    """Indices that sort ``values`` by (Re, Im), with -0.0 before 0.0 in
    either part and ties by index: one stable sort by the signs, then a
    stable sort of the complex values.  NaNs come last."""
    signs = np.argsort(-2 * np.signbit(values.real) - np.signbit(values.imag), kind="stable")
    return signs[np.argsort(values[signs], kind="stable")]


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Flags on the sorted ``keys`` that start each run of equal keys."""
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return fresh


def _run_ids(fresh: np.ndarray) -> np.ndarray:
    """The run of each key, from ``_run_starts``: 0, 1, ..."""
    return np.cumsum(fresh, dtype=np.intp) - 1


def _chain_labels(values: np.ndarray, tol: float, order: np.ndarray) -> np.ndarray:
    """For each index of ``values``, a label that its chaining group shares.

    ``order`` is ``_value_order(values)``: in it, equal finite values (-0.0
    and 0.0 are equal) are neighbours and merge at once; ``_chain_cells``
    joins the distinct ones.  With ``tol < 0`` nothing chains, and with
    ``tol == 0`` only equal finite values do.
    """
    if not abs(tol) < math.inf:
        raise ValueError(f"chaining distance must be finite, got {tol!r}")
    n = len(values)
    # a value that chains with nothing keeps a label no group takes
    labels = np.arange(n, 2 * n)
    if tol < 0:
        return labels
    order = order[np.isfinite(values[order])]
    keys = values[order]
    fresh = _run_starts(keys)
    distinct = _run_ids(fresh)
    labels[order] = distinct if tol == 0 else _chain_cells(keys[fresh], tol)[distinct]
    return labels


def _chain_cells(points: np.ndarray, tol: float) -> np.ndarray:
    """A group id for each of the distinct finite ``points``: the
    components under ``abs(a - b) <= tol``, with ``tol > 0``.

    Points are binned into square cells whose width w is the power of two
    in (tol/4, tol/2] (``_cell_origins``).  Two points of one cell lie less
    than ``sqrt(2) w <= tol / sqrt(2)`` apart, so they chain unchecked.  A
    chaining pair has ``|fl(re a - re b)| <= tol``, as ``abs`` is at least
    either part, and the same for Im, so its cells' origins differ by less
    than ``tol + w`` in each part; ``_neighbour_cells`` lists the cell
    pairs that close.  The predicate runs on each such pair's first
    points, and then, for the pairs still in different components, on all
    their member pairs, ``_PAIR_BLOCK`` at a time.  ``_join`` finds the
    components.
    """
    width = math.ldexp(1.0, max(math.frexp(tol)[1] - 2, -1074))
    origins = np.empty(len(points), dtype=complex)
    origins.real = _cell_origins(points.real, width)
    origins.imag = _cell_origins(points.imag, width)
    order = np.argsort(origins, kind="stable")
    points, origins = points[order], origins[order]
    x, y = origins.real, origins.imag
    fresh = _run_starts(origins)
    cell = _run_ids(fresh)
    starts = np.flatnonzero(fresh)
    sizes = np.diff(starts, append=len(order))
    # fl((tol + w) (1 + 2^-50)) is above the largest gap of partner origins
    a, b = _neighbour_cells(x[starts], y[starts], (tol + width) * (1 + 2.0 ** -50))
    parent = np.arange(len(starts))
    hit = np.abs(points[starts[a]] - points[starts[b]]) <= tol
    _join(parent, a[hit], b[hit])
    apart = parent[a] != parent[b]
    a, b = a[apart], b[apart]
    # one row per member of cell a, against every member of cell b
    rows = _ranges(starts[a], sizes[a])
    others = np.repeat(b, sizes[a])
    ends = np.cumsum(sizes[others])
    lo = 0
    while lo < len(rows):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - sizes[others[lo]] + _PAIR_BLOCK,
                                             "right")))
        widths = sizes[others[lo:hi]]
        i = np.repeat(rows[lo:hi], widths)
        j = _ranges(starts[others[lo:hi]], widths)
        hit = np.abs(points[i] - points[j]) <= tol
        _join(parent, cell[i[hit]], cell[j[hit]])
        lo = hi
    group = np.empty(len(order), dtype=np.int64)
    group[order] = parent[cell]
    return group


def _cell_origins(x: np.ndarray, width: float) -> np.ndarray:
    """``floor(x / width) * width``, exact for a power-of-two ``width``.

    The quotient is exact unless it overflows, where |x| >= 2^53 width
    makes x a multiple of ``width`` and its own origin, or underflows,
    where a negative x rounds up to 0 and its origin is ``-width``."""
    with np.errstate(over="ignore"):
        origins = np.floor(x / width) * width
    origins[origins > x] -= width
    large = ~(np.abs(x) < 2.0 ** 53 * width)
    origins[large] = x[large]
    return origins


def _neighbour_cells(x: np.ndarray, y: np.ndarray, reach: float) -> tuple:
    """Pairs (a, b), a < b, of the cells sorted by origin (x, y) whose
    origins differ by at most ``reach`` in each part, and perhaps a few
    more, as each bound rounds outwards.

    Cells of one x column are consecutive.  Each cell queries the columns
    from its own up to ``x + reach``, and in each the y range by one
    ``searchsorted`` on the cells' (column, rank of y) keys."""
    count = len(x)
    fresh = _run_starts(x)
    column = _run_ids(fresh)
    ys = np.sort(y)
    ys = ys[_run_starts(ys)]
    keys = column * len(ys) + np.searchsorted(ys, y)
    reached = np.searchsorted(x[fresh], x + reach, "right") - column
    query = np.repeat(np.arange(count), reached)
    columns = _ranges(column, reached) * len(ys)
    lo = np.searchsorted(keys, columns + np.searchsorted(ys, y - reach)[query])
    hi = np.searchsorted(keys, columns + np.searchsorted(ys, y + reach, "right")[query])
    lo = np.maximum(lo, query + 1)
    spans = np.maximum(hi - lo, 0)
    return np.repeat(query, spans), _ranges(lo, spans)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ``arange(start, start + count)`` of each pair."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(counts.sum())


def _join(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the components of each pair (a[k], b[k]) in the forest
    ``parent``, in place.  Every cell points at its root, the smallest
    cell of its component, on entry and on return: each round hooks the
    larger root of every split pair under the smaller (any of them, when
    a root is in several pairs), then points every cell at its root
    again."""
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            return
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        parent[np.maximum(ra, rb)] = np.minimum(ra, rb)
        while True:
            roots = parent[parent]
            if np.array_equal(roots, parent):
                break
            parent[:] = roots


def _clusters(values: np.ndarray, weights: np.ndarray, tol: float) -> tuple:
    """``(representatives, totals)``, Python lists, of the chaining groups
    of ``values``: each group's first member in ``_value_order``, and the
    sum of its members' ``weights``.  Groups come in the order of their
    representatives."""
    order = _value_order(values)
    labels = _chain_labels(values, tol, order)
    if not labels.size:
        return [], []
    # positions in ``order``, grouped: each group's first is its representative
    grouped = np.argsort(labels[order], kind="stable")
    heads = np.flatnonzero(_run_starts(labels[order[grouped]]))
    totals = np.add.reduceat(weights[order][grouped], heads)
    rank = np.argsort(grouped[heads], kind="stable")
    return values[order[grouped[heads][rank]]].tolist(), totals[rank].tolist()


def cluster_eigenvalues(values: Sequence[complex], tol: float = 1e-9) -> list:
    """Group values by chaining pairs within ``tol``.

    Returns (representative, count) pairs ordered by value (Re, Im, with
    -0.0 before 0.0 in either part); the representative is the smallest
    member of its group in that order, so it does not depend on the order
    of ``values``.  Groups are formed over all pairs, not just
    sort-adjacent ones, so rounding noise that interleaves two nearby
    groups cannot split them.
    """
    values = np.asarray(values, dtype=complex).ravel()
    return list(zip(*_clusters(values, np.ones(len(values), dtype=np.int64), tol)))


@dataclass(frozen=True)
class ConditionWitness:
    """A triple violating one invariance condition, with both evaluations."""

    triple: tuple
    lhs_element: object
    rhs_element: object
    lhs_value: complex
    rhs_value: complex


@dataclass(frozen=True)
class HypothesisReport:
    condition_a: bool
    condition_b: bool
    witness_a: Optional[ConditionWitness] = None
    witness_b: Optional[ConditionWitness] = None

    @property
    def passed(self) -> bool:
        return self.condition_a and self.condition_b


def check_split_hypotheses(group: FiniteGroup, color: ColorFunction) -> HypothesisReport:
    """Test both invariance conditions of the split-extension formula.

    Condition A ranges over (h, g, k) in H x G x K and asks
    alpha(h * g k g^{-1}) == alpha(h k); each K column of alpha(h k) is
    compared with its orbit's least member, from the K-orbit labels.
    Condition B ranges over (h', h, k) in H x H x K and asks
    alpha(h' h h'^{-1} * k) == alpha(h k); on every kind, each H row of
    alpha(h k) is compared with its H-class's least member, from the H-class
    labels, and the witness conjugator is the first in H's order.  Witnesses
    carry the violating triple and both alpha values; only they read the
    elements.
    """
    if group._split_idx is None:
        raise InvalidAction(f"group kind {group.kind!r} has no distinguished split structure")
    _check_color_group(group, color)
    k_idx, h_idx = group._split_idx
    # table[i, j] = alpha(h_i k_j): on a split kind h_a k^b has index
    # a*m + b, elsewhere one kernel gather finds the products
    if isinstance(group, SplitExtensionGroup):
        products = np.arange(group.order).reshape(group.l, group.m)
    else:
        products = group.mul_idx(h_idx[:, None], k_idx[None, :])
    table = color.vector[products]

    def witness(triple, i, j, base_i, base_j):
        """alpha(h_i k_j) differs from alpha(h_base_i k_base_j)."""
        elems = group.elements()
        return ConditionWitness(
            triple=tuple(elems[x] for x in triple),
            lhs_element=elems[products[i, j]],
            rhs_element=elems[products[base_i, base_j]],
            lhs_value=table[i, j].item(),
            rhs_value=table[base_i, base_j].item(),
        )

    # condition A: the first violation in the order h, K-orbit, orbit member
    # (a least member is not compared with itself, which a NaN would fail)
    labels = group._k_orbit_labels
    others = np.flatnonzero(labels != np.arange(labels.size))
    bad = table[:, others] != table[:, labels[others]]
    rows = np.flatnonzero(bad.any(axis=1))
    witness_a = None
    if rows.size:
        i, j = rows[0], min(others[bad[rows[0]]].tolist(), key=labels.item)
        g, _ = _first_conjugator(group, k_idx[labels[j]], np.arange(group.order) == k_idx[j])
        witness_a = witness((h_idx[i], g, k_idx[labels[j]]), i, j, i, labels[j])
    # condition B: the first violation in the order H-class, k, class member
    # (positions in H); a least member is compared with itself too
    labels = group._h_class_labels
    rows = np.flatnonzero((table != table[labels]).any(axis=1))
    witness_b = None
    if rows.size:
        base = labels[rows].min()
        members = np.flatnonzero(labels == base)
        bad = np.flatnonzero((table[members] != table[base]).T)
        j, p = divmod(int(bad[0]), members.size)
        i = members[p]
        x, _ = _first_conjugator(group, h_idx[base], np.arange(group.order) == h_idx[i], h_idx)
        witness_b = witness((x, h_idx[base], k_idx[j]), i, j, base, j)
    return HypothesisReport(
        condition_a=witness_a is None,
        condition_b=witness_b is None,
        witness_a=witness_a,
        witness_b=witness_b,
    )


def spectrum_normal(group: FiniteGroup, color: ColorFunction, irrep_set: IrrepSet,
                    eigenvectors: bool = True) -> Spectrum:
    """Spectrum of a normal color graph (alpha a class function on G)."""
    _check_color_group(group, color)
    witness = color.class_function_witness()
    if witness is not None:
        g, x, conj, v1, v2 = witness
        raise NotClassFunction(
            f"alpha({conj!r}) = {v2} differs from alpha({g!r}) = {v1} "
            f"although {x!r} conjugates one to the other",
            witness=witness,
        )
    ensure_trusted(group, irrep_set)
    sums = _character_sums(color.vector, len(irrep_set),
                           _character_gather(irrep_set))
    degrees = np.array(irrep_set.degrees(), dtype=np.int64)
    lines = SpectralLines(_over_degrees(sums, degrees), np.square(degrees),
                          np.arange(len(irrep_set)), axes=(irrep_set.labels(),))
    vectors = None
    if eigenvectors:
        # line k's vectors are the P-matrix columns of its coefficients;
        # C order keeps every block of rows contiguous
        vectors = np.ascontiguousarray(build_p_matrix(group, irrep_set).matrix.T)
        vectors.flags.writeable = False
    return Spectrum(n=group.order, method="normal", lines=lines, vectors=vectors)


def spectrum_split(group: SplitExtensionGroup, color: ColorFunction,
                   irreps_h: IrrepSet, irreps_k: IrrepSet,
                   eigenvectors: bool = True, force: bool = False) -> Spectrum:
    """Spectrum of a split-extension color graph from H- and K-irreps.

    Raises HypothesesViolated unless both invariance conditions hold;
    ``force=True`` computes anyway and marks the result unverified by the
    formula's hypotheses.  Lines (u, v) run u major.
    """
    return _split_route(group, color, irreps_h, irreps_k, eigenvectors, force)


def _split_route(group: SplitExtensionGroup, color: ColorFunction, irreps_h: IrrepSet,
                 irreps_k: IrrepSet, eigenvectors: bool, force: bool) -> Spectrum:
    """``spectrum_split``, also run by ``spectrum_metacyclic``: a call of the
    public name would be traced, and its lines counted, a second time.

    The eigenvalue grid is ``_split_grid`` on the H terms, the H-class
    representative rows of alpha and K's exponents (``_k_exponents``):
    K's irreps enter only through those, so a line of a user K table,
    listed and keyed in any order, has the bits of the built-in line with
    its exponent."""
    if not isinstance(group, SplitExtensionGroup):
        raise InvalidAction(
            f"group kind {group.kind!r} is not a split extension with cyclic "
            "normal part"
        )
    report = check_split_hypotheses(group, color)
    if not report.passed and not force:
        raise HypothesesViolated(report)
    h_group = group.h_group
    m, l = group.m, group.l
    ensure_trusted(h_group, irreps_h)
    ensure_trusted(CyclicGroup(m), irreps_k)
    # h_terms[u, i] is lambda_ui = |C_i| chi_u(rep_i) / d_u, rounded as
    # Python's int * complex / int; K is cyclic, so every d_v is 1
    labels = h_group._class_labels
    reps = np.flatnonzero(labels == np.arange(l))
    sizes = np.bincount(labels, minlength=l)[reps].astype(complex)
    h_terms = _over_degrees(_cmul(sizes, irreps_h.characters[:, reps]),
                            irreps_h._degrees[:, None])
    # row i holds alpha(h k^b) over b, with h the representative of C_i
    eig = _split_grid(h_terms, color.vector.reshape(l, m)[reps], _k_exponents(irreps_k, m))
    u, v = np.divmod(np.arange(eig.size), eig.shape[1])
    lines = SpectralLines(eig.ravel(), np.repeat(np.square(irreps_h._degrees), eig.shape[1]),
                          u, v, axes=(irreps_h.labels(), irreps_k.labels()))
    factors = None
    if eigenvectors:
        # coefficient vectors of each factor are its P-matrix columns; K's
        # columns, as rows in C order, are its characters times sqrt(1/m)
        p_h = build_p_matrix(h_group, irreps_h)
        _check_complete(irreps_k, m)
        k_rows = _frozen(irreps_k.stacks[1][:, :, 0, 0] * sqrt(1 / m))
        pairs = _memoized(group, ("pairs", irreps_h._degrees.tobytes()),
                          lambda: _grid_pairs(irreps_h, m))
        factors = KroneckerFactors(h_rows=p_h.matrix.T, k_rows=k_rows, pairs=pairs)
    return Spectrum(
        n=group.order,
        method="split",
        lines=lines,
        theorem_verified=report.passed,
        factors=factors,
    )


def _k_exponents(irreps_k: IrrepSet, m: int) -> np.ndarray:
    """Each K irrep's exponent e_v, with chi_v(k) = omega^{e_v} and
    omega = e^{2 pi i / m}, read off the trusted set's characters at the
    generator k (index 1).  A validated character lies within 1e-10 of its
    root, and the roots lie 2 pi / m apart, so rounding the angle finds
    e_v; the table's element order does not enter."""
    if m == 1:
        return np.zeros(len(irreps_k), dtype=np.int64)
    turns = np.angle(irreps_k.characters[:, 1]) * (m / (2 * math.pi))
    return np.rint(turns).astype(np.int64) % m


def _split_grid(h_terms: np.ndarray, rows: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """The split eigenvalues eig[u, v] = sum_i h_terms[u, i] sigma[v, i]
    over the H classes, with sigma[v, i] = sum_b rows[i, b] omega^{e_v b}.

    The K axis is one FFT of the (classes, m) rows: ``fft`` sums against
    omega^{-jb}, so sigma[v, i] is entry (-e_v) mod m of row i's transform.
    The H axis is one GEMM.  ``+ 0j`` turns a -0.0 into 0.0, as a sum
    started at 0 does.  A non-finite row gives non-finite eigenvalues
    without a warning, as in ``_over_degrees``."""
    with np.errstate(invalid="ignore"):
        transform = np.fft.fft(rows, axis=-1)
        return h_terms @ transform[:, -exponents % rows.shape[1]] + 0j


def _grid_pairs(irreps_h: IrrepSet, m: int) -> np.ndarray:
    """The (p, q) pairs of the split grid in line order (read-only): line
    (u, v) claims the pairs of its H-span and K-column q = v, p major, and
    lines run u major, so the grid is sorted by (u, v, p)."""
    h_irrep = np.repeat(np.arange(len(irreps_h)), np.square(irreps_h._degrees))
    p, q = np.divmod(np.arange(len(h_irrep) * m), m)
    order = np.lexsort((p, q, h_irrep[p]))
    return _frozen(np.stack((p[order], q[order]), axis=1), np.int64)


def _over_degrees(sums: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """``sums / degrees`` as Python divides a complex by an int: each part
    plus the other part times 0.0, over the degree.  numpy's own quotient
    multiplies by the reciprocal and may differ in the last bit."""
    out = np.empty(sums.shape, dtype=complex)
    # an infinite part times 0.0 is NaN, as in Python, without a warning
    with np.errstate(invalid="ignore"):
        out.real = (sums.real + sums.imag * 0.0) / degrees
        out.imag = (sums.imag - sums.real * 0.0) / degrees
    return out


def spectrum_metacyclic(m: int, l: int, r: int, layers: Sequence[Sequence[int]],
                        eigenvectors: bool = True) -> Spectrum:
    """Spectrum of a layered metacyclic color graph: the split route on the
    layers' indicator color, so the eigenvalues are the double sums
    lambda_{uv} = sum_t e^{2 pi i u t / l} sum_{s in S_t} e^{2 pi i v s / m}.

    ``layers[t]`` lists the K-exponents s with h^t k^s in the connection
    set; every layer must be closed under s -> r*s mod m.
    """
    group = _intern_new(MetacyclicGroup, m, l, r)
    m, l, r = group.m, group.l, group.r
    if len(layers) != l:
        raise InvalidAction(f"expected {l} layers, got {len(layers)}")
    exponents, ends = [], []
    for layer in layers:
        exponents.extend(layer)
        ends.append(len(exponents))
    layer_of = np.repeat(np.arange(l), np.diff(ends, prepend=0))
    if not all(issubclass(kind, (int, np.integer)) and kind is not bool
               for kind in set(map(type, exponents))):
        # ``_integer`` refuses the first exponent that is not an integer
        for t, s in zip(layer_of.tolist(), exponents):
            _integer(s, f"layers[{t}]")
    # h^t k^s has index t*m + s, with s mod m taken as Python takes it
    vector = np.zeros(group.order, dtype=complex)
    residues = np.fromiter(map(int, exponents), dtype=object, count=len(exponents)) % m
    vector[layer_of * m + residues.astype(np.int64)] = 1.0
    color = ColorFunction._of_vector(group, vector)
    # the first exponent, by layer and then by value, whose image leaves its layer
    indicators = color.vector.real.reshape(l, m)
    escapes = np.argwhere(indicators > indicators[:, np.arange(m) * r % m])
    if escapes.size:
        t, s = escapes[0].tolist()
        raise LayerNotInvariant(
            f"layer {t} is not closed under multiplication by r={r}: "
            f"exponent {s} maps to {(s * r) % m}",
            layer_index=t,
            exponent=s,
        )
    spectrum = _split_route(group, color, builtin_irreps(group.h_group), irreps_cyclic(m),
                            eigenvectors, False)
    return replace(spectrum, method="metacyclic")


RECONSTRUCTION_CAPACITY = 500


@dataclass(frozen=True)
class BlockDiagonalization:
    """Fourier blocks of alpha with the adjacency reconstruction residual.

    The adjacency equals P diag(I_{d_k} (x) block_k^T) P^H over the scaled
    coefficient basis P; ``block_eigenvalues`` extracts block spectra in
    closed form for degrees <= 2 and leaves larger blocks unextracted.
    """

    blocks: tuple
    p_matrix: PMatrix
    reconstruction_deviation: float
    block_eigenvalues: tuple

    def diagonal_matrix(self) -> np.ndarray:
        """diag(I_{d_k} (x) block_k^T), the adjacency in the basis P."""
        n = self.p_matrix.n
        out = np.zeros((n, n), dtype=complex)
        offset = 0
        for block in self.blocks:
            d = block.degree
            for lo in range(offset, offset + d * d, d):
                out[lo:lo + d, lo:lo + d] = block.matrix.T
            offset += d * d
        return out

    def spectrum(self) -> Spectrum:
        """The extracted block eigenvalues as a spectrum without vectors.

        Each eigenvalue of a degree-d block has multiplicity d.  Raises
        InvalidAction when a block of degree >= 3 was left unextracted.
        """
        for block, eigs in zip(self.blocks, self.block_eigenvalues):
            if eigs is None:
                raise InvalidAction(
                    f"method 'blocks' cannot extract eigenvalues of the degree-"
                    f"{block.degree} block {block.label!r} in closed form"
                )
        counts = np.array([len(eigs) for eigs in self.block_eigenvalues], dtype=np.int64)
        starts = np.cumsum(counts) - counts
        u = np.repeat(np.arange(len(counts)), counts)
        values = np.fromiter(itertools.chain.from_iterable(self.block_eigenvalues),
                             dtype=complex, count=int(counts.sum()))
        lines = SpectralLines(values, np.repeat([b.degree for b in self.blocks], counts), u,
                              np.arange(len(u)) - starts[u],
                              axes=([block.label for block in self.blocks],))
        return Spectrum(n=self.p_matrix.n, method="blocks", lines=lines)


def block_diagonalize(group: FiniteGroup, color: ColorFunction,
                      irrep_set: IrrepSet) -> BlockDiagonalization:
    """Push alpha through every irrep and certify the reconstruction.

    The check holds dense n x n matrices and runs two O(n^3) products, so
    orders above ``RECONSTRUCTION_CAPACITY`` raise CapacityExceeded first.
    """
    n = group.order
    if n > RECONSTRUCTION_CAPACITY:
        raise CapacityExceeded(
            f"reconstruction check is quadratic in n; {n} exceeds {RECONSTRUCTION_CAPACITY}"
        )
    _check_color_group(group, color)
    ensure_trusted(group, irrep_set)
    # the transforms of all irreps of one degree come from one running sum
    blocks = [None] * len(irrep_set)
    labels = irrep_set.labels()
    for positions, stack in _degree_batches(irrep_set):
        for k, total in zip(positions.tolist(), _fourier_sums(color.vector, stack)):
            blocks[k] = FourierBlock(label=labels[k], matrix=_frozen(total))
    blocks = tuple(blocks)
    p_matrix = build_p_matrix(group, irrep_set)
    decomposition = BlockDiagonalization(
        blocks=blocks,
        p_matrix=p_matrix,
        reconstruction_deviation=math.nan,
        block_eigenvalues=tuple(_small_block_eigenvalues(b.matrix) for b in blocks),
    )
    adjacency = adjacency_matrix(group, color)
    p = p_matrix.matrix
    recon = p @ decomposition.diagonal_matrix() @ p.conj().T
    return replace(decomposition, reconstruction_deviation=float(
        np.max(np.abs(adjacency.matrix - recon))))


def _small_block_eigenvalues(matrix: np.ndarray):
    d = matrix.shape[0]
    if d == 1:
        return (complex(matrix[0, 0]),)
    if d == 2:
        a, b, c, e = (complex(x) for x in matrix.ravel())
        trace = a + e
        # trace^2 - 4 det, written without the cancellation that costs
        # sqrt(eps) accuracy when the two eigenvalues (nearly) coincide
        disc = ((a - e) * (a - e) + 4 * b * c) ** 0.5
        return ((trace + disc) / 2, (trace - disc) / 2)
    return None
