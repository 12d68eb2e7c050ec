"""Cayley color graphs: colors, adjacency matrices, block structure.

The graph of a color function alpha on a group G has adjacency
``A[i, j] = alpha(g_j * g_i^{-1})`` over the canonical element indices, so
row i lists the out-edges of vertex i.  For split extensions vertex
``a*m + b`` is ``h_a k^b``, so
``g_{j,b} g_{i,a}^{-1} = h_j k^{b-a} h_i^{-1}``: the matrix is an l x l grid
of m-by-m circulants indexed by coset pairs, and block (i, j) depends only
on the m values ``beta_ij(c) = alpha(h_j k^c h_i^{-1})``, which lie in the
coset ``h_j h_i^{-1} K`` since K is normal.  So block row i is zero but at
``h_j = t h_i`` for the cosets t in T, those the color's support meets:
T = {1, h, h^{-1}} on the paper's family.

The adjacency and the connection-set checks (the group's class labels,
plus a conjugation sweep that stops at a witness) run on the group's integer
kernel (``mul_idx``/``inv_idx``); they never touch irreps.  On a split
extension the adjacency is the block-sparse beta table itself, |T|*l*m
kernel products: its n x n matrix is filled in from it only when
something reads it (the edge-list export, dense certification).  Its
kernel indices are one entry of the group's memo, for the coset set T of
the last color read; a color that meets other cosets replaces it.
On the other kinds the matrix is gathered in row blocks within the
kernel's block budget, n*n products.  Either way the n x n matrix is
checked against ``groups.DENSE_BYTE_BUDGET`` before it is allocated.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import ConfigError, InvalidAction
from .groups import (
    FiniteGroup,
    MetacyclicGroup,
    SplitExtensionGroup,
    _block_len,
    _first_conjugator,
    _intern_new,
    _memoized,
    _read_only,
    _sorted_unique,
    check_dense_bytes,
    is_generating_set,
)

EDGE_LIST_HEADER = "# vertex v = h^(v div m) k^(v mod m)"


class ColorFunction:
    """A complex-valued function on a group; unlisted elements map to 0.

    The values are one read-only complex ``vector`` over canonical indices.
    """

    def __init__(self, group: FiniteGroup, values: Mapping):
        self.group = group
        items = list(values.items())
        indices = _element_indices(group, [g for g, _ in items], "color assigns")
        entries = np.array([complex(v) for _, v in items], dtype=complex)
        nonzero = entries != 0
        vector = np.zeros(group.order, dtype=complex)
        vector[indices[nonzero]] = entries[nonzero]
        vector.flags.writeable = False
        self.vector = vector

    @classmethod
    def _of_vector(cls, group: FiniteGroup, vector: np.ndarray) -> ColorFunction:
        """The color whose values over the canonical indices are the
        complex ``vector``, which it takes over and makes read-only."""
        color = cls.__new__(cls)
        color.group = group
        vector.flags.writeable = False
        color.vector = vector
        return color

    def __call__(self, g) -> complex:
        return self.vector.item(self.group.index(g))

    def support(self) -> set:
        return {g for g, _ in self.items()}

    def items(self) -> list:
        """(element, value) pairs of the support, in canonical index order."""
        nz = np.flatnonzero(self.vector)
        elems = self.group.elements()
        return [(elems[i], v) for i, v in zip(nz.tolist(), self.vector[nz].tolist())]

    @property
    def vanishes_at_identity(self) -> bool:
        return self(self.group.identity) == 0

    @property
    def is_real(self) -> bool:
        return not self.vector.imag.any()

    @property
    def is_symmetric(self) -> bool:
        """alpha(g) == conj(alpha(g^{-1})) everywhere (Hermitian adjacency)."""
        return bool(np.array_equal(self.vector[self.group.inv_idx], self.vector.conj()))

    @property
    def is_class_function(self) -> bool:
        return self.class_function_witness() is None

    def class_function_witness(self):
        """None, or (g, x, xgx^{-1}, alpha(g), alpha(xgx^{-1})) breaking constancy."""
        return self._class_witness

    @cached_property
    def _class_witness(self):
        """In the first class, by representative, whose values are not
        constant: the least member whose value differs from the
        representative's, with its first conjugator in element order."""
        group = self.group
        labels = group._class_labels
        differ = np.flatnonzero(self.vector != self.vector[labels])
        if not differ.size:
            return None
        rep = labels[differ].min()
        g = differ[labels[differ] == rep][0]
        elems = group.elements()
        x, _ = _first_conjugator(group, rep, np.arange(group.order) == g)
        return (elems[rep], elems[x], elems[g], self.vector.item(rep), self.vector.item(g))

    def __repr__(self):
        return (f"<ColorFunction on {self.group!r} with support "
                f"{np.count_nonzero(self.vector)}>")


def _element_index(group: FiniteGroup, g, role: str) -> int:
    """``group.index(g)``, or ConfigError after ``role`` if g is not an element."""
    try:
        return group.index(g)
    except KeyError:
        raise ConfigError(f"{role} {g!r}, which is not in the group") from None


def _element_indices(group: FiniteGroup, elements: list, role: str) -> np.ndarray:
    """``_element_index`` of each of ``elements``, as int64, in one array
    pass where the kind has one (``_indices``)."""
    indices = group._indices(elements)
    if indices is None:
        indices = np.array([_element_index(group, g, role) for g in elements], dtype=np.int64)
    return indices


def _check_color_group(group: FiniteGroup, color: ColorFunction) -> None:
    """InvalidAction unless ``color``, read by ``group``'s indices, lives on it."""
    if color.group is not group and color.group != group:
        raise InvalidAction(f"the color lives on {color.group!r}, not on {group!r}")


def color_from_set(group: FiniteGroup, subset: Iterable) -> ColorFunction:
    """Indicator color of a connection set."""
    return ColorFunction(group, {g: 1.0 for g in subset})


@dataclass(frozen=True)
class ConnectionSet:
    """A connection set with its structural flags and failure witnesses."""

    elements: tuple
    inverse_closed: bool
    contains_identity: bool
    generates: bool
    closure_size: int
    conjugation_closed: bool
    witnesses: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.elements)


def classify_connection_set(group: FiniteGroup, subset: Iterable) -> ConnectionSet:
    """Structural flags of a connection set, with the first failure witnesses.

    Witnesses follow index order: the first member whose inverse is
    missing, and for conjugation the first member whose class leaves the
    set, then the first conjugator ``x`` in element order with
    ``x s x^{-1}`` outside it, from a sweep that stops at the first block
    of conjugators holding one.
    """
    member_idx = _sorted_unique(_element_indices(group, list(subset), "connection set holds"))
    elems = group.elements()
    members = [elems[i] for i in member_idx.tolist()]
    witnesses = {}
    in_set = np.zeros(group.order, dtype=bool)
    in_set[member_idx] = True
    inverses = group.inv_idx[member_idx]
    missing = np.flatnonzero(~in_set[inverses])
    inverse_closed = missing.size == 0
    if not inverse_closed:
        first = missing[0]
        witnesses["inverse_closed"] = (members[first], elems[inverses[first]])
    # the least member whose class meets the complement of the set
    labels = group._class_labels
    leaves = np.zeros(group.order, dtype=bool)
    leaves[labels[~in_set]] = True
    escaping = member_idx[leaves[labels[member_idx]]]
    if escaping.size:
        seed = escaping[0]
        x, conjugate = _first_conjugator(group, seed, ~in_set)
        witnesses["conjugation_closed"] = (elems[x], elems[seed], elems[conjugate])
    generates, closure_size = is_generating_set(group, indices=member_idx)
    return ConnectionSet(
        elements=tuple(members),
        inverse_closed=inverse_closed,
        contains_identity=bool(in_set[group.index(group.identity)]),
        generates=generates,
        closure_size=closure_size,
        conjugation_closed="conjugation_closed" not in witnesses,
        witnesses=witnesses,
    )


class _FormedOnRead:
    """The ``matrix`` field of ``AdjacencyMatrix``: given, or assembled from
    the instance's ``blocks`` when first read and kept from then on."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, adjacency, owner=None):
        if adjacency is None:
            return None  # the field's default: form the matrix from blocks
        matrix = vars(adjacency)[self.slot]
        if matrix is None:
            _check_adjacency_bytes(adjacency.n)
            matrix = adjacency.blocks.assemble()
            matrix.flags.writeable = False
            vars(adjacency)[self.slot] = matrix
        return matrix

    def __set__(self, adjacency, matrix):
        vars(adjacency)[self.slot] = matrix


@dataclass(frozen=True, eq=False, repr=False)
class AdjacencyMatrix:
    """Adjacency of a Cayley color graph over the canonical indices.

    Holds either the dense ``matrix`` or, for a split extension, the
    ``blocks`` of its circulant grid; then ``matrix`` is assembled from
    the beta table on first read, and ``n`` and ``is_hermitian`` are
    answered from the table without it.  ``==`` is identity.
    """

    matrix: np.ndarray = _FormedOnRead()
    blocks: Optional["BlockDecomposition"] = None

    def __post_init__(self):
        if (vars(self)["_matrix"] is None) == (self.blocks is None):
            raise ValueError("an adjacency holds a matrix or blocks, exactly one of them")

    @property
    def n(self) -> int:
        if self.blocks is not None:
            return self.blocks.l * self.blocks.m
        return int(self.matrix.shape[0])

    @property
    def is_hermitian(self) -> bool:
        if self.blocks is None:
            return bool(np.array_equal(self.matrix, self.matrix.conj().T))
        # A^H is the grid of conj(beta_ji(-c)): each held block against its
        # mirror, which is zero where the mirror's coset t^{-1} is not held
        mirrored = self.blocks.mirrored()
        return bool(np.array_equal(self.blocks.values, np.conj(mirrored, out=mirrored)))

    def __repr__(self):
        held = "dense" if self.blocks is None else f"grid l={self.blocks.l} m={self.blocks.m}"
        return f"<AdjacencyMatrix n={self.n} {held}>"


def adjacency_matrix(group: FiniteGroup, color: ColorFunction) -> AdjacencyMatrix:
    """A[i, j] = alpha(g_j * g_i^{-1}), from the integer kernel alone.

    On a split extension every entry is a value of the beta table
    (``A[i*m + a, j*m + b] = beta_ij(b - a)``) or zero, so the result
    holds ``beta_blocks(group, color)``, |T|*l*m kernel products, and its
    ``matrix`` is ``blocks.assemble()``, filled in on first read.  Other
    kinds fill rows in blocks, each one gather of alpha at
    ``mul_idx(j, inv_idx[i])``.
    """
    _check_color_group(group, color)
    if isinstance(group, SplitExtensionGroup):
        return AdjacencyMatrix(blocks=beta_blocks(group, color))
    n = group.order
    _check_adjacency_bytes(n)
    columns = np.arange(n, dtype=np.int64)
    alpha = color.vector
    out = np.zeros((n, n), dtype=complex)
    step = _block_len(n)
    for lo in range(0, n, step):
        products = group.mul_idx(columns[None, :], group.inv_idx[lo:lo + step, None])
        out[lo:lo + step] = alpha[products]
    out.flags.writeable = False
    return AdjacencyMatrix(matrix=out)


@dataclass(frozen=True)
class BlockDecomposition:
    """The l x l grid of K-graph blocks of a split-extension color graph,
    held block-sparse.

    Block (i, j) is the adjacency of the K-graph of ``beta_ij``, where
    ``beta_ij(k^c) = alpha(h_j * k^c * h_i^{-1})``, whose values lie in the
    coset ``h_j h_i^{-1} K``.  For each coset t_s of T, block row i holds
    the block at ``j = columns[i, s]``, the index of ``t_s h_i`` in H, and
    ``values[i, s, c] = beta_ij(c)``: (l, |T|) and read-only (l, |T|, m)
    arrays.  Every other block is zero.  ``h_0 = e``, so ``columns[0]``
    lists T.
    """

    group: SplitExtensionGroup
    columns: np.ndarray
    values: np.ndarray

    @property
    def l(self) -> int:
        return self.group.l

    @property
    def m(self) -> int:
        return self.group.m

    @property
    def cosets(self) -> np.ndarray:
        return self.columns[0]

    @property
    def beta_values(self) -> np.ndarray:
        """The dense read-only (l, l, m) table ``beta_values[i, j, c]``, the
        zero blocks filled in, checked against the byte budget first."""
        l, m = self.l, self.m
        check_dense_bytes(16 * l * l * m, f"the ({l}, {l}, {m}) beta table")
        dense = np.zeros((l, l, m), dtype=complex)
        dense[np.arange(l)[:, None], self.columns] = self.values
        dense.flags.writeable = False
        return dense

    def beta(self, i: int, j: int) -> dict:
        """beta_ij as a map from K exponents to colors (zeros omitted)."""
        held = np.flatnonzero(self.columns[i] == j)
        if not held.size:
            return {}
        return {c: v for c, v in enumerate(self.values[i, held[0]].tolist()) if v != 0}

    def assemble(self) -> np.ndarray:
        """The adjacency; block (i, j) is the circulant ``[a, b] -> beta_ij(b - a)``.

        Row a of block (i, j) is ``beta_ij`` doubled and read from position
        m - a, a window of the doubled table.  The n x n result, zeros
        first, is the only large allocation: the |T| blocks of each block
        row are copied into it from those windows, with index arrays of
        l*|T| entries.
        """
        l, m = self.l, self.m
        doubled = np.concatenate((self.values, self.values), axis=-1)
        # windows[i, s, t] = doubled[i, s, t:t + m]
        windows = np.lib.stride_tricks.sliding_window_view(doubled, m, axis=-1)
        out = np.zeros((l * m, l * m), dtype=complex)
        # (i, s, a, b) -> row i*m + a, column columns[i, s]*m + b
        out.reshape(l, m, l, m)[np.arange(l)[:, None], :, self.columns] = windows[:, :, m:0:-1]
        return out

    def mirrored(self) -> np.ndarray:
        """A new (l, |T|, m) array: at [i, s], ``beta_ji(-c)`` for
        ``j = columns[i, s]``, the block that faces block (i, j) across the
        diagonal.  Its coset is ``t_s^{-1}``, at row j; where that coset is
        not in T the block is zero."""
        cosets = self.cosets
        position = np.full(self.l, -1)
        position[cosets] = np.arange(len(cosets))
        partner = position[self.group.h_group.inv_idx[cosets]]
        paired = np.flatnonzero(partner >= 0)
        # facing[i, s] = beta_ji at j = columns[i, s], held at coset t_s^{-1}
        facing = self.values[self.columns[:, paired], partner[paired]]
        mirrored = np.zeros(self.values.shape, dtype=complex)
        mirrored[:, paired, 0] = facing[:, :, 0]
        mirrored[:, paired, 1:] = facing[:, :, :0:-1]
        return mirrored


def beta_blocks(group: FiniteGroup, color: ColorFunction) -> BlockDecomposition:
    """Decompose the color graph of a split extension into its nonzero
    K-blocks: |T|*l*m kernel products, for the cosets T that the color's
    support meets (a NaN value counts as support)."""
    if not isinstance(group, SplitExtensionGroup):
        raise ValueError(f"group kind {group.kind!r} has no block decomposition")
    _check_color_group(group, color)
    cosets = np.flatnonzero(color.vector.reshape(group.l, group.m).any(axis=1))
    table = _memoized(group, "beta_index", lambda: _BetaIndex(group, cosets),
                      lambda kept: np.array_equal(kept.columns[0], cosets))
    values = color.vector[table.index]
    values.flags.writeable = False
    return BlockDecomposition(group=group, columns=table.columns, values=values)


class _BetaIndex:
    """The kernel indices of a block-sparse beta table for one coset set T:
    ``columns`` (l, |T|), the H index of ``t * h_i``, and ``index``
    (l, |T|, m), the index of ``h_j k^c h_i^{-1}`` at ``j = columns[i, s]``,
    both read-only and from the kernel alone (h_j k^c has index j*m + c)."""

    def __init__(self, group: SplitExtensionGroup, cosets: np.ndarray):
        l, m = group.l, group.m
        rows = np.arange(l, dtype=np.int64)
        self.columns = _read_only(group.h_group.mul_idx(cosets[None, :], rows[:, None]))
        self.index = _read_only(group.mul_idx(self.columns[:, :, None] * m + np.arange(m),
                                              group.inv_idx[rows * m][:, None, None]))
        self.nbytes = self.columns.nbytes + self.index.nbytes


def layers_from_set(group: SplitExtensionGroup, subset: Iterable) -> list:
    """Split a connection set into per-coset exponent layers S_0, ..., S_{l-1}.

    h^a k^b has index a*m + b, so the sorted indices run by layer, then exponent."""
    if not isinstance(group, SplitExtensionGroup):
        raise ValueError(f"group kind {group.kind!r} has no layer structure")
    a, b = np.divmod(_sorted_unique(
        _element_indices(group, list(subset), "connection set holds")), group.m)
    ends = np.searchsorted(a, np.arange(1, group.l + 1)).tolist()
    exponents = b.tolist()
    return [exponents[lo:hi] for lo, hi in zip([0] + ends, ends)]


def nonnormal_family(m: int, l: int, r: int):
    """The non-normal family: S = (K minus e) + {h, h^{-1}} on C_m x| C_l.

    Each coset layer of S is closed under conjugation by h, yet for m > 2
    the set itself is not closed under full conjugation, so the graph is a
    non-normal Cayley graph whose spectrum the layer formula still covers.
    Requires 1 < r < m and l >= 1.
    """
    if not 1 < r < m or l < 1:
        raise InvalidAction(f"family needs 1 < r < m and l >= 1, got r={r}, m={m}, l={l}")
    group = _intern_new(MetacyclicGroup, m, l, r)
    subset = {(0, b) for b in range(1, m)}
    subset.add((1 % l, 0))
    subset.add(((l - 1) % l, 0))
    return group, classify_connection_set(group, subset)


def _check_adjacency_bytes(n: int) -> None:
    """Raise CapacityExceeded before an n x n adjacency over the budget is formed."""
    check_dense_bytes(16 * n * n, f"the {n} x {n} adjacency")


def export_edge_list(adjacency: AdjacencyMatrix, path) -> None:
    """Write nonzero entries as ``i j re im`` lines after a header comment."""
    matrix = adjacency.matrix
    flat = np.flatnonzero(matrix)  # row-major; NaN counts as nonzero
    rows, cols = np.divmod(flat, adjacency.n)
    lines = [EDGE_LIST_HEADER] + [
        f"{i} {j} {value.real:.15g} {value.imag:.15g}"
        for i, j, value in zip(rows.tolist(), cols.tolist(),
                               matrix.ravel()[flat].tolist())
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def edge_list_bytes(n: int) -> int:
    """Bytes of the dense matrix ``read_edge_list`` fills."""
    return 16 * n * n


def read_edge_list(path, n: int) -> np.ndarray:
    """Rebuild a dense matrix from an exported edge list (ingest helper).

    Each ``i j`` pair may appear once; a repeat names both lines.  The
    n x n result must fit the dense byte budget.
    """
    check_dense_bytes(edge_list_bytes(n), f"an edge list of {n} vertices")
    out = np.zeros((n, n), dtype=complex)
    first_line = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ConfigError(f"{path}:{lineno}: expected 'i j re im', got {raw!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
                value = complex(float(parts[2]), float(parts[3]))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            if not cmath.isfinite(value):
                raise ConfigError(f"{path}:{lineno}: non-finite value {raw.strip()!r}")
            if not (0 <= i < n and 0 <= j < n):
                raise ConfigError(f"{path}:{lineno}: vertex out of range for n={n}")
            seen = first_line.setdefault((i, j), lineno)
            if seen != lineno:
                raise ConfigError(f"{path}:{lineno}: edge {i} {j} repeats line {seen}")
            out[i, j] = value
    return out
