"""Closed-form spectra and eigenvector bases of Cayley color graphs.

Three formula paths are provided, each producing labeled spectral lines
and, on request, eigenvectors in one of two claim forms (``Spectrum.vectors``
on the normal path, ``Spectrum.factors`` on the split and metacyclic
paths), so an independent residual check can certify every claim:

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
  exponent layers are each closed under multiplication by r; eigenvalues
  are the double exponential sums
  lambda_{uv} = sum_t e^{2 pi i u t / l} sum_{s in S_t} e^{2 pi i v s / m},
  the split formula with the singleton H-classes {h^t}.  The split and
  metacyclic paths share the eigenvalue grid and the character-sum kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from math import sqrt
from typing import Optional, Sequence

import numpy as np

from .cayley import ColorFunction, adjacency_matrix
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
    _conjugation_orbits,
    _integer,
    conjugation_orbits_on_k,
)
from .irreps import (
    FourierBlock,
    IrrepSet,
    PMatrix,
    _character_gather,
    _character_sums,
    _cmul,
    _degree_batches,
    _fourier_sums,
    _frozen,
    _root_table,
    build_p_matrix,
    ensure_trusted,
)


@dataclass(frozen=True, eq=False)
class SpectralLine:
    """One labeled eigenvalue with its multiplicity.

    The line's vectors are claimed by its spectrum; read them with
    ``Spectrum.vector_rows``.  ``eigenvectors`` is always None: it is kept
    only for readers of the old per-line rows.  The split path also
    records its per-class intermediate sums.

    ``==`` is identity, as for ``Spectrum``.
    """

    u: int
    v: Optional[int]
    labels: tuple
    eigenvalue: complex
    multiplicity: int
    eigenvectors: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    h_class_terms: Optional[tuple] = field(default=None, kw_only=True)
    k_class_terms: Optional[tuple] = field(default=None, kw_only=True)


@dataclass(frozen=True, eq=False)
class KroneckerFactors:
    """The factored basis of a split or metacyclic spectrum.

    Vector t is ``kron(h_rows[h], k_rows[k])`` with ``(h, k) = pairs[t]``:
    the rows are H- and K-coefficient vectors, of lengths l and m.  The
    arrays are read-only.  ``==`` is identity; compare the arrays' bytes
    instead.
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

    A spectrum claims N vectors in one form, or none: ``vectors``, an
    (N, n) complex array (the normal route), or ``factors``, Kronecker
    factors with N pairs (the split and metacyclic routes).  Line k owns
    vectors ``offsets[k]:offsets[k + 1]`` with offsets the running sum of
    the multiplicities, capped at N.

    ``==`` is identity: the fields hold arrays, which have no single truth
    value.  Compare eigenvalue multisets with ``verify.compare_spectra``
    and vectors with ``vector_rows(0, n).tobytes()``.
    """

    n: int
    method: str
    lines: list
    theorem_verified: bool = True
    factors: Optional[KroneckerFactors] = None
    vectors: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.vectors is not None and self.factors is not None:
            raise ValueError("a spectrum claims its vectors as `vectors` or as "
                             "`factors`, not both")

    @property
    def total_multiplicity(self) -> int:
        return sum(line.multiplicity for line in self.lines)

    @property
    def claims_vectors(self) -> bool:
        return self.vectors is not None or self.factors is not None

    def vector_count(self) -> int:
        """N, the number of vectors claimed."""
        if self.factors is not None:
            return len(self.factors.pairs)
        return 0 if self.vectors is None else len(self.vectors)

    def eigenvalues_expanded(self) -> list:
        values = []
        for line in self.lines:
            values.extend([line.eigenvalue] * line.multiplicity)
        return values

    def _vector_offsets(self) -> np.ndarray:
        """Where each line's vectors start; the last entry is where the
        last line's end."""
        counts = [line.multiplicity for line in self.lines]
        return np.minimum(np.cumsum([0] + counts), self.vector_count())

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
        return cluster_eigenvalues(self.eigenvalues_expanded())


def chain_groups(values: Sequence[complex], tol: float) -> list:
    """Partition indices of ``values`` by chaining pairs within ``tol``.

    Two indices chain when ``abs(a - b) <= tol``; groups are the connected
    components, listed by smallest index, each in ascending order.  Exactly
    equal finite values are merged first; the distinct ones are binned on a
    grid and compared, by that same predicate, only with values in their own
    and the eight neighbouring cells.  Cells are ``2 * tol`` wide, so even
    after rounding in the cell coordinates every chaining partner lies in
    one of those cells.  Non-finite values chain with nothing (their
    differences are never <= a finite ``tol``).
    """
    if not abs(tol) < math.inf:
        raise ValueError(f"chaining distance must be finite, got {tol!r}")
    reps = []      # first index of each distinct value
    slot = []      # index -> position of its value in ``reps``
    distinct = {}  # mergeable value -> position in ``reps``
    for idx, value in enumerate(values):
        mergeable = (tol >= 0 and math.isfinite(value.real)
                     and math.isfinite(value.imag))
        if mergeable and value in distinct:
            slot.append(distinct[value])
            continue
        if mergeable:
            distinct[value] = len(reps)
        slot.append(len(reps))
        reps.append(idx)
    parent = list(range(len(reps)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if tol > 0:
        width = 2 * tol
        cells = {}
        for pos in distinct.values():
            value = values[reps[pos]]
            cx, cy = math.floor(value.real / width), math.floor(value.imag / width)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for other in cells.get((cx + dx, cy + dy), ()):
                        if abs(values[reps[other]] - value) <= tol:
                            parent[find(other)] = find(pos)
            cells.setdefault((cx, cy), []).append(pos)
    groups = {}
    for idx in range(len(values)):
        groups.setdefault(find(slot[idx]), []).append(idx)
    return list(groups.values())


def _value_order(z: complex) -> tuple:
    """Sort key (Re, Im), with -0.0 before 0.0 in either part."""
    return (z.real, z.imag, math.copysign(1.0, z.real), math.copysign(1.0, z.imag))


def cluster_eigenvalues(values: Sequence[complex], tol: float = 1e-9) -> list:
    """Group values by chaining pairs within ``tol``.

    Returns (representative, count) pairs ordered by ``_value_order``; the
    representative is the smallest member of its group in that order, so
    it does not depend on the order of ``values``.  Groups are formed over
    all pairs, not just sort-adjacent ones, so rounding noise that
    interleaves two nearby groups cannot split them.
    """
    items = [complex(v) for v in values]
    out = []
    for indices in chain_groups(items, tol):
        members = [items[i] for i in indices]
        out.append((min(members, key=_value_order), len(members)))
    return sorted(out, key=lambda pair: _value_order(pair[0]))


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


def _split_parts(group: FiniteGroup):
    parts = group.split_parts() if hasattr(group, "split_parts") else None
    if parts is None:
        raise InvalidAction(
            f"group kind {group.kind!r} has no distinguished split structure"
        )
    return parts


def check_split_hypotheses(group: FiniteGroup, color: ColorFunction) -> HypothesisReport:
    """Test both invariance conditions of the split-extension formula.

    Condition A ranges over (h, g, k) in H x G x K and asks
    alpha(h * g k g^{-1}) == alpha(h k); it is swept orbitwise using the
    precomputed conjugation orbits on K.  Condition B ranges over
    (h', h, k) in H x H x K and asks alpha(h' h h'^{-1} * k) == alpha(h k).
    Witnesses carry the violating triple and both alpha values.
    """
    k_members, h_members = _split_parts(group)
    elems = group.elements()
    h_idx = np.array([group.index(h) for h in h_members], dtype=np.int64)
    k_idx = np.array([group.index(k) for k in k_members], dtype=np.int64)
    # table[i, j] = alpha(h_i k_j), read from one kernel gather
    table = color.vector[group.mul_idx(h_idx[:, None], k_idx[None, :])]

    def witness(triple, i, j, base_i, base_j):
        """alpha(h_i k_j) differs from alpha(h_base_i k_base_j)."""
        return ConditionWitness(
            triple=triple,
            lhs_element=group.mul(h_members[i], k_members[j]),
            rhs_element=group.mul(h_members[base_i], k_members[base_j]),
            lhs_value=table[i, j].item(),
            rhs_value=table[base_i, base_j].item(),
        )

    # condition A: the first violation in the order h, K-orbit, orbit member
    k_pos = {k: j for j, k in enumerate(k_members)}
    pairs = np.array([(k_pos[orbit[0]], k_pos[k]) for orbit in conjugation_orbits_on_k(group)
                      for k in orbit[1:]], dtype=np.int64).reshape(-1, 2)
    bad = np.flatnonzero(table[:, pairs[:, 1]] != table[:, pairs[:, 0]])
    witness_a = None
    if bad.size:
        i, c = divmod(int(bad[0]), len(pairs))
        base_j, j = pairs[c].tolist()
        members, first = next(_conjugation_orbits(
            group, k_idx[base_j:base_j + 1], np.arange(group.order)))
        g = elems[first[np.searchsorted(members, k_idx[j])]]
        witness_a = witness((h_members[i], g, k_members[base_j]), i, j, i, base_j)
    # condition B: the first violation in the order H-class, k, class member;
    # classes and conjugators as positions in h_members
    if isinstance(group, SplitExtensionGroup):
        # h' h h'^{-1} stays in H, and (a, 0) sits at position a
        h_classes = group.h_group._class_orbits
    else:
        h_pos = np.empty(group.order, dtype=np.int64)
        h_pos[h_idx] = np.arange(h_idx.size)
        h_classes = ((h_pos[members], h_pos[first]) for members, first
                     in _conjugation_orbits(group, h_idx, h_idx))
    witness_b = None
    for members, first in h_classes:
        bad = np.flatnonzero((table[members] != table[members[0]]).T)
        if bad.size:
            j, p = divmod(int(bad[0]), members.size)
            base_i, i = int(members[0]), int(members[p])
            witness_b = witness((h_members[first[p]], h_members[base_i], k_members[j]),
                                i, j, base_i, j)
            break
    return HypothesisReport(
        condition_a=witness_a is None,
        condition_b=witness_b is None,
        witness_a=witness_a,
        witness_b=witness_b,
    )


def spectrum_normal(group: FiniteGroup, color: ColorFunction, irrep_set: IrrepSet,
                    eigenvectors: bool = True) -> Spectrum:
    """Spectrum of a normal color graph (alpha a class function on G)."""
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
                           _character_gather(irrep_set, tuple(group.elements())))
    lines = []
    for k_idx, (rho, total) in enumerate(zip(irrep_set, sums.tolist())):
        d = rho.degree
        lines.append(SpectralLine(
            u=k_idx,
            v=None,
            labels=(rho.label,),
            eigenvalue=total / d,
            multiplicity=d * d,
        ))
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
    formula's hypotheses.
    """
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
    if irreps_h.group != h_group:
        raise InvalidAction("H-irreps belong to a different complement group")
    if irreps_k.group != CyclicGroup(m):
        raise InvalidAction("K-irreps must belong to the cyclic normal part")
    ensure_trusted(h_group, irreps_h)
    ensure_trusted(irreps_k.group, irreps_k)
    h_classes = h_group.conjugacy_classes()
    reps = [h_group.index(cls.representative) for cls in h_classes]
    # h_terms[u][i] is lambda_ui; K is cyclic, so every d_v is 1
    h_chars = _character_gather(irreps_h, tuple(irreps_h.group.elements()))(0, len(irreps_h), reps)
    h_terms = [tuple(cls.size * c / rho.degree for cls, c in zip(h_classes, chars))
               for rho, chars in zip(irreps_h, h_chars.tolist())]
    # row i holds alpha(h k^b) over b, with h the representative of C_i
    lines = _grid_lines(h_terms, color.vector.reshape(l, m)[reps],
                        _character_gather(irreps_k, tuple(irreps_k.group.elements())),
                        irreps_h.labels(), irreps_k.labels(),
                        np.square(irreps_h.degrees()).tolist(), record_terms=True)
    factors = None
    if eigenvectors:
        # coefficient vectors of each factor are its P-matrix columns; line
        # (u, v) claims the pairs (p, q) of its H-span and K-column q = v,
        # p major, and lines run u major: sort the grid by (u, v, p)
        p_h = build_p_matrix(h_group, irreps_h)
        p_k = build_p_matrix(irreps_k.group, irreps_k)
        h_irrep = np.repeat(np.arange(len(irreps_h)), np.square(irreps_h.degrees()))
        p, q = np.divmod(np.arange(l * m), m)
        order = np.lexsort((p, q, h_irrep[p]))
        factors = KroneckerFactors(h_rows=p_h.matrix.T, k_rows=p_k.matrix.T,
                                   pairs=_frozen_pairs(p[order], q[order]))
    return Spectrum(
        n=group.order,
        method="split",
        lines=lines,
        theorem_verified=report.passed,
        factors=factors,
    )


def _grid_lines(h_terms: Sequence, rows: np.ndarray, k_gather, h_labels: list,
                k_labels: list, multiplicities: list, record_terms: bool) -> list:
    """Lines (u, v), u major, of the split formula over the H-classes i and
    the degree-one K-irreps v.  ``sigma[v, i] = sum_b rows[i, b] chi_v(k^b)``
    takes one ``_character_sums`` call per class row; the eigenvalue
    ``sum_i h_terms[u][i] sigma[v, i]`` adds ``_cmul`` products in class
    order from zeros, as Python's ``sum`` rounds it."""
    sigma = np.array([_character_sums(row, len(k_labels), k_gather) for row in rows]).T
    eig = np.zeros((len(h_terms), len(k_labels)), dtype=complex)
    for i, lam in enumerate(np.array(h_terms).T):
        eig += _cmul(lam[:, np.newaxis], sigma[:, i])
    k_terms = [tuple(sums) for sums in sigma.tolist()] if record_terms else None
    return [SpectralLine(
        u=u,
        v=v,
        labels=(h_label, k_label),
        eigenvalue=eigenvalue,
        multiplicity=multiplicity,
        h_class_terms=h_terms[u] if record_terms else None,
        k_class_terms=k_terms[v] if record_terms else None,
    ) for u, (h_label, multiplicity, row) in enumerate(zip(h_labels, multiplicities, eig.tolist()))
        for v, (k_label, eigenvalue) in enumerate(zip(k_labels, row))]


def _frozen_pairs(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    pairs = np.stack((h, k), axis=1)
    pairs.flags.writeable = False
    return pairs


def spectrum_metacyclic(m: int, l: int, r: int, layers: Sequence[Sequence[int]],
                        eigenvectors: bool = True) -> Spectrum:
    """Spectrum of a layered metacyclic color graph by exponential sums.

    ``layers[t]`` lists the K-exponents s with h^t k^s in the connection
    set; every layer must be closed under s -> r*s mod m.
    """
    group = MetacyclicGroup(m, l, r)
    m, l, r = group.m, group.l, group.r
    if len(layers) != l:
        raise InvalidAction(f"expected {l} layers, got {len(layers)}")
    indicators = np.zeros((l, m), dtype=complex)
    for t, layer in enumerate(layers):
        indicators[t, [_integer(s, f"layers[{t}]") % m for s in layer]] = 1
    # the first exponent, by layer and then by value, whose image leaves its layer
    escapes = np.argwhere(indicators.real > indicators.real[:, np.arange(m) * r % m])
    if escapes.size:
        t, s = escapes[0].tolist()
        raise LayerNotInvariant(
            f"layer {t} is not closed under multiplication by r={r}: "
            f"exponent {s} maps to {(s * r) % m}",
            layer_index=t,
            exponent=s,
        )
    # the split formula with the singleton H-classes {h^t}: lambda_ut is
    # e^{2 pi i u t / l}, and sigma_vt is layer t's sum of K-characters
    roots_l, roots_m = _root_table(l), _root_table(m)
    u_range, v_range = np.arange(l), np.arange(m)
    h_roots = roots_l[np.outer(u_range, u_range) % l]
    lines = _grid_lines(
        h_roots, indicators, lambda lo, hi, nz: roots_m[np.arange(lo, hi)[:, np.newaxis] * nz % m],
        [f"chi_{u}" for u in range(l)], [f"chi_{v}" for v in range(m)], [1] * l,
        record_terms=False)
    factors = None
    if eigenvectors:
        h_vectors = h_roots / sqrt(l)
        k_vectors = roots_m[np.outer(v_range, v_range) % m] / sqrt(m)
        h_vectors.flags.writeable = False
        k_vectors.flags.writeable = False
        # line (u, v) claims the Kronecker product of h_vectors[u] and k_vectors[v]
        factors = KroneckerFactors(h_rows=h_vectors, k_rows=k_vectors,
                                   pairs=_frozen_pairs(*np.divmod(np.arange(l * m), m)))
    return Spectrum(n=l * m, method="metacyclic", lines=lines, factors=factors)


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
        lines = []
        for u_idx, (block, eigs) in enumerate(
                zip(self.blocks, self.block_eigenvalues)):
            if eigs is None:
                raise InvalidAction(
                    f"method 'blocks' cannot extract eigenvalues of the degree-"
                    f"{block.degree} block {block.label!r} in closed form"
                )
            for v_idx, value in enumerate(eigs):
                lines.append(SpectralLine(
                    u=u_idx,
                    v=v_idx,
                    labels=(block.label,),
                    eigenvalue=complex(value),
                    multiplicity=block.degree,
                ))
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
    ensure_trusted(group, irrep_set)
    elems = tuple(group.elements())
    # the transforms of all irreps of one degree come from one running sum
    blocks = [None] * len(irrep_set)
    for batch, stacks in _degree_batches(irrep_set, elems):
        for k, total in zip(batch, _fourier_sums(color.vector, stacks)):
            blocks[k] = FourierBlock(label=irrep_set[k].label, matrix=_frozen(total))
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
