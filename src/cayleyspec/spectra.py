"""Closed-form spectra and eigenvector bases of Cayley color graphs.

Three formula paths are provided, each producing labeled spectral lines
with explicit eigenvectors so an independent residual check can certify
every claim:

* ``spectrum_normal``: alpha is a class function; each irrep rho_k of G
  contributes the eigenvalue (1/d_k) * sum_g alpha(g) chi_k(g) with
  multiplicity d_k^2, on the span of rho_k's matrix coefficients.
* ``spectrum_split``: G = K x| H is a split extension with cyclic normal
  part; when alpha(h * g k g^{-1}) = alpha(h k) for all g in G (condition
  A) and alpha(h' h h'^{-1} k) = alpha(h k) for all h' in H (condition B),
  the eigenvalue at a pair (u, v) of H- and K-irreps is
  sum_i lambda_ui * sigma_vi over H-classes C_i, where
  lambda_ui = |C_i| chi_u(rep_i) / d_u and
  sigma_vi = (1/d_v) sum_k alpha(rep_i * k) chi_v(k),
  with multiplicity (d_u d_v)^2 on tensor products of coefficient vectors.
* ``spectrum_metacyclic``: C_m x| C_l with a layered connection set whose
  exponent layers are each closed under multiplication by r; eigenvalues
  are the double exponential sums
  lambda_{uv} = sum_t e^{2 pi i u t / l} sum_{s in S_t} e^{2 pi i v s / m}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import sqrt
from typing import Optional, Sequence

import numpy as np

from .cayley import ColorFunction, adjacency_matrix
from .errors import (
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
    conjugation_orbits_on_k,
)
from .irreps import (
    FourierBlock,
    IrrepSet,
    PMatrix,
    build_p_matrix,
    ensure_trusted,
    fourier_transform,
    unit_root,
)


@dataclass(frozen=True)
class SpectralLine:
    """One labeled eigenvalue with its multiplicity and basis vectors.

    ``eigenvectors`` holds one unit vector per row; ``vector_labels`` gives
    the coefficient indices (i, j) or (i, j, i2, j2) of each row.  The
    split path also records its per-class intermediate sums.
    """

    u: int
    v: Optional[int]
    labels: tuple
    eigenvalue: complex
    multiplicity: int
    eigenvectors: Optional[np.ndarray] = None
    vector_labels: Optional[tuple] = None
    h_class_terms: Optional[tuple] = None
    k_class_terms: Optional[tuple] = None


@dataclass
class Spectrum:
    """A full labeled spectrum; total multiplicity covers the whole space."""

    n: int
    method: str
    lines: list
    theorem_verified: bool = True

    @property
    def total_multiplicity(self) -> int:
        return sum(line.multiplicity for line in self.lines)

    def eigenvalues_expanded(self) -> list:
        values = []
        for line in self.lines:
            values.extend([line.eigenvalue] * line.multiplicity)
        return values

    def eigenvector_matrix(self) -> np.ndarray:
        rows = []
        for line in self.lines:
            if line.eigenvectors is None:
                raise ValueError(
                    f"line ({line.u}, {line.v}) carries no eigenvectors"
                )
            rows.append(line.eigenvectors)
        return np.vstack(rows).T

    def multiset(self, tol: float = 1e-9) -> list:
        return cluster_eigenvalues(self.eigenvalues_expanded(), tol)


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


def cluster_eigenvalues(values: Sequence[complex], tol: float = 1e-9) -> list:
    """Group values by chaining pairs within ``tol``.

    Returns (representative, count) pairs ordered by (Re, Im); the
    representative is the (Re, Im)-smallest member of its group.  Groups
    are formed over all pairs, not just sort-adjacent ones, so rounding
    noise that interleaves two nearby groups cannot split them.
    """
    items = [complex(v) for v in values]
    order = lambda z: (z.real, z.imag)
    out = []
    for indices in chain_groups(items, tol):
        members = [items[i] for i in indices]
        out.append((min(members, key=order), len(members)))
    return sorted(out, key=lambda pair: order(pair[0]))


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
    orbits = conjugation_orbits_on_k(group)
    witness_a = None
    for h in h_members:
        for orbit in orbits:
            base_k = orbit[0]
            base = color(group.mul(h, base_k))
            for other_k in orbit[1:]:
                value = color(group.mul(h, other_k))
                if value != base:
                    conjugator = _find_conjugator(group, base_k, other_k,
                                                  group.elements())
                    witness_a = ConditionWitness(
                        triple=(h, conjugator, base_k),
                        lhs_element=group.mul(h, other_k),
                        rhs_element=group.mul(h, base_k),
                        lhs_value=value,
                        rhs_value=base,
                    )
                    break
            if witness_a:
                break
        if witness_a:
            break
    witness_b = None
    h_classes = _conjugation_orbits(group, h_members, h_members)
    for cls in h_classes:
        base_h = cls.representative
        for k in k_members:
            base = color(group.mul(base_h, k))
            for other_h in cls.members:
                value = color(group.mul(other_h, k))
                if value != base:
                    conjugator = _find_conjugator(group, base_h, other_h, h_members)
                    witness_b = ConditionWitness(
                        triple=(conjugator, base_h, k),
                        lhs_element=group.mul(other_h, k),
                        rhs_element=group.mul(base_h, k),
                        lhs_value=value,
                        rhs_value=base,
                    )
                    break
            if witness_b:
                break
        if witness_b:
            break
    return HypothesisReport(
        condition_a=witness_a is None,
        condition_b=witness_b is None,
        witness_a=witness_a,
        witness_b=witness_b,
    )


def _find_conjugator(group, source, target, candidates):
    for x in candidates:
        if group.conjugate(source, x) == target:
            return x
    raise AssertionError("orbit members must be conjugate")


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
    elems = group.elements()
    values = [color(g) for g in elems]
    p_matrix = build_p_matrix(group, irrep_set) if eigenvectors else None
    lines = []
    col = 0
    for k_idx, rho in enumerate(irrep_set):
        d = rho.degree
        eig = sum(
            value * rho.character(g) for g, value in zip(elems, values) if value != 0
        ) / d
        vectors = None
        vector_labels = None
        if eigenvectors:
            span = range(col, col + d * d)
            vectors = p_matrix.matrix[:, span].T.copy()
            vectors.flags.writeable = False
            vector_labels = tuple(
                (i, j) for j in range(d) for i in range(d)
            )
        lines.append(SpectralLine(
            u=k_idx,
            v=None,
            labels=(rho.label,),
            eigenvalue=complex(eig),
            multiplicity=d * d,
            eigenvectors=vectors,
            vector_labels=vector_labels,
        ))
        col += d * d
    return Spectrum(n=group.order, method="normal", lines=lines)


def spectrum_split(group: SplitExtensionGroup, color: ColorFunction,
                   irreps_h: IrrepSet, irreps_k: IrrepSet,
                   eigenvectors: bool = True, force: bool = False,
                   check_representatives: bool = False) -> Spectrum:
    """Spectrum of a split-extension color graph from H- and K-irreps.

    Raises HypothesesViolated unless both invariance conditions hold;
    ``force=True`` computes anyway and marks the result unverified by the
    formula's hypotheses.  ``check_representatives`` re-evaluates the
    per-class sums at a second class member and asserts agreement.
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
    rep_indices = [h_group.index(cls.representative) for cls in h_classes]
    class_sizes = [cls.size for cls in h_classes]
    # alpha at rep_i * k^b is just the element (rep_index_i, b)
    alpha_rows = [
        [color((a, b)) for b in range(m)] for a in rep_indices
    ]
    second_rows = None
    if check_representatives:
        second_rows = []
        for cls in h_classes:
            if cls.size > 1:
                a2 = h_group.index(cls.members[1])
                second_rows.append([color((a2, b)) for b in range(m)])
            else:
                second_rows.append(None)
    lines = []
    h_elts = h_group.elements()
    for u_idx, rho_u in enumerate(irreps_h):
        d_u = rho_u.degree
        lambda_terms = tuple(
            size * rho_u.character(cls.representative) / d_u
            for size, cls in zip(class_sizes, h_classes)
        )
        h_cols = None
        if eigenvectors:
            stack = np.stack([rho_u.matrix(h) for h in h_elts])
            scale = sqrt(d_u / l)
            h_cols = [
                (scale * stack[:, i, j], (i, j))
                for j in range(d_u)
                for i in range(d_u)
            ]
        for v_idx, rho_v in enumerate(irreps_k):
            d_v = rho_v.degree
            sigma_terms = tuple(
                sum(row[b] * rho_v.character(b) for b in range(m) if row[b] != 0) / d_v
                for row in alpha_rows
            )
            if check_representatives:
                for i, row in enumerate(second_rows):
                    if row is None:
                        continue
                    redo = sum(
                        row[b] * rho_v.character(b) for b in range(m) if row[b] != 0
                    ) / d_v
                    assert abs(redo - sigma_terms[i]) <= 1e-10, (
                        f"class {i} sum differs between representatives: "
                        f"{sigma_terms[i]} vs {redo}"
                    )
            eig = sum(lt * st for lt, st in zip(lambda_terms, sigma_terms))
            vectors = None
            vector_labels = None
            if eigenvectors:
                k_stack = np.stack([rho_v.matrix(b) for b in range(m)])
                k_scale = sqrt(d_v / m)
                k_cols = [
                    (k_scale * k_stack[:, i2, j2], (i2, j2))
                    for j2 in range(d_v)
                    for i2 in range(d_v)
                ]
                rows = []
                vector_labels = []
                for h_vec, (i, j) in h_cols:
                    for k_vec, (i2, j2) in k_cols:
                        rows.append(np.kron(h_vec, k_vec))
                        vector_labels.append((i, j, i2, j2))
                vectors = np.vstack(rows)
                vectors.flags.writeable = False
                vector_labels = tuple(vector_labels)
            lines.append(SpectralLine(
                u=u_idx,
                v=v_idx,
                labels=(rho_u.label, rho_v.label),
                eigenvalue=complex(eig),
                multiplicity=(d_u * d_v) ** 2,
                eigenvectors=vectors,
                vector_labels=vector_labels,
                h_class_terms=lambda_terms,
                k_class_terms=sigma_terms,
            ))
    return Spectrum(
        n=group.order,
        method="split",
        lines=lines,
        theorem_verified=report.passed,
    )


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
    layer_sets = []
    for t, layer in enumerate(layers):
        reduced = sorted({int(s) % m for s in layer})
        as_set = set(reduced)
        for s in reduced:
            if (s * r) % m not in as_set:
                raise LayerNotInvariant(
                    f"layer {t} is not closed under multiplication by r={r}: "
                    f"exponent {s} maps to {(s * r) % m}",
                    layer_index=t,
                    exponent=s,
                )
        layer_sets.append(reduced)
    layer_sums = [
        [sum(unit_root(v * s, m) for s in layer) for layer in layer_sets]
        for v in range(m)
    ]
    h_vectors = None
    k_vectors = None
    if eigenvectors:
        h_vectors = [
            np.array([unit_root(u * a, l) for a in range(l)]) / sqrt(l)
            for u in range(l)
        ]
        k_vectors = [
            np.array([unit_root(v * b, m) for b in range(m)]) / sqrt(m)
            for v in range(m)
        ]
    lines = []
    for u in range(l):
        for v in range(m):
            eig = sum(
                unit_root(u * t, l) * layer_sums[v][t] for t in range(l)
            )
            vectors = None
            vector_labels = None
            if eigenvectors:
                vec = np.kron(h_vectors[u], k_vectors[v])[np.newaxis, :]
                vec.flags.writeable = False
                vectors = vec
                vector_labels = ((0, 0, 0, 0),)
            lines.append(SpectralLine(
                u=u,
                v=v,
                labels=(f"chi_{u}", f"chi_{v}"),
                eigenvalue=complex(eig),
                multiplicity=1,
                eigenvectors=vectors,
                vector_labels=vector_labels,
            ))
    return Spectrum(n=l * m, method="metacyclic", lines=lines)


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
        n = self.p_matrix.n
        out = np.zeros((n, n), dtype=complex)
        offset = 0
        for block in self.blocks:
            d = block.degree
            chunk = np.kron(np.eye(d), block.matrix.T)
            out[offset:offset + d * d, offset:offset + d * d] = chunk
            offset += d * d
        return out


def block_diagonalize(group: FiniteGroup, color: ColorFunction,
                      irrep_set: IrrepSet) -> BlockDiagonalization:
    """Push alpha through every irrep and certify the reconstruction."""
    ensure_trusted(group, irrep_set)
    blocks = tuple(fourier_transform(color, rho) for rho in irrep_set)
    p_matrix = build_p_matrix(group, irrep_set)
    n = group.order
    diag = np.zeros((n, n), dtype=complex)
    offset = 0
    eigen_lists = []
    for block in blocks:
        d = block.degree
        diag[offset:offset + d * d, offset:offset + d * d] = np.kron(
            np.eye(d), block.matrix.T
        )
        offset += d * d
        eigen_lists.append(_small_block_eigenvalues(block.matrix))
    adjacency = adjacency_matrix(group, color, ordering=p_matrix.ordering)
    recon = p_matrix.matrix @ diag @ p_matrix.matrix.conj().T
    deviation = float(np.max(np.abs(adjacency.matrix - recon)))
    return BlockDiagonalization(
        blocks=blocks,
        p_matrix=p_matrix,
        reconstruction_deviation=deviation,
        block_eigenvalues=tuple(eigen_lists),
    )


def _small_block_eigenvalues(matrix: np.ndarray):
    d = matrix.shape[0]
    if d == 1:
        return (complex(matrix[0, 0]),)
    if d == 2:
        trace = complex(matrix[0, 0] + matrix[1, 1])
        det = complex(matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0])
        disc = (trace * trace - 4 * det) ** 0.5
        return ((trace + disc) / 2, (trace - disc) / 2)
    return None
