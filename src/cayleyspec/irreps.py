"""Unitary irreducible representations for the supported group kinds.

Built-in constructions cover cyclic groups, abelian products, dihedral
groups, and split extensions of a cyclic complement acting on a cyclic
normal part (which includes the metacyclic family).  Arbitrary groups are
served through user-supplied tables validated by ``validate_irrep_set``.

Each irrep is stored as one read-only ``(n, d, d)`` array over a tuple of
elements, with its characters as the traces.  Built-ins fill the arrays
from ``unit_root`` tables over the group's canonical order; a user table
given as a per-element dict keeps the dict's order and may be partial
until validation.  Validation, the P-matrix, the Fourier transform and the
spectrum formulas all read those arrays.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import IrrepValidationFailed, IrrepsUnavailable
from .groups import (
    AbelianProductGroup,
    CyclicGroup,
    DihedralGroup,
    FiniteGroup,
    MetacyclicGroup,
    SplitExtensionGroup,
    _block_len,
    check_dense_bytes,
)


_QUARTER_TURNS = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}


def unit_root(numerator: int, denominator: int) -> complex:
    """e^{2 pi i numerator/denominator} with the exponent reduced into [0, 1).

    Quarter turns come out exact so that real character tables stay real.
    """
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    t = numerator % denominator
    quadrupled, remainder = divmod(4 * t, denominator)
    if remainder == 0:
        return _QUARTER_TURNS[quadrupled]
    return cmath.exp(2j * cmath.pi * (t / denominator))


def _root_table(n: int) -> np.ndarray:
    """``unit_root(t, n)`` for t in range(n)."""
    return np.array([unit_root(t, n) for t in range(n)], dtype=complex)


def _frozen(matrix: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(matrix, dtype=complex)
    out.flags.writeable = False
    return out


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``a * b`` by the textbook formula, as Python's complex
    type computes it; numpy's own product may fuse a multiply-add and
    differ in the last bit."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _character_sum(values: np.ndarray, characters: np.ndarray) -> complex:
    """sum_g values[g] * characters[g] over the nonzero values, term by term
    in element order, as a Python ``sum`` of complex products rounds it:
    one running sum of ``_cmul`` products, and ``+ 0j`` for the start at 0."""
    nz = np.flatnonzero(values)
    if not nz.size:
        return 0j
    return complex(np.add.accumulate(_cmul(values[nz], characters[nz]))[-1]) + 0j


class UnitaryIrrep:
    """One unitary matrix representation with its characters.

    ``stack[i]`` is the matrix at ``elements[i]`` and ``characters[i]`` its
    trace; both arrays are read-only.  ``UnitaryIrrep(label, {g: matrix})``
    builds one from a per-element table, in the table's order.
    """

    def __init__(self, label: str, matrices: dict):
        if not matrices:
            raise ValueError("irrep needs at least one matrix")
        arrays = [np.asarray(M, dtype=complex) for M in matrices.values()]
        degree = int(arrays[0].shape[0])
        for g, M in zip(matrices, arrays):
            if M.shape != (degree, degree):
                raise ValueError(
                    f"irrep {label!r}: matrix at {g!r} has shape {M.shape}, "
                    f"expected {(degree, degree)}"
                )
        self._install(label, tuple(matrices), np.stack(arrays))

    @classmethod
    def _from_stack(cls, label: str, elements: tuple, stack: np.ndarray):
        rho = cls.__new__(cls)
        rho._install(label, elements, stack)
        return rho

    def _install(self, label, elements, stack):
        self.label = label
        self.elements = elements
        self.stack = _frozen(stack)
        self.degree = int(stack.shape[1])
        self.characters = _frozen(np.trace(self.stack, axis1=1, axis2=2))

    @cached_property
    def _index(self) -> dict:
        return {g: i for i, g in enumerate(self.elements)}

    def _rows(self, elements: tuple):
        """Rows holding ``elements``, in order; a slice when they coincide."""
        if self.elements == elements:
            return slice(None)
        return np.array([self._index[g] for g in elements], dtype=np.int64)

    @property
    def matrices(self) -> dict:
        return dict(zip(self.elements, self.stack))

    def matrix(self, g) -> np.ndarray:
        return self.stack[self._index[g]]

    def character(self, g) -> complex:
        return complex(self.characters[self._index[g]])

    def __repr__(self):
        return f"<UnitaryIrrep {self.label!r} degree={self.degree}>"


class IrrepSet:
    """A complete system of pairwise inequivalent unitary irreps of a group.

    ``trusted`` marks sets whose construction is proven (built-ins) or that
    already passed ``validate_irrep_set``; untrusted sets are re-validated
    before they feed spectrum or basis computations.
    """

    def __init__(self, group: FiniteGroup, irreps: Iterable[UnitaryIrrep],
                 trusted: bool = False):
        self.group = group
        self.irreps = list(irreps)
        self.trusted = trusted

    def __iter__(self):
        return iter(self.irreps)

    def __len__(self):
        return len(self.irreps)

    def __getitem__(self, i) -> UnitaryIrrep:
        return self.irreps[i]

    def labels(self) -> list:
        return [rho.label for rho in self.irreps]

    def degrees(self) -> list:
        return [rho.degree for rho in self.irreps]

    def __repr__(self):
        return f"<IrrepSet of {self.group!r}: degrees {self.degrees()}>"


def irreps_cyclic(n: int) -> IrrepSet:
    """Characters chi_v(k^s) = e^{2 pi i v s / n}, ordered by v."""
    group = CyclicGroup(n)
    elems = tuple(group.elements())
    roots = _root_table(n)
    s = np.arange(n, dtype=np.int64)
    irreps = [
        UnitaryIrrep._from_stack(f"chi_{v}", elems, roots[v * s % n].reshape(n, 1, 1))
        for v in range(n)
    ]
    return IrrepSet(group, irreps, trusted=True)


def irreps_abelian(orders: Sequence[int]) -> IrrepSet:
    """Product characters of a direct product of cyclic groups."""
    group = AbelianProductGroup(orders)
    elems = tuple(group.elements())
    n = group.order
    digits = np.array(elems, dtype=np.int64).reshape(n, len(group.orders))
    tables = [_root_table(o) for o in group.orders]
    irreps = []
    for exps in itertools.product(*(range(o) for o in group.orders)):
        values = np.ones(n, dtype=complex)
        for t, (v, o) in enumerate(zip(exps, group.orders)):
            values = _cmul(values, tables[t][v * digits[:, t] % o])
        label = "chi_" + "_".join(str(v) for v in exps)
        irreps.append(UnitaryIrrep._from_stack(label, elems, values.reshape(n, 1, 1)))
    return IrrepSet(group, irreps, trusted=True)


def irreps_dihedral(n: int) -> IrrepSet:
    """Irreps of D_n for n >= 3, induced from the rotations.

    Linear characters send the rotation and the reflection to signs; the
    two-dimensional irrep E_j sends the rotation to diag(w^j, w^-j) with
    w = e^{2 pi i / n} and the reflection to the coordinate swap.
    """
    if n < 3:
        raise ValueError(f"dihedral irreps need n >= 3, got {n}")
    irrep_set = _cyclic_complement_irreps(DihedralGroup(n))
    # induced order: orbits {0} (and {n/2}) with both signs on the
    # reflection, then the orbits {j, -j}
    linear = ["A1", "A2"] if n % 2 else ["A1", "A2", "B1", "B2"]
    for rho, label in zip(irrep_set, linear + [f"E{j}" for j in range(1, (n + 1) // 2)]):
        rho.label = label
    return irrep_set


def _induction_orbits(group: SplitExtensionGroup) -> list:
    """Orbits of v -> v*r on Z_m for C_m x| C_l, in order of least member;
    IrrepsUnavailable unless the complement is cyclic and every orbit size
    divides l."""
    if not isinstance(group.h_group, CyclicGroup):
        raise IrrepsUnavailable(
            "induced construction needs a cyclic complement, got "
            f"{group.h_group.kind!r}"
        )
    m, l = group.m, group.l
    r = group.units[1] if l > 1 else 1 % m
    seen: set = set()
    orbits = []
    for v in range(m):
        if v in seen:
            continue
        orbit = [v]
        x = v * r % m
        while x != v:
            orbit.append(x)
            x = x * r % m
        if l % len(orbit) != 0:
            raise IrrepsUnavailable(
                f"orbit size {len(orbit)} does not divide complement order {l}"
            )
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def _cyclic_complement_irreps(group: SplitExtensionGroup) -> IrrepSet:
    """Irreps of C_m x| C_l built by inducing characters of the normal part.

    For each orbit of v -> v*r on Z_m (size t, t | l) and each w < l/t the
    irrep of degree t sends k to diag over the orbit's characters and h to
    the cyclic down-shift whose wrap-around entry carries e^{2 pi i w t / l}.
    So h^a k^b sends coordinate j to (j - a) mod t with the factor
    e^{2 pi i (w t q / l + orbit_j b / m)}, where q counts the wraps; each
    entry is one root of unity of order dividing l*m.
    """
    m, l, n = group.m, group.l, group.order
    elems = tuple(group.elements())
    roots = _root_table(n)
    a = np.arange(l, dtype=np.int64)[:, None, None]
    b = np.arange(m, dtype=np.int64)[None, :, None]
    entries = []
    for orbit in _induction_orbits(group):
        t = len(orbit)
        j = np.arange(t, dtype=np.int64)[None, None, :]
        rows = (j - a) % t
        wraps = -((j - a) // t)
        k_part = np.array(orbit, dtype=np.int64)[j] * b * l
        for w in range(l // t):
            stack = np.zeros((l, m, t, t), dtype=complex)
            stack[a, b, rows, j] = roots[(w * t * m * wraps + k_part) % n]
            rho = UnitaryIrrep._from_stack(
                f"X{orbit[0]}.{w}", elems, stack.reshape(n, t, t))
            entries.append((t, orbit[0], w, rho))
    entries.sort(key=lambda item: item[:3])
    return IrrepSet(group, [item[3] for item in entries], trusted=True)


def irreps_metacyclic(m: int, l: int, r: int) -> IrrepSet:
    """Irreps of the split metacyclic group C_m x| C_l with h k h^{-1} = k^r."""
    return _cyclic_complement_irreps(MetacyclicGroup(m, l, r))


def builtin_degrees(group: FiniteGroup) -> list:
    """``builtin_irreps(group).degrees()``, without building any matrix."""
    if isinstance(group, (CyclicGroup, AbelianProductGroup)):
        return [1] * group.order
    if isinstance(group, SplitExtensionGroup) and isinstance(group.h_group, CyclicGroup):
        # each orbit of size t induces l/t irreps of degree t, listed by t
        return sorted(len(orbit) for orbit in _induction_orbits(group)
                      for _ in range(group.l // len(orbit)))
    return builtin_irreps(group).degrees()


def builtin_irreps(group: FiniteGroup) -> IrrepSet:
    """The built-in irrep system for this group kind, or IrrepsUnavailable."""
    if isinstance(group, CyclicGroup):
        return irreps_cyclic(group.m)
    if isinstance(group, AbelianProductGroup):
        return irreps_abelian(group.orders)
    if isinstance(group, DihedralGroup) and group.n >= 3:
        return irreps_dihedral(group.n)
    if isinstance(group, SplitExtensionGroup) and isinstance(group.h_group, CyclicGroup):
        return _cyclic_complement_irreps(group)
    raise IrrepsUnavailable(
        f"no built-in irreps for group kind {group.kind!r} "
        "(supply a validated table instead)"
    )


@dataclass(frozen=True)
class ValidationIssue:
    check: str
    labels: tuple
    witness: object
    deviation: float

    def __str__(self):
        who = ",".join(self.labels)
        return (f"{self.check}[{who}] witness={self.witness!r} "
                f"deviation={self.deviation:.3e}")


@dataclass
class IrrepValidationReport:
    issues: list

    @property
    def passed(self) -> bool:
        return not self.issues

    def raise_if_failed(self) -> None:
        if self.issues:
            raise IrrepValidationFailed(self)


def _first_worst(chunks) -> tuple:
    """The largest value over consecutive arrays and the flat position where
    it first occurs.  NaN counts as largest; (0.0, None) when all are 0."""
    worst, where, offset = 0.0, None, 0
    for chunk in chunks:
        flat = chunk.ravel()
        k = int(np.argmax(flat))
        if not flat[k] <= worst:
            worst, where = float(flat[k]), offset + k
            if np.isnan(worst):
                break
        offset += flat.size
    return worst, where


def validate_irrep_set(group: FiniteGroup, irrep_set: IrrepSet) -> IrrepValidationReport:
    """Exhaustively check an irrep table against the group.

    Checks coverage, the homomorphism property over all element pairs and
    unitarity (each within 1e-10), irreducibility and pairwise
    orthogonality of characters (each within 1e-9), and completeness (sum
    of squared degrees equals the group order).
    The homomorphism sweep runs on the group kernel in blocks within its
    block budget.  Witnesses are the first elements (pairs in row-major
    order) attaining the worst deviation; a NaN deviation fails its check.
    """
    issues = []
    elems = tuple(group.elements())
    n = group.order
    idx = np.arange(n, dtype=np.int64)
    identity = group.index(group.identity)
    covered = []
    for rho in irrep_set:
        if rho.elements != elems:
            missing = [g for g in elems if g not in rho._index]
            if missing:
                issues.append(ValidationIssue(
                    "coverage", (rho.label,), missing[0], float(len(missing))))
                continue
        rows = rho._rows(elems)
        stack = rho.stack[rows]
        eye = np.eye(rho.degree)
        dev = float(np.max(np.abs(stack[identity] - eye)))
        if not dev <= 1e-10:
            issues.append(ValidationIssue(
                "identity", (rho.label,), group.identity, dev))
        # M[x y] - M[x] M[y] for blocks of rows x against all y: one gather
        # and one GEMM (x i, j) @ (j, y k) per block
        d = rho.degree
        right = stack.transpose(1, 0, 2).reshape(d, n * d)
        step = _block_len(2 * n * d * d)
        worst, at = _first_worst(
            np.abs(stack[group.mul_idx(x[:, None], idx)] - (stack[x].reshape(-1, d) @ right)
                   .reshape(len(x), d, n, d).transpose(0, 2, 1, 3)).max(axis=(2, 3))
            for x in (idx[lo:lo + step] for lo in range(0, n, step)))
        if not worst <= 1e-10:
            issues.append(ValidationIssue(
                "homomorphism", (rho.label,), (elems[at // n], elems[at % n]), worst))
        gram = np.matmul(stack.conj().transpose(0, 2, 1), stack)
        worst, at = _first_worst([np.abs(gram - eye).max(axis=(1, 2))])
        if not worst <= 1e-10:
            issues.append(ValidationIssue("unitarity", (rho.label,), elems[at], worst))
        characters = rho.characters[rows]
        norm = sum((np.abs(characters) ** 2).tolist()) / n
        if not abs(norm - 1.0) <= 1e-9:
            issues.append(ValidationIssue(
                "irreducibility", (rho.label,), None, float(abs(norm - 1.0))))
        covered.append((rho.label, characters))
    if covered:
        labels = [label for label, _ in covered]
        table = np.array([characters for _, characters in covered])
        step = _block_len(2 * len(covered))
        for lo in range(0, len(covered), step):
            inner = np.abs(table[lo:lo + step] @ table.conj().T / n)
            for i, j in zip(*np.nonzero(~(inner <= 1e-9))):
                if j > lo + i:
                    issues.append(ValidationIssue(
                        "orthogonality", (labels[lo + i], labels[j]), None,
                        float(inner[i, j])))
    total = sum(rho.degree ** 2 for rho in irrep_set)
    if total != n:
        issues.append(ValidationIssue(
            "completeness", tuple(irrep_set.labels()), None, float(abs(total - n))))
    report = IrrepValidationReport(issues)
    if report.passed:
        irrep_set.trusted = True
    return report


def ensure_trusted(group: FiniteGroup, irrep_set: IrrepSet) -> None:
    """Validate an untrusted irrep set, raising on failure."""
    if irrep_set.trusted:
        return
    validate_irrep_set(group, irrep_set).raise_if_failed()


@dataclass(frozen=True)
class FourierBlock:
    """One block sum_g f(g) rho(g) of the transform at a single irrep."""

    label: str
    matrix: np.ndarray

    @property
    def degree(self) -> int:
        return int(self.matrix.shape[0])


def _fourier_sums(values: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """sum_g values[g] * stacks[k, g] for each k, for stacks of shape
    (K, n, d, d): the terms with nonzero values, added in element order."""
    nz = np.flatnonzero(values)
    if nz.size == 0:
        return np.zeros((len(stacks),) + stacks.shape[2:], dtype=complex)
    terms = values[nz, None, None] * stacks[:, nz]
    # a running sum keeps the order of the terms; + 0.0 turns an
    # all-negative-zero entry into +0, as a sum started from 0 would
    return np.add.accumulate(terms, axis=1)[:, -1] + 0.0


def fourier_transform(f, irrep: UnitaryIrrep) -> FourierBlock:
    """sum over the group of f(g) * rho(g).

    ``f`` is any callable on elements, or the vector of its values over
    ``irrep.elements``.
    """
    values = f if isinstance(f, np.ndarray) else np.array(
        [f(g) for g in irrep.elements], dtype=complex)
    total = _fourier_sums(values, irrep.stack[None])[0]
    return FourierBlock(label=irrep.label, matrix=_frozen(total))


@dataclass(frozen=True)
class PMatrix:
    """Scaled matrix-coefficient basis, one column per coefficient.

    Column order: irreps in set order; within an irrep of degree d the
    column for coefficient (i, j) sits at offset j*d + i (column-major over
    the matrix entry), and each column holds sqrt(d/n) * rho(g)_{ij} over
    the canonical element indices.
    """

    matrix: np.ndarray
    column_labels: tuple

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])

    def column_span(self, label: str) -> range:
        columns = [c for c, (lbl, _, _) in enumerate(self.column_labels) if lbl == label]
        if not columns:
            raise KeyError(f"no columns for irrep {label!r}")
        return range(columns[0], columns[-1] + 1)


def _degree_batches(irrep_set: IrrepSet, elems: tuple):
    """Per degree: the positions of its irreps in the set, and their
    stacks over ``elems`` as one (K, n, d, d) array."""
    for d in sorted(set(irrep_set.degrees())):
        batch = [k for k, rho in enumerate(irrep_set) if rho.degree == d]
        yield batch, np.stack(
            [irrep_set[k].stack[irrep_set[k]._rows(elems)] for k in batch])


def p_matrix_bytes(n: int) -> int:
    """Bytes ``build_p_matrix`` allocates at its peak: the n x n result
    and one degree's stacked matrices, at most n*n entries."""
    return 32 * n * n


def build_p_matrix(group: FiniteGroup, irrep_set: IrrepSet) -> PMatrix:
    """Assemble the unitary change of basis from matrix coefficients.

    The result and one degree's stacks are the only large arrays: each
    batch is scaled in place before its copy into the result.
    """
    ensure_trusted(group, irrep_set)
    elems = tuple(group.elements())
    n = group.order
    total = sum(rho.degree ** 2 for rho in irrep_set)
    if total != n:
        raise IrrepValidationFailed(IrrepValidationReport([
            ValidationIssue("completeness", tuple(irrep_set.labels()), None,
                            float(abs(total - n)))
        ]))
    check_dense_bytes(p_matrix_bytes(n), f"the P matrix of order {n}")
    offsets = np.cumsum([0] + [rho.degree ** 2 for rho in irrep_set])
    p_mat = np.zeros((n, n), dtype=complex)
    for batch, stacks in _degree_batches(irrep_set, elems):
        d = stacks.shape[2]
        columns = (offsets[batch][:, None] + np.arange(d * d)).ravel()
        # the stacks are a fresh copy, so they are scaled in place
        stacks *= sqrt(d / n)
        # (k, g, i, j) -> (g, k, j, i): column offset_k + j*d + i
        p_mat[:, columns] = stacks.transpose(1, 0, 3, 2).reshape(n, -1)
    labels = tuple(
        (rho.label, i, j)
        for rho in irrep_set for j in range(rho.degree) for i in range(rho.degree)
    )
    return PMatrix(matrix=_frozen(p_mat), column_labels=labels)
