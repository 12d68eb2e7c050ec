"""Unitary irreducible representations for the supported group kinds.

Built-in constructions cover cyclic groups, abelian products, dihedral
groups, and split extensions of a cyclic complement acting on a cyclic
normal part (which includes the metacyclic family).  Arbitrary groups are
served through user-supplied tables validated by ``validate_irrep_set``.

An ``IrrepSet`` is held as columns over the group's canonical order: a
labels tuple, a degrees array, one read-only ``(K_d, n, d, d)`` stack per
degree d with the set positions of its irreps, and one read-only
``(len, n)`` table of characters (the traces).  Built-ins fill each stack
in one vectorised pass from a cached ``unit_root`` table; indexing forms
read-only ``UnitaryIrrep`` views on demand.  A user table is a
``UnitaryIrrep`` given as a per-element dict, stored with its elements
sorted (the canonical order of every group kind), and ``IrrepSet`` stacks
such irreps into columns.  Every consumer reads the columns row for row.

The built-in constructions run on the library's interned groups
(``groups._intern``), so a held group keeps its built-in set and that
set's P matrix in its own memo (``groups._memoized``).  A user table
reads and writes no memo.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidAction, IrrepValidationFailed, IrrepsUnavailable
from .groups import (
    AbelianProductGroup,
    CyclicGroup,
    DihedralGroup,
    FiniteGroup,
    MetacyclicGroup,
    SplitExtensionGroup,
    _block_len,
    _intern,
    _intern_new,
    _memoized,
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


@functools.lru_cache(maxsize=32)
def _root_table(n: int) -> np.ndarray:
    """``unit_root(t, n)`` for t in range(n): one read-only array per n,
    shared by every caller (they only gather from it)."""
    return _frozen(np.array([unit_root(t, n) for t in range(n)], dtype=complex))


def _frozen(values, dtype=complex) -> np.ndarray:
    out = np.ascontiguousarray(values, dtype=dtype)
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


def _character_sums(values: np.ndarray, count: int, gather) -> np.ndarray:
    """For each of ``count`` table rows k, sum_g values[g] * table[k, g]
    over the nonzero values in element order, rounded as Python's ``sum``:
    a running sum of ``_cmul`` products, ``+ 0j`` for the start at 0.
    ``gather(lo, hi, nz)`` returns rows lo..hi-1 at ``nz``; a chunk's four
    complex temporaries share one ``_block_len`` budget."""
    nz = np.flatnonzero(values)
    sums = np.zeros(count, dtype=complex)
    if nz.size:
        step = _block_len(8 * nz.size)
        for lo in range(0, count, step):
            terms = _cmul(values[nz], gather(lo, min(lo + step, count), nz))
            sums[lo:lo + step] = np.add.accumulate(terms, axis=1)[:, -1]
    return sums + 0j


def _character_gather(irrep_set: IrrepSet):
    """``gather`` for ``_character_sums`` over the characters of
    ``irrep_set``."""
    return lambda lo, hi, nz: irrep_set.characters[lo:hi, nz]


class UnitaryIrrep:
    """One unitary matrix representation with its characters.

    ``stack[i]`` is the matrix at ``elements[i]`` and ``characters[i]`` its
    trace.  An irrep is read-only: its arrays and its attributes.
    ``UnitaryIrrep(label, {g: matrix})`` builds one from a per-element
    table, with the elements sorted; the irreps of an ``IrrepSet`` are
    views of its columns.
    """

    def __init__(self, label: str, matrices: dict):
        if not matrices:
            raise ValueError("irrep needs at least one matrix")
        try:
            elements = tuple(sorted(matrices))
        except TypeError:
            raise ValueError(f"irrep {label!r}: its elements cannot be sorted") from None
        arrays = [np.asarray(matrices[g], dtype=complex) for g in elements]
        degree = int(arrays[0].shape[0])
        for g, M in zip(elements, arrays):
            if M.shape != (degree, degree):
                raise ValueError(
                    f"irrep {label!r}: matrix at {g!r} has shape {M.shape}, "
                    f"expected {(degree, degree)}"
                )
        stack = _frozen(np.stack(arrays))
        self._fill(label, elements, stack, _frozen(np.trace(stack, axis1=1, axis2=2)))

    def _fill(self, label, elements, stack, characters):
        vars(self).update(label=label, elements=elements, stack=stack,
                          degree=int(stack.shape[1]), characters=characters)

    def __setattr__(self, name, value):
        raise AttributeError(f"a UnitaryIrrep is read-only; cannot set {name!r}")

    @cached_property
    def _index(self) -> dict:
        return {g: i for i, g in enumerate(self.elements)}

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

    Held as columns (see the module docstring): ``stacks[d]`` is the
    read-only ``(K_d, n, d, d)`` stack of the irreps of degree d, at the
    set positions ``positions[d]``, in ascending d; ``characters`` is the
    read-only ``(len, n)`` table.  ``IrrepSet(group, [UnitaryIrrep, ...])``
    stacks per-irrep objects into columns; one whose elements are not the
    group's is kept whole for validation to report, with no stack and a
    NaN character row, and its set cannot be trusted.

    ``trusted`` marks sets whose construction is proven (built-ins) or that
    already passed ``validate_irrep_set``; untrusted sets are re-validated
    before they feed spectrum or basis computations.

    A built-in set keeps its P matrix in the memo of its own group
    (``groups._memoized``), as that group keeps the set; a set built from
    per-irrep objects never reads or writes a memo.
    """

    _builtin = False

    def __init__(self, group: FiniteGroup, irreps: Iterable[UnitaryIrrep],
                 trusted: bool = False):
        irreps, elements = list(irreps), tuple(group.elements())
        loose, shared, covers = {}, None, False
        for k, rho in enumerate(irreps):
            # irreps that share one element tuple, or its items, compare once
            if shared is None or rho.elements != shared:
                shared, covers = rho.elements, rho.elements == elements
            if not covers:
                loose[k] = rho
        if loose and trusted:
            raise ValueError(f"irrep {irreps[min(loose)].label!r} does not cover "
                             f"the elements of {group!r}, so the set cannot be trusted")
        covered = [rho for k, rho in enumerate(irreps) if k not in loose]
        stacks = {d: np.stack([rho.stack for rho in covered if rho.degree == d])
                  for d in sorted({rho.degree for rho in covered})}
        self._set_columns(group, [rho.label for rho in irreps],
                          [rho.degree for rho in irreps], stacks, trusted, loose)

    @classmethod
    def _built(cls, group: FiniteGroup, labels: Sequence[str], stacks: dict) -> IrrepSet:
        """A trusted set from built-in stacks by ascending degree, its
        irreps listed in that order."""
        irrep_set = cls.__new__(cls)
        degrees = [d for d, stack in stacks.items() for _ in range(len(stack))]
        irrep_set._set_columns(group, labels, degrees, stacks, True, {})
        irrep_set._builtin = True
        return irrep_set

    def _set_columns(self, group, labels, degrees, stacks, trusted, loose):
        """Freeze each degree's stack (``stacks`` by ascending degree) at
        the positions of its covered irreps, and take the characters as its
        batched traces, straight into the table's rows where those
        positions are contiguous; a 1 x 1 trace is its entry plus 0.0."""
        self.group, self.trusted, self._loose = group, trusted, loose
        self._labels, self._degrees = tuple(labels), _frozen(degrees, np.int64)
        self._elements = tuple(group.elements())
        self.stacks, self.positions = {}, {}
        characters = np.empty((len(self._labels), group.order), dtype=complex)
        characters[list(loose)] = np.nan
        for d, stack in stacks.items():
            positions = [k for k in np.flatnonzero(self._degrees == d).tolist() if k not in loose]
            self.positions[d], self.stacks[d] = _frozen(positions, np.int64), _frozen(stack)
            rows = characters[positions[0]:positions[-1] + 1]
            out = rows if len(rows) == len(positions) else None
            traces = (np.add(self.stacks[d][:, :, 0, 0], 0.0, out=out) if d == 1
                      else np.trace(self.stacks[d], axis1=2, axis2=3, out=out))
            if out is None:
                characters[positions] = traces
        characters.flags.writeable = False
        self.characters = characters

    @property
    def irreps(self) -> list:
        return list(self)

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def __len__(self):
        return len(self._labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        k = range(len(self))[i]
        if k in self._loose:
            return self._loose[k]
        d, rho = int(self._degrees[k]), UnitaryIrrep.__new__(UnitaryIrrep)
        rho._fill(self._labels[k], self._elements,
                  self.stacks[d][np.searchsorted(self.positions[d], k)], self.characters[k])
        return rho

    def labels(self) -> list:
        return list(self._labels)

    @property
    def nbytes(self) -> int:
        """Bytes of the stacks and the character table."""
        return self.characters.nbytes + sum(stack.nbytes for stack in self.stacks.values())

    def degrees(self) -> list:
        return self._degrees.tolist()

    def __repr__(self):
        return f"<IrrepSet of {self.group!r}: degrees {self.degrees()}>"


def _check_builtin_bytes(group: FiniteGroup, count: int) -> None:
    """CapacityExceeded when ``count`` built-in irreps of ``group`` are over
    the budget (``builtin_irreps_bytes``)."""
    check_dense_bytes(builtin_irreps_bytes(group.order, count),
                      f"the built-in irreps of {group!r}")


def irreps_cyclic(n: int) -> IrrepSet:
    """Characters chi_v(k^s) = e^{2 pi i v s / n}, ordered by v; built once
    per interned C_n while they fit the memo."""
    group = _intern(CyclicGroup(n))
    _check_builtin_bytes(group, group.order)
    return _memoized(group, "irreps", lambda: IrrepSet._built(
        group, [f"chi_{v}" for v in range(n)], {1: _cyclic_stack(n)}))


def _cyclic_stack(n: int) -> np.ndarray:
    """The (n, n, 1, 1) stack whose row v holds ``unit_root(v*s, n)`` over
    s, gathered straight into place a block of rows at a time through one
    index buffer of at most ``_block_len(n)`` rows."""
    s = np.arange(n, dtype=np.int64)
    stack = np.empty((n, n, 1, 1), dtype=complex)
    step = _block_len(n)
    exponents = np.empty((min(step, n), n), dtype=np.int64)
    for lo in range(0, n, step):
        block = exponents[:len(s[lo:lo + step])]
        np.multiply(s[lo:lo + step, None], s, out=block)
        np.remainder(block, n, out=block)
        np.take(_root_table(n), block, out=stack[lo:lo + step, :, 0, 0], mode="clip")
    return stack


def irreps_abelian(orders: Sequence[int]) -> IrrepSet:
    """Product characters of a direct product of cyclic groups.

    Irreps and elements both run over exponent tuples in lexicographic
    order, so a row is the Kronecker product of factor-table rows, built
    by ``_cmul`` from ones in factor order, as each entry always was.
    """
    group = _intern(AbelianProductGroup(orders))
    n, orders = group.order, group.orders
    _check_builtin_bytes(group, n)
    digits = np.arange(n, dtype=np.int64)[:, None] // group._strides % orders
    # tables[t][e, g] = unit_root(e*g, o_t)
    tables = [_root_table(o)[np.outer(np.arange(o), np.arange(o)) % o] for o in orders]
    stack = np.empty((n, n, 1, 1), dtype=complex)
    step = _block_len(n)
    for lo in range(0, n, step):
        exps = digits[lo:lo + step]
        values = np.ones((len(exps), 1), dtype=complex)
        for t, table in enumerate(tables):
            # columns run over the exponent tuples so far, the last fastest
            values = _cmul(values[:, :, None], table[exps[:, t], None, :]).reshape(len(exps), -1)
        stack[lo:lo + step, :, 0, 0] = values
    labels = ["chi"]
    for o in orders:
        labels = [f"{prefix}_{e}" for prefix in labels for e in range(o)]
    return IrrepSet._built(group, labels, {1: stack})


def irreps_dihedral(n: int) -> IrrepSet:
    """Irreps of D_n for n >= 3, induced from the rotations.

    Linear characters send the rotation and the reflection to signs; the
    two-dimensional irrep E_j sends the rotation to diag(w^j, w^-j) with
    w = e^{2 pi i / n} and the reflection to the coordinate swap.
    """
    if n < 3:
        raise ValueError(f"dihedral irreps need n >= 3, got {n}")
    # induced order: orbits {0} (and {n/2}) with both signs on the
    # reflection, then the orbits {j, -j}
    linear = ["A1", "A2"] if n % 2 else ["A1", "A2", "B1", "B2"]
    return _cyclic_complement_irreps(
        _intern_new(DihedralGroup, n), linear + [f"E{j}" for j in range(1, (n + 1) // 2)])


def _induction_orbits(group: SplitExtensionGroup) -> dict:
    """Orbits of v -> v*r on Z_m for C_m x| C_l, from the group's K-orbit
    labels: ``orbits[t]`` holds those of size t, ascending in t, by least
    member v, each walked as v * units[j] % m = v r^j over j < t.
    IrrepsUnavailable unless the complement is cyclic and every orbit size
    divides l."""
    if not isinstance(group.h_group, CyclicGroup):
        raise IrrepsUnavailable(
            "induced construction needs a cyclic complement, got "
            f"{group.h_group.kind!r}"
        )
    m, l = group.m, group.l
    labels = group._k_orbit_labels
    leads = np.flatnonzero(labels == np.arange(m))
    sizes = np.bincount(labels, minlength=m)[leads]
    uneven = sizes[l % sizes != 0]
    if uneven.size:
        raise IrrepsUnavailable(f"orbit size {uneven[0]} does not divide complement order {l}")
    return {t: np.outer(leads[sizes == t], group.units[:t]) % m
            for t in sorted(set(sizes.tolist()))}


def _cyclic_complement_irreps(group: SplitExtensionGroup,
                              labels: Sequence[str] = ()) -> IrrepSet:
    """Irreps of C_m x| C_l built by inducing characters of the normal part.

    For each orbit of v -> v*r on Z_m (size t, t | l) and each w < l/t the
    irrep of degree t sends k to diag over the orbit's characters and h to
    the cyclic down-shift whose wrap-around entry carries e^{2 pi i w t / l}.
    So h^a k^b sends coordinate j to (j - a) mod t with the factor
    e^{2 pi i (w t q / l + orbit_j b / m)}, where q counts the wraps; each
    entry is one root of unity of order dividing l*m.  The irreps are
    listed by (t, least orbit member, w) and labelled ``X{member}.{w}``
    unless ``labels`` are given; each degree's stack is one scatter over
    all its (orbit, w) pairs, a block of pairs at a time.
    """
    m, l, n = group.m, group.l, group.order
    induced = _induction_orbits(group)
    _check_builtin_bytes(group, sum(len(orbits) * (l // t) for t, orbits in induced.items()))
    roots = _root_table(n)
    a = np.arange(l, dtype=np.int64)[:, None, None]
    b = np.arange(m, dtype=np.int64)[None, :, None]
    names, batches = [], {}
    for t, orbits in induced.items():
        first, w = np.divmod(np.arange(len(orbits) * (l // t)), l // t)
        names += [f"X{v}.{x}" for v, x in zip(orbits[first, 0].tolist(), w.tolist())]
        j = np.arange(t, dtype=np.int64)[None, None, :]
        rows = (j - a) % t
        wraps = -((j - a) // t)
        stack = np.zeros((len(w), l, m, t, t), dtype=complex)
        # pair p's indices span (l, m, t): n*t of them per pair
        step = _block_len(n * t)
        for lo in range(0, len(w), step):
            p = np.arange(lo, min(lo + step, len(w)))[:, None, None, None]
            exponents = (w[p] * t * m * wraps + orbits[first[p], j] * b * l) % n
            stack[p, a, b, rows, j] = roots[exponents]
        batches[t] = stack.reshape(len(w), n, t, t)
    return IrrepSet._built(group, list(labels) or names, batches)


def irreps_metacyclic(m: int, l: int, r: int) -> IrrepSet:
    """Irreps of the split metacyclic group C_m x| C_l with h k h^{-1} = k^r."""
    return builtin_irreps(_intern_new(MetacyclicGroup, m, l, r))


def builtin_degrees(group: FiniteGroup) -> list:
    """``builtin_irreps(group).degrees()``, without building any matrix."""
    if isinstance(group, (CyclicGroup, AbelianProductGroup)):
        return [1] * group.order
    if isinstance(group, SplitExtensionGroup) and isinstance(group.h_group, CyclicGroup):
        # each orbit of size t induces l/t irreps of degree t, listed by t
        return [t for t, orbits in _induction_orbits(group).items()
                for _ in range(len(orbits) * (group.l // t))]
    return builtin_irreps(group).degrees()


def builtin_irreps(group: FiniteGroup) -> IrrepSet:
    """The built-in irrep system for this group kind, or IrrepsUnavailable;
    kept in an interned group's memo while it fits."""
    if isinstance(group, CyclicGroup):
        return irreps_cyclic(group.m)
    return _memoized(group, "irreps", lambda: _builtin_irreps(group))


def _builtin_irreps(group: FiniteGroup) -> IrrepSet:
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


def _first_worst(chunks, count: int) -> tuple:
    """Per row, over consecutive arrays of ``count`` rows each: the largest
    value and the flat position where it first occurs.  NaN counts as
    largest and is kept once found; a row of zeros gives (0.0, -1)."""
    worst = np.zeros(count)
    where = np.full(count, -1, dtype=np.int64)
    offset = 0
    for chunk in chunks:
        flat = chunk.reshape(count, -1)
        k = np.argmax(flat, axis=1)
        value = flat[np.arange(count), k]
        better = ~(value <= worst) & ~np.isnan(worst)
        worst[better], where[better] = value[better], offset + k[better]
        offset += flat.shape[1]
    return worst, where


def _chunks(count: int, step: int):
    return (slice(lo, lo + step) for lo in range(0, count, step))


# bytes of one complex temporary of the homomorphism sweep: blocks of the
# full kernel budget overflow a core's L2 cache and ran slower than one
# irrep at a time on the order-120 and order-155 tables with d >= 2.
# Half of this held the small catalog tables in more, smaller blocks and
# measured slower on the catalog_small benchmark.
_CACHE_BYTES = 1 << 20


def _cache_len(item_bytes: int) -> int:
    """Items per block when each takes ``item_bytes``, a block within both
    the kernel's block budget and ``_CACHE_BYTES``."""
    return min(_block_len(item_bytes // 8), max(1, _CACHE_BYTES // item_bytes))


def _homomorphism_worst(group: FiniteGroup, stack: np.ndarray) -> tuple:
    """``_first_worst`` of |M[x y] - M[x] M[y]| over the entries (x, y, i,
    k), row-major, for each irrep of a (K, n, d, d) stack: the position
    divided by d*d is the pair's, x*n + y.

    Chunks of irreps are swept in blocks of rows x against all y: per
    block one kernel gather shared by the chunk and one batched GEMM
    (x i, j) @ (j, y k).  A chunk holds as many irreps as fit one block
    of all n rows, or one irrep, and each complex temporary stays within
    ``_cache_len``'s budget.
    """
    count, n, d, _ = stack.shape
    idx = np.arange(n, dtype=np.int64)
    worst, where = np.empty(count), np.empty(count, dtype=np.int64)
    for irreps in _chunks(count, _cache_len(16 * n * n * d * d)):
        chunk = stack[irreps]
        right = chunk.transpose(0, 2, 1, 3).reshape(len(chunk), d, n * d)

        def deviations(x):
            product = (chunk[:, x].reshape(len(chunk), -1, d) @ right).reshape(
                len(chunk), len(x), d, n, d).transpose(0, 1, 3, 2, 4)
            gathered = chunk[:, group.mul_idx(x[:, None], idx)]
            gathered -= product
            return np.abs(gathered)

        worst[irreps], where[irreps] = _first_worst(
            (deviations(idx[rows]) for rows in _chunks(n, _cache_len(16 * chunk.size))),
            len(chunk))
    return worst, where


def _unitarity_worst(stack: np.ndarray) -> tuple:
    """``_first_worst`` of |M^H M - 1| over the entries (g, i, k), for each
    irrep of a (K, n, d, d) stack, a chunk of irreps within the block
    budget at a time."""
    count, n, d, _ = stack.shape
    eye = np.eye(d)
    worst, where = np.empty(count), np.empty(count, dtype=np.int64)
    for irreps in _chunks(count, _block_len(2 * n * d * d)):
        chunk = stack[irreps]
        gram = np.matmul(chunk.conj().transpose(0, 1, 3, 2), chunk)
        worst[irreps], where[irreps] = _first_worst(
            [np.abs(gram - eye)], len(chunk))
    return worst, where


def validate_irrep_set(group: FiniteGroup, irrep_set: IrrepSet) -> IrrepValidationReport:
    """Exhaustively check an irrep table against the group.

    Checks coverage (each irrep holds exactly the group's elements; the
    witness is the first missing one, or else the first one not in the
    group), the homomorphism property over all element pairs and
    unitarity (each within 1e-10), irreducibility and pairwise
    orthogonality of characters (each within 1e-9), and completeness (sum
    of squared degrees equals the group order).
    Each check sweeps one degree's stored (K_d, n, d, d) stack at a time,
    in blocks within the kernel's block budget; issues are listed per
    irrep in set order, then orthogonality and completeness.  Witnesses
    are the first elements (pairs in row-major order) attaining the worst
    deviation; a NaN deviation fails its check.
    """
    elems = tuple(group.elements())
    n = group.order
    identity = group.index(group.identity)
    per_irrep = {}
    for k, rho in irrep_set._loose.items():
        # both orders are sorted, so the rows differ by a missing
        # element or by one that is not in the group
        uncovered = ([g for g in elems if g not in rho._index]
                     or [g for g in rho.elements if not group.contains(g)])
        per_irrep[k] = [ValidationIssue(
            "coverage", (rho.label,), uncovered[0], float(len(uncovered)))]
    for d, positions in irrep_set.positions.items():
        stack = irrep_set.stacks[d]
        ident = np.abs(stack[:, identity] - np.eye(d)).max(axis=(1, 2))
        hom, hom_at = _homomorphism_worst(group, stack)
        unit, unit_at = _unitarity_worst(stack)
        # a running sum, as Python's sum adds the squared magnitudes
        norm = np.add.accumulate(np.abs(irrep_set.characters[positions]) ** 2,
                                 axis=1)[:, -1] / n
        # first worst entries, as elements and pairs of elements
        hom_at, unit_at = hom_at // (d * d), unit_at // (d * d)
        for c, k in enumerate(positions.tolist()):
            label, issues = (irrep_set._labels[k],), []
            if not ident[c] <= 1e-10:
                issues.append(ValidationIssue("identity", label, group.identity, float(ident[c])))
            if not hom[c] <= 1e-10:
                at = int(hom_at[c])
                issues.append(ValidationIssue(
                    "homomorphism", label, (elems[at // n], elems[at % n]), float(hom[c])))
            if not unit[c] <= 1e-10:
                issues.append(ValidationIssue(
                    "unitarity", label, elems[unit_at[c]], float(unit[c])))
            if not abs(norm[c] - 1.0) <= 1e-9:
                issues.append(ValidationIssue(
                    "irreducibility", label, None, float(abs(norm[c] - 1.0))))
            per_irrep[k] = issues
    issues = [issue for k in sorted(per_irrep) for issue in per_irrep[k]]
    covered = [k for k in range(len(irrep_set)) if k not in irrep_set._loose]
    if covered:
        labels = [irrep_set._labels[k] for k in covered]
        table = irrep_set.characters[covered]
        step = _block_len(2 * len(covered))
        for lo in range(0, len(covered), step):
            inner = np.abs(table[lo:lo + step] @ table.conj().T / n)
            for i, j in zip(*np.nonzero(~(inner <= 1e-9))):
                if j > lo + i:
                    issues.append(ValidationIssue(
                        "orthogonality", (labels[lo + i], labels[j]), None,
                        float(inner[i, j])))
    total = int(np.square(irrep_set._degrees).sum())
    if total != n:
        issues.append(ValidationIssue(
            "completeness", tuple(irrep_set.labels()), None, float(abs(total - n))))
    report = IrrepValidationReport(issues)
    if report.passed:
        irrep_set.trusted = True
    return report


def ensure_trusted(group: FiniteGroup, irrep_set: IrrepSet) -> None:
    """Validate an untrusted irrep set, raising on failure.  The rows of a
    set follow its own group's order, so a set of another group is refused."""
    if irrep_set.group != group:
        raise InvalidAction(f"irreps of {irrep_set.group!r} do not belong to {group!r}")
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

    @property
    def nbytes(self) -> int:
        return self.matrix.nbytes

    def column_span(self, label: str) -> range:
        columns = [c for c, (lbl, _, _) in enumerate(self.column_labels) if lbl == label]
        if not columns:
            raise KeyError(f"no columns for irrep {label!r}")
        return range(columns[0], columns[-1] + 1)


def _degree_batches(irrep_set: IrrepSet):
    """Per degree, ascending: the positions of its irreps in the set, and
    their stored read-only (K, n, d, d) stack."""
    return zip(irrep_set.positions.values(), irrep_set.stacks.values())


def builtin_irreps_bytes(n: int, count: int) -> int:
    """Bytes of ``count`` built-in irreps of order n: n*n stack entries and
    count*n characters."""
    return 16 * n * (n + count)


def p_matrix_bytes(n: int) -> int:
    """Bytes ``build_p_matrix`` allocates at its peak: the n x n result
    and one degree's scaled matrices, at most n*n entries."""
    return 32 * n * n


def _check_complete(irrep_set: IrrepSet, n: int) -> None:
    """IrrepValidationFailed unless the squared degrees add up to n."""
    total = int(np.square(irrep_set._degrees).sum())
    if total != n:
        raise IrrepValidationFailed(IrrepValidationReport([
            ValidationIssue("completeness", tuple(irrep_set.labels()), None,
                            float(abs(total - n)))
        ]))


def build_p_matrix(group: FiniteGroup, irrep_set: IrrepSet) -> PMatrix:
    """Assemble the unitary change of basis from matrix coefficients.

    The result and one degree's scaled stack are the only large arrays
    it allocates.  A built-in set's P matrix is kept in the memo of the
    set's group while it fits, so the trust and size checks run on every
    call and the matrix is built once.
    """
    ensure_trusted(group, irrep_set)
    n = group.order
    _check_complete(irrep_set, n)
    check_dense_bytes(p_matrix_bytes(n), f"the P matrix of order {n}")
    if not irrep_set._builtin:
        return _p_matrix(irrep_set, n)
    return _memoized(irrep_set.group, "p_matrix", lambda: _p_matrix(irrep_set, n))


def _p_matrix(irrep_set: IrrepSet, n: int) -> PMatrix:
    squares = np.square(irrep_set._degrees)
    offsets = np.cumsum(squares) - squares
    p_mat = np.zeros((n, n), dtype=complex)
    for positions, stack in _degree_batches(irrep_set):
        d = stack.shape[2]
        columns = (offsets[positions][:, None] + np.arange(d * d)).ravel()
        # (k, g, i, j) -> (g, k, j, i): column offset_k + j*d + i
        p_mat[:, columns] = (stack * sqrt(d / n)).transpose(1, 0, 3, 2).reshape(n, -1)
    labels = tuple(
        (label, i, j)
        for label, d in zip(irrep_set._labels, irrep_set.degrees())
        for j in range(d) for i in range(d)
    )
    return PMatrix(matrix=_frozen(p_mat), column_labels=labels)
