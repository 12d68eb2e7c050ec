"""Finite groups with canonical normal-form element encodings.

Supported kinds and their encodings:

* ``cyclic``: integers ``0..m-1`` under addition mod ``m``.
* ``abelian``: exponent tuples, one slot per factor.
* split extensions of a complement ``H`` acting on a normal cyclic part
  ``K = C_m`` (kinds ``dihedral``, ``metacyclic``, ``semidirect``): pairs
  ``(a, b)`` encoding ``h_a * k^b``, where ``h_a`` is the ``a``-th element
  of ``H`` in its canonical order and ``k`` generates ``K``.  The induced
  vertex order is ``a*m + b``.
* ``permutation``: image tuples on ``{0..degree-1}``; products compose
  right-to-left, ``(p*q)(x) = p(q(x))``.

All encodings are canonical: two equal group elements are equal Python
objects, so elements can key dictionaries directly.

Every kind also carries an integer kernel over canonical indices (the
positions in ``elements()``): ``inv_idx`` maps each index to the index of
the inverse, and ``mul_idx(I, J)`` multiplies whole index arrays at once,
with numpy broadcasting.  The kernel is built lazily, per instance, from
arithmetic on the encoding (mixed-radix digits, an l x l table of the
complement plus the unit arrays, composed image arrays); no kind ever
stores an n x n multiplication table.  Bulk work (adjacency, closure and
conjugation sweeps) runs on the kernel in blocks whose index temporaries
stay within ``_BLOCK_BYTES``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from typing import Hashable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import CapacityExceeded, ConfigError, InvalidAction

Element = Hashable

DEFAULT_CAPACITY = 10_000
# bytes of n x n arrays one dense stage may allocate: dense certification,
# a P matrix, an edge list read back, or the dense stages of a CLI job
# together.  The orders the capacity admits reach several GB in dense form,
# so a dense request that exceeds this fails before allocating.
DENSE_BYTE_BUDGET = 1 << 30
# bytes of int64 index temporaries one blocked kernel sweep allocates per array
_BLOCK_BYTES = 1 << 23


def check_dense_bytes(estimate: int, what: str) -> None:
    """Raise CapacityExceeded when ``estimate`` bytes exceed the budget."""
    if estimate > DENSE_BYTE_BUDGET:
        raise CapacityExceeded(
            f"{what} needs an estimated {estimate} bytes of dense arrays, over "
            f"the budget of {DENSE_BYTE_BUDGET} bytes")


def _integer(value, name: str, least: Optional[int] = None) -> int:
    """``value`` as an int, when it is an int or a numpy integer (never a
    bool) of at least ``least``; raises ValueError naming ``name`` otherwise.

    Sizes, twists, units and images fix the group exactly, so a float or a
    numeric string is refused rather than truncated.
    """
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or least is not None and value < least):
        rule = "an integer" if least is None else f"an integer of at least {least}"
        raise ValueError(f"group field {name!r} must be {rule}, got {value!r}")
    return int(value)


def _block_len(item_count: int) -> int:
    """Rows per block when each row holds ``item_count`` int64 indices."""
    return max(1, _BLOCK_BYTES // (8 * max(1, item_count)))


@dataclass(frozen=True)
class ConjugacyClass:
    """One conjugacy class; members are sorted by canonical element index."""

    representative: Element
    members: tuple

    @property
    def size(self) -> int:
        return len(self.members)


class FiniteGroup:
    """Immutable finite group over hashable normal-form encodings.

    Subclasses fix the element encoding and implement ``mul``/``inv`` on
    elements and ``mul_idx``/``_inverse_indices`` on canonical indices;
    enumeration, indexing, ``inv_idx`` and conjugacy machinery are shared.
    Orders over ``DEFAULT_CAPACITY`` raise CapacityExceeded here, before
    anything is enumerated.
    """

    kind = "abstract"

    def __init__(self, order: int):
        order = _integer(order, "order", least=1)
        if order > DEFAULT_CAPACITY:
            raise CapacityExceeded(f"group order {order} exceeds capacity {DEFAULT_CAPACITY}")
        self.order = order
        self._elements: Optional[list] = None
        self._element_index: Optional[dict] = None
        self._inv_idx: Optional[np.ndarray] = None

    # -- operations every subclass provides --------------------------------

    @property
    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def _enumerate(self) -> list:
        raise NotImplementedError

    def coerce_element(self, raw):
        """Convert raw (JSON-ish) input into the canonical encoding."""
        raise NotImplementedError

    def signature(self) -> tuple:
        raise NotImplementedError

    def mul_idx(self, left, right) -> np.ndarray:
        """Canonical indices of the products ``g_left * g_right``.

        ``left`` and ``right`` are index arrays (or ints) that broadcast
        against each other; the result has the broadcast shape.
        """
        raise NotImplementedError

    def _inverse_indices(self) -> np.ndarray:
        raise NotImplementedError

    # -- shared machinery ---------------------------------------------------

    @property
    def inv_idx(self) -> np.ndarray:
        """``inv_idx[i]`` is the canonical index of ``g_i^{-1}`` (read-only)."""
        if self._inv_idx is None:
            table = np.asarray(self._inverse_indices(), dtype=np.int64)
            table.flags.writeable = False
            self._inv_idx = table
        return self._inv_idx

    def elements(self) -> list:
        if self._elements is None:
            self._elements = self._enumerate()
        return self._elements

    def index(self, g) -> int:
        if self._element_index is None:
            self._element_index = {g: i for i, g in enumerate(self.elements())}
        try:
            return self._element_index[g]
        except (KeyError, TypeError):
            raise KeyError(f"{g!r} is not an element of {self!r}") from None

    def contains(self, g) -> bool:
        try:
            self.index(g)
        except KeyError:
            return False
        return True

    def conjugate(self, g, by):
        """Return ``by * g * by^{-1}``."""
        return self.mul(self.mul(by, g), self.inv(by))

    @cached_property
    def _class_orbits(self) -> list:
        """``_conjugation_orbits`` of the whole group on itself."""
        everything = np.arange(self.order, dtype=np.int64)
        if isinstance(self, (CyclicGroup, AbelianProductGroup)):
            # every class is a singleton, fixed first by element 0
            return [(everything[i:i + 1], everything[:1]) for i in range(self.order)]
        return list(_conjugation_orbits(self, everything, everything))

    def conjugacy_classes(self) -> list:
        elems = self.elements()
        orbits = [tuple(elems[i] for i in members.tolist()) for members, _ in self._class_orbits]
        return [ConjugacyClass(members[0], members) for members in orbits]

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return f"<{type(self).__name__} order={self.order}>"


def _conjugation_orbits(group, seeds, conjugators):
    """Orbits of the index array ``seeds`` under conjugation by ``conjugators``.

    Each seed that no earlier orbit reached costs one kernel gather
    ``x s x^{-1}`` over all conjugators x.  Yields one ``(members, first)``
    pair of index arrays per orbit, in seed order: the members ascending,
    and for each member the first conjugator, in the given order, that
    carries the orbit's seed s to it.  With ascending seeds, s is the
    least seed in its orbit, and the least member when the seeds are
    closed under the action.
    """
    conjugators = np.asarray(conjugators, dtype=np.int64)
    inverses = group.inv_idx[conjugators]
    reached = np.zeros(group.order, dtype=bool)
    for s in np.asarray(seeds, dtype=np.int64).tolist():
        if reached[s]:
            continue
        members, first = np.unique(
            group.mul_idx(group.mul_idx(conjugators, s), inverses), return_index=True)
        reached[members] = True
        yield members, conjugators[first]


class CyclicGroup(FiniteGroup):
    """Cyclic group C_m; elements are exponents under addition mod m."""

    kind = "cyclic"

    def __init__(self, m: int):
        super().__init__(_integer(m, "n", least=1))
        self.m = self.order

    @property
    def identity(self):
        return 0

    def mul(self, a, b):
        return (a + b) % self.m

    def inv(self, a):
        return -a % self.m

    def mul_idx(self, left, right):
        return np.add(left, right, dtype=np.int64) % self.m

    def _inverse_indices(self):
        return -np.arange(self.m, dtype=np.int64) % self.m

    def _enumerate(self):
        return list(range(self.m))

    def coerce_element(self, raw):
        if isinstance(raw, (list, tuple)):
            if len(raw) != 1:
                raise ConfigError(f"cyclic element takes one exponent, got {raw!r}")
            raw = raw[0]
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ConfigError(f"cyclic element must be an integer, got {raw!r}")
        return raw % self.m

    def signature(self):
        return ("cyclic", self.m)

    # generator data, used when this group acts as a complement
    @property
    def generator_orders(self):
        return (self.m,)

    def generator_exponents(self, g):
        return (g,)


class AbelianProductGroup(FiniteGroup):
    """Direct product of cyclic groups; elements are exponent tuples."""

    kind = "abelian"

    def __init__(self, orders: Sequence[int]):
        orders = tuple(_integer(o, f"orders[{i}]", least=1) for i, o in enumerate(orders))
        if not orders:
            raise ValueError("an abelian product needs at least one factor order")
        super().__init__(prod(orders))
        self.orders = orders
        # mixed-radix place values of the lexicographic enumeration
        strides = [1] * len(orders)
        for t in range(len(orders) - 2, -1, -1):
            strides[t] = strides[t + 1] * orders[t + 1]
        self._strides = tuple(strides)

    @property
    def identity(self):
        return (0,) * len(self.orders)

    def mul(self, a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def inv(self, a):
        return tuple(-x % o for x, o in zip(a, self.orders))

    def mul_idx(self, left, right):
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        out = np.zeros(np.broadcast_shapes(left.shape, right.shape), dtype=np.int64)
        for o, s in zip(self.orders, self._strides):
            out += (left // s + right // s) % o * s
        return out

    def _inverse_indices(self):
        idx = np.arange(self.order, dtype=np.int64)
        out = np.zeros(self.order, dtype=np.int64)
        for o, s in zip(self.orders, self._strides):
            out += -(idx // s) % o * s
        return out

    def _enumerate(self):
        return list(itertools.product(*(range(o) for o in self.orders)))

    def coerce_element(self, raw):
        if not isinstance(raw, (list, tuple)) or len(raw) != len(self.orders):
            raise ConfigError(
                f"abelian element needs {len(self.orders)} exponents, got {raw!r}"
            )
        if any(not isinstance(x, int) or isinstance(x, bool) for x in raw):
            raise ConfigError(f"abelian exponents must be integers, got {raw!r}")
        return tuple(x % o for x, o in zip(raw, self.orders))

    def signature(self):
        return ("abelian", self.orders)

    @property
    def generator_orders(self):
        return self.orders

    def generator_exponents(self, g):
        return g


class SplitExtensionGroup(FiniteGroup):
    """Split extension of a complement H by a normal cyclic K = C_m.

    Elements are pairs ``(a, b)`` for ``h_a * k^b``.  The complement acts on
    K through units mod m: ``h_a k h_a^{-1} = k^{units[a]}``.  Constructors
    are responsible for supplying units that are multiplicative over H;
    ``units`` is read only after the order passed the capacity check.
    """

    kind = "semidirect"

    def __init__(self, m: int, h_group: FiniteGroup, units: Iterable[int]):
        m = _integer(m, "m", least=1)
        super().__init__(m * h_group.order)
        self.m = m
        self.h_group = h_group
        self.l = h_group.order
        self.units = tuple(_integer(u, f"units[{i}]") % m for i, u in enumerate(units))
        if len(self.units) != self.l:
            raise InvalidAction(
                f"need one conjugation unit per complement element "
                f"({self.l}), got {len(self.units)}"
            )
        for u in self.units:
            if gcd(u, m) != 1:
                raise InvalidAction(f"conjugation exponent {u} is not a unit mod {m}")
        if h_group.index(h_group.identity) != 0:
            raise InvalidAction("complement enumeration must start at the identity")
        self._h_elts = h_group.elements()
        self._inv_units = tuple(pow(u, -1, m) for u in self.units)
        self._h_inv_index = tuple(
            h_group.index(h_group.inv(h)) for h in self._h_elts
        )
        self._kernel_arrays: Optional[tuple] = None

    @property
    def identity(self):
        return (0, 0)

    def mul(self, x, y):
        a1, b1 = x
        a2, b2 = y
        a3 = self.h_group.index(
            self.h_group.mul(self._h_elts[a1], self._h_elts[a2])
        )
        return (a3, (b1 * self._inv_units[a2] + b2) % self.m)

    def inv(self, x):
        a, b = x
        return (self._h_inv_index[a], (-b * self.units[a]) % self.m)

    def _kernel(self) -> tuple:
        """H's l x l index table and the unit arrays, built on first use."""
        if self._kernel_arrays is None:
            a = np.arange(self.l, dtype=np.int64)
            self._kernel_arrays = (
                self.h_group.mul_idx(a[:, None], a[None, :]),
                np.array(self.units, dtype=np.int64),
                np.array(self._inv_units, dtype=np.int64),
            )
        return self._kernel_arrays

    def mul_idx(self, left, right):
        h_table, _, inv_units = self._kernel()
        a1, b1 = np.divmod(np.asarray(left, dtype=np.int64), self.m)
        a2, b2 = np.divmod(np.asarray(right, dtype=np.int64), self.m)
        return h_table[a1, a2] * self.m + (b1 * inv_units[a2] + b2) % self.m

    def _inverse_indices(self):
        _, units, _ = self._kernel()
        a, b = np.divmod(np.arange(self.order, dtype=np.int64), self.m)
        return self.h_group.inv_idx[a] * self.m + (-b * units[a]) % self.m

    def _enumerate(self):
        return [(a, b) for a in range(self.l) for b in range(self.m)]

    def index(self, g) -> int:
        try:
            a, b = g
        except (TypeError, ValueError):
            raise KeyError(f"{g!r} is not an element of {self!r}") from None
        if not (isinstance(a, int) and isinstance(b, int)
                and 0 <= a < self.l and 0 <= b < self.m):
            raise KeyError(f"{g!r} is not an element of {self!r}")
        return a * self.m + b

    def coerce_element(self, raw):
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise ConfigError(f"split-extension element must be a pair, got {raw!r}")
        a, b = raw
        if any(not isinstance(x, int) or isinstance(x, bool) for x in (a, b)):
            raise ConfigError(f"element exponents must be integers, got {raw!r}")
        return (a % self.l, b % self.m)

    def k_elements(self) -> list:
        return [(0, b) for b in range(self.m)]

    def h_elements(self) -> list:
        return [(a, 0) for a in range(self.l)]

    def split_parts(self):
        return self.k_elements(), self.h_elements()

    def signature(self):
        return ("split", self.m, self.h_group.signature(), self.units)


class MetacyclicGroup(SplitExtensionGroup):
    """Split metacyclic group C_m x| C_l with h k h^{-1} = k^r."""

    kind = "metacyclic"

    def __init__(self, m: int, l: int, r: int):
        m, l = _integer(m, "m", least=1), _integer(l, "l", least=1)
        r = _integer(r, "r") % m
        if gcd(r, m) != 1:
            raise InvalidAction(f"r={r} is not a unit mod m={m}")
        if pow(r, l, m) != 1 % m:
            raise InvalidAction(
                f"r^l must be 1 mod m: r={r}, l={l}, m={m} gives {pow(r, l, m)}"
            )
        super().__init__(m, CyclicGroup(l), (pow(r, a, m) for a in range(l)))
        self.r = r

    def signature(self):
        return ("metacyclic", self.m, self.l, self.r)


class DihedralGroup(SplitExtensionGroup):
    """Dihedral group D_n of order 2n; ``(ref, rot)`` encodes s^ref * rho^rot."""

    kind = "dihedral"

    def __init__(self, n: int):
        n = _integer(n, "n", least=1)
        super().__init__(n, CyclicGroup(2), [1, (n - 1) % n])
        self.n = n

    def signature(self):
        return ("dihedral", self.n)

    # generator data for (s, rho), used when this group acts as a complement
    @property
    def generator_orders(self):
        return (2, self.n)

    def generator_exponents(self, g):
        return g


def _validate_action_images(h_group, images, m: int) -> None:
    """Check generator images against H's defining relations mod m."""
    if not hasattr(h_group, "generator_orders"):
        raise InvalidAction(
            f"complement kind {h_group.kind!r} is not supported for actions "
            "(use cyclic, abelian, or dihedral)"
        )
    orders = h_group.generator_orders
    if len(images) != len(orders):
        raise InvalidAction(
            f"need {len(orders)} generator images for {h_group.kind} complement, "
            f"got {len(images)}"
        )
    for img, o in zip(images, orders):
        if gcd(img % m, m) != 1:
            raise InvalidAction(f"generator image {img} is not a unit mod {m}")
        if pow(img, o, m) != 1 % m:
            raise InvalidAction(
                f"generator image {img} of order-{o} generator breaks its "
                f"relation mod {m}"
            )
    if isinstance(h_group, DihedralGroup):
        # s rho s^{-1} = rho^{-1} forces the rotation image to square to 1
        e_rho = images[1] % m
        if e_rho * e_rho % m != 1 % m:
            raise InvalidAction(
                f"rotation image {e_rho} breaks the reflection relation mod {m}"
            )


class SemidirectProductGroup(SplitExtensionGroup):
    """C_m x| H with the action given by unit images of H's generators."""

    kind = "semidirect"

    def __init__(self, m: int, h_group: FiniteGroup, generator_images: Sequence[int]):
        m = _integer(m, "m", least=1)
        images = [_integer(e, f"action[{i}]") for i, e in enumerate(generator_images)]
        _validate_action_images(h_group, images, m)
        units = (prod(pow(img, e, m) for img, e in zip(images, h_group.generator_exponents(h))) % m
                 for h in h_group.elements())
        super().__init__(m, h_group, units)
        self.generator_images = tuple(img % m for img in images)

    def signature(self):
        return ("semidirect", self.m, self.h_group.signature(), self.generator_images)


def _compose(p, q):
    """Right-to-left composition of image tuples: (p*q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def _perm_closure(generators, degree: int) -> set:
    identity = tuple(range(degree))
    closed = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for p in frontier:
            for g in generators:
                q = _compose(p, g)
                if q not in closed:
                    closed.add(q)
                    fresh.append(q)
                    if len(closed) > DEFAULT_CAPACITY:
                        raise CapacityExceeded(
                            f"permutation closure exceeds capacity {DEFAULT_CAPACITY}"
                        )
        frontier = fresh
    return closed


class PermutationGroup(FiniteGroup):
    """Permutation group generated by image tuples, enumerated sorted.

    An optional split structure (generators of a normal subgroup K plus a
    complement H) marks the group for invariance checking; it is validated
    at construction.
    """

    kind = "permutation"

    def __init__(self, generators: Iterable[Sequence[int]],
                 normal_generators: Optional[Iterable[Sequence[int]]] = None,
                 complement_generators: Optional[Iterable[Sequence[int]]] = None):
        gens = [tuple(_integer(x, f"generators[{i}][{j}]") for j, x in enumerate(g))
                for i, g in enumerate(generators)]
        if not gens:
            raise ValueError("need at least one generator")
        degree = len(gens[0])
        for g in gens:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise ValueError(f"{g!r} is not a permutation of 0..{degree - 1}")
        members = _perm_closure(gens, degree)
        super().__init__(len(members))
        self.degree = degree
        self.generators = tuple(gens)
        self._elements = sorted(members)
        self._kernel_arrays: Optional[tuple] = None
        self.normal_members: Optional[tuple] = None
        self.complement_members: Optional[tuple] = None
        if (normal_generators is None) != (complement_generators is None):
            raise ValueError("normal and complement generators come together")
        if normal_generators is not None:
            self._install_split(normal_generators, complement_generators)

    def _install_split(self, normal_generators, complement_generators):
        n_gens = [self.coerce_element(g) for g in normal_generators]
        c_gens = [self.coerce_element(g) for g in complement_generators]
        k_part = _perm_closure(n_gens, self.degree)
        h_part = _perm_closure(c_gens, self.degree)
        for g in self.generators:
            g_inv = self.inv(g)
            for k in k_part:
                if _compose(_compose(g, k), g_inv) not in k_part:
                    raise InvalidAction(
                        f"designated normal part is not normal: conjugating "
                        f"{k} by generator {g} escapes it"
                    )
        if len(k_part) * len(h_part) != self.order:
            raise InvalidAction(
                f"|K|*|H| = {len(k_part)}*{len(h_part)} != group order {self.order}"
            )
        if k_part & h_part != {self.identity}:
            raise InvalidAction("normal part and complement overlap beyond identity")
        self.normal_members = tuple(sorted(k_part))
        self.complement_members = tuple(sorted(h_part))

    @property
    def identity(self):
        return tuple(range(self.degree))

    def mul(self, a, b):
        return _compose(a, b)

    def inv(self, a):
        out = [0] * self.degree
        for i, image in enumerate(a):
            out[image] = i
        return tuple(out)

    def _kernel(self) -> tuple:
        """Image rows of the sorted elements, and the same rows as byte keys.

        Big-endian rows compare bytewise in lexicographic order, so the keys
        are sorted like the elements and ``searchsorted`` finds indices.
        """
        if self._kernel_arrays is None:
            images = np.array(self._elements, dtype=np.int64)
            self._kernel_arrays = (images, self._as_keys(images))
        return self._kernel_arrays

    def _as_keys(self, rows: np.ndarray) -> np.ndarray:
        wide = np.ascontiguousarray(rows, dtype=">u4")
        return wide.view(np.dtype((np.void, 4 * self.degree))).reshape(len(rows))

    def mul_idx(self, left, right):
        images, keys = self._kernel()
        left, right = np.broadcast_arrays(
            np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64)
        )
        flat_l, flat_r = left.ravel(), right.ravel()
        out = np.empty(flat_l.size, dtype=np.int64)
        step = _block_len(self.degree)
        for lo in range(0, flat_l.size, step):
            hi = lo + step
            # (p*q)(x) = p(q(x)): index p's images by q's
            composed = np.take_along_axis(
                images[flat_l[lo:hi]], images[flat_r[lo:hi]], axis=1
            )
            out[lo:hi] = np.searchsorted(keys, self._as_keys(composed))
        return out.reshape(left.shape)

    def _inverse_indices(self):
        images, keys = self._kernel()
        return np.searchsorted(keys, self._as_keys(np.argsort(images, axis=1)))

    def _enumerate(self):
        return self._elements

    def coerce_element(self, raw):
        if not isinstance(raw, (list, tuple)) or len(raw) != self.degree:
            raise ConfigError(
                f"permutation element needs {self.degree} images, got {raw!r}"
            )
        try:
            g = tuple(_integer(x, "image") for x in raw)
        except ValueError:
            raise ConfigError(f"permutation images must be integers, got {raw!r}") from None
        if sorted(g) != list(range(self.degree)):
            raise ConfigError(f"{raw!r} is not a permutation of 0..{self.degree - 1}")
        if not self.contains(g):
            raise ConfigError(f"{raw!r} is not in the generated group")
        return g

    def split_parts(self):
        if self.normal_members is None:
            return None
        return list(self.normal_members), list(self.complement_members)

    def signature(self):
        return ("permutation", self.degree, tuple(self.elements()))


# -- module-level operations -------------------------------------------------


def construct_group(config: Mapping) -> FiniteGroup:
    """Build a group from a structured description (the CLI config schema).

    Checks the description's shape: a mapping of a known type with exactly
    its fields, and lists where lists belong.  The constructors check the
    values: a malformed one (their ValueError) raises ConfigError here, and
    InvalidAction and CapacityExceeded pass through.
    """
    if not isinstance(config, Mapping):
        raise ConfigError(f"group description must be a mapping, got {config!r}")
    kind = config.get("type")
    fields = {
        "cyclic": {"n"},
        "abelian": {"orders"},
        "dihedral": {"n"},
        "metacyclic": {"m", "l", "r"},
        "semidirect": {"m", "h", "action"},
        "permutation": {"generators", "normal_generators", "complement_generators"},
    }
    if kind not in fields:
        raise ConfigError(
            f"unknown group type {kind!r}; expected one of {sorted(fields)}"
        )
    stray = set(config) - fields[kind] - {"type"}
    if stray:
        raise ConfigError(f"group type {kind!r} has stray fields {sorted(stray)}")

    def need(key):
        if key not in config:
            raise ConfigError(f"group type {kind!r} needs field {key!r}")
        return config[key]

    def listed(key, values, empty=False) -> list:
        if not isinstance(values, (list, tuple)) or not (values or empty):
            rule = "a list" if empty else "a non-empty list"
            raise ConfigError(f"group field {key!r} must be {rule}, got {values!r}")
        return list(values)

    try:
        if kind == "cyclic":
            return CyclicGroup(need("n"))
        if kind == "dihedral":
            return DihedralGroup(need("n"))
        if kind == "abelian":
            return AbelianProductGroup(listed("orders", need("orders")))
        if kind == "metacyclic":
            return MetacyclicGroup(need("m"), need("l"), need("r"))
        if kind == "semidirect":
            return SemidirectProductGroup(need("m"), construct_group(need("h")),
                                          listed("action", need("action")))
        # permutation
        gens = [listed(f"generators[{i}]", g)
                for i, g in enumerate(listed("generators", need("generators")))]
        for key in ("normal_generators", "complement_generators"):
            if config.get(key) is not None:
                listed(key, config[key], empty=True)
        return PermutationGroup(
            gens,
            normal_generators=config.get("normal_generators"),
            complement_generators=config.get("complement_generators"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def conjugacy_classes(group: FiniteGroup) -> list:
    """Conjugacy classes in canonical order (sorted by representative index)."""
    return group.conjugacy_classes()


def conjugation_orbits_on_k(group: FiniteGroup) -> list:
    """Orbits of the whole group's conjugation action on the normal part K."""
    if isinstance(group, SplitExtensionGroup):
        unit_set = sorted(set(group.units))
        seen: set = set()
        orbits = []
        for b in range(group.m):
            if b in seen:
                continue
            exponents = sorted({b * u % group.m for u in unit_set})
            seen.update(exponents)
            orbits.append([(0, s) for s in exponents])
        return orbits
    parts = group.split_parts() if hasattr(group, "split_parts") else None
    if parts is None:
        raise ValueError("group has no distinguished normal part")
    k_members, _ = parts
    elems = group.elements()
    seeds = [group.index(k) for k in k_members]
    return [
        [elems[i] for i in members.tolist()]
        for members, _ in _conjugation_orbits(group, seeds, np.arange(group.order))
    ]


def is_generating_set(group: FiniteGroup, subset: Iterable) -> tuple:
    """Whether the multiplicative closure of ``subset`` is the whole group.

    Returns ``(generates, closure_size)``.  The closure of a non-empty
    subset of a finite group is the subgroup it generates, found by a
    breadth-first search from the identity under right multiplication by
    the subset, O(n |subset|) kernel products; an empty subset closes to
    nothing, ``(False, 0)``.
    """
    gens = np.unique(np.array([group.index(g) for g in subset], dtype=np.int64))
    if gens.size == 0:
        return False, 0
    reached = np.zeros(group.order, dtype=bool)
    frontier = np.array([group.index(group.identity)], dtype=np.int64)
    reached[frontier] = True
    size = 1
    step = _block_len(gens.size)
    while frontier.size:
        fresh = []
        for lo in range(0, frontier.size, step):
            products = group.mul_idx(frontier[lo:lo + step, None], gens[None, :])
            products = np.unique(products[~reached[products]])
            reached[products] = True
            fresh.append(products)
        frontier = np.concatenate(fresh)
        size += frontier.size
    return size == group.order, size
