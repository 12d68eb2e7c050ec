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
with numpy broadcasting.  The kernel is arithmetic on the encoding:
mixed-radix digits, composed image arrays (built lazily, per instance),
and on the split kinds the complement's own kernel plus the two unit
arrays of its action on K.  No kind ever stores a multiplication table,
of the group or of a complement.  Bulk work (adjacency, closure and
conjugation sweeps) runs on the kernel in blocks whose index temporaries
stay within ``_BLOCK_BYTES``.

Generation (``is_generating_set``) closes the set under multiplication
by doubling over the n elements, except on the split kinds: there it
walks the l cosets of K, keeping one lift per coset reached, and
Schreier's lemma gives the closure's part in K = C_m from the gcd of the
exponents of t_x s t_{xs}^{-1}, in O(l |S|) kernel products.

Conjugacy classes are one label array per group, ``labels[i]`` the least
index in g_i's class (``FiniteGroup._class_labels``).  Conjugation is a
homomorphism G -> Sym(G), so the classes are the orbits of the
conjugations by any generating set of G; each kind names a few
generators (``_generator_idx``), and ``_orbit_labels`` takes the orbits
of their conjugation permutations (``_conjugation_perms``: two kernel
products each, or on the split kinds written from the units and H's
conjugations, two products over l): per permutation the minimum over
its cycles by doubling, then pointer jumping, repeated until the labels
stop changing.  That is O(n log n) per generator and round, where one
n-wide gather per class costs O(n) per class.

The orbits on the normal part K are one more label array,
``_k_orbit_labels``: on the split kinds ``_orbit_labels`` over b -> u b
on Z_m for the units of H's generators, O(m log m); on a permutation
group, the class labels at K's indices.

The groups the library builds for itself (``construct_group``, the
metacyclic groups of the spectrum and family functions, and the groups
of the built-in irrep functions) are interned by ``signature()``
(``_intern``): an equal group already built is returned in place of the
new one, so its lazy index arrays are built once.  The split kinds check their arguments and
form the signature first (``_intern_new``), and build only a new group;
the other kinds are built, and so validated, before the lookup.  The
``_INTERN_HELD`` most recently interned groups are held, each with a
memo of at most ``_MEMO_ENTRIES`` products of at most ``_BLOCK_BYTES``
each.  That memo is the one place the library keeps what it reuses
across calls, and ``_memoized`` is its one door: the group's built-in
irreps and their P matrix, the beta index table (one entry, for the
cosets the last color read met), the split grid's pairs,
and the factored claim ``verify.certify`` last read for a color on the
group.  A held group keeps only arrays of O(n) entries besides its memo,
so holding one of any order up to the capacity costs a few MB.  An older
interned group stays shared only while a caller holds it, and memoizes
nothing; nor does a group built directly with its class, which is never
interned.  ``_clear_interned`` forgets every group and so every memo.
Interned groups are shared, so nothing may change them: ``elements()``
is a list that callers must not mutate.
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
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
# bytes one block of a blocked sweep allocates per temporary: int64 index
# arrays in the kernel sweeps, stacked complex vectors or Gram rows in
# certification
_BLOCK_BYTES = 1 << 23
# interned groups held after their callers drop them, most recent first
_INTERN_HELD = 8
# products one memo keeps, each of at most ``_BLOCK_BYTES``
_MEMO_ENTRIES = 8


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


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


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
            self._inv_idx = _read_only(np.asarray(self._inverse_indices(), dtype=np.int64))
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

    def _indices(self, elements: list) -> Optional[np.ndarray]:
        """``index`` of each of ``elements`` in one array pass, on the kinds
        that have one; None here, and where a kind's pass meets an element
        it cannot read."""
        return None

    def contains(self, g) -> bool:
        try:
            self.index(g)
        except KeyError:
            return False
        return True

    def conjugate(self, g, by):
        """Return ``by * g * by^{-1}``."""
        return self.mul(self.mul(by, g), self.inv(by))

    def _generator_idx(self) -> np.ndarray:
        """Canonical indices of a generating set of the group."""
        raise NotImplementedError

    def _conjugation_perms(self) -> list:
        """One index permutation ``i -> index of g g_i g^{-1}`` per distinct
        generator g: two kernel products over all n indices each."""
        everything = np.arange(self.order, dtype=np.int64)
        return [self.mul_idx(self.mul_idx(g, everything), self.inv_idx[g])
                for g in dict.fromkeys(self._generator_idx().tolist())]

    @cached_property
    def _class_labels(self) -> np.ndarray:
        """``labels[i]`` is the least index in g_i's conjugacy class
        (read-only): the orbits of conjugation by the generators."""
        return _read_only(_orbit_labels(self._conjugation_perms(), self.order))

    _split_idx: Optional[tuple] = None  # K's and H's indices, ascending, on a split
    _memo: Optional[dict] = None  # products built once, on a held interned group

    @cached_property
    def _k_orbit_labels(self) -> np.ndarray:
        """``labels[j]`` is the position in K of the least member of the
        orbit of K's j-th member under conjugation (read-only).  K is
        normal, so these are the class labels read at K's indices."""
        if self._split_idx is None:
            raise ValueError("group has no distinguished normal part")
        k_idx = self._split_idx[0]
        return _read_only(np.searchsorted(k_idx, self._class_labels[k_idx]))

    @cached_property
    def _class_orbits(self) -> list:
        """The conjugacy classes as index arrays, each ascending, ordered by
        their least member."""
        labels = self._class_labels
        by_class = np.argsort(labels, kind="stable")
        starts = np.flatnonzero(np.diff(labels[by_class])) + 1
        return np.split(by_class, starts)

    def conjugacy_classes(self) -> list:
        elems = self.elements()
        orbits = [tuple(elems[i] for i in members.tolist()) for members in self._class_orbits]
        return [ConjugacyClass(members[0], members) for members in orbits]

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return f"<{type(self).__name__} order={self.order}>"


def _orbit_labels(perms, n: int) -> np.ndarray:
    """The least index in each index's orbit under the group that the
    index permutations ``perms`` generate.

    Each round takes, per permutation p, the minimum over p's cycles by
    doubling (``labels[i]`` becomes the least label over i, p(i), ...,
    p^(2^j - 1)(i), the span doubling until it covers n), then jumps
    pointers until every label is its own, until no permutation changes
    a label.  A label only ever moves to a smaller index in the same
    orbit, so once the labels are constant along every permutation, each
    orbit's least index labels it.
    """
    labels = np.arange(n, dtype=np.int64)
    while True:
        for q in perms:
            span = 1
            while span < n:
                labels = np.minimum(labels, labels[q])
                q = q[q]
                span *= 2
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if all(np.array_equal(labels[p], labels) for p in perms):
            return labels


def _conjugation_orbits(group, seeds, conjugators):
    """Orbits of the index array ``seeds`` under conjugation by ``conjugators``.

    Each seed that no earlier orbit reached costs one kernel gather
    ``x s x^{-1}`` over all conjugators x.  Yields one ``(members, first)``
    pair of index arrays per orbit, in seed order: the members ascending,
    and for each member the first conjugator, in the given order, that
    carries the orbit's seed s to it.  With ascending seeds, s is the
    least seed in its orbit, and the least member when the seeds are
    closed under the action.

    The class partition comes from ``FiniteGroup._class_labels`` and the
    single witnesses from ``_first_conjugator``; this sweep serves the
    H-classes of condition B, with their first conjugators.
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


def _first_conjugator(group, source: int, wanted: np.ndarray) -> tuple:
    """The first index x, in element order, whose conjugate
    ``x g_source x^{-1}`` has an index i with ``wanted[i]``, as ``(x, i)``;
    None when no conjugate is wanted.

    The conjugators are swept in blocks that double from 64, and the sweep
    stops at the first block that holds one: a witness of a set that
    conjugation leaves at once costs a few kernel products, not n.
    """
    n, lo, step = group.order, 0, 64
    while lo < n:
        x = np.arange(lo, min(lo + step, n), dtype=np.int64)
        conjugates = group.mul_idx(group.mul_idx(x, source), group.inv_idx[x])
        hits = np.flatnonzero(wanted[conjugates])
        if hits.size:
            return lo + int(hits[0]), int(conjugates[hits[0]])
        lo, step = lo + step, min(2 * step, _block_len(4))
    return None


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

    def _generator_idx(self):
        return np.array([1 % self.m], dtype=np.int64)

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

    def _generator_idx(self):
        # index strides[t] is the unit vector of factor t (or, when that
        # factor is trivial, another element)
        return np.array(self._strides, dtype=np.int64) % self.order

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
        if h_group.elements()[0] != h_group.identity:
            raise InvalidAction("complement enumeration must start at the identity")
        # a product's K side: the units and their inverses mod m (its H
        # side is H's own kernel)
        self._unit_array = _read_only(np.array(self.units, dtype=np.int64))
        self._inv_unit_array = _read_only(
            np.array([pow(u, -1, m) for u in self.units], dtype=np.int64))
        # k^b has index b, and h_a has index a*m
        self._split_idx = (_read_only(np.arange(m, dtype=np.int64)),
                           _read_only(np.arange(self.l, dtype=np.int64) * m))

    @property
    def identity(self):
        return (0, 0)

    def mul(self, x, y):
        a1, b1 = x
        a2, b2 = y
        a3 = int(self.h_group.mul_idx(a1, a2))
        return (a3, int(b1 * self._inv_unit_array[a2] + b2) % self.m)

    def inv(self, x):
        a, b = x
        return (int(self.h_group.inv_idx[a]), (-b * self.units[a]) % self.m)

    def mul_idx(self, left, right):
        a1, b1 = np.divmod(np.asarray(left, dtype=np.int64), self.m)
        a2, b2 = np.divmod(np.asarray(right, dtype=np.int64), self.m)
        return (self.h_group.mul_idx(a1, a2) * self.m
                + (b1 * self._inv_unit_array[a2] + b2) % self.m)

    def _inverse_indices(self):
        a, b = np.divmod(np.arange(self.order, dtype=np.int64), self.m)
        return self.h_group.inv_idx[a] * self.m + (-b * self._unit_array[a]) % self.m

    def _enumerate(self):
        return [(a, b) for a in range(self.l) for b in range(self.m)]

    def _generator_idx(self):
        # k = (0, 1) and H's generators (a, 0) at index a*m
        return np.concatenate([[1 % self.m], self.h_group._generator_idx() * self.m]) % self.order

    def _conjugation_perms(self):
        # written from H's conjugations and the units, with no products
        # over all n: k h_a k^b k^{-1} = h_a k^(b + u_a^{-1} - 1), and for
        # x in H, x h_a k^b x^{-1} = (x h_a x^{-1}) k^(u_x b)
        h = self.h_group
        a, b = np.divmod(np.arange(self.order, dtype=np.int64), self.m)
        perms = [a * self.m + (b + self._inv_unit_array[a] - 1) % self.m]
        every_h = np.arange(self.l, dtype=np.int64)
        for x in dict.fromkeys(h._generator_idx().tolist()):
            h_conjugate = h.mul_idx(h.mul_idx(x, every_h), h.inv_idx[x])
            perms.append(h_conjugate[a] * self.m + self._unit_array[x] * b % self.m)
        return perms

    @cached_property
    def _k_orbit_labels(self) -> np.ndarray:
        # h_a k^b h_a^{-1} = k^(u_a b) and k fixes K: the orbits on Z_m of
        # b -> u b for the units of H's generators
        b = np.arange(self.m, dtype=np.int64)
        units = dict.fromkeys(self.units[x] for x in self.h_group._generator_idx().tolist())
        perms = [b * u % self.m for u in units if u != 1 % self.m]
        return _read_only(_orbit_labels(perms, self.m))

    def index(self, g) -> int:
        try:
            a, b = g
        except (TypeError, ValueError):
            raise KeyError(f"{g!r} is not an element of {self!r}") from None
        if not (isinstance(a, int) and isinstance(b, int)
                and 0 <= a < self.l and 0 <= b < self.m):
            raise KeyError(f"{g!r} is not an element of {self!r}")
        return a * self.m + b

    def _indices(self, elements: list) -> Optional[np.ndarray]:
        # a*m + b over all pairs at once, when every element unpacks into
        # two Python ints (bools too, as in ``index``) in range
        try:
            a, b = zip(*elements, strict=True)
            kinds = set(map(type, a))
            kinds.update(map(type, b))
            if not kinds <= {int, bool}:
                return None
            a, b = np.fromiter(a, np.int64, len(a)), np.fromiter(b, np.int64, len(b))
        except (TypeError, ValueError, OverflowError):
            return None
        if not ((0 <= a) & (a < self.l) & (0 <= b) & (b < self.m)).all():
            return None
        return a * self.m + b

    def coerce_element(self, raw):
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise ConfigError(f"split-extension element must be a pair, got {raw!r}")
        a, b = raw
        if any(not isinstance(x, int) or isinstance(x, bool) for x in (a, b)):
            raise ConfigError(f"element exponents must be integers, got {raw!r}")
        return (a % self.l, b % self.m)

    def split_parts(self):
        return [(0, b) for b in range(self.m)], [(a, 0) for a in range(self.l)]

    def signature(self):
        return ("split", self.m, self.h_group.signature(), self.units)


class MetacyclicGroup(SplitExtensionGroup):
    """Split metacyclic group C_m x| C_l with h k h^{-1} = k^r."""

    kind = "metacyclic"

    def __init__(self, m: int, l: int, r: int):
        _, m, l, r = self._signature_of(m, l, r)
        super().__init__(m, CyclicGroup(l), (pow(r, a, m) for a in range(l)))
        self.r = r

    @staticmethod
    def _signature_of(m, l, r) -> tuple:
        """The signature of ``MetacyclicGroup(m, l, r)``, from the arguments
        checked as the constructor checks them."""
        m, l = _integer(m, "m", least=1), _integer(l, "l", least=1)
        r = _integer(r, "r") % m
        if gcd(r, m) != 1:
            raise InvalidAction(f"r={r} is not a unit mod m={m}")
        if pow(r, l, m) != 1 % m:
            raise InvalidAction(
                f"r^l must be 1 mod m: r={r}, l={l}, m={m} gives {pow(r, l, m)}"
            )
        return ("metacyclic", m, l, r)

    def signature(self):
        return ("metacyclic", self.m, self.l, self.r)


class DihedralGroup(SplitExtensionGroup):
    """Dihedral group D_n of order 2n; ``(ref, rot)`` encodes s^ref * rho^rot."""

    kind = "dihedral"

    def __init__(self, n: int):
        _, n = self._signature_of(n)
        super().__init__(n, CyclicGroup(2), [1, (n - 1) % n])
        self.n = n

    @staticmethod
    def _signature_of(n) -> tuple:
        """The signature of ``DihedralGroup(n)``, from its checked argument."""
        return ("dihedral", _integer(n, "n", least=1))

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
        _, m, _, images = self._signature_of(m, h_group, generator_images)
        units = (prod(pow(img, e, m) for img, e in zip(images, h_group.generator_exponents(h))) % m
                 for h in h_group.elements())
        super().__init__(m, h_group, units)
        self.generator_images = images

    @staticmethod
    def _signature_of(m, h_group: FiniteGroup, generator_images) -> tuple:
        """The signature of ``SemidirectProductGroup(m, h_group,
        generator_images)``, from the arguments checked as the constructor
        checks them; the images are reduced mod m."""
        m = _integer(m, "m", least=1)
        images = [_integer(e, f"action[{i}]") for i, e in enumerate(generator_images)]
        _validate_action_images(h_group, images, m)
        return ("semidirect", m, h_group.signature(), tuple(img % m for img in images))

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
        self._split_idx = tuple(_read_only(np.array(sorted(map(self.index, part)), dtype=np.int64))
                                for part in (k_part, h_part))

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

    def _generator_idx(self):
        return np.array([self.index(g) for g in self.generators], dtype=np.int64)

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
        if self._split_idx is None:
            return None
        return tuple([self._elements[i] for i in part.tolist()] for part in self._split_idx)

    def signature(self):
        return ("permutation", self.degree, tuple(self.elements()))


# -- interning and memos ----------------------------------------------------

# every interned group by signature, while anything holds it
_interned = weakref.WeakValueDictionary()
# the ones held regardless, least recently interned first
_held: OrderedDict = OrderedDict()


def _intern(group: FiniteGroup) -> FiniteGroup:
    """The interned group equal to ``group``, which is built and so
    validated already: an earlier one with its signature, or ``group``
    itself.  The result becomes the most recently held group, and starts
    an empty memo when it was not held; the least recently interned
    group beyond ``_INTERN_HELD`` is released.  Permutation groups are
    returned as they are: their signature leaves out the split
    structure."""
    if isinstance(group, PermutationGroup):
        return group
    return _shared(group.signature(), lambda: group)


def _intern_new(kind, *args) -> FiniteGroup:
    """``_intern(kind(*args))`` for a split kind, which builds the group only
    when none with its signature is shared: ``kind._signature_of(*args)``
    checks the arguments as the constructor does and gives the signature."""
    return _shared(kind._signature_of(*args), lambda: kind(*args))


def _shared(key: tuple, build) -> FiniteGroup:
    """The interned group of signature ``key``, from ``build()`` when there
    is none; see ``_intern``."""
    shared = _held.get(key)
    if shared is not None:
        _held.move_to_end(key)
        return shared
    shared = _interned.get(key)
    if shared is None:
        shared = _interned[key] = build()
    shared._memo = {}
    _held[key] = shared
    if len(_held) > _INTERN_HELD:
        _release(_held.popitem(last=False)[1])
    return shared


def _release(group: FiniteGroup) -> None:
    """Drop a group's memo as it stops being held.  Its built-in irreps
    refer back to it, so a memo kept past that would leave the group to
    the cycle collector; a group that is not held memoizes nothing."""
    group._memo = None


def _clear_interned() -> None:
    """Forget every interned group, and so every memo and kept claim."""
    for group in _held.values():
        _release(group)
    _held.clear()
    _interned.clear()


def _memoized(owner: FiniteGroup, key, build, holds=None):
    """``build()``, kept in the memo of ``owner`` for the next call with
    ``key`` while ``owner`` is a held interned group; any other group
    memoizes nothing.  With ``holds``, a kept product is reused only when
    ``holds(product)``, and is otherwise built afresh and replaced.  A
    product is kept when it is not None, its ``nbytes`` are at most
    ``_BLOCK_BYTES`` and the memo has room among its ``_MEMO_ENTRIES``;
    the products are read-only."""
    memo = owner._memo
    if memo is None:
        return build()
    value = memo.get(key)
    if value is None or holds is not None and not holds(value):
        value = build()
        if (value is not None and value.nbytes <= _BLOCK_BYTES
                and (key in memo or len(memo) < _MEMO_ENTRIES)):
            memo[key] = value
    return value


# -- module-level operations -------------------------------------------------


def construct_group(config: Mapping) -> FiniteGroup:
    """Build a group from a structured description (the CLI config schema).

    Checks the description's shape: a mapping of a known type with exactly
    its fields, and lists where lists belong.  The constructors check the
    values: a malformed one (their ValueError) raises ConfigError here, and
    InvalidAction and CapacityExceeded pass through.  The values are
    checked before the interned groups are read (``_intern``,
    ``_intern_new``), so an equal group already shared never stands in for
    a malformed description.
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
            return _intern(CyclicGroup(need("n")))
        if kind == "dihedral":
            return _intern_new(DihedralGroup, need("n"))
        if kind == "abelian":
            return _intern(AbelianProductGroup(listed("orders", need("orders"))))
        if kind == "metacyclic":
            return _intern_new(MetacyclicGroup, need("m"), need("l"), need("r"))
        if kind == "semidirect":
            return _intern_new(SemidirectProductGroup, need("m"), construct_group(need("h")),
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
    """Orbits of the whole group's conjugation action on the normal part K,
    from ``_k_orbit_labels``: each ascending, ordered by least member."""
    labels = group._k_orbit_labels
    k_members = group.split_parts()[0]
    order = np.argsort(labels, kind="stable")
    cuts = (np.flatnonzero(np.diff(labels[order])) + 1).tolist()
    members = [k_members[j] for j in order.tolist()]
    return [members[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(members)])]


def is_generating_set(group: FiniteGroup, subset: Iterable = (), *,
                      indices: Optional[Iterable[int]] = None) -> tuple:
    """Whether the multiplicative closure of ``subset`` is the whole group.

    Returns ``(generates, closure_size)``.  ``indices``, the members'
    canonical indices, may be given in place of ``subset``.  The closure
    of a non-empty subset of a finite group is the subgroup it generates;
    an empty subset closes to nothing, ``(False, 0)``.

    On a split extension the closure is counted from the l cosets of K
    (``_split_closure_size``), in O(l |subset|) kernel products.  On the
    other kinds the generators are taken in index order, and one already
    reached is skipped: it lies in the subgroup the earlier ones generate.
    Each kept generator g grows the reached set T by doubling,
    T <- T u T g^(2^j) with the power squared each round, until
    T g^(2^j) lies in T; then T = T {1, g, ..., g^(2^j - 1)} is closed
    under g.  A breadth-first search under right multiplication by the
    kept generators, from all of T, closes T under all of them at once:
    O(n |kept|) kernel products, not O(n |subset|).
    """
    if indices is None:
        indices = [group.index(g) for g in subset]
    elif subset:
        raise ValueError("give the generators as elements or as indices, not both")
    gens = _sorted_unique(np.asarray(indices, dtype=np.int64).ravel())
    if gens.size == 0:
        return False, 0
    if isinstance(group, SplitExtensionGroup):
        size = _split_closure_size(group, gens)
        return size == group.order, size
    reached = np.zeros(group.order, dtype=bool)
    members = [np.array([group.index(group.identity)], dtype=np.int64)]
    reached[members[0]] = True
    kept = []
    for g in gens.tolist():
        if reached[g]:
            continue
        kept.append(g)
        power = g
        while True:
            fresh = _fresh_products(group, np.concatenate(members), np.array([power]), reached)
            if not fresh.size:
                break
            members.append(fresh)
            power = int(group.mul_idx(power, power))
    frontier = np.concatenate(members)
    size = frontier.size
    kept = np.array(kept, dtype=np.int64)
    while frontier.size:
        frontier = _fresh_products(group, frontier, kept, reached)
        size += frontier.size
    return size == group.order, size


def _split_closure_size(group: SplitExtensionGroup, gens: np.ndarray) -> int:
    """The order of the subgroup L that the ascending indices ``gens``
    generate in a split extension, from the l cosets of K.

    L acts on the cosets of K by right multiplication; the cosets it
    reaches are its orbit of K, and the stabiliser of K is L n K, so
    |L| = (cosets reached) * |L n K|.  Schreier's lemma gives L n K from
    one lift t_x in L per reached coset x (t_K = 1): it is generated by
    the t_x s t_{xs}^{-1}, over reached x and s in ``gens``.  Each lies in
    K = C_m, so L n K = <k^g> with g the gcd of their exponents and m.

    Two reductions keep the products few.  A member s = h_a k^b is
    s_a k^(b - b_a), with s_a = h_a k^(b_a) the least member of its coset,
    and t_x k^c t_x^{-1} = k^(u c) for a unit u, so the members other than
    the s_a only add their exponents b - b_a to the gcd.  And
    t_x s t_{xs}^{-1} = h_y k^(e - f) h_y^{-1} for t_x s = h_y k^e and
    t_{xs} = h_y k^f, whose exponent is e - f up to a unit: it is the
    difference of two indices in the same coset.

    Each s_a whose coset is new grows the reached cosets T by doubling, as
    ``is_generating_set`` grows elements: T <- T u T p with p = s_a^(2^j),
    one kernel call forming T p and the next power p p, until T p lies in
    T or T holds every coset.  A breadth-first search under all the s_a,
    from every reached coset, then closes T and forms each t_x s_a once.
    No kernel product is wider than l times the number of cosets ``gens``
    meet.
    """
    m = group.m
    a, b = np.divmod(gens, m)
    leads = np.diff(a, prepend=-1) != 0
    reps = gens[leads]
    exponents = [b - b[leads][np.cumsum(leads) - 1], [m]]
    lift = np.full(group.l, -1, dtype=np.int64)
    lift[0] = 0  # K itself, lifted by the identity
    for r in reps.tolist():
        if lift[r // m] >= 0:
            continue
        power = r
        while lift.min() < 0:
            products = group.mul_idx(np.append(lift[lift >= 0], power), power)
            power = int(products[-1])
            y = products[:-1] // m
            new = lift[y] < 0
            if not new.any():
                break
            lift[y[new]] = products[:-1][new]  # any product in coset y lifts it
    frontier = np.flatnonzero(lift >= 0)
    rows = _block_len(reps.size)
    while frontier.size:
        grown = np.zeros(group.l, dtype=bool)
        for lo in range(0, frontier.size, rows):
            products = group.mul_idx(lift[frontier[lo:lo + rows], None], reps).ravel()
            y = products // m
            new = lift[y] < 0
            lift[y[new]] = products[new]
            grown[y[new]] = True
            exponents.append(products - lift[y])
        frontier = np.flatnonzero(grown)
    g = int(np.gcd.reduce(np.concatenate(exponents)))
    return int(np.count_nonzero(lift >= 0)) * (m // g)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, ascending: a sort and a
    neighbour mask, where a plain ``np.unique`` imports ``numpy.ma``."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _fresh_products(group: FiniteGroup, left: np.ndarray, right: np.ndarray,
                    reached: np.ndarray) -> np.ndarray:
    """The products ``left[i] * right[j]`` not yet ``reached``, ascending;
    marks them reached.  Blocks of ``left`` keep each index temporary
    within ``_BLOCK_BYTES``."""
    fresh = []
    step = _block_len(right.size)
    for lo in range(0, left.size, step):
        products = group.mul_idx(left[lo:lo + step, None], right[None, :])
        products = _sorted_unique(products[~reached[products]])
        reached[products] = True
        fresh.append(products)
    return np.concatenate(fresh)
