"""The integer group kernel and the array paths built on it.

Each bulk path (adjacency, generation, classification, chaining) is
checked against the element-by-element loop it replaced, kept here as the
oracle: equal results, byte for byte where the arithmetic is unchanged.
"""

import random
from math import gcd

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cayleyspec import (
    AbelianProductGroup,
    ColorFunction,
    ConnectionSet,
    CyclicGroup,
    DihedralGroup,
    MetacyclicGroup,
    PermutationGroup,
    SemidirectProductGroup,
    adjacency_matrix,
    classify_connection_set,
    color_from_set,
    is_generating_set,
)
from cayleyspec.spectra import chain_groups

# -- oracles: the per-element loops the kernel paths replaced ----------------


def adjacency_oracle(group, color, ordering=None):
    elems = list(ordering) if ordering is not None else group.elements()
    n = len(elems)
    out = np.zeros((n, n), dtype=complex)
    inverses = [group.inv(g) for g in elems]
    for i in range(n):
        gi_inv = inverses[i]
        row = out[i]
        for j in range(n):
            value = color(group.mul(elems[j], gi_inv))
            if value != 0:
                row[j] = value
    return out


def generating_oracle(group, subset):
    closed = set(subset)
    for g in closed:
        group.index(g)
    frontier = list(closed)
    while frontier:
        fresh = set()
        snapshot = list(closed)
        for x in frontier:
            for y in snapshot:
                for p in (group.mul(x, y), group.mul(y, x)):
                    if p not in closed and p not in fresh:
                        fresh.add(p)
        closed |= fresh
        frontier = list(fresh)
    return len(closed) == group.order, len(closed)


def classify_oracle(group, subset):
    members = sorted(set(subset), key=group.index)
    witnesses = {}
    inverse_closed = True
    member_set = set(members)
    for s in members:
        if group.inv(s) not in member_set:
            inverse_closed = False
            witnesses["inverse_closed"] = (s, group.inv(s))
            break
    conjugation_closed = True
    for s in members:
        if not conjugation_closed:
            break
        for x in group.elements():
            conj = group.conjugate(s, x)
            if conj not in member_set:
                conjugation_closed = False
                witnesses["conjugation_closed"] = (x, s, conj)
                break
    generates, closure_size = generating_oracle(group, members)
    return ConnectionSet(
        elements=tuple(members),
        inverse_closed=inverse_closed,
        contains_identity=group.identity in member_set,
        generates=generates,
        closure_size=closure_size,
        conjugation_closed=conjugation_closed,
        witnesses=witnesses,
    )


def chain_oracle(values, tol):
    parent = list(range(len(values)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) <= tol:
                parent[find(i)] = find(j)
    groups = {}
    for idx in range(len(values)):
        groups.setdefault(find(idx), []).append(idx)
    return list(groups.values())


# -- groups of every kind ----------------------------------------------------


def s4():
    return PermutationGroup(
        [(1, 0, 2, 3), (1, 2, 3, 0)],
        normal_generators=[(1, 2, 0, 3), (1, 0, 3, 2)],
        complement_generators=[(1, 0, 2, 3)],
    )


def every_kind():
    return [
        CyclicGroup(1),
        CyclicGroup(9),
        AbelianProductGroup([2, 3, 4]),
        AbelianProductGroup([6]),
        DihedralGroup(1),
        DihedralGroup(6),
        MetacyclicGroup(7, 3, 2),
        MetacyclicGroup(9, 6, 2),
        SemidirectProductGroup(7, CyclicGroup(6), [3]),
        SemidirectProductGroup(5, AbelianProductGroup([2, 2]), [4, 1]),
        SemidirectProductGroup(7, DihedralGroup(3), [6, 1]),
        SemidirectProductGroup(8, DihedralGroup(2), [3, 7]),
        s4(),
        PermutationGroup([(1, 2, 0, 4, 3)]),
    ]


def _units(m, order):
    """Units u mod m with u^order = 1."""
    return [u for u in range(m) if gcd(u, m) == 1 and pow(u, order, m) == 1 % m]


@st.composite
def groups_strategy(draw):
    kind = draw(st.sampled_from(
        ["cyclic", "abelian", "dihedral", "metacyclic",
         "semi_cyclic", "semi_abelian", "semi_dihedral"]))
    if kind == "cyclic":
        return CyclicGroup(draw(st.integers(1, 30)))
    if kind == "abelian":
        return AbelianProductGroup(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    if kind == "dihedral":
        return DihedralGroup(draw(st.integers(1, 15)))
    m = draw(st.integers(1, 11))
    if kind == "metacyclic":
        l = draw(st.integers(1, 5))
        return MetacyclicGroup(m, l, draw(st.sampled_from(_units(m, l))))
    if kind == "semi_cyclic":
        l = draw(st.integers(1, 5))
        return SemidirectProductGroup(m, CyclicGroup(l), [draw(st.sampled_from(_units(m, l)))])
    if kind == "semi_abelian":
        orders = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
        images = [draw(st.sampled_from(_units(m, o))) for o in orders]
        return SemidirectProductGroup(m, AbelianProductGroup(orders), images)
    k = draw(st.integers(1, 3))
    rotations = [u for u in _units(m, k) if u * u % m == 1 % m]
    images = [draw(st.sampled_from(_units(m, 2))), draw(st.sampled_from(rotations))]
    return SemidirectProductGroup(m, DihedralGroup(k), images)


COLOR_VALUES = [1, -1, 2.5, 1j, complex(1, -0.0), complex(-0.0, 2), 0.25 - 3j]


@st.composite
def group_and_subset(draw):
    group = draw(groups_strategy())
    elems = group.elements()
    picks = draw(st.lists(st.integers(0, group.order - 1), max_size=min(12, group.order)))
    return group, [elems[i] for i in picks]


# -- kernel agreement --------------------------------------------------------


@pytest.mark.parametrize("group", every_kind(), ids=repr)
def test_kernel_agrees_with_mul_and_inv_on_all_pairs(group):
    elems = group.elements()
    idx = np.arange(group.order)
    table = group.mul_idx(idx[:, None], idx[None, :])
    assert table.shape == (group.order, group.order)
    expect = [[group.index(group.mul(a, b)) for b in elems] for a in elems]
    assert np.array_equal(table, expect)
    assert np.array_equal(group.inv_idx, [group.index(group.inv(a)) for a in elems])
    assert not group.inv_idx.flags.writeable
    # scalars and 1-D arrays broadcast like numpy operands
    assert int(group.mul_idx(group.order - 1, 0)) == group.order - 1
    assert np.array_equal(group.mul_idx(idx, 0), idx)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy())
def test_kernel_agrees_on_random_groups(group):
    elems = group.elements()
    idx = np.arange(group.order)
    table = group.mul_idx(idx[:, None], idx[None, :])
    expect = [[group.index(group.mul(a, b)) for b in elems] for a in elems]
    assert np.array_equal(table, expect)
    assert np.array_equal(group.inv_idx, [group.index(group.inv(a)) for a in elems])


def test_permutation_kernel_in_small_blocks(monkeypatch):
    from cayleyspec import groups as groups_module

    group = s4()
    idx = np.arange(group.order)
    whole = group.mul_idx(idx[:, None], idx[None, :])
    monkeypatch.setattr(groups_module, "_BLOCK_BYTES", 8 * 4 * 3)  # 3 rows a block
    assert np.array_equal(s4().mul_idx(idx[:, None], idx[None, :]), whole)


# -- adjacency ---------------------------------------------------------------


@pytest.mark.parametrize("group", every_kind(), ids=repr)
def test_adjacency_byte_equal_to_loop(group):
    rng = random.Random(group.order)
    elems = group.elements()
    color = ColorFunction(group, {
        g: rng.choice(COLOR_VALUES) for g in rng.sample(elems, (group.order + 1) // 2)
    })
    built = adjacency_matrix(group, color)
    expect = adjacency_oracle(group, color)
    assert built.matrix.dtype == expect.dtype and built.matrix.shape == expect.shape
    assert built.matrix.tobytes() == expect.tobytes()
    assert built.ordering == tuple(elems)

    shuffled = list(elems)
    rng.shuffle(shuffled)
    built = adjacency_matrix(group, color, ordering=shuffled)
    assert built.matrix.tobytes() == adjacency_oracle(group, color, shuffled).tobytes()
    assert built.ordering == tuple(shuffled)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_and_subset(), st.randoms(use_true_random=False))
def test_adjacency_byte_equal_on_random_inputs(case, rng):
    group, subset = case
    color = ColorFunction(group, {g: rng.choice(COLOR_VALUES) for g in subset})
    ordering = list(group.elements())
    rng.shuffle(ordering)
    for order in (None, ordering):
        built = adjacency_matrix(group, color, ordering=order)
        assert built.matrix.tobytes() == adjacency_oracle(group, color, order).tobytes()


def test_adjacency_in_row_blocks(monkeypatch):
    from cayleyspec import groups as groups_module

    group = MetacyclicGroup(13, 4, 5)
    color = color_from_set(group, [(0, 1), (0, 12), (1, 3), (3, 7)])
    expect = adjacency_oracle(group, color)
    monkeypatch.setattr(groups_module, "_BLOCK_BYTES", 8 * 52 * 5)  # 5 rows a block
    assert adjacency_matrix(group, color).matrix.tobytes() == expect.tobytes()


# -- generation and classification --------------------------------------------


@pytest.mark.parametrize("group", every_kind(), ids=repr)
def test_generation_and_classification_edge_sets(group):
    elems = group.elements()
    rng = random.Random(3 * group.order)
    subsets = [[], [group.identity], elems, elems[1:], rng.sample(elems, min(3, group.order))]
    for subset in subsets:
        assert is_generating_set(group, subset) == generating_oracle(group, subset)
        assert classify_connection_set(group, subset) == classify_oracle(group, subset)
    assert is_generating_set(group, []) == (False, 0)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_and_subset())
def test_generation_and_classification_match_oracles(case):
    group, subset = case
    assert is_generating_set(group, subset) == generating_oracle(group, subset)
    assert classify_connection_set(group, subset) == classify_oracle(group, subset)


def test_classification_in_small_blocks(monkeypatch):
    from cayleyspec import groups as groups_module

    group = MetacyclicGroup(13, 4, 5)
    subset = [(0, b) for b in range(1, 13)] + [(1, 0), (3, 0), (2, 6)]
    expect = classify_oracle(group, subset)
    assert expect.witnesses  # not closed: a witness to reproduce
    monkeypatch.setattr(groups_module, "_BLOCK_BYTES", 8 * 52 * 2)
    assert classify_connection_set(group, subset) == expect
    assert is_generating_set(group, subset) == generating_oracle(group, subset)


def test_bulk_paths_make_no_per_pair_calls():
    """At n = 889 the array paths must not fall back to per-element
    dispatch: a handful of mul/inv calls per connection-set member at most,
    never one per pair of elements."""
    group = MetacyclicGroup(127, 7, 2)
    subset = [(0, b) for b in range(1, 127)] + [(1, 0), (6, 0)]
    color = color_from_set(group, subset)
    calls = {"mul": 0, "inv": 0}
    for name in calls:
        original = getattr(group, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        setattr(group, name, counted)
    conn = classify_connection_set(group, subset)
    generates = is_generating_set(group, subset)
    adjacency = adjacency_matrix(group, color)
    assert conn.generates and generates == (True, 889)
    assert adjacency.n == 889
    assert calls["mul"] + calls["inv"] <= 4 * len(subset), calls


# -- chaining ------------------------------------------------------------------


def _edge_values(tol):
    """Values that chain across grid cells, sit on cell edges, and fall
    just beyond ``tol`` of each other."""
    step = np.nextafter(tol, 0)  # chains
    gap = np.nextafter(tol, 1)   # does not
    values = [0j, complex(step, 0), complex(2 * step, 0), complex(2 * step + gap, 0)]
    values += [complex(0, 5 * tol), complex(0, 5 * tol + step), complex(0, 6 * tol + 2 * gap)]
    values += [complex(-tol, -tol), complex(-tol - 0.6 * tol, -tol - 0.6 * tol)]
    values += [complex(k * tol, 10) for k in range(-4, 5)]          # cell edges
    values += [complex(3, 3) + tol * np.exp(1j * t) for t in (0.0, 1.0, 2.5)]
    values += [complex(3, 3), complex(3, 3), 0j, complex(2 * step, 0)]  # exact repeats
    values += [complex(float("nan"), 0), complex(float("inf"), 0), complex(float("inf"), 0)]
    values += [complex(1e6, -1e6), complex(1e6 + tol, -1e6)]
    return values


@pytest.mark.parametrize("tol", [1e-9, 0.1, 1.0, 0.0, -1.0])
def test_chain_groups_matches_all_pairs(tol):
    values = _edge_values(tol if tol > 0 else 1e-9)
    rng = random.Random(17)
    for _ in range(5):
        assert chain_groups(values, tol) == chain_oracle(values, tol)
        rng.shuffle(values)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                       st.sampled_from([0.0, 1e-12, -1e-12, 0.5])), max_size=40),
    st.sampled_from([1e-9, 0.5, 1.0, 1.5]),
)
def test_chain_groups_matches_all_pairs_on_lattices(points, tol):
    # lattice multiples of tol with dust: many pairs exactly at or near tol
    values = [complex(x * tol / 2 + d, y * tol / 2 - d) for x, y, d in points]
    assert chain_groups(values, tol) == chain_oracle(values, tol)


def test_chain_groups_rejects_infinite_distance():
    with pytest.raises(ValueError):
        chain_groups([0j, 1j], float("inf"))
