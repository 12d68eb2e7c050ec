"""The integer group kernel and the array paths built on it.

Each bulk path (adjacency, generation, classification, conjugation
orbits and their witnesses, chaining, color storage) is checked against
the element-by-element loop it replaced, kept here as the oracle: equal
results, byte for byte where the arithmetic is unchanged.
"""

import random
from math import gcd

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cayleyspec import (
    AbelianProductGroup,
    ColorFunction,
    ConjugacyClass,
    ConnectionSet,
    CyclicGroup,
    DihedralGroup,
    HypothesisReport,
    MetacyclicGroup,
    PermutationGroup,
    SemidirectProductGroup,
    SplitExtensionGroup,
    adjacency_matrix,
    beta_blocks,
    check_split_hypotheses,
    classify_connection_set,
    color_from_set,
    conjugation_orbits_on_k,
    is_generating_set,
)
from cayleyspec import spectra
from cayleyspec.spectra import ConditionWitness, _chain_labels, _value_order

# -- oracles: the per-element loops the kernel paths replaced ----------------


def adjacency_oracle(group, color):
    elems = group.elements()
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


def kernel_gather_oracle(group, color):
    """Alpha at ``mul_idx(j, inv_idx[i])`` over all n^2 pairs.  Split kinds
    build their adjacency from the beta table, so this is their reference."""
    columns = np.arange(group.order, dtype=np.int64)
    return color.vector[group.mul_idx(columns[None, :], group.inv_idx[:, None])]


def beta_oracle(group, color, i, j):
    """beta_ij(k^c) = alpha(h_j k^c h_i^{-1}) for c = 0..m-1."""
    h_i_inv = group.inv((i, 0))
    return [color(group.mul(group.mul((j, 0), (0, c)), h_i_inv)) for c in range(group.m)]


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


def conjugation_orbits_oracle(group, seeds, conjugators):
    seen = set()
    orbits = []
    for g in seeds:
        if g in seen:
            continue
        orbit = {group.conjugate(g, x) for x in conjugators}
        members = tuple(sorted(orbit, key=group.index))
        seen |= orbit
        orbits.append(ConjugacyClass(representative=members[0], members=members))
    return orbits


def find_conjugator_oracle(group, source, target, candidates):
    for x in candidates:
        if group.conjugate(source, x) == target:
            return x
    raise AssertionError("orbit members must be conjugate")


def dict_color_oracle(values):
    """The dict a color used to store: nonzero values, zeros omitted."""
    table = {g: complex(v) for g, v in values.items() if complex(v) != 0}
    return lambda g: table.get(g, 0j)


def class_witness_oracle(group, alpha):
    elems = group.elements()
    for cls in conjugation_orbits_oracle(group, elems, elems):
        base = alpha(cls.representative)
        for member in cls.members:
            if alpha(member) != base:
                x = find_conjugator_oracle(group, cls.representative, member, elems)
                return (cls.representative, x, member, base, alpha(member))
    return None


def hypotheses_oracle(group, alpha):
    k_members, h_members = group.split_parts()
    orbits = [list(cls.members) for cls in
              conjugation_orbits_oracle(group, k_members, group.elements())]
    witness_a = None
    for h in h_members:
        for orbit in orbits:
            base_k = orbit[0]
            base = alpha(group.mul(h, base_k))
            for other_k in orbit[1:]:
                value = alpha(group.mul(h, other_k))
                if value != base and witness_a is None:
                    g = find_conjugator_oracle(group, base_k, other_k, group.elements())
                    witness_a = ConditionWitness((h, g, base_k), group.mul(h, other_k),
                                                 group.mul(h, base_k), value, base)
    witness_b = None
    for cls in conjugation_orbits_oracle(group, h_members, h_members):
        base_h = cls.representative
        for k in k_members:
            base = alpha(group.mul(base_h, k))
            for other_h in cls.members:
                value = alpha(group.mul(other_h, k))
                if value != base and witness_b is None:
                    x = find_conjugator_oracle(group, base_h, other_h, h_members)
                    witness_b = ConditionWitness((x, base_h, k), group.mul(other_h, k),
                                                 group.mul(base_h, k), value, base)
    return HypothesisReport(witness_a is None, witness_b is None, witness_a, witness_b)


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


def s3_on_c7():
    """S3 acting on C7 by 6 on its odd permutations and 1 on the even ones:
    a split kind over a permutation complement, which ``groups_strategy``
    never draws, so its products go through a permutation kernel."""
    s3 = PermutationGroup([(1, 2, 0), (1, 0, 2)])
    odd = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2
           for p in s3.elements()]
    return SplitExtensionGroup(7, s3, [6 if o else 1 for o in odd])


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
        s3_on_c7(),
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
         "semi_cyclic", "semi_abelian", "semi_dihedral", "permutation"]))
    if kind == "permutation":
        degree = draw(st.integers(1, 5))
        return PermutationGroup(draw(st.lists(st.permutations(range(degree)),
                                              min_size=1, max_size=2)))
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


def check_group_axioms(group):
    """Identity, two-sided inverses and associativity, read only from
    ``mul_idx`` and ``inv_idx``; associativity is one n^3 gather."""
    idx = np.arange(group.order)
    e = group.index(group.identity)
    table = group.mul_idx(idx[:, None], idx[None, :])
    assert np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx)
    assert (group.mul_idx(idx, group.inv_idx) == e).all()
    assert (group.mul_idx(group.inv_idx, idx) == e).all()
    assert np.array_equal(group.mul_idx(table[:, :, None], idx),
                          group.mul_idx(idx[:, None, None], table[None, :, :]))


@pytest.mark.parametrize("group", every_kind(), ids=repr)
def test_group_axioms(group):
    check_group_axioms(group)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy())
def test_group_axioms_on_random_groups(group):
    check_group_axioms(group)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy())
def test_kernel_agrees_on_random_groups(group):
    elems = group.elements()
    idx = np.arange(group.order)
    table = group.mul_idx(idx[:, None], idx[None, :])
    expect = [[group.index(group.mul(a, b)) for b in elems] for a in elems]
    assert np.array_equal(table, expect)
    assert np.array_equal(group.inv_idx, [group.index(group.inv(a)) for a in elems])


def test_split_extension_over_a_permutation_complement():
    """``mul``/``inv`` on S3 x| C7 against products written from the
    permutations: h_a k^b h_c k^d = (h_a h_c) k^(b u_c^-1 + d), and
    u^-1 = u for u = 1, 6.  ``every_kind`` checks the kernel against them."""
    group = s3_on_c7()
    perms = group.h_group.elements()
    for a, b in group.elements():
        h_inv = perms.index(tuple(sorted(range(3), key=perms[a].__getitem__)))
        assert group.inv((a, b)) == (h_inv, -b * group.units[a] % 7)
        for c, d in group.elements():
            h = perms.index(tuple(perms[a][x] for x in perms[c]))
            assert group.mul((a, b), (c, d)) == (h, (b * group.units[c] + d) % 7)


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


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_and_subset(), st.randoms(use_true_random=False))
def test_adjacency_byte_equal_on_random_inputs(case, rng):
    group, subset = case
    color = ColorFunction(group, {g: rng.choice(COLOR_VALUES) for g in subset})
    built = adjacency_matrix(group, color)
    assert built.matrix.tobytes() == adjacency_oracle(group, color).tobytes()


def test_adjacency_in_row_blocks(monkeypatch):
    from cayleyspec import groups as groups_module

    monkeypatch.setattr(groups_module, "_BLOCK_BYTES", 8 * 52 * 5)  # 5 rows a block
    # split kinds copy their beta table: the non-split kind runs the row blocks
    for group in (MetacyclicGroup(13, 4, 5), AbelianProductGroup([4, 13])):
        color = color_from_set(group, [(0, 1), (0, 12), (1, 3), (3, 7)])
        expect = adjacency_oracle(group, color)
        assert adjacency_matrix(group, color).matrix.tobytes() == expect.tobytes()


# colors that stress a copy: NaN and infinite parts, and a signed zero
# (equal to 0, so never stored)
SPECIAL_VALUES = [complex("nan+1j"), complex(-0.0, float("inf")), complex(0.0, -0.0)]


def random_complex_color(group, rng):
    elems = group.elements()
    values = {}
    for g in rng.sample(elems, rng.randint(0, group.order)):
        if rng.random() < 0.2:
            values[g] = rng.choice(SPECIAL_VALUES)
        else:
            values[g] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return ColorFunction(group, values)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy().filter(lambda group: isinstance(group, SplitExtensionGroup)),
       st.randoms(use_true_random=False))
def test_split_adjacency_equals_the_kernel_gather(group, rng):
    color = random_complex_color(group, rng)
    built = adjacency_matrix(group, color).matrix
    assert not built.flags.writeable
    assert built.dtype == complex and built.shape == (group.order, group.order)
    assert built.tobytes() == kernel_gather_oracle(group, color).tobytes()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_and_subset().filter(lambda case: isinstance(case[0], SplitExtensionGroup)),
       st.randoms(use_true_random=False))
def test_beta_blocks_assemble_the_adjacency_on_random_inputs(case, rng):
    group, subset = case
    color = ColorFunction(group, {g: rng.choice(COLOR_VALUES) for g in subset})
    decomposition = beta_blocks(group, color)
    assembled = decomposition.assemble()
    assert assembled.dtype == complex
    assert assembled.tobytes() == kernel_gather_oracle(group, color).tobytes()
    for i in range(group.l):
        for j in range(group.l):
            beta = beta_oracle(group, color, i, j)
            assert decomposition.beta(i, j) == {c: v for c, v in enumerate(beta) if v != 0}
            assert decomposition.beta_values[i, j].tobytes() == np.array(beta).tobytes()


# -- generation and classification --------------------------------------------


@pytest.mark.parametrize("group", every_kind(), ids=repr)
def test_generation_and_classification_edge_sets(group):
    elems = group.elements()
    rng = random.Random(3 * group.order)
    subsets = [[], [group.identity], elems, elems[1:], rng.sample(elems, min(3, group.order))]
    a, b = rng.choice(elems), rng.choice(elems)
    # redundant generators: powers, inverses and products of earlier ones
    subsets.append([a, b, group.mul(a, b), group.mul(a, a), group.inv(b), group.mul(b, a)])
    # one element: doubling stops at the cyclic subgroup, proper unless G is cyclic
    subsets += [[a], [group.mul(a, a), a]]
    for subset in subsets:
        assert is_generating_set(group, subset) == generating_oracle(group, subset)
        assert classify_connection_set(group, subset) == classify_oracle(group, subset)
    assert is_generating_set(group, []) == (False, 0)
    assert is_generating_set(group, indices=[group.index(a), group.index(b)]) == \
        is_generating_set(group, [a, b])
    with pytest.raises(ValueError):
        is_generating_set(group, [a], indices=[group.index(a)])


def test_generation_in_a_permutation_group():
    """S5 from redundant transpositions and a 5-cycle, and its proper
    subgroups A5 (from 3-cycles) and the order-10 dihedral subgroup."""
    group = PermutationGroup([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    cases = [
        ([(1, 0, 2, 3, 4), (0, 2, 1, 3, 4), (2, 1, 0, 3, 4), (1, 2, 3, 4, 0)], (True, 120)),
        ([(1, 2, 0, 3, 4), (0, 2, 3, 1, 4), (0, 1, 3, 4, 2)], (False, 60)),
        ([(1, 2, 3, 4, 0), (0, 4, 3, 2, 1), (4, 3, 2, 1, 0)], (False, 10)),
    ]
    for subset, expect in cases:
        assert is_generating_set(group, subset) == expect == generating_oracle(group, subset)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_and_subset())
def test_generation_and_classification_match_oracles(case):
    group, subset = case
    assert is_generating_set(group, subset) == generating_oracle(group, subset)
    assert classify_connection_set(group, subset) == classify_oracle(group, subset)


def wide_conjugation_witness(group, subset):
    """The conjugation witness as one n-wide gather finds it: the seed's
    orbit under every conjugator, and the least first conjugator of the
    members outside the set."""
    from cayleyspec.groups import _conjugation_orbits

    in_set = np.zeros(group.order, dtype=bool)
    in_set[[group.index(g) for g in subset]] = True
    labels = group._class_labels
    leaves = np.zeros(group.order, dtype=bool)
    leaves[labels[~in_set]] = True
    escaping = np.flatnonzero(in_set & leaves[labels])
    if not escaping.size:
        return None
    seed = escaping[0]
    orbit, first = next(_conjugation_orbits(group, [seed], np.arange(group.order)))
    k = np.argmin(np.where(in_set[orbit], group.order, first))
    elems = group.elements()
    return elems[first[k]], elems[seed], elems[orbit[k]]


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_and_subset())
# conjugation by K fixes k, so the first conjugator that leaves the set
# lies past K: in the second block of the sweep, and in its third
@example((MetacyclicGroup(67, 3, 29), [(0, 1), (1, 0)]))
@example((DihedralGroup(300), [(0, 1)]))
@example((DihedralGroup(80), [(0, b) for b in range(1, 80)] + [(1, 0)]))
def test_conjugation_witness_matches_the_n_wide_scan(case):
    """The sweep that stops at its first block leaving the set finds the
    n-wide gather's witness, bit for bit."""
    group, subset = case
    got = classify_connection_set(group, subset).witnesses.get("conjugation_closed")
    assert got == wide_conjugation_witness(group, subset)


def test_classification_in_small_blocks(monkeypatch):
    from cayleyspec import groups as groups_module

    group = MetacyclicGroup(13, 4, 5)
    subset = [(0, b) for b in range(1, 13)] + [(1, 0), (3, 0), (2, 6)]
    expect = classify_oracle(group, subset)
    assert expect.witnesses  # not closed: a witness to reproduce
    monkeypatch.setattr(groups_module, "_BLOCK_BYTES", 8 * 52 * 2)
    assert classify_connection_set(group, subset) == expect
    assert is_generating_set(group, subset) == generating_oracle(group, subset)


@st.composite
def split_group_and_subset(draw):
    """A split kind of ``groups_strategy()`` and a subset drawn inside K,
    inside one coset of K, across cosets, or with redundant members
    (products, powers and inverses of the others)."""
    group = draw(groups_strategy().filter(lambda g: isinstance(g, SplitExtensionGroup)))
    m, n = group.m, group.order
    way = draw(st.sampled_from(["in K", "one coset", "mixed", "redundant"]))
    if way == "in K":
        picks = draw(st.lists(st.integers(0, m - 1), max_size=4))
    elif way == "one coset":
        a = draw(st.integers(0, group.l - 1))
        picks = [a * m + b for b in draw(st.lists(st.integers(0, m - 1), max_size=4))]
    else:
        picks = draw(st.lists(st.integers(0, n - 1), min_size=1 if way == "redundant" else 0,
                              max_size=5))
        if way == "redundant":
            x, y = picks[0], picks[-1]
            picks += [int(group.mul_idx(x, y)), int(group.mul_idx(y, y)), int(group.inv_idx[x])]
    elems = group.elements()
    return group, [elems[i] for i in picks]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(split_group_and_subset())
@example((SemidirectProductGroup(1, CyclicGroup(6), [0]), [(2, 0), (4, 0)]))  # m = 1
@example((SemidirectProductGroup(1, CyclicGroup(6), [0]), [(0, 0)]))
@example((MetacyclicGroup(12, 1, 1), [(0, 4), (0, 6)]))  # l = 1, <S> n K = <k^2>
@example((MetacyclicGroup(12, 2, 5), [(1, 3), (0, 8)]))  # <S> n K = <k^2>, all cosets
@example((DihedralGroup(1), [(1, 0)]))
@example((DihedralGroup(9), []))
def test_split_generation_matches_the_oracle(case):
    group, subset = case
    expect = generating_oracle(group, subset) if subset else (False, 0)
    assert is_generating_set(group, subset) == expect


def test_split_generation_walks_the_cosets(monkeypatch):
    """On a split kind no elementwise closure runs, and no kernel product
    is wider than l times the number of distinct members."""
    from cayleyspec import groups as groups_module

    def refuse(*args):
        raise AssertionError("the split path ran the elementwise closure")

    monkeypatch.setattr(groups_module, "_fresh_products", refuse)
    family = [(0, b) for b in range(1, 1009)] + [(1, 0), (8, 0)]
    cases = [(MetacyclicGroup(1009, 9, 337), family, (True, 9081)),
             (DihedralGroup(5000), [(0, 2), (1, 0)], (False, 5000)),
             (MetacyclicGroup(1009, 9, 337), [(0, 1), (3, 0)], (False, 3027)),
             (SemidirectProductGroup(1, CyclicGroup(64), [0]), [(1, 0)], (True, 64))]
    for group in every_kind() + [SemidirectProductGroup(15, DihedralGroup(4), [14, 4])]:
        if isinstance(group, SplitExtensionGroup):
            subset = random.Random(group.order).sample(group.elements(), min(5, group.order))
            cases.append((group, subset, generating_oracle(group, subset)))
    for group, subset, expect in cases:
        widths = []
        kernel = group.mul_idx

        def recorded(left, right, _kernel=kernel, _widths=widths):
            product = _kernel(left, right)
            _widths.append(np.size(product))
            return product

        group.mul_idx = recorded
        assert is_generating_set(group, subset) == expect
        assert widths and max(widths) <= group.l * len(set(subset)), (group, max(widths))


# -- conjugation orbits, their witnesses, and colors -------------------------


def random_color_values(group, rng, share):
    elems = group.elements()
    return {g: rng.choice(COLOR_VALUES) for g in rng.sample(elems, int(share * group.order))}


def class_color_values(group, rng):
    return {g: w for cls in group.conjugacy_classes()
            for w in [rng.choice(COLOR_VALUES)] for g in cls.members}


def check_orbits_and_witnesses(group, rng):
    elems = group.elements()
    assert group.conjugacy_classes() == conjugation_orbits_oracle(group, elems, elems)
    cases = [{}, class_color_values(group, rng)]
    cases += [random_color_values(group, rng, share) for share in (0.1, 0.5, 1.0)]
    for values in cases:
        color, alpha = ColorFunction(group, values), dict_color_oracle(values)
        assert color.class_function_witness() == class_witness_oracle(group, alpha)
        assert color.is_class_function == (class_witness_oracle(group, alpha) is None)
    parts = getattr(group, "split_parts", lambda: None)()
    if parts is None:
        return
    k_members, _ = parts
    assert conjugation_orbits_on_k(group) == [
        list(cls.members) for cls in conjugation_orbits_oracle(group, k_members, elems)]
    for values in cases:
        color, alpha = ColorFunction(group, values), dict_color_oracle(values)
        assert check_split_hypotheses(group, color) == hypotheses_oracle(group, alpha)


@pytest.mark.parametrize("group", every_kind(), ids=repr)
def test_conjugation_sweep_matches_element_loops(group):
    check_orbits_and_witnesses(group, random.Random(5 * group.order))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy(), st.randoms(use_true_random=False))
def test_conjugation_sweep_matches_element_loops_on_random_groups(group, rng):
    check_orbits_and_witnesses(group, rng)


# -- the all-seeds sweep that the class labels replaced ---------------------


def sweep_orbits(group, seeds, conjugators):
    """One n-wide gather ``x s x^{-1}`` per seed no earlier orbit reached:
    (members ascending, first conjugator per member), in seed order."""
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


def sweep_classes(group):
    everything = np.arange(group.order, dtype=np.int64)
    return list(sweep_orbits(group, everything, everything))


def sweep_class_witness(group, color):
    elems = group.elements()
    for members, first in sweep_classes(group):
        values = color.vector[members]
        differ = np.flatnonzero(values != values[0])
        if differ.size:
            k = differ[0]
            return (elems[members[0]], elems[first[k]], elems[members[k]],
                    complex(values[0]), complex(values[k]))
    return None


def sweep_conjugation_witness(group, subset):
    elems = group.elements()
    member_idx = np.array(sorted({group.index(g) for g in subset}), dtype=np.int64)
    in_set = np.zeros(group.order, dtype=bool)
    in_set[member_idx] = True
    for orbit, first in sweep_orbits(group, member_idx, np.arange(group.order)):
        outside = ~in_set[orbit]
        if outside.any():
            k = np.argmin(np.where(outside, first, group.order))
            return (elems[first[k]], elems[orbit[np.argmax(~outside)]], elems[orbit[k]])
    return None


def sweep_orbits_on_k(group):
    """The orbits on K from one all-conjugators gather per K seed, on
    every kind."""
    elems = group.elements()
    seeds = [group.index(k) for k in group.split_parts()[0]]
    return [[elems[i] for i in members.tolist()]
            for members, _ in sweep_orbits(group, seeds, np.arange(group.order))]


def sweep_split_report(group, color):
    """``check_split_hypotheses`` as it ran on the all-seeds sweep."""
    k_members, h_members = group.split_parts()
    elems = group.elements()
    h_idx = np.array([group.index(h) for h in h_members], dtype=np.int64)
    k_idx = np.array([group.index(k) for k in k_members], dtype=np.int64)
    table = color.vector[group.mul_idx(h_idx[:, None], k_idx[None, :])]

    def witness(triple, i, j, base_i, base_j):
        return ConditionWitness(triple, group.mul(h_members[i], k_members[j]),
                                group.mul(h_members[base_i], k_members[base_j]),
                                table[i, j].item(), table[base_i, base_j].item())

    k_pos = {k: j for j, k in enumerate(k_members)}
    pairs = np.array([(k_pos[orbit[0]], k_pos[k]) for orbit in sweep_orbits_on_k(group)
                      for k in orbit[1:]], dtype=np.int64).reshape(-1, 2)
    bad = np.flatnonzero(table[:, pairs[:, 1]] != table[:, pairs[:, 0]])
    witness_a = None
    if bad.size:
        i, c = divmod(int(bad[0]), len(pairs))
        base_j, j = pairs[c].tolist()
        members, first = next(sweep_orbits(group, k_idx[base_j:base_j + 1],
                                           np.arange(group.order)))
        g = elems[first[np.searchsorted(members, k_idx[j])]]
        witness_a = witness((h_members[i], g, k_members[base_j]), i, j, i, base_j)
    if isinstance(group, SplitExtensionGroup):
        h_classes = sweep_classes(group.h_group)
    else:
        h_pos = np.empty(group.order, dtype=np.int64)
        h_pos[h_idx] = np.arange(h_idx.size)
        h_classes = [(h_pos[members], h_pos[first])
                     for members, first in sweep_orbits(group, h_idx, h_idx)]
    witness_b = None
    for members, first in h_classes:
        bad = np.flatnonzero((table[members] != table[members[0]]).T)
        if bad.size:
            j, p = divmod(int(bad[0]), members.size)
            base_i, i = int(members[0]), int(members[p])
            witness_b = witness((h_members[first[p]], h_members[base_i], k_members[j]),
                                i, j, base_i, j)
            break
    return HypothesisReport(witness_a is None, witness_b is None, witness_a, witness_b)


def random_subsets(group, rng):
    """Random subsets, unions of classes, and unions of classes with one
    member dropped (closed but for one class)."""
    elems = group.elements()
    classes = [list(cls.members) for cls in group.conjugacy_classes()]
    subsets = [rng.sample(elems, rng.randrange(group.order + 1)) for _ in range(3)]
    for _ in range(3):
        union = [g for cls in rng.sample(classes, rng.randrange(len(classes) + 1)) for g in cls]
        subsets.append(union)
        if union:
            subsets.append(union[:-1] if rng.random() < 0.5 else union[1:])
    return subsets


def check_labels_against_the_sweep(group, rng):
    n = group.order
    assert is_generating_set(group, indices=group._generator_idx()) == (True, n)
    labels = group._class_labels
    assert not labels.flags.writeable
    swept = sweep_classes(group)
    assert len(group._class_orbits) == len(swept)
    for members, (expect, _) in zip(group._class_orbits, swept):
        assert members.tolist() == expect.tolist()
        assert (labels[members] == expect[0]).all()
    cases = [{}, class_color_values(group, rng)]
    cases += [random_color_values(group, rng, share) for share in (0.1, 0.5, 1.0)]
    colors = [ColorFunction(group, values) for values in cases]
    for color in colors:
        assert color.class_function_witness() == sweep_class_witness(group, color)
    for subset in random_subsets(group, rng):
        got = classify_connection_set(group, subset).witnesses.get("conjugation_closed")
        assert got == sweep_conjugation_witness(group, subset)
    if getattr(group, "split_parts", lambda: None)() is None:
        return
    assert conjugation_orbits_on_k(group) == sweep_orbits_on_k(group)
    for color in colors:
        assert check_split_hypotheses(group, color) == sweep_split_report(group, color)


# a D5 complement: its rotation classes {1, 4} and {2, 3} are not
# contiguous, so the first bad row need not carry the least class label
@pytest.mark.parametrize("group", every_kind() + [SemidirectProductGroup(7, DihedralGroup(5), [6, 1])],
                         ids=repr)
def test_class_labels_match_the_all_seeds_sweep(group):
    check_labels_against_the_sweep(group, random.Random(11 * group.order))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy(), st.randoms(use_true_random=False))
def test_class_labels_match_the_all_seeds_sweep_on_random_groups(group, rng):
    check_labels_against_the_sweep(group, rng)


@pytest.mark.parametrize("group", [
    MetacyclicGroup(1, 7, 0), MetacyclicGroup(9, 1, 1), DihedralGroup(1), DihedralGroup(2),
    SemidirectProductGroup(1, AbelianProductGroup([2, 3]), [0, 0]),
    SemidirectProductGroup(9, AbelianProductGroup([1]), [1])], ids=repr)
def test_k_orbit_labels_match_the_all_seeds_sweep_at_the_edges(group):
    """m = 1, l = 1, D1 and D2: the K-orbit labels from the units, and the
    orbits and hypothesis reports read from them, against the sweep."""
    labels = group._k_orbit_labels
    assert labels.dtype == np.int64 and not labels.flags.writeable
    check_labels_against_the_sweep(group, random.Random(13 * group.order))


@pytest.mark.parametrize("group", [
    SemidirectProductGroup(9, DihedralGroup(3), [8, 1]), DihedralGroup(1), DihedralGroup(2),
    MetacyclicGroup(9, 3, 4), s3_on_c7()], ids=repr)
def test_split_conjugation_permutations_match_the_kernel_and_the_sweep(group):
    """The permutations written from H's conjugations and the units are the
    kernel's x g x^{-1}, generator by generator, and their orbits are the
    all-seeds sweep's classes."""
    from cayleyspec.groups import FiniteGroup

    written = group._conjugation_perms()
    formed = FiniteGroup._conjugation_perms(group)
    assert len(written) == len(formed)
    for p, q in zip(written, formed):
        assert p.dtype == np.int64 and np.array_equal(p, q)
        assert np.array_equal(np.sort(p), np.arange(group.order))
    assert [members.tolist() for members in group._class_orbits] == \
        [members.tolist() for members, _ in sweep_classes(group)]


@pytest.mark.parametrize("group", [DihedralGroup(3), MetacyclicGroup(7, 3, 2), s4()], ids=repr)
def test_split_witnesses_with_a_nan_at_an_orbits_least_member(group):
    """NaN differs from itself, and condition A compares each orbit member
    with the least one, never the least with itself: a NaN at the
    identity (a singleton orbit) or at the least member of a larger orbit
    gives the loops' report."""
    k_members, _ = group.split_parts()
    for spoiled in k_members[:2]:
        values = {k: 1.0 for k in k_members} | {spoiled: complex("nan+1j")}
        report = check_split_hypotheses(group, ColorFunction(group, values))
        # repr, as a NaN value makes two equal witnesses compare unequal
        assert repr(report) == repr(hypotheses_oracle(group, dict_color_oracle(values)))


def test_split_witnesses_on_a_layered_color():
    # invariant except for one value: each condition fails late in its sweep
    group = SemidirectProductGroup(7, DihedralGroup(3), [6, 1])
    h_class = {a: i for i, cls in enumerate(group.h_group.conjugacy_classes())
               for a in map(group.h_group.index, cls.members)}
    k_orbit = {k[1]: i for i, orbit in enumerate(conjugation_orbits_on_k(group))
               for k in orbit}
    values = {(a, b): complex(h_class[a], k_orbit[b]) for a, b in group.elements()}
    assert check_split_hypotheses(group, ColorFunction(group, values)).passed
    for spoiled in [(5, 6), (3, 4), (1, 1)]:
        changed = values | {spoiled: 9.5}
        report = check_split_hypotheses(group, ColorFunction(group, changed))
        assert not report.passed
        assert report == hypotheses_oracle(group, dict_color_oracle(changed))


def test_split_witnesses_on_a_permutation_group_with_nonabelian_complement():
    # S4 = V4 x| S3: condition B sweeps the three-element classes of S3
    group = PermutationGroup(
        [(1, 0, 2, 3), (1, 2, 3, 0)],
        normal_generators=[(1, 0, 3, 2), (2, 3, 0, 1)],
        complement_generators=[(1, 0, 2, 3), (1, 2, 0, 3)],
    )
    rng = random.Random(17)
    conjugators = set()
    for share in (0.1, 0.25, 0.5, 1.0):
        for _ in range(5):
            values = random_color_values(group, rng, share)
            report = check_split_hypotheses(group, ColorFunction(group, values))
            assert report == hypotheses_oracle(group, dict_color_oracle(values))
            if report.witness_b is not None:
                conjugators.add(report.witness_b.triple[0])
    assert len(conjugators) > 1


@pytest.mark.parametrize("group", every_kind(), ids=repr)
def test_color_vector_matches_the_dict_it_replaced(group):
    rng = random.Random(7 * group.order)
    values = random_color_values(group, rng, 0.6)
    values[group.elements()[-1]] = complex(-0.0, 0.0)  # a zero is not stored
    color, alpha = ColorFunction(group, values), dict_color_oracle(values)
    elems = group.elements()
    assert not color.vector.flags.writeable
    assert color.vector.tobytes() == np.array([alpha(g) for g in elems]).tobytes()
    for g in elems:
        assert np.complex128(color(g)).tobytes() == np.complex128(alpha(g)).tobytes()
        assert type(color(g)) is complex
    support = [g for g in elems if alpha(g) != 0]
    assert color.items() == [(g, alpha(g)) for g in support]
    assert color.support() == set(support)
    assert color.is_real == all(alpha(g).imag == 0 for g in support)
    assert color.vanishes_at_identity == (alpha(group.identity) == 0)
    assert color.is_symmetric == all(
        alpha(group.inv(g)) == alpha(g).conjugate() for g in support)
    hermitian = {}
    for g in support:
        if g not in hermitian:
            hermitian[g] = alpha(g) if group.inv(g) != g else complex(alpha(g).real)
            hermitian[group.inv(g)] = hermitian[g].conjugate()
    assert ColorFunction(group, hermitian).is_symmetric


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
    # classes and class-function witnesses make no mul/inv call at all
    calls.update(mul=0, inv=0)
    classes = group.conjugacy_classes()
    class_color = ColorFunction(group, {g: i for i, cls in enumerate(classes)
                                        for g in cls.members})
    assert class_color.class_function_witness() is None
    assert color.class_function_witness() is not None
    assert len(classes) > 1 and calls == {"mul": 0, "inv": 0}, calls


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


def chain_groups(values, tol):
    """The partition ``_chain_labels`` gives, in ``chain_oracle``'s form:
    groups listed by smallest index, each in ascending order."""
    values = np.asarray(values, dtype=complex).ravel()
    groups = {}
    for index, label in enumerate(_chain_labels(values, tol, _value_order(values)).tolist()):
        groups.setdefault(label, []).append(index)
    return list(groups.values())


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


def _straddling_values(tol):
    """Dusty clusters across Re = 0 and Im = 0, and two values that chain
    although their tol/2-wide cells are three apart."""
    rng = random.Random(5)
    dust = [rng.uniform(-1e-3, 1e-3) * tol for _ in range(24)]
    values = [complex(a, b) for a, b in zip(dust, dust[::-1])]           # across both axes
    values += [complex(5 * tol, d) for d in dust[:8]]                    # across Im = 0
    values += [complex(d, -7 * tol) for d in dust[8:16]]                 # across Re = 0
    values += [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-tol, 0.0)]
    values += [complex(0.49999999999999994 * tol, 3 * tol), complex(1.5 * tol, 3 * tol)]
    return values


def _large_values(tol):
    """Values whose tol/2 cell coordinate passes 2^53, or is inf near 1e300:
    only equal or nearby parts can chain there."""
    big = 2.0 ** 54 * tol
    values = [complex(big, k * 0.6 * tol) for k in range(5)]             # chain through Im
    values += [complex(big + np.spacing(big) * k, 0) for k in (1, 2)]    # one ulp apart
    far = 2.0 ** 60 * tol
    values += [complex(-big, far), complex(-big, far + np.spacing(far))]
    values += [complex(1e300, 0), complex(1e300, 0.5 * tol), complex(1e300, 2 * tol),
               complex(-1e300, -1e300), complex(-1e300, -1e300 + tol),
               complex(np.nextafter(1e300, 0), 0), complex(0, 1e300), complex(1e-300, 1e300)]
    return values


@pytest.mark.parametrize("tol", [1e-9, 1.0])
@pytest.mark.parametrize("values", [_straddling_values, _large_values])
def test_chain_groups_matches_all_pairs_across_axes_and_at_large_magnitudes(values, tol):
    values = values(tol)
    rng = random.Random(3)
    for _ in range(4):
        assert chain_groups(values, tol) == chain_oracle(values, tol)
        rng.shuffle(values)


def test_chain_groups_joins_a_dusty_cluster_of_400():
    rng = random.Random(11)
    cluster = [complex(1 + rng.uniform(-1, 1) * 1e-12, rng.uniform(-1, 1) * 1e-12)
               for _ in range(400)]
    values = cluster + [complex(1 + 0.9e-9, 0), complex(1 + 1.8e-9, 0), complex(2, 0)]
    rng.shuffle(values)
    groups = chain_groups(values, 1e-9)
    assert groups == chain_oracle(values, 1e-9)
    assert sorted(len(group) for group in groups) == [1, 402]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=30),
    st.sampled_from([1e-9, 0.7, 1.0]),
    st.sampled_from([0.0, 2.0 ** 51, 2.0 ** 53, 2.0 ** 55]),
)
def test_chain_groups_matches_all_pairs_on_shifted_lattices(points, tol, shift):
    """A lattice of tol/2 steps moved to where the cell coordinates are
    no longer exact integers."""
    offset = shift * tol
    values = [complex(offset + x * tol / 2, y * tol / 2 - offset) for x, y in points]
    assert chain_groups(values, tol) == chain_oracle(values, tol)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                       st.sampled_from([0.0, 1e-12, -0.3])), min_size=1, max_size=30),
    st.integers(1, 9),
)
def test_chain_groups_compares_member_pairs_in_blocks(points, block):
    """A tiny pair block splits the member-pair sweep at every row; the
    partition does not change."""
    tol = 1.0
    values = [complex(x * tol / 3 + d, y * tol / 3 - d) for x, y, d in points]
    previous, spectra._PAIR_BLOCK = spectra._PAIR_BLOCK, block
    try:
        assert chain_groups(values, tol) == chain_oracle(values, tol)
    finally:
        spectra._PAIR_BLOCK = previous

