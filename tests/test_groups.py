import random
import re
import time

import numpy as np
import pytest

from cayleyspec import (
    AbelianProductGroup,
    CapacityExceeded,
    ConfigError,
    CyclicGroup,
    DihedralGroup,
    InvalidAction,
    MetacyclicGroup,
    PermutationGroup,
    SemidirectProductGroup,
    SplitExtensionGroup,
    conjugation_orbits_on_k,
    construct_group,
    is_generating_set,
)


def test_cyclic_basics():
    g = CyclicGroup(6)
    assert g.order == 6
    assert g.identity == 0
    # exponent addition mod 6
    assert g.mul(2, 5) == 1
    assert g.inv(4) == 2
    assert g.inv(0) == 0
    assert g.elements() == [0, 1, 2, 3, 4, 5]
    # abelian: n singleton classes
    assert [c.size for c in g.conjugacy_classes()] == [1] * 6


def test_metacyclic_multiplication():
    g = MetacyclicGroup(7, 3, 2)
    assert g.order == 21
    # k h = h k^4 since r^{-1} = 4 mod 7, so (1,1)*(1,0) = (2,4)
    assert g.mul((1, 1), (1, 0)) == (2, 4)
    assert g.mul((0, 0), (2, 5)) == (2, 5)
    assert g.mul((2, 5), (0, 0)) == (2, 5)
    # defining relation h k h^{-1} = k^2
    h, k = (1, 0), (0, 1)
    assert g.mul(g.mul(h, k), g.inv(h)) == (0, 2)


def test_metacyclic_inverse():
    g = MetacyclicGroup(7, 3, 2)
    # solve (1,1)*x = e by normal-form rewriting
    assert g.inv((1, 1)) == (2, 5)
    assert g.mul((1, 1), (2, 5)) == (0, 0)
    assert g.inv((0, 0)) == (0, 0)
    for a in range(3):
        for b in range(7):
            assert g.mul((a, b), g.inv((a, b))) == (0, 0)
            assert g.mul(g.inv((a, b)), (a, b)) == (0, 0)


def test_metacyclic_rejects_invalid_action():
    # 2^3 = 8 = 3 mod 5
    with pytest.raises(InvalidAction):
        MetacyclicGroup(5, 3, 2)
    with pytest.raises(InvalidAction):
        MetacyclicGroup(7, 3, 3)
    with pytest.raises(InvalidAction):
        MetacyclicGroup(6, 2, 2)  # gcd(2, 6) != 1


def test_metacyclic_3_2_2_is_dihedral():
    # r = m-1 gives the dihedral relation
    g = MetacyclicGroup(3, 2, 2)
    d = DihedralGroup(3)
    assert g.order == d.order == 6
    assert sorted(c.size for c in g.conjugacy_classes()) == [1, 2, 3]
    assert sorted(c.size for c in d.conjugacy_classes()) == [1, 2, 3]


def test_dihedral_reflections_are_involutions():
    d = DihedralGroup(5)
    for b in range(5):
        s = (1, b)
        assert d.inv(s) == s
        assert d.mul(s, s) == d.identity


def test_associativity_spot_check():
    rng = random.Random(20240817)
    for g in (MetacyclicGroup(7, 3, 2), DihedralGroup(6),
              AbelianProductGroup((2, 3, 4))):
        elems = g.elements()
        for _ in range(1000):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_canonical_forms_round_trip():
    g = MetacyclicGroup(7, 3, 2)
    for e in g.elements():
        assert g.coerce_element(list(e)) == e
        a, b = g.mul(e, (1, 3))
        assert 0 <= a < 3 and 0 <= b < 7
    c = CyclicGroup(6)
    assert c.coerce_element(4) == 4
    # exponents reduce into canonical range
    assert c.coerce_element(6) == 0
    assert c.coerce_element(-1) == 5
    with pytest.raises(ConfigError):
        c.coerce_element(True)
    with pytest.raises(ConfigError):
        c.coerce_element("k")


def test_conjugacy_classes_metacyclic():
    g = MetacyclicGroup(7, 3, 2)
    classes = g.conjugacy_classes()
    sizes = sorted(c.size for c in classes)
    assert sizes == [1, 3, 3, 7, 7]
    assert sum(sizes) == g.order
    for c in classes:
        assert g.order % c.size == 0
        # representative is the minimal-index member
        assert c.representative == min(c.members, key=g.index)


def test_dihedral_5000_classes_in_well_under_a_second():
    """Labels from two generator conjugations, not one n-wide gather per
    class: D5000 has 2503 classes (1, k^2500, 2499 rotation pairs and two
    reflection classes of 2500)."""
    group = DihedralGroup(5000)
    start = time.perf_counter()
    classes = group.conjugacy_classes()
    elapsed = time.perf_counter() - start
    assert len(classes) == 2503
    assert sorted(c.size for c in classes) == [1, 1] + [2] * 2499 + [2500, 2500]
    assert [c.representative for c in classes[:3]] == [(0, 0), (0, 1), (0, 2)]
    assert elapsed < 0.5, elapsed


def test_conjugacy_classes_s4():
    s4 = PermutationGroup([(1, 0, 2, 3), (1, 2, 3, 0)])
    assert s4.order == 24
    assert sorted(c.size for c in s4.conjugacy_classes()) == [1, 3, 6, 6, 8]


def test_permutation_composition_right_to_left():
    s4 = PermutationGroup([(1, 0, 2, 3), (1, 2, 3, 0)])
    p = (1, 0, 2, 3)
    q = (1, 2, 3, 0)
    # (p*q)(x) = p(q(x))
    assert s4.mul(p, q) == tuple(p[q[x]] for x in range(4))
    assert s4.inv(q) == (3, 0, 1, 2)


def test_permutation_split_validation():
    # transpositions do not form a normal subgroup's generators
    with pytest.raises(InvalidAction):
        PermutationGroup(
            [(1, 0, 2, 3), (1, 2, 3, 0)],
            normal_generators=[(1, 0, 2, 3)],
            complement_generators=[(1, 2, 0, 3)],
        )
    s4 = PermutationGroup(
        [(1, 0, 2, 3), (1, 2, 3, 0)],
        normal_generators=[(1, 2, 0, 3), (1, 0, 3, 2)],
        complement_generators=[(1, 0, 2, 3)],
    )
    k, h = s4.split_parts()
    assert len(k) == 12 and len(h) == 2
    assert set(k) & set(h) == {s4.identity}


def test_conjugation_orbits_on_k():
    g = MetacyclicGroup(7, 3, 2)
    orbits = conjugation_orbits_on_k(g)
    as_sets = [set(b for _, b in orbit) for orbit in orbits]
    assert {0} in as_sets
    assert {1, 2, 4} in as_sets
    assert {3, 5, 6} in as_sets
    assert len(orbits) == 3

    g2 = MetacyclicGroup(3, 2, 2)  # inversion action
    as_sets = [set(b for _, b in o) for o in conjugation_orbits_on_k(g2)]
    assert as_sets == [{0}, {1, 2}]

    # trivial action: conjugation fixes K pointwise
    trivial = SemidirectProductGroup(5, CyclicGroup(3), [1])
    orbits = conjugation_orbits_on_k(trivial)
    assert all(len(o) == 1 for o in orbits)
    assert len(orbits) == 5


def test_orbits_refine_classes_on_k():
    # every orbit is a union of G-classes intersected with K... the other
    # way around: each orbit equals a class of G restricted to K here
    for g in (MetacyclicGroup(7, 3, 2), DihedralGroup(5)):
        orbit_sets = [frozenset(o) for o in conjugation_orbits_on_k(g)]
        k_part = {e for o in orbit_sets for e in o}
        for cls in g.conjugacy_classes():
            inter = frozenset(cls.members) & k_part
            if inter:
                assert inter in orbit_sets


def test_transversal_ordering():
    # the canonical index of h_a k^b is the paper's vertex order a*m + b
    g = MetacyclicGroup(7, 3, 2)
    assert g.m == 7 and g.l == 3
    assert g.index((2, 3)) == 17
    assert g.elements()[17] == (2, 3)
    for group in (g, SemidirectProductGroup(7, DihedralGroup(3), [6, 1])):
        for idx, (a, b) in enumerate(group.elements()):
            assert idx == a * 7 + b
            assert group.mul((a, 0), (0, b)) == (a, b)

    assert CyclicGroup(6).elements() == [0, 1, 2, 3, 4, 5]


def test_is_generating_set():
    g = MetacyclicGroup(7, 3, 2)
    ok, size = is_generating_set(g, [(0, 1), (0, 6), (1, 0), (2, 0)])
    assert ok and size == 21
    ok, size = is_generating_set(g, [(0, 0)])
    assert not ok and size == 1
    ok, size = is_generating_set(CyclicGroup(6), [2])
    assert not ok and size == 3


def test_semidirect_product_validation():
    # image must be a unit of Z_m with the right order
    with pytest.raises(InvalidAction):
        SemidirectProductGroup(7, CyclicGroup(3), [3])  # 3^3 = 27 = 6 mod 7
    g = SemidirectProductGroup(7, CyclicGroup(3), [2])
    assert g.order == 21
    assert g.units == (1, 2, 4)

    d3 = DihedralGroup(3)
    g42 = SemidirectProductGroup(7, d3, [6, 1])
    assert g42.order == 42
    assert g42.units == (1, 1, 1, 6, 6, 6)
    with pytest.raises(InvalidAction):
        SemidirectProductGroup(7, d3, [2, 1])  # reflection image must square to 1


def test_construct_group_dispatch():
    assert construct_group({"type": "cyclic", "n": 6}).order == 6
    assert construct_group({"type": "dihedral", "n": 4}).order == 8
    assert construct_group({"type": "abelian", "orders": [2, 3]}).order == 6
    g = construct_group({"type": "metacyclic", "m": 7, "l": 3, "r": 2})
    assert g.order == 21
    g = construct_group({
        "type": "semidirect", "m": 7,
        "h": {"type": "dihedral", "n": 3}, "action": [6, 1],
    })
    assert g.order == 42
    g = construct_group({
        "type": "permutation",
        "generators": [[1, 0, 2, 3], [1, 2, 3, 0]],
    })
    assert g.order == 24


def test_construct_group_diagnostics():
    with pytest.raises(ConfigError, match="unknown group type"):
        construct_group({"type": "simple"})
    with pytest.raises(ConfigError, match="needs field 'n'"):
        construct_group({"type": "cyclic"})
    with pytest.raises(ConfigError, match="must be an integer"):
        construct_group({"type": "cyclic", "n": "six"})
    with pytest.raises(ConfigError, match="stray"):
        construct_group({"type": "cyclic", "n": 6, "m": 7})
    with pytest.raises(CapacityExceeded):
        construct_group({"type": "cyclic", "n": 20000})
    with pytest.raises(CapacityExceeded):
        construct_group({"type": "metacyclic", "m": 101, "l": 100, "r": 1})


# every constructor argument that fixes the group: a builder that takes the
# argument's value, a value it accepts, and the message that refuses a value;
# sizes (at least 1) also go over the capacity
CONSTRUCTOR_ARGUMENTS = {
    "CyclicGroup n": (CyclicGroup, 2, "group field 'n' must be an integer of at least 1, got {}"),
    "AbelianProductGroup orders": (
        lambda v: AbelianProductGroup([2, v]), 2,
        "group field 'orders[1]' must be an integer of at least 1, got {}"),
    "DihedralGroup n": (DihedralGroup, 2, "group field 'n' must be an integer of at least 1, got {}"),
    "MetacyclicGroup m": (lambda v: MetacyclicGroup(v, 2, 1), 2,
                          "group field 'm' must be an integer of at least 1, got {}"),
    "MetacyclicGroup l": (lambda v: MetacyclicGroup(7, v, 1), 2,
                          "group field 'l' must be an integer of at least 1, got {}"),
    "MetacyclicGroup r": (lambda v: MetacyclicGroup(7, 3, v), 2,
                          "group field 'r' must be an integer, got {}"),
    "SplitExtensionGroup m": (lambda v: SplitExtensionGroup(v, CyclicGroup(2), [1, 1]), 2,
                              "group field 'm' must be an integer of at least 1, got {}"),
    "SplitExtensionGroup units": (lambda v: SplitExtensionGroup(5, CyclicGroup(2), [1, v]), 4,
                                  "group field 'units[1]' must be an integer, got {}"),
    "SemidirectProductGroup m": (lambda v: SemidirectProductGroup(v, CyclicGroup(2), [1]), 2,
                                 "group field 'm' must be an integer of at least 1, got {}"),
    "SemidirectProductGroup generator_images": (
        lambda v: SemidirectProductGroup(5, CyclicGroup(2), [v]), 4,
        "group field 'action[0]' must be an integer, got {}"),
    "PermutationGroup generators": (lambda v: PermutationGroup([[v, 0]]), 1,
                                    "group field 'generators[0][0]' must be an integer, got {}"),
    "PermutationGroup normal_generators": (
        lambda v: PermutationGroup([[1, 2, 0]], [[v, 2, 0]], []), 1,
        "permutation images must be integers, got [{}, 2, 0]"),
}


@pytest.mark.parametrize("argument", sorted(CONSTRUCTOR_ARGUMENTS))
def test_constructors_take_integers_only_and_check_the_capacity(argument):
    """Sizes, twists and images fix the group exactly: truncating a float
    or coercing a bool or a numeric string would build another group."""
    build, good, message = CONSTRUCTOR_ARGUMENTS[argument]
    assert build(good) == build(np.int64(good))
    sized = "at least 1" in message
    error = ConfigError if argument.endswith("normal_generators") else ValueError
    for bad in [float(good), True, str(good)] + ([0] if sized else []):
        with pytest.raises(error, match=re.escape(message.format(repr(bad)))):
            build(bad)
    if sized:
        with pytest.raises(CapacityExceeded, match="exceeds capacity 10000"):
            build(10_001)


def test_group_equality_by_signature():
    assert CyclicGroup(6) == CyclicGroup(6)
    assert CyclicGroup(6) != CyclicGroup(7)
    assert MetacyclicGroup(7, 3, 2) == MetacyclicGroup(7, 3, 2)
    assert MetacyclicGroup(7, 3, 2) != MetacyclicGroup(7, 3, 4)
    assert DihedralGroup(3) != MetacyclicGroup(3, 2, 2)


def test_a_shared_split_kind_is_looked_up_before_it_is_built(monkeypatch):
    """The library's own entry points check a split kind's arguments and
    read the interned groups by its signature first: a shared group comes
    back without a second group being built, and a malformed argument is
    still refused."""
    from cayleyspec import irreps_metacyclic, layers_from_set, nonnormal_family, \
        spectrum_metacyclic
    descriptions = [
        {"type": "metacyclic", "m": 7, "l": 3, "r": 2},
        {"type": "dihedral", "n": 5},
        {"type": "semidirect", "m": 7, "h": {"type": "cyclic", "n": 3}, "action": [2]},
        {"type": "semidirect", "m": 7, "h": {"type": "dihedral", "n": 3}, "action": [6, 1]},
    ]
    shared = [construct_group(description) for description in descriptions]
    group, connection = nonnormal_family(7, 3, 2)
    assert group is shared[0]
    layers = layers_from_set(group, connection.elements)
    built = []
    init = SplitExtensionGroup.__init__

    def counting_init(self, *args):
        built.append(type(self).__name__)
        init(self, *args)

    monkeypatch.setattr(SplitExtensionGroup, "__init__", counting_init)
    assert [construct_group(description) for description in descriptions] == shared
    assert nonnormal_family(7, 3, 2)[0] is shared[0]
    assert irreps_metacyclic(7, 3, 2).group is shared[0]
    spectrum_metacyclic(7, 3, 2, layers)
    assert built == []
    with pytest.raises(ConfigError, match="must be an integer"):
        construct_group({"type": "metacyclic", "m": 7, "l": 3, "r": 2.0})
    with pytest.raises(InvalidAction, match="not a unit"):
        construct_group({"type": "semidirect", "m": 7, "h": {"type": "cyclic", "n": 3},
                         "action": [7]})
    # a group built by its class is built, and not interned
    assert MetacyclicGroup(7, 3, 2) is not shared[0] and built == ["MetacyclicGroup"]
