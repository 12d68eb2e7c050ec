"""End-to-end acceptance gate.

Each criterion is one test. It prints a single ``ACCEPTANCE criterion N:
PASS`` or ``FAIL`` line (repeated in the terminal summary by conftest.py)
and the later criteria reuse the spectra computed by the earlier ones
through a module-level registry.
"""

import functools
import random
import time
from math import gcd

import numpy as np

from cayleyspec import (
    AbelianProductGroup,
    ColorFunction,
    CyclicGroup,
    DihedralGroup,
    MetacyclicGroup,
    PermutationGroup,
    SemidirectProductGroup,
    adjacency_matrix,
    builtin_irreps,
    certify,
    check_split_hypotheses,
    color_from_set,
    compare_spectra,
    irreps_cyclic,
    layers_from_set,
    nonnormal_family,
    spectrum_metacyclic,
    spectrum_normal,
    spectrum_split,
    trace_identities,
    verify_basis,
    verify_block_reconstruction,
    verify_eigenpairs,
)

CRITERION_RESULTS = {}

# (name, group, color, spectrum) tuples accumulated by criteria 1..6 and
# swept by the invariant suite in criterion 8
REGISTRY = []


def criterion(number):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            verdict = "FAIL"
            try:
                fn(*args, **kwargs)
                verdict = "PASS"
            finally:
                CRITERION_RESULTS[number] = verdict
                print(f"ACCEPTANCE criterion {number}: {verdict}")
        return wrapper
    return decorate


def expanded_eigenvalues(spectrum):
    values = []
    for value, count in spectrum.multiset():
        values.extend([value] * count)
    return sorted(values, key=lambda z: (z.real, z.imag))


def assert_multiset(spectrum, expected, tol):
    got = expanded_eigenvalues(spectrum)
    want = sorted((complex(v) for v in expected), key=lambda z: (z.real, z.imag))
    assert len(got) == len(want), (len(got), len(want))
    for g, w in zip(got, want):
        assert abs(g - w) <= tol, (g, w)


def multiplication_orbits(m, r):
    # partition of Z_m into orbits of v -> r*v
    seen, orbits = set(), []
    for v in range(m):
        if v in seen:
            continue
        orbit, w = [], v
        while w not in seen:
            seen.add(w)
            orbit.append(w)
            w = (w * r) % m
        orbits.append(sorted(orbit))
    return orbits


def random_invariant_layers(rng, m, l, r):
    orbits = multiplication_orbits(m, r)
    layers = []
    for a in range(l):
        layer = set()
        for orbit in orbits:
            if a == 0 and orbit == [0]:
                continue  # keep the identity out of the set
            if rng.random() < 0.4:
                layer.update(orbit)
        layers.append(sorted(layer))
    return layers


def valid_twists(m, l):
    return [r for r in range(1, m) if gcd(r, m) == 1 and pow(r, l, m) == 1]


def prism_case():
    group = MetacyclicGroup(3, 2, 2)
    color = color_from_set(group, [(0, 1), (0, 2), (1, 0)])
    return group, color, spectrum_metacyclic(3, 2, 2, [[1, 2], [0]])


def family_case():
    group, conn = nonnormal_family(7, 3, 2)
    color = color_from_set(group, conn.elements)
    layers = layers_from_set(group, conn.elements)
    return group, conn, color, spectrum_metacyclic(7, 3, 2, layers)


@criterion(1)
def test_criterion_1_prism_fixture():
    start = time.perf_counter()
    group, color, spec = prism_case()
    adj = adjacency_matrix(group, color)
    report = verify_eigenpairs(adj, spec, tol=1e-11)
    elapsed = time.perf_counter() - start

    assert_multiset(spec, [3, 1, 0, 0, -2, -2], tol=1e-10)
    assert report.max_residual <= 1e-11
    assert report.passed
    assert elapsed < 0.1, elapsed
    REGISTRY.append(("prism", group, color, spec))


@criterion(2)
def test_criterion_2_nonnormal_family():
    start = time.perf_counter()
    group, conn, color, spec = family_case()
    adj = adjacency_matrix(group, color)
    report = certify(adj, spec, color, tol=1e-9)
    elapsed = time.perf_counter() - start

    assert_multiset(spec, [8] + [5] * 2 + [1] * 6 + [-2] * 12, tol=1e-9)

    assert conn.conjugation_closed is False
    members = set(conn.elements)
    x, s, moved = conn.witnesses["conjugation_closed"]
    assert s in members
    assert group.conjugate(s, x) == moved and moved not in members
    # conjugating h by k^2 also leaves the set: h k^6 is not in it
    assert group.conjugate((1, 0), (0, 2)) == (1, 6)
    assert (1, 6) not in members

    matrix = adj.matrix
    assert np.trace(matrix) == 0
    assert np.trace(matrix @ matrix) == 168
    deviation, sq_deviation = trace_identities(adj, color)
    assert deviation == 0 and sq_deviation == 0

    assert report.passed and report.complete
    assert elapsed < 0.2, elapsed
    REGISTRY.append(("family-7-3-2", group, color, spec))


@criterion(3)
def test_criterion_3_order_42_lines():
    start = time.perf_counter()
    d3 = DihedralGroup(3)
    group = SemidirectProductGroup(7, d3, [6, 1])
    subset = [(0, b) for b in range(1, 7)]
    subset += [(d3.index(h), 0) for h in d3.elements() if h[0] == 1]
    color = color_from_set(group, subset)
    spec = spectrum_split(group, color, builtin_irreps(d3), irreps_cyclic(7))
    adj = adjacency_matrix(group, color)
    report = certify(adj, spec, color, tol=1e-9)
    elapsed = time.perf_counter() - start

    expect = {}
    for v in range(7):
        expect[("A1", f"chi_{v}")] = (9 if v == 0 else 2, 1)
        expect[("A2", f"chi_{v}")] = (3 if v == 0 else -4, 1)
        expect[("E1", f"chi_{v}")] = (6 if v == 0 else -1, 4)
    got = {}
    for line in spec.lines:
        assert abs(line.eigenvalue.imag) <= 1e-9
        got[line.labels] = (round(line.eigenvalue.real, 9), line.multiplicity)
    assert got == expect
    assert spec.total_multiplicity == 42

    assert report.max_residual <= 1e-9 * 9
    assert report.gram_deviation <= 1e-9
    assert report.passed
    assert elapsed < 0.5, elapsed
    REGISTRY.append(("order-42", group, color, spec))


@criterion(4)
def test_criterion_4_split_conditions_fail_on_s4():
    start = time.perf_counter()
    group = PermutationGroup(
        [(1, 0, 2, 3), (1, 2, 3, 0)],
        normal_generators=[(1, 2, 0, 3), (1, 0, 3, 2)],
        complement_generators=[(1, 0, 2, 3)],
    )
    values = {}
    for weight, cls in enumerate(group.conjugacy_classes(), start=1):
        for g in cls.members:
            values[g] = weight
    color = ColorFunction(group, values)
    report = check_split_hypotheses(group, color)
    elapsed = time.perf_counter() - start

    assert group.order == 24
    assert color.is_class_function
    assert report.condition_a is False
    assert not report.passed

    # re-evaluate the recorded violation from scratch
    witness = report.witness_a
    h, g, k = witness.triple
    lhs = group.mul(h, group.conjugate(k, g))
    rhs = group.mul(h, k)
    assert lhs == witness.lhs_element and rhs == witness.rhs_element
    assert color(lhs) == witness.lhs_value
    assert color(rhs) == witness.rhs_value
    assert color(lhs) != color(rhs)
    assert elapsed < 0.5, elapsed


@criterion(5)
def test_criterion_5_closed_form_matches_split_formula():
    rng = random.Random(20260815)
    start = time.perf_counter()
    done = 0
    while done < 50:
        m = rng.randrange(2, 25)
        l = rng.randrange(1, 7)
        twists = valid_twists(m, l)
        if not twists:
            continue
        r = rng.choice(twists)
        layers = random_invariant_layers(rng, m, l, r)
        if all(not layer for layer in layers):
            continue
        done += 1

        group = MetacyclicGroup(m, l, r)
        closed = spectrum_metacyclic(m, l, r, layers)
        subset = [(a, b) for a in range(l) for b in layers[a]]
        color = color_from_set(group, subset)
        split = spectrum_split(group, color, irreps_cyclic(l), irreps_cyclic(m))

        by_label = {(line.u, line.v): line for line in split.lines}
        assert len(by_label) == len(closed.lines)
        for line in closed.lines:
            other = by_label[(line.u, line.v)]
            assert abs(line.eigenvalue - other.eigenvalue) <= 1e-10
            assert line.multiplicity == other.multiplicity

        adj = adjacency_matrix(group, color)
        assert certify(adj, closed, color, tol=1e-9).passed
        assert certify(adj, split, color, tol=1e-9).passed
        REGISTRY.append((f"layers-{m}-{l}-{r}", group, color, closed))
        REGISTRY.append((f"split-{m}-{l}-{r}", group, color, split))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, elapsed


@criterion(6)
def test_criterion_6_class_spectrum_agrees_with_structure():
    rng = random.Random(42)
    done = 0
    while done < 20:
        kind = rng.choice(("cyclic", "dihedral", "metacyclic"))
        if kind == "cyclic":
            group = CyclicGroup(rng.randrange(2, 31))
        elif kind == "dihedral":
            group = DihedralGroup(rng.randrange(3, 11))
        else:
            m = rng.randrange(2, 31)
            l = rng.randrange(2, 7)
            twists = valid_twists(m, l)
            if m * l > 60 or not twists:
                continue
            group = MetacyclicGroup(m, l, rng.choice(twists))

        classes = [c for c in group.conjugacy_classes()
                   if c.members != (group.identity,)]
        chosen = [c for c in classes if rng.random() < 0.5]
        if not chosen:
            continue
        done += 1

        subset = [g for c in chosen for g in c.members]
        color = color_from_set(group, subset)
        normal = spectrum_normal(group, color, builtin_irreps(group))
        if group.kind == "cyclic":
            structural = spectrum_metacyclic(group.order, 1, 1, [sorted(subset)])
        else:
            assert check_split_hypotheses(group, color).passed
            structural = spectrum_split(group, color,
                                        builtin_irreps(group.h_group),
                                        irreps_cyclic(group.m))
        same, mismatch = compare_spectra(normal, structural, tol=1e-9)
        assert same, (group.signature(), mismatch)
        REGISTRY.append((f"normal-{done}", group, color, normal))


def small_group_catalog():
    groups = [CyclicGroup(n) for n in range(1, 61)]
    groups += [DihedralGroup(n) for n in range(3, 31)]

    def abelian_orders(prefix, start, product):
        for factor in range(start, 61):
            if product * factor > 60:
                break
            orders = prefix + (factor,)
            if len(orders) >= 2:
                groups.append(AbelianProductGroup(orders))
            abelian_orders(orders, factor, product * factor)

    abelian_orders((), 2, 1)
    for m in range(2, 31):
        for l in range(2, 61):
            if m * l > 60:
                break
            for r in valid_twists(m, l):
                groups.append(MetacyclicGroup(m, l, r))
    return groups


@criterion(7)
def test_criterion_7_block_reconstruction_catalog():
    rng = random.Random(7)
    groups = small_group_catalog()
    assert len(groups) > 100
    for group in groups:
        irrep_set = builtin_irreps(group)
        for _ in range(5):
            values = {g: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for g in group.elements()}
            color = ColorFunction(group, values)
            deviation = verify_block_reconstruction(group, color, irrep_set)
            assert deviation <= 1e-10, (group.signature(), deviation)


def real_symmetric(group, color):
    for g in group.elements():
        value = complex(color(g))
        if value.imag != 0 or complex(color(group.inv(g))) != value:
            return False
    return True


@criterion(8)
def test_criterion_8_invariant_suite():
    if not REGISTRY:
        group, color, spec = prism_case()
        REGISTRY.append(("prism", group, color, spec))
        group, _, color, spec = family_case()
        REGISTRY.append(("family-7-3-2", group, color, spec))
    for name, group, color, spec in REGISTRY:
        n = group.order
        assert spec.total_multiplicity == n, name

        gram, complete = verify_basis(spec)
        assert gram <= 1e-9, (name, gram)
        assert complete, name

        total = sum(line.eigenvalue * line.multiplicity for line in spec.lines)
        assert abs(total - n * complex(color(group.identity))) <= 1e-9, name

        if real_symmetric(group, color):
            worst = max(abs(line.eigenvalue.imag) for line in spec.lines)
            assert worst <= 1e-9, (name, worst)
