import itertools
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cayleyspec import (
    ColorFunction,
    CyclicGroup,
    DihedralGroup,
    HypothesesViolated,
    InvalidAction,
    IrrepSet,
    IrrepsUnavailable,
    KroneckerFactors,
    LayerNotInvariant,
    MetacyclicGroup,
    NotClassFunction,
    PermutationGroup,
    SemidirectProductGroup,
    SpectralLine,
    SpectralLines,
    Spectrum,
    SplitExtensionGroup,
    UnitaryIrrep,
    adjacency_matrix,
    beta_blocks,
    block_diagonalize,
    build_p_matrix,
    builtin_irreps,
    certify,
    check_split_hypotheses,
    cluster_eigenvalues,
    color_from_set,
    compare_spectra,
    irreps_cyclic,
    layers_from_set,
    nonnormal_family,
    spectrum_metacyclic,
    spectrum_normal,
    spectrum_split,
)
from test_columns import edited_lines, grid_oracle
from test_kernel import chain_oracle, class_color_values, groups_strategy


def multiset(spectrum, digits=9):
    return sorted(
        (round(v.real, digits), round(v.imag, digits), c)
        for v, c in spectrum.multiset()
    )


def s4_distinct_class_color():
    group = PermutationGroup(
        [(1, 0, 2, 3), (1, 2, 3, 0)],
        normal_generators=[(1, 2, 0, 3), (1, 0, 3, 2)],
        complement_generators=[(1, 0, 2, 3)],
    )
    values = {}
    for weight, cls in enumerate(group.conjugacy_classes(), start=1):
        for g in cls.members:
            values[g] = weight
    return group, ColorFunction(group, values)


def order_42_fixture():
    d3 = DihedralGroup(3)
    group = SemidirectProductGroup(7, d3, [6, 1])
    subset = [(0, b) for b in range(1, 7)]
    subset += [(d3.index(h), 0) for h in d3.elements() if h[0] == 1]
    return group, color_from_set(group, subset), d3


def test_cluster_eigenvalues():
    values = [2, 1 + 1e-12, 1, 0, 1e-13]
    clusters = cluster_eigenvalues(values, tol=1e-9)
    assert [(round(v.real, 6), c) for v, c in clusters] == [(0, 2), (1, 2), (2, 1)]
    assert cluster_eigenvalues([], tol=1e-9) == []


def test_spectrum_normal_complete_graph():
    for n in (3, 5, 8):
        g = CyclicGroup(n)
        color = color_from_set(g, list(range(1, n)))
        spec = spectrum_normal(g, color, builtin_irreps(g))
        assert multiset(spec) == sorted([(n - 1, 0, 1), (-1, 0, n - 1)])


def test_spectra_compare_by_identity_without_raising():
    """Spectra, lines and factors hold arrays: ``==`` is identity, never a
    field-by-field comparison that raises on an array's truth value."""
    group, conn = nonnormal_family(7, 3, 2)
    layers = layers_from_set(group, conn.elements)
    c4 = CyclicGroup(4)
    c4_color = color_from_set(c4, [1, 3])
    for build in (lambda: spectrum_metacyclic(7, 3, 2, layers),
                  lambda: spectrum_normal(c4, c4_color, builtin_irreps(c4))):
        first, second = build(), build()
        assert first == first and not first != first
        assert first != second and not first == second
        assert first.lines[0] != second.lines[0]
        assert compare_spectra(first, second)[0]
        assert first.vector_rows(0, first.n).tobytes() == second.vector_rows(0, second.n).tobytes()
        if first.factors is not None:
            assert first.factors != second.factors


def test_spectrum_normal_c4_pair():
    g = CyclicGroup(4)
    spec = spectrum_normal(g, color_from_set(g, [1, 3]), builtin_irreps(g))
    # per label: 2cos(2 pi v/4)
    assert [round(l.eigenvalue.real, 12) for l in spec.lines] == [2, 0, -2, 0]


def test_spectrum_normal_full_support():
    g = DihedralGroup(4)
    color = ColorFunction(g, {e: 1 for e in g.elements()})
    spec = spectrum_normal(g, color, builtin_irreps(g))
    values = {line.labels[0]: line.eigenvalue for line in spec.lines}
    assert abs(values["A1"] - 8) < 1e-12
    for label, v in values.items():
        if label != "A1":
            assert abs(v) < 1e-12


def test_spectrum_normal_rejects_non_class_function():
    group, conn = nonnormal_family(7, 3, 2)
    color = color_from_set(group, conn.elements)
    with pytest.raises(NotClassFunction) as exc:
        spectrum_normal(group, color, builtin_irreps(group))
    g, x, conj, lhs, rhs = exc.value.witness
    assert group.conjugate(g, x) == conj
    assert color(g) == lhs and color(conj) == rhs and lhs != rhs


def test_spectrum_normal_eigenvectors_certify():
    group = MetacyclicGroup(7, 3, 2)
    union = [e for cls in group.conjugacy_classes() if cls.size == 3
             for e in cls.members]
    color = color_from_set(group, union)
    spec = spectrum_normal(group, color, builtin_irreps(group))
    assert spec.total_multiplicity == 21
    assert [l.multiplicity for l in spec.lines] == [1, 1, 1, 9, 9]
    adj = adjacency_matrix(group, color)
    assert certify(adj, spec, color, tol=1e-9).passed


def test_hypotheses_pass_on_family():
    group, conn = nonnormal_family(7, 3, 2)
    report = check_split_hypotheses(group, color_from_set(group, conn.elements))
    assert report.passed and report.witness_a is None and report.witness_b is None


def test_hypotheses_pass_on_abelian_product():
    rng = random.Random(3)
    group = SemidirectProductGroup(4, CyclicGroup(2), [1])
    values = {g: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for g in group.elements()}
    report = check_split_hypotheses(group, ColorFunction(group, values))
    assert report.passed


def test_hypotheses_fail_on_s4_class_function():
    group, color = s4_distinct_class_color()
    assert color.is_class_function
    report = check_split_hypotheses(group, color)
    assert not report.condition_a
    assert not report.passed
    w = report.witness_a
    h, g, k = w.triple
    # direct re-evaluation of the recorded violation
    lhs = group.mul(h, group.conjugate(k, g))
    rhs = group.mul(h, k)
    assert lhs == w.lhs_element and rhs == w.rhs_element
    assert color(lhs) == w.lhs_value and color(rhs) == w.rhs_value
    assert w.lhs_value != w.rhs_value


def test_split_raises_and_force_overrides():
    d4 = DihedralGroup(4)
    color = color_from_set(d4, [(0, 1)])  # one rotation, orbit {k, k^3}
    h_irr = builtin_irreps(CyclicGroup(2))
    k_irr = irreps_cyclic(4)
    with pytest.raises(HypothesesViolated) as exc:
        spectrum_split(d4, color, h_irr, k_irr)
    assert exc.value.report.witness_a is not None
    forced = spectrum_split(d4, color, h_irr, k_irr, force=True)
    assert not forced.theorem_verified
    # residual certification decides: the formula is wrong here
    adj = adjacency_matrix(d4, color)
    assert not certify(adj, forced, color, tol=1e-9).passed


def test_split_prism_labels():
    group = MetacyclicGroup(3, 2, 2)
    color = color_from_set(group, [(0, 1), (0, 2), (1, 0)])
    spec = spectrum_split(group, color, builtin_irreps(CyclicGroup(2)),
                          irreps_cyclic(3))
    by_label = {(l.u, l.v): round(l.eigenvalue.real, 10) for l in spec.lines}
    assert by_label == {(0, 0): 3, (0, 1): 0, (0, 2): 0,
                        (1, 0): 1, (1, 1): -2, (1, 2): -2}
    assert multiset(spec) == sorted(
        [(3, 0, 1), (1, 0, 1), (0, 0, 2), (-2, 0, 2)])
    assert certify(adjacency_matrix(group, color), spec, color, 1e-9).passed


def test_split_order_42_lines():
    group, color, d3 = order_42_fixture()
    spec = spectrum_split(group, color, builtin_irreps(d3), irreps_cyclic(7))
    expect = {}
    for v in range(7):
        expect[("A1", f"chi_{v}")] = (9 if v == 0 else 2, 1)
        expect[("A2", f"chi_{v}")] = (3 if v == 0 else -4, 1)
        expect[("E1", f"chi_{v}")] = (6 if v == 0 else -1, 4)
    got = {l.labels: (round(l.eigenvalue.real, 9), l.multiplicity)
           for l in spec.lines}
    assert got == expect
    assert spec.total_multiplicity == 42

    adj = adjacency_matrix(group, color)
    report = certify(adj, spec, color, tol=1e-9)
    assert report.passed
    assert report.max_residual <= 1e-9 * 9


def test_split_representative_independence():
    # sum_i lambda_ui * sigma_vi gives each line's eigenvalue whichever
    # member h of each H-class C_i its sigma_vi is summed at
    group, color, d3 = order_42_fixture()
    irreps_h, irreps_k = builtin_irreps(d3), irreps_cyclic(7)
    spec = spectrum_split(group, color, irreps_h, irreps_k)
    assert spec.total_multiplicity == 42
    h_group = group.h_group
    classes = h_group.conjugacy_classes()
    for line in spec.lines:
        rho_u, rho_v = irreps_h[line.u], irreps_k[line.v]
        lam = [cls.size * rho_u.character(cls.representative) / rho_u.degree
               for cls in classes]
        sigma = [[sum(color((h_group.index(h), b)) * rho_v.character(b) for b in range(7))
                  for h in cls.members] for cls in classes]
        for picks in itertools.product(*sigma):
            redo = sum(x * y for x, y in zip(lam, picks))
            assert abs(redo - line.eigenvalue) <= 1e-10


def line_order_cases():
    """Spectra from the metacyclic and split routes, with and without the
    complex eigenvalues and degree-2 H-irreps of the order-42 group."""
    group, conn = nonnormal_family(13, 4, 5)
    color = color_from_set(group, conn.elements)
    g42, c42, d3 = order_42_fixture()
    return [
        spectrum_metacyclic(13, 4, 5, layers_from_set(group, conn.elements),
                            eigenvectors=False),
        spectrum_split(group, color, builtin_irreps(group.h_group), irreps_cyclic(13),
                       eigenvectors=False),
        spectrum_split(g42, c42, builtin_irreps(d3), irreps_cyclic(7), eigenvectors=False),
        signed_zero_spectrum(),
    ]


def signed_zero_spectrum():
    """Lines whose eigenvalues differ only in the signs of their zeros."""
    values = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
              1 + 0j, complex(1.0, -0.0), complex(-0.0, 2.0), 2j]
    return spectrum_of([(value, 1) for value in values])


@pytest.mark.parametrize("seed", range(4))
def test_multiset_and_compare_ignore_line_order(seed):
    rng = random.Random(seed)
    pair = [0j, complex(-0.0, 0.0)]
    assert repr(cluster_eigenvalues(pair)) == repr(cluster_eigenvalues(pair[::-1]))
    cases = line_order_cases()
    for spec, other in zip(cases, cases[1:2] + cases[:1] + cases[2:]):
        order = list(range(len(spec.lines)))
        rng.shuffle(order)
        shuffled = replace(spec, lines=edited_lines(spec, order))
        assert repr(shuffled.multiset()) == repr(spec.multiset())
        assert compare_spectra(shuffled, spec) == (True, None)
        assert compare_spectra(shuffled, other) == compare_spectra(spec, other)
        # a spectrum that differs in one line gives the same witness pair
        moved = replace(other, lines=edited_lines(
            other, shifts=[(rng.randrange(len(other.lines)), 0.5)]))
        expect = compare_spectra(spec, moved)
        assert expect[0] is False
        assert repr(compare_spectra(shuffled, moved)) == repr(expect)


def compare_oracle(first, second, tol):
    """``compare_spectra`` over the expanded eigenvalue lists, by
    all-pairs chaining."""
    def order(z):
        return (z.real, z.imag, np.copysign(1.0, z.real), np.copysign(1.0, z.imag))
    left, right = first.eigenvalues_expanded(), second.eigenvalues_expanded()
    values = [complex(v) for v in left + right]
    surplus, deficit = [], []
    for indices in chain_oracle(values, tol):
        balance = sum(1 if i < len(left) else -1 for i in indices)
        if balance:
            (surplus if balance > 0 else deficit).append(
                min((values[i] for i in indices), key=order))
    if not surplus:
        return True, None
    return False, (min(surplus, key=order), min(deficit, key=order))


def spectrum_of(pairs):
    """A spectrum without vectors whose lines hold (eigenvalue, multiplicity)."""
    values, counts = [value for value, _ in pairs], [count for _, count in pairs]
    return Spectrum(n=sum(max(count, 0) for count in counts), method="normal",
                    lines=SpectralLines(values, counts, np.arange(len(pairs)),
                                        axes=([f"z{k}" for k in range(len(pairs))],)))


def test_lines_of_multiplicity_at_most_zero_bridge_nothing():
    """Lines of multiplicity 0 or -1 between two clusters neither join
    them nor count."""
    spec = spectrum_of([(0j, 2), (0.6e-9 + 0j, 0), (1.2e-9 + 0j, 1), (0.9e-9 + 0j, -1),
                        (5 + 0j, 1)])
    expect = [(0j, 2), (1.2e-9 + 0j, 1), (5 + 0j, 1)]
    assert repr(spec.multiset()) == repr(expect)
    assert repr(cluster_eigenvalues(spec.eigenvalues_expanded())) == repr(expect)
    other = spectrum_of([(0j, 2), (1.2e-9 + 0j, 1), (5 + 0j, 1)])
    assert compare_spectra(spec, other) == (True, None)
    moved = spectrum_of([(0j, 1), (0.6e-9 + 0j, 0), (1.2e-9 + 0j, 2), (5 + 0j, 1)])
    assert repr(compare_spectra(spec, moved)) == repr((False, (0j, 1.2e-9 + 0j)))
    assert repr(compare_spectra(spec, moved)) == repr(compare_oracle(spec, moved, 1e-9))


@pytest.mark.parametrize("seed", range(4))
def test_compare_spectra_witness_pairs_match_all_pairs_chaining(seed):
    """On mismatched pairs of spectra the witness pair is the one chaining
    the expanded lists over all pairs gives, bit for bit."""
    rng = random.Random(seed)
    cases = line_order_cases()
    for spec in cases:
        shifts = [(rng.randrange(len(spec.lines)),
                   rng.choice([0.5, 1e-9 * rng.random(), 2e-9, -1j])) for _ in range(3)]
        moved = replace(spec, lines=edited_lines(spec, shifts=shifts))
        for tol in (1e-9, 1e-10):
            found = compare_spectra(spec, moved, tol=tol)
            assert repr(found) == repr(compare_oracle(spec, moved, tol))
            assert repr(compare_spectra(moved, spec, tol=tol)) == repr(
                compare_oracle(moved, spec, tol))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy(), st.randoms(use_true_random=False))
def test_multiset_equals_clustering_the_expanded_list_on_every_route(group, rng):
    """``Spectrum.multiset`` clusters one value per line, weighted by its
    multiplicity; its repr is that of clustering the expanded list."""
    color = ColorFunction(group, class_color_values(group, rng))
    found = []
    try:
        irrep_set = builtin_irreps(group)
    except IrrepsUnavailable:
        irrep_set = None
    if irrep_set is not None:
        found.append(spectrum_normal(group, color, irrep_set, eigenvectors=False))
        if max(irrep_set.degrees()) <= 2:
            found.append(block_diagonalize(group, color, irrep_set).spectrum())
    if isinstance(group, SplitExtensionGroup):
        try:
            found.append(spectrum_split(group, color, builtin_irreps(group.h_group),
                                        irreps_cyclic(group.m), eigenvectors=False, force=True))
        except IrrepsUnavailable:
            pass
    if isinstance(group, MetacyclicGroup):
        m, l, r = group.m, group.l, group.r
        layers = [sorted({s * pow(r, e, m) % m for s in rng.sample(range(m), min(m, 2))
                          for e in range(l)}) for _ in range(l)]
        found.append(spectrum_metacyclic(m, l, r, layers, eigenvectors=False))
    assume(found)
    for spectrum in found:
        assert repr(spectrum.multiset()) == repr(
            cluster_eigenvalues(spectrum.eigenvalues_expanded())), spectrum.method


def test_split_zero_color():
    group = MetacyclicGroup(3, 2, 2)
    spec = spectrum_split(group, ColorFunction(group, {}),
                          builtin_irreps(CyclicGroup(2)), irreps_cyclic(3))
    assert all(line.eigenvalue == 0 for line in spec.lines)


def test_metacyclic_prism():
    spec = spectrum_metacyclic(3, 2, 2, [[1, 2], [0]])
    assert multiset(spec) == sorted([(3, 0, 1), (1, 0, 1), (0, 0, 2), (-2, 0, 2)])
    group = MetacyclicGroup(3, 2, 2)
    color = color_from_set(group, [(0, 1), (0, 2), (1, 0)])
    assert certify(adjacency_matrix(group, color), spec, color, 1e-9).passed


def test_metacyclic_six_cycle():
    spec = spectrum_metacyclic(6, 1, 1, [[1, 5]])
    assert multiset(spec) == sorted(
        [(2, 0, 1), (1, 0, 2), (-1, 0, 2), (-2, 0, 1)])


def test_metacyclic_family_7_3_2():
    spec = spectrum_metacyclic(7, 3, 2, [[1, 2, 3, 4, 5, 6], [0], [0]])
    assert multiset(spec) == sorted(
        [(8, 0, 1), (5, 0, 2), (1, 0, 6), (-2, 0, 12)])
    values = spec.eigenvalues_expanded()
    assert abs(sum(values)) < 1e-9
    assert abs(sum(v * v for v in values) - 168) < 1e-9


def test_metacyclic_layer_validation():
    with pytest.raises(LayerNotInvariant) as exc:
        spectrum_metacyclic(7, 3, 2, [[1], [0], [0]])
    assert exc.value.layer_index == 0 and exc.value.exponent == 1
    # the witness is the least escaping exponent of the first open layer
    with pytest.raises(LayerNotInvariant) as exc:
        spectrum_metacyclic(7, 3, 2, [[], [5, 3], [6]])
    assert exc.value.layer_index == 1 and exc.value.exponent == 3
    with pytest.raises(InvalidAction):
        spectrum_metacyclic(7, 3, 2, [[1, 2, 4]])


@pytest.mark.parametrize("exponent", [1.9, True, "1"], ids=["float", "bool", "string"])
def test_metacyclic_layers_take_integer_exponents_only(exponent):
    # each would truncate to 1, and {1, 2, 4} is closed under 2
    with pytest.raises(ValueError, match=r"layers\[0\]"):
        spectrum_metacyclic(7, 3, 2, [[exponent, 2, 4], [0], [0]])


def test_split_equals_metacyclic_per_label():
    group, conn = nonnormal_family(7, 3, 2)
    color = color_from_set(group, conn.elements)
    a = spectrum_metacyclic(7, 3, 2, [[1, 2, 3, 4, 5, 6], [0], [0]])
    b = spectrum_split(group, color, builtin_irreps(CyclicGroup(3)),
                       irreps_cyclic(7))
    assert len(a.lines) == len(b.lines)
    for la, lb in zip(a.lines, b.lines):
        assert (la.u, la.v) == (lb.u, lb.v)
        assert abs(la.eigenvalue - lb.eigenvalue) <= 1e-10
    same, witness = compare_spectra(a, b, tol=1e-10)
    assert same and witness is None


@st.composite
def layered_cyclic_complement_cases(draw):
    """A split extension with cyclic complement, its twist r, and a random
    union of r-orbits per layer, with one layer emptied when l > 1."""
    group = draw(groups_strategy().filter(
        lambda g: isinstance(g, SplitExtensionGroup) and isinstance(g.h_group, CyclicGroup)))
    m, l = group.m, group.l
    r = group.units[1 % l]
    layers = []
    for _ in range(l):
        seeds = draw(st.lists(st.integers(0, m - 1), max_size=3))
        layers.append(sorted({s * pow(r, e, m) % m for s in seeds for e in range(l)}))
    if l > 1:
        layers[draw(st.integers(0, l - 1))] = []
    return group, r, layers


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(layered_cyclic_complement_cases())
def test_split_and_metacyclic_eigenvalues_are_byte_identical(case):
    group, r, layers = case
    color = color_from_set(group, [(t, s) for t, layer in enumerate(layers) for s in layer])
    split = spectrum_split(group, color, builtin_irreps(group.h_group),
                           irreps_cyclic(group.m), eigenvectors=False)
    meta = spectrum_metacyclic(group.m, group.l, r, layers, eigenvectors=False)
    assert [line.labels for line in split.lines] == [line.labels for line in meta.lines]
    for a, b in zip(split.lines, meta.lines):
        assert np.complex128(a.eigenvalue).tobytes() == np.complex128(b.eigenvalue).tobytes()


def r_orbit(s, r, m):
    """The exponents s * r^e mod m."""
    orbit, x = set(), s % m
    while x not in orbit:
        orbit.add(x)
        x = x * r % m
    return orbit


def random_layers(m, l, r, rng):
    """A random union of r-orbits per layer, some layers empty."""
    layers = []
    for _ in range(l):
        seeds = rng.sample(range(m), rng.randint(0, min(m, 3)))
        layers.append(sorted(set().union(*(r_orbit(s, r, m) for s in seeds))))
    return layers


def spectrum_arrays(spectrum):
    """Every line column and factor array as (shape, dtype, C order, bytes),
    with the label axes and the scalar fields."""
    lines, factors = spectrum.lines, spectrum.factors
    arrays = (lines.eigenvalues, lines.multiplicities, lines.u, lines.v,
              factors.h_rows, factors.k_rows, factors.pairs)
    return ([(a.shape, a.dtype.str, a.flags.c_contiguous, a.tobytes()) for a in arrays]
            + [lines.axes, spectrum.n, spectrum.theorem_verified])


def check_metacyclic_is_split(m, l, r, layers):
    group = MetacyclicGroup(m, l, r)
    color = color_from_set(group, [(t, s) for t, layer in enumerate(layers) for s in layer])
    split = spectrum_split(group, color, builtin_irreps(group.h_group), irreps_cyclic(m))
    meta = spectrum_metacyclic(m, l, r, layers)
    assert (split.method, meta.method) == ("split", "metacyclic")
    assert spectrum_arrays(meta) == spectrum_arrays(split)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(groups_strategy().filter(lambda group: isinstance(group, MetacyclicGroup)),
       st.randoms(use_true_random=False))
def test_metacyclic_route_is_the_split_route_on_its_indicator(group, rng):
    check_metacyclic_is_split(group.m, group.l, group.r,
                              random_layers(group.m, group.l, group.r, rng))


@pytest.mark.parametrize("m, l, r", [(7, 1, 1), (1, 5, 0), (2, 1000, 1)])
def test_metacyclic_route_is_the_split_route_at_the_edges(m, l, r):
    rng = random.Random(m * l)
    check_metacyclic_is_split(m, l, r, random_layers(m, l, r, rng))


def test_normal_agrees_with_split_on_class_functions():
    group = MetacyclicGroup(7, 3, 2)
    union = [e for cls in group.conjugacy_classes() if cls.size in (3, 7)
             for e in cls.members]
    color = color_from_set(group, union)
    a = spectrum_normal(group, color, builtin_irreps(group))
    b = spectrum_split(group, color, builtin_irreps(CyclicGroup(3)),
                       irreps_cyclic(7))
    same, witness = compare_spectra(a, b, tol=1e-9)
    assert same, witness


def test_block_diagonalize_prism():
    group = MetacyclicGroup(3, 2, 2)
    color = color_from_set(group, [(0, 1), (0, 2), (1, 0)])
    decomposition = block_diagonalize(group, color, builtin_irreps(group))
    assert decomposition.reconstruction_deviation <= 1e-11
    eigs = []
    for rho, values in zip(builtin_irreps(group),
                           decomposition.block_eigenvalues):
        assert values is not None  # degrees 1, 1, 2
        eigs.extend([v for v in values] * rho.degree)
    got = sorted(round(v.real, 9) for v in eigs)
    assert got == [-2, -2, 0, 0, 1, 3]


def test_block_diagonalize_homothety():
    group = DihedralGroup(4)
    union = [e for cls in group.conjugacy_classes() if cls.size == 2
             for e in cls.members]
    color = color_from_set(group, union)
    assert color.is_class_function
    decomposition = block_diagonalize(group, color, builtin_irreps(group))
    normal = spectrum_normal(group, color, builtin_irreps(group))
    for line, block in zip(normal.lines, decomposition.blocks):
        lam = line.eigenvalue
        assert np.max(np.abs(block.matrix - lam * np.eye(block.degree))) <= 1e-9


def test_block_diagonalize_identity_color():
    group = CyclicGroup(5)
    color = color_from_set(group, [0])
    decomposition = block_diagonalize(group, color, builtin_irreps(group))
    for block in decomposition.blocks:
        assert np.array_equal(block.matrix, np.eye(block.degree))
    assert decomposition.reconstruction_deviation <= 1e-12


def test_degree_three_blocks_not_extracted():
    group = MetacyclicGroup(7, 3, 2)
    color = color_from_set(group, [(0, 1), (0, 2), (0, 4)])
    decomposition = block_diagonalize(group, color, builtin_irreps(group))
    degrees = [rho.degree for rho in builtin_irreps(group)]
    for degree, values in zip(degrees, decomposition.block_eigenvalues):
        assert (values is None) == (degree >= 3)


def test_eigenvector_unit_norms():
    group, color, d3 = order_42_fixture()
    spec = spectrum_split(group, color, builtin_irreps(d3), irreps_cyclic(7))
    offset = 0
    for line in spec.lines:
        rows = spec.vector_rows(offset, offset + line.multiplicity)
        offset += line.multiplicity
        assert rows.shape[0] == line.multiplicity
        norms = np.linalg.norm(rows, axis=1)
        assert np.max(np.abs(norms - 1)) <= 1e-12


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy(), st.randoms(use_true_random=False), st.data())
def test_normal_route_claims_the_p_matrix_rows(group, rng, data):
    """The normal route claims one array, the transposed coefficient basis:
    any range of it, clipped to [0, n], is byte-equal to the P-matrix
    columns and read-only."""
    try:
        irrep_set = builtin_irreps(group)
    except IrrepsUnavailable:
        assume(False)
    color = ColorFunction(group, class_color_values(group, rng))
    spec = spectrum_normal(group, color, irrep_set)
    n = group.order
    assert spec.factors is None and spec.vectors.shape == (n, n)
    p_matrix = build_p_matrix(group, irrep_set).matrix
    lo, hi = data.draw(st.integers(-3, n + 3)), data.draw(st.integers(-3, n + 3))
    start, stop = min(max(lo, 0), n), min(max(hi, 0), n)
    rows = spec.vector_rows(lo, hi)
    expect = p_matrix[:, start:max(start, stop)].T
    assert rows.dtype == complex and rows.shape == expect.shape
    assert rows.tobytes() == expect.tobytes() and not rows.flags.writeable
    # one claim form per spectrum, and no per-line rows
    line = spec.lines[0]
    pairs = np.zeros((n, 2), dtype=np.int64)
    factors = KroneckerFactors(h_rows=p_matrix[:1, :1], k_rows=p_matrix, pairs=pairs)
    with pytest.raises(ValueError, match="not both"):
        Spectrum(n=n, method="normal", lines=spec.lines, factors=factors, vectors=spec.vectors)
    with pytest.raises(TypeError):
        SpectralLine(line.u, line.v, line.labels, line.eigenvalue, 1, eigenvectors=expect)
    with pytest.raises(TypeError):
        SpectralLine(line.u, line.v, line.labels, line.eigenvalue, 1, expect)
    assert line.eigenvectors is None


# -- the H terms against the comprehension they replaced ---------------------
#
# A full-support color makes every sigma_vi nonzero, so each H term enters
# every eigenvalue of its row; there a last bit of a term may round away in
# the sum, so a probe color per H-class makes each term an eigenvalue whole.


def h_terms_oracle(h_group, irreps_h):
    """lambda_ui = |C_i| chi_u(rep_i) / d_u, one Python int * complex / int
    per (irrep, class), over the classes in order of representative."""
    h_classes = h_group.conjugacy_classes()
    reps = [h_group.index(cls.representative) for cls in h_classes]
    h_chars = irreps_h.characters[:, reps]
    return np.array([tuple(cls.size * c / d for cls, c in zip(h_classes, chars))
                     for d, chars in zip(irreps_h.degrees(), h_chars.tolist())], dtype=complex)


def oracle_eigenvalues(group, color, irreps_h, irreps_k):
    """The eigenvalue bytes of ``grid_oracle`` on the comprehension's H
    terms; ``irreps_k`` is ``irreps_cyclic(m)``, whose exponents are e_v = v."""
    h_group = group.h_group
    reps = [h_group.index(cls.representative) for cls in h_group.conjugacy_classes()]
    lines = grid_oracle(h_terms_oracle(h_group, irreps_h),
                        color.vector.reshape(group.l, group.m)[reps],
                        np.arange(group.m), irreps_h.labels(), irreps_k.labels(),
                        [d * d for d in irreps_h.degrees()])
    return np.array([line.eigenvalue for line in lines], dtype=complex).tobytes()


def oracle_colors(group, rng):
    """A full-support color, then for each H-class the indicator of its
    representative h: sigma_vi is 1 on that class and 0 on the others, so
    eigenvalue (u, v) is lambda_ui plus zeros."""
    h_group = group.h_group
    return [ColorFunction(group, {g: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                                  for g in group.elements()})] + [
        color_from_set(group, [(h_group.index(cls.representative), 0)])
        for cls in h_group.conjugacy_classes()]


def rotated_irreps(irrep_set, rng):
    """The irreps conjugated by random unitaries: the same characters up to
    rounding, so their last bits, signed zeros included, vary."""
    nprng = np.random.default_rng(rng.getrandbits(32))
    rotated = []
    for rho in irrep_set:
        d = rho.degree
        q, _ = np.linalg.qr(nprng.normal(size=(d, d)) + 1j * nprng.normal(size=(d, d)))
        rotated.append(UnitaryIrrep(rho.label, {
            g: q @ matrix @ q.conj().T for g, matrix in rho.matrices.items()}))
    return IrrepSet(irrep_set.group, rotated)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy().filter(lambda group: isinstance(group, SplitExtensionGroup)),
       st.randoms(use_true_random=False), st.booleans())
@example(SemidirectProductGroup(7, DihedralGroup(3), [6, 1]), random.Random(1), False)
@example(SemidirectProductGroup(7, DihedralGroup(3), [6, 1]), random.Random(2), True)
@example(SemidirectProductGroup(11, DihedralGroup(5), [10, 1]), random.Random(3), True)
def test_h_terms_equal_the_class_comprehension(group, rng, rotate):
    """The split route's eigenvalues are those of the comprehension's H
    terms bit for bit, on built-in irreps and on rotated user tables of H;
    a dihedral complement brings classes of size 2 and irreps of degree 2."""
    try:
        irreps_h = builtin_irreps(group.h_group)
    except IrrepsUnavailable:
        assume(False)
    if rotate:
        irreps_h = rotated_irreps(irreps_h, rng)
    irreps_k = irreps_cyclic(group.m)
    for color in oracle_colors(group, rng):
        spec = spectrum_split(group, color, irreps_h, irreps_k, eigenvectors=False, force=True)
        assert spec.eigenvalues.tobytes() == \
            oracle_eigenvalues(group, color, irreps_h, irreps_k)


def a4_complement_irreps(rng):
    """A4 as a permutation group with its four irreps as user tables: the
    characters of A4 / V4 = C3, and the standard representation on the
    sum-zero subspace of C^4 in a random orthonormal basis.  Its degree 3
    is the one degree whose division is not exact in binary."""
    a4 = PermutationGroup([(1, 2, 0, 3), (1, 0, 3, 2)])
    v4 = {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}
    t_inv = a4.inv((1, 2, 0, 3))

    def coset(g):
        for c in range(3):
            if g in v4:
                return c
            g = a4.mul(t_inv, g)

    nprng = np.random.default_rng(rng.getrandbits(32))
    basis, _ = np.linalg.qr(np.vstack([np.ones(4), nprng.normal(size=(3, 4))]).T)
    basis = basis[:, 1:]
    tables = [UnitaryIrrep(f"chi{k}", {g: np.array([[np.exp(2j * np.pi * k * coset(g) / 3)]])
                                       for g in a4.elements()}) for k in range(3)]
    tables.append(UnitaryIrrep("std", {g: basis.T @ permutation_matrix(g) @ basis
                                       for g in a4.elements()}))
    return a4, IrrepSet(a4, tables)


def permutation_matrix(g):
    """P with P e_x = e_{g(x)}, so that P(g h) = P(g) P(h)."""
    matrix = np.zeros((len(g), len(g)))
    matrix[list(g), range(len(g))] = 1
    return matrix


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_h_terms_equal_the_class_comprehension_on_a_degree_three_complement(seed):
    """A trivial action of A4 on C3: classes of sizes 1, 3, 4, 4 and a
    degree-3 irrep whose characters carry rounding noise, so dividing by 3
    and multiplying by 1/3 round apart."""
    rng = random.Random(seed)
    a4, irreps_h = a4_complement_irreps(rng)
    group = SplitExtensionGroup(3, a4, [1] * a4.order)
    irreps_k = irreps_cyclic(3)
    for color in oracle_colors(group, rng):
        spec = spectrum_split(group, color, irreps_h, irreps_k, eigenvectors=False, force=True)
        assert spec.eigenvalues.tobytes() == \
            oracle_eigenvalues(group, color, irreps_h, irreps_k)


# -- a color of another group ------------------------------------------------


@pytest.mark.parametrize("other", [CyclicGroup(21), DihedralGroup(11)], ids=repr)
def test_a_color_of_another_group_is_refused(other):
    """Each entry point that reads a color by the group's indices refuses
    one that lives on another group, before reading it."""
    group = MetacyclicGroup(7, 3, 2)
    color = ColorFunction(other, {g: 1.0 for g in other.elements()[1:4]})
    calls = [
        lambda: check_split_hypotheses(group, color),
        lambda: adjacency_matrix(group, color),
        lambda: beta_blocks(group, color),
        lambda: spectrum_split(group, color, builtin_irreps(CyclicGroup(3)), irreps_cyclic(7)),
        lambda: spectrum_split(group, color, builtin_irreps(CyclicGroup(3)), irreps_cyclic(7),
                               force=True),
        lambda: spectrum_normal(group, color, builtin_irreps(group)),
        lambda: block_diagonalize(group, color, builtin_irreps(group)),
    ]
    for call in calls:
        with pytest.raises(InvalidAction, match="the color lives on"):
            call()
    # an equal group built apart is the same group
    twin = MetacyclicGroup(7, 3, 2)
    same = ColorFunction(twin, {(0, 1): 1.0, (0, 2): 1.0, (0, 4): 1.0})
    assert check_split_hypotheses(group, same).passed
    assert adjacency_matrix(group, same).matrix.tobytes() == \
        adjacency_matrix(twin, same).matrix.tobytes()


@pytest.mark.parametrize("bad", [True, 2.0, 2.5, "2"], ids=["bool", "float", "fraction", "string"])
@pytest.mark.parametrize("at", [0, -1], ids=["layer-0", "layer-l-1"])
def test_a_layer_exponent_that_is_not_an_integer_is_refused(bad, at):
    """The layer indicator reads every exponent in one conversion, and a
    bool, a float (integral or not) or a string is refused with
    ``_integer``'s message naming its layer, also after a numpy integer
    and an int beyond int64 in an earlier layer.  Those two are read as
    Python reads them, mod m."""
    group, conn = nonnormal_family(7, 3, 2)
    layers = layers_from_set(group, conn.elements)
    wide = [[np.int8(-6), 2 + 7 * 2 ** 70, 3, np.uint64(4), 5, 6], [np.int64(7)], [0]]
    expected = spectrum_metacyclic(7, 3, 2, layers)
    assert spectrum_metacyclic(7, 3, 2, wide).lines.eigenvalues.tobytes() == \
        expected.lines.eigenvalues.tobytes()
    edited = [list(layer) for layer in wide]
    edited[at].append(bad)
    t = at % 3
    with pytest.raises(ValueError) as caught:
        spectrum_metacyclic(7, 3, 2, edited)
    assert str(caught.value) == f"group field 'layers[{t}]' must be an integer, got {bad!r}"
