import cmath
import random
import time

import numpy as np
import pytest

from cayleyspec import (
    AbelianProductGroup,
    CapacityExceeded,
    ColorFunction,
    CyclicGroup,
    DihedralGroup,
    IrrepSet,
    IrrepValidationFailed,
    IrrepsUnavailable,
    MetacyclicGroup,
    PermutationGroup,
    SemidirectProductGroup,
    UnitaryIrrep,
    build_p_matrix,
    builtin_irreps,
    color_from_set,
    ensure_trusted,
    fourier_transform,
    irreps_abelian,
    irreps_cyclic,
    irreps_dihedral,
    irreps_metacyclic,
    spectrum_normal,
    unit_root,
    validate_irrep_set,
)


def test_unit_root():
    assert unit_root(0, 5) == 1
    assert unit_root(2, 4) == -1  # quarter turns exact
    assert unit_root(1, 4) == 1j
    assert unit_root(3, 4) == -1j
    assert unit_root(15, 7) == unit_root(1, 7)
    assert abs(unit_root(1, 7) - cmath.exp(2j * cmath.pi / 7)) < 1e-16
    for s in range(360):
        assert abs(abs(unit_root(s, 360)) - 1) <= 1e-14
    with pytest.raises(ValueError):
        unit_root(1, 0)


def test_irreps_cyclic_values():
    s = irreps_cyclic(4)
    assert s.labels() == ["chi_0", "chi_1", "chi_2", "chi_3"]
    assert s.degrees() == [1, 1, 1, 1]
    assert s[1].character(2) == -1
    s7 = irreps_cyclic(7)
    # exponent reduction: 3*5 = 15 = 1 mod 7
    assert abs(s7[3].character(5) - unit_root(1, 7)) < 1e-15
    s1 = irreps_cyclic(1)
    assert s1.degrees() == [1]
    assert s1[0].character(0) == 1


def test_irreps_abelian():
    a = irreps_abelian((2, 2))
    assert len(a) == 4
    for rho in a:
        for g in rho.matrices:
            assert rho.character(g) in (1, -1)

    # CRT: characters of C2 x C3 match those of C6 as value tables
    a23 = irreps_abelian((2, 3))
    g23 = AbelianProductGroup((2, 3))
    c6 = CyclicGroup(6)
    s6 = irreps_cyclic(6)
    iso = {g: next(x for x in range(6) if (x % 2, x % 3) == g)
           for g in g23.elements()}
    tables_product = {
        tuple(np.round([rho.character(g) for g in g23.elements()], 12))
        for rho in a23
    }
    tables_cyclic = {
        tuple(np.round([rho.character(iso[g]) for g in g23.elements()], 12))
        for rho in s6
    }
    assert tables_product == tables_cyclic

    trivial = irreps_abelian((1,))
    assert trivial.degrees() == [1]


def test_irreps_dihedral():
    d3 = irreps_dihedral(3)
    assert d3.degrees() == [1, 1, 2]
    assert d3.labels() == ["A1", "A2", "E1"]
    d4 = irreps_dihedral(4)
    assert d4.labels() == ["A1", "A2", "B1", "B2", "E1"]
    assert sum(d * d for d in d4.degrees()) == 8
    with pytest.raises(ValueError):
        irreps_dihedral(2)

    # sign character: +1 on rotations, -1 on reflections
    group = DihedralGroup(3)
    a2 = d3[1]
    for b in range(3):
        assert a2.character((0, b)) == 1
        assert a2.character((1, b)) == -1
    # plane representation sends rotations to diag(w^j, w^-j)
    e1 = d3[2]
    w = unit_root(1, 3)
    assert np.allclose(e1.matrix((0, 1)), np.diag([w, w.conjugate()]))
    # reflections swap the two coordinates
    assert abs(e1.matrix((1, 0))[0, 0]) < 1e-15
    assert abs(e1.matrix((1, 0))[0, 1]) == 1


def test_irreps_metacyclic_little_group():
    s = irreps_metacyclic(7, 3, 2)
    assert s.degrees() == [1, 1, 1, 3, 3]
    assert s.labels() == ["X0.0", "X0.1", "X0.2", "X1.0", "X3.0"]
    group = MetacyclicGroup(7, 3, 2)
    report = validate_irrep_set(group, s)
    assert report.passed, report.issues
    assert sum(d * d for d in s.degrees()) == 21


def test_validate_rejects_reducible():
    # direct sum of two characters of C3: irreducibility sum is 2
    c3 = CyclicGroup(3)
    chars = irreps_cyclic(3)
    mats = {
        g: np.diag([chars[0].character(g), chars[1].character(g)])
        for g in c3.elements()
    }
    candidate = IrrepSet(c3, [UnitaryIrrep("sum", mats)], trusted=False)
    report = validate_irrep_set(c3, candidate)
    assert not report.passed
    checks = {issue.check for issue in report.issues}
    assert "irreducibility" in checks
    issue = next(i for i in report.issues if i.check == "irreducibility")
    assert abs(issue.deviation - 1.0) < 1e-12  # |sum/n - 1| = |2 - 1|
    with pytest.raises(IrrepValidationFailed):
        report.raise_if_failed()


def test_validate_rejects_scaled_matrix():
    c3 = CyclicGroup(3)
    base = irreps_cyclic(3)
    mats = {g: base[1].matrix(g).copy() for g in c3.elements()}
    mats[1] = 2 * mats[1]
    doctored = IrrepSet(
        c3, [base[0], UnitaryIrrep("bad", mats), base[2]], trusted=False
    )
    report = validate_irrep_set(c3, doctored)
    assert not report.passed
    unitarity = [i for i in report.issues if i.check == "unitarity"]
    assert unitarity and unitarity[0].witness == 1


def test_validate_passes_builtins():
    for group, irr in (
        (CyclicGroup(8), irreps_cyclic(8)),
        (AbelianProductGroup((2, 4)), irreps_abelian((2, 4))),
        (DihedralGroup(6), irreps_dihedral(6)),
        (MetacyclicGroup(9, 3, 4), irreps_metacyclic(9, 3, 4)),
    ):
        report = validate_irrep_set(group, irr)
        assert report.passed, (group.kind, report.issues)


def test_builtin_irreps_dispatch():
    assert builtin_irreps(CyclicGroup(5)).degrees() == [1] * 5
    assert builtin_irreps(AbelianProductGroup((2, 2))).degrees() == [1] * 4
    assert builtin_irreps(DihedralGroup(4)).degrees() == [1, 1, 1, 1, 2]
    assert builtin_irreps(MetacyclicGroup(7, 3, 2)).degrees() == [1, 1, 1, 3, 3]
    g42 = SemidirectProductGroup(7, DihedralGroup(3), [6, 1])
    with pytest.raises(IrrepsUnavailable):
        builtin_irreps(g42)  # complement is not cyclic
    s4 = PermutationGroup([(1, 0, 2, 3), (1, 2, 3, 0)])
    with pytest.raises(IrrepsUnavailable):
        builtin_irreps(s4)


def test_fourier_transform():
    g = DihedralGroup(3)
    irr = builtin_irreps(g)
    delta = color_from_set(g, [g.identity])
    ones = ColorFunction(g, {e: 1 for e in g.elements()})
    for rho in irr:
        assert np.array_equal(fourier_transform(delta, rho).matrix,
                              np.eye(rho.degree))
    # column orthogonality forces the sum over G to vanish off the trivial irrep
    assert np.max(np.abs(fourier_transform(ones, irr[1]).matrix)) < 1e-12
    assert np.max(np.abs(fourier_transform(ones, irr[2]).matrix)) < 1e-12
    s = color_from_set(g, [(0, 1), (0, 2), (1, 0)])
    assert abs(fourier_transform(s, irr[0]).matrix[0, 0] - 3) < 1e-12


def test_fourier_homothety_on_class_functions():
    # class function -> every transform is lambda I with the character ratio
    for group in (DihedralGroup(4), MetacyclicGroup(7, 3, 2)):
        irr = builtin_irreps(group)
        rng = random.Random(7)
        values = {}
        for cls in group.conjugacy_classes():
            v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for e in cls.members:
                values[e] = v
        f = ColorFunction(group, values)
        assert f.is_class_function
        for rho in irr:
            block = fourier_transform(f, rho).matrix
            ratio = sum(
                f(g) * rho.character(g) for g in group.elements()
            ) / rho.degree
            assert np.max(np.abs(block - ratio * np.eye(rho.degree))) <= 1e-9


def test_p_matrix_small_exact():
    p2 = build_p_matrix(CyclicGroup(2), irreps_cyclic(2))
    assert np.allclose(p2.matrix * np.sqrt(2), [[1, 1], [1, -1]], atol=1e-15)
    p3 = build_p_matrix(CyclicGroup(3), irreps_cyclic(3))
    w = unit_root(1, 3)
    expected = np.array(
        [[w ** (v * s) for v in range(3)] for s in range(3)]
    ) / np.sqrt(3)
    assert np.max(np.abs(p3.matrix - expected)) < 1e-14


def test_p_matrix_column_layout():
    group = DihedralGroup(3)
    irr = builtin_irreps(group)
    p = build_p_matrix(group, irr)
    assert p.column_labels[0] == ("A1", 0, 0)
    # within an irrep columns run column-major: (i, j) with j outer
    span = p.column_span("E1")
    labels = [p.column_labels[c][1:] for c in range(span.start, span.stop)]
    assert labels == [(0, 0), (1, 0), (0, 1), (1, 1)]
    scale = np.sqrt(2 / 6)
    rho = irr[2]
    for idx, g in enumerate(group.elements()):
        assert abs(p.matrix[idx, span.start] - scale * rho.matrix(g)[0, 0]) < 1e-15


def test_p_matrix_unitary_up_to_order_200():
    cases = [
        (CyclicGroup(200), irreps_cyclic(200)),
        (DihedralGroup(100), irreps_dihedral(100)),
        (MetacyclicGroup(31, 6, 6), irreps_metacyclic(31, 6, 6)),
        (AbelianProductGroup((4, 7, 7)), irreps_abelian((4, 7, 7))),
    ]
    for group, irr in cases:
        p = build_p_matrix(group, irr)
        gram = p.matrix.conj().T @ p.matrix
        assert np.max(np.abs(gram - np.eye(group.order))) <= 1e-9


def test_ensure_trusted_validates_once():
    c4 = CyclicGroup(4)
    s = IrrepSet(c4, list(irreps_cyclic(4)), trusted=False)
    assert not s.trusted
    ensure_trusted(c4, s)
    assert s.trusted
    bad = IrrepSet(c4, [irreps_cyclic(4)[0]], trusted=False)
    with pytest.raises(IrrepValidationFailed):
        ensure_trusted(c4, bad)  # incomplete: sum d^2 = 1 != 4


class CountedElement(int):
    """An element that counts the equality tests made on it."""

    comparisons = 0

    def __eq__(self, other):
        CountedElement.comparisons += 1
        return int.__eq__(self, other)

    __hash__ = int.__hash__


def test_an_irrep_sweep_compares_the_element_tuples_once_per_set():
    """User irreps keyed by elements equal to the group's but not the same
    objects, shared by every table: the set compares their element tuples
    with the group's once when it stacks them, not once per irrep, and the
    formula's character sweep and the P matrix compare none; the
    spectrum's bytes do not change."""
    n = 200
    group = CyclicGroup(n)
    builtin = builtin_irreps(group)
    elements = [CountedElement(g) for g in group.elements()]
    tables = [UnitaryIrrep(rho.label, dict(zip(elements, rho.stack))) for rho in builtin]
    color = color_from_set(group, [1, n - 1, 17, n - 17])
    CountedElement.comparisons = 0
    counted = IrrepSet(group, tables, trusted=True)
    spec = spectrum_normal(group, color, counted)
    assert CountedElement.comparisons <= 2 * n
    expect = spectrum_normal(group, color, builtin)
    assert np.array([line.eigenvalue for line in spec.lines]).tobytes() == \
        np.array([line.eigenvalue for line in expect.lines]).tobytes()
    assert spec.vectors.tobytes() == expect.vectors.tobytes()


@pytest.mark.parametrize("group", [
    CyclicGroup(12), AbelianProductGroup([2, 6]), DihedralGroup(6), MetacyclicGroup(7, 3, 2),
    MetacyclicGroup(13, 4, 5)], ids=repr)
def test_built_in_irreps_hold_what_their_estimate_counts(group):
    """The stacks hold n^2 entries and the characters one row of n per
    irrep: 16 n (n + count) bytes, the estimate checked before building."""
    irrep_set, n = builtin_irreps(group), group.order
    held = sum(stack.nbytes for stack in irrep_set.stacks.values()) + irrep_set.characters.nbytes
    assert held == 16 * n * (n + len(irrep_set))


@pytest.mark.parametrize("build", [
    lambda: irreps_metacyclic(1009, 9, 337), lambda: irreps_cyclic(6000),
    lambda: irreps_abelian([2, 3000]), lambda: irreps_dihedral(5000)],
    ids=["M(1009, 9, 337)", "C6000", "C2 x C3000", "D5000"])
def test_built_in_irreps_over_the_budget_raise_before_building(build):
    """The n = 9081 family's irreps would peak at 1.3 GB; each of these is
    over the 1 GiB budget and raises at once."""
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded, match="the built-in irreps of"):
        build()
    assert time.perf_counter() - start < 1
