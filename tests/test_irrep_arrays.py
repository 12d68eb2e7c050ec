"""Irreps stored as arrays, and the array paths that read them.

The per-element dict constructions and loops that the array code replaced
are kept here as oracles: built-in irreps, validation, the Fourier
transform and the P-matrix must agree with them (byte for byte where the
arithmetic is unchanged).  Cross-route properties check that the normal,
split, metacyclic and blocks routes agree on random groups and colors.
"""

import itertools
import random
import tracemalloc
from math import gcd, sqrt

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cayleyspec import (
    AbelianProductGroup,
    CapacityExceeded,
    ColorFunction,
    CyclicGroup,
    DihedralGroup,
    IrrepSet,
    MetacyclicGroup,
    PermutationGroup,
    SemidirectProductGroup,
    SpectralLine,
    Spectrum,
    UnitaryIrrep,
    adjacency_matrix,
    block_diagonalize,
    build_p_matrix,
    builtin_irreps,
    certify,
    check_split_hypotheses,
    color_from_set,
    compare_spectra,
    conjugation_orbits_on_k,
    fourier_transform,
    irreps_cyclic,
    irreps_dihedral,
    layers_from_set,
    nonnormal_family,
    spectrum_metacyclic,
    spectrum_normal,
    spectrum_split,
    unit_root,
    validate_irrep_set,
)
from cayleyspec import spectra as spectra_module
from cayleyspec.irreps import ValidationIssue

# -- oracles: the per-element constructions and loops ------------------------


def cyclic_oracle(n):
    return [
        (f"chi_{v}", {s: np.array([[unit_root(v * s, n)]]) for s in range(n)})
        for v in range(n)
    ]


def abelian_oracle(group):
    out = []
    for exps in itertools.product(*(range(o) for o in group.orders)):
        mats = {}
        for g in group.elements():
            value = 1.0 + 0j
            for v, s, o in zip(exps, g, group.orders):
                value *= unit_root(v * s, o)
            mats[g] = np.array([[value]])
        out.append(("chi_" + "_".join(str(v) for v in exps), mats))
    return out


def dihedral_oracle(n):
    out = []
    linear = [("A1", 1.0, 1.0), ("A2", -1.0, 1.0)]
    if n % 2 == 0:
        linear += [("B1", 1.0, -1.0), ("B2", -1.0, -1.0)]
    for label, s_val, rho_val in linear:
        out.append((label, {
            (ref, rot): np.array([[(s_val ** ref) * (rho_val ** rot)]])
            for ref in range(2) for rot in range(n)
        }))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for j in range(1, (n + 1) // 2 if n % 2 else n // 2):
        mats = {}
        for rot in range(n):
            r_mat = np.diag([unit_root(j * rot, n), unit_root(-j * rot, n)])
            mats[(0, rot)] = r_mat
            mats[(1, rot)] = swap @ r_mat
        out.append((f"E{j}", mats))
    return out


def complement_oracle(group):
    """Induced irreps of C_m x| C_l from repeated matrix products."""
    m, l = group.m, group.l
    r = group.units[1] if l > 1 else 1 % m
    seen, orbits = set(), []
    for v in range(m):
        if v in seen:
            continue
        orbit = [v]
        x = v * r % m
        while x != v:
            orbit.append(x)
            x = x * r % m
        seen.update(orbit)
        orbits.append(orbit)
    entries = []
    for orbit in orbits:
        t = len(orbit)
        d_mat = np.diag([unit_root(s, m) for s in orbit]).astype(complex)
        for w in range(l // t):
            a_mat = np.zeros((t, t), dtype=complex)
            a_mat[t - 1, 0] = unit_root(w * t, l)
            for j in range(1, t):
                a_mat[j - 1, j] = 1.0
            a_pows = [np.eye(t, dtype=complex)]
            for _ in range(l - 1):
                a_pows.append(a_pows[-1] @ a_mat)
            d_pows = [np.eye(t, dtype=complex)]
            for _ in range(m - 1):
                d_pows.append(d_pows[-1] @ d_mat)
            mats = {(a, b): a_pows[a] @ d_pows[b] for a in range(l) for b in range(m)}
            entries.append((t, orbit[0], w, (f"X{orbit[0]}.{w}", mats)))
    entries.sort(key=lambda item: item[:3])
    return [item[3] for item in entries]


def validate_oracle(group, irrep_set, hom_tol=1e-10, unitary_tol=1e-10,
                    irreducible_tol=1e-9, orthogonality_tol=1e-9):
    issues = []
    elems = group.elements()
    n = group.order
    for rho in irrep_set:
        mats = rho.matrices
        missing = [g for g in elems if g not in mats]
        if missing:
            issues.append(ValidationIssue(
                "coverage", (rho.label,), missing[0], float(len(missing))))
            continue
        dev = float(np.max(np.abs(mats[group.identity] - np.eye(rho.degree))))
        if dev > hom_tol:
            issues.append(ValidationIssue("identity", (rho.label,), group.identity, dev))
        worst, worst_pair = 0.0, None
        for x in elems:
            for y in elems:
                dev = float(np.max(np.abs(mats[group.mul(x, y)] - mats[x] @ mats[y])))
                if dev > worst:
                    worst, worst_pair = dev, (x, y)
        if worst > hom_tol:
            issues.append(ValidationIssue("homomorphism", (rho.label,), worst_pair, worst))
        worst, worst_g = 0.0, None
        for g in elems:
            dev = float(np.max(np.abs(mats[g].conj().T @ mats[g] - np.eye(rho.degree))))
            if dev > worst:
                worst, worst_g = dev, g
        if worst > unitary_tol:
            issues.append(ValidationIssue("unitarity", (rho.label,), worst_g, worst))
        norm = sum(abs(complex(np.trace(mats[g]))) ** 2 for g in elems) / n
        if abs(norm - 1.0) > irreducible_tol:
            issues.append(ValidationIssue(
                "irreducibility", (rho.label,), None, float(abs(norm - 1.0))))
    for i, rho in enumerate(irrep_set):
        for tau in irrep_set.irreps[i + 1:]:
            if any(g not in rho.matrices or g not in tau.matrices for g in elems):
                continue
            inner = sum(
                complex(np.trace(rho.matrices[g])) * complex(np.trace(tau.matrices[g])).conjugate()
                for g in elems
            ) / n
            if abs(inner) > orthogonality_tol:
                issues.append(ValidationIssue(
                    "orthogonality", (rho.label, tau.label), None, float(abs(inner))))
    total = sum(rho.degree ** 2 for rho in irrep_set)
    if total != n:
        issues.append(ValidationIssue(
            "completeness", tuple(irrep_set.labels()), None, float(abs(total - n))))
    return issues


def fourier_oracle(f, irrep):
    total = np.zeros((irrep.degree, irrep.degree), dtype=complex)
    for g, mat in irrep.matrices.items():
        value = complex(f(g))
        if value != 0:
            total += value * mat
    return total


def p_matrix_oracle(group, irrep_set):
    elems = group.elements()
    n = group.order
    p_mat = np.zeros((n, n), dtype=complex)
    col = 0
    for rho in irrep_set:
        d = rho.degree
        stack = np.stack([rho.matrix(g) for g in elems])
        for j in range(d):
            for i in range(d):
                p_mat[:, col] = sqrt(d / n) * stack[:, i, j]
                col += 1
    return p_mat


# -- the groups --------------------------------------------------------------


def twists(m, l):
    return [r for r in range(m) if gcd(r, m) == 1 and pow(r, l, m) == 1 % m]


def exact_catalog():
    """Kinds whose entries come straight from unit_root: cyclic, abelian,
    dihedral, sampled up to order 60."""
    cyclic = list(range(1, 25)) + [30, 32, 36, 45, 48, 60]
    cases = [(CyclicGroup(n), cyclic_oracle(n)) for n in cyclic]
    cases += [(DihedralGroup(n), dihedral_oracle(n)) for n in list(range(3, 17)) + [20, 24, 30]]
    for orders in [(2, 2), (2, 3), (3, 4), (2, 2, 3), (4, 4), (2, 3, 5),
                   (2, 2, 2, 2), (6, 6), (3, 3, 3), (2, 5, 6), (1, 7)]:
        group = AbelianProductGroup(orders)
        cases.append((group, abelian_oracle(group)))
    return cases


def complement_catalog():
    """D_1, D_2, every non-abelian C_m x| C_l up to order 60, and a few
    direct products (r = 1)."""
    cases = [DihedralGroup(1), DihedralGroup(2), MetacyclicGroup(1, 1, 0),
             MetacyclicGroup(5, 6, 1), MetacyclicGroup(12, 5, 1)]
    for m in range(3, 31):
        for l in range(2, 61):
            if m * l > 60:
                break
            cases += [MetacyclicGroup(m, l, r) for r in twists(m, l) if r != 1]
    return cases


def as_stack(group, mats):
    return np.stack([np.asarray(mats[g], dtype=complex) for g in group.elements()])


def test_exact_kinds_equal_dict_oracles_byte_for_byte():
    for group, oracle in exact_catalog():
        built = builtin_irreps(group)
        assert built.labels() == [label for label, _ in oracle]
        for rho, (_, mats) in zip(built, oracle):
            assert rho.elements == tuple(group.elements())
            expected = as_stack(group, mats)
            chars = np.array([complex(np.trace(M)) for M in expected])
            stack = rho.stack
            if isinstance(group, DihedralGroup):
                # the oracle's reflections come from a matrix product that
                # turns the sign of some zeros; adding +0 maps -0 to +0 and
                # changes no other bit pattern
                stack, expected = stack + 0.0, expected + 0.0
            assert stack.tobytes() == expected.tobytes(), (group, rho.label)
            assert rho.characters.tobytes() == chars.tobytes(), (group, rho.label)


def test_complement_kind_equals_matrix_power_oracle():
    # entries are now single roots of unity instead of repeated products,
    # so they agree with the old construction up to its accumulated rounding
    for group in complement_catalog():
        built = builtin_irreps(group)
        oracle = complement_oracle(group)
        assert built.labels() == [label for label, _ in oracle]
        for rho, (_, mats) in zip(built, oracle):
            expected = as_stack(group, mats)
            assert np.max(np.abs(rho.stack - expected)) <= 1e-13, (group, rho.label)
            assert np.array_equal(rho.stack == 0, expected == 0)


def test_complement_entries_are_exact_roots():
    group = MetacyclicGroup(5, 4, 2)
    roots = {unit_root(k, group.order) for k in range(group.order)}
    for rho in builtin_irreps(group):
        values = rho.stack[rho.stack != 0].tolist()
        assert set(values) <= roots, rho.label  # quarter turns included


def test_dict_tables_keep_the_old_interface():
    base = irreps_dihedral(3)[2]
    table = {g: base.matrix(g).copy() for g in reversed(DihedralGroup(3).elements())}
    rho = UnitaryIrrep("E1", table)
    assert rho.label == "E1" and rho.degree == 2
    assert rho.elements == tuple(table)
    assert set(rho.matrices) == set(table)
    for g, M in table.items():
        assert np.array_equal(rho.matrix(g), M)
        assert rho.character(g) == complex(np.trace(M))
        assert not rho.matrix(g).flags.writeable
    table[(0, 1)][0, 0] = 99  # the irrep holds its own copy
    assert rho.matrix((0, 1))[0, 0] != 99
    with pytest.raises(ValueError, match="shape"):
        UnitaryIrrep("bad", {0: np.eye(2), 1: np.eye(3)})
    with pytest.raises(ValueError):
        UnitaryIrrep("empty", {})
    with pytest.raises(KeyError):
        rho.matrix((5, 5))


def test_build_irreps_cyclic_600_quickly():
    import time
    start = time.perf_counter()
    irr = irreps_cyclic(600)
    assert time.perf_counter() - start < 1.0
    assert len(irr) == 600 and irr[7].character(3) == unit_root(21, 600)


# -- validation --------------------------------------------------------------


def doctored_tables():
    c3 = CyclicGroup(3)
    chars = irreps_cyclic(3)
    scaled = {g: chars[1].matrix(g).copy() for g in c3.elements()}
    scaled[1] = 2 * scaled[1]
    reducible = {g: np.diag([chars[0].character(g), chars[1].character(g)])
                 for g in c3.elements()}
    d4 = DihedralGroup(4)
    base = irreps_dihedral(4)
    partial = {g: base[4].matrix(g) for g in d4.elements() if g != (1, 2)}
    broken = {g: base[4].matrix(g).copy() for g in d4.elements()}
    broken[(0, 1)] = broken[(0, 1)] @ np.array([[0, 1], [1, 0]])
    shuffled = {g: base[4].matrix(g) for g in reversed(d4.elements())}
    return [
        (c3, [chars[0], UnitaryIrrep("bad", scaled), chars[2]]),
        (c3, [UnitaryIrrep("sum", reducible)]),
        (c3, [chars[0], chars[0], chars[2]]),
        (d4, list(base)[:4] + [UnitaryIrrep("partial", partial)]),
        (d4, list(base)[:4] + [UnitaryIrrep("broken", broken)]),
        (d4, list(base)[:4] + [UnitaryIrrep("shuffled", shuffled)]),
        (d4, list(base)[:3]),
    ]


def assert_same_issues(got, expected):
    assert [(i.check, i.labels, i.witness) for i in got] == \
        [(i.check, i.labels, i.witness) for i in expected]
    for a, b in zip(got, expected):
        assert abs(a.deviation - b.deviation) <= 1e-12 * max(1.0, abs(b.deviation))


def test_validation_matches_loop_oracle_on_doctored_tables():
    checks = set()
    for group, irreps in doctored_tables():
        report = validate_irrep_set(group, IrrepSet(group, irreps))
        expected = validate_oracle(group, IrrepSet(group, irreps))
        assert_same_issues(report.issues, expected)
        checks |= {issue.check for issue in expected}
    assert checks == {"coverage", "homomorphism", "unitarity", "irreducibility",
                      "orthogonality", "completeness"}


def test_validation_coverage_witness():
    group, irreps = doctored_tables()[3]
    report = validate_irrep_set(group, IrrepSet(group, irreps))
    (issue,) = [i for i in report.issues if i.check == "coverage"]
    assert issue.witness == (1, 2) and issue.deviation == 1.0


def test_validation_passes_builtins_like_the_oracle():
    for group in (CyclicGroup(12), DihedralGroup(5), AbelianProductGroup((2, 6)),
                  MetacyclicGroup(7, 3, 2), MetacyclicGroup(5, 4, 2)):
        irr = builtin_irreps(group)
        assert validate_irrep_set(group, IrrepSet(group, irr.irreps)).issues == []
        assert validate_oracle(group, irr) == []


def test_validation_in_small_blocks(monkeypatch):
    from cayleyspec import groups as groups_module
    group, irreps = doctored_tables()[4]
    expected = validate_oracle(group, IrrepSet(group, irreps))
    monkeypatch.setattr(groups_module, "_BLOCK_BYTES", 8 * 2 * 8 * 4 * 3)
    assert_same_issues(validate_irrep_set(group, IrrepSet(group, irreps)).issues, expected)


def test_validation_fails_on_nan():
    c3 = CyclicGroup(3)
    mats = {g: irreps_cyclic(3)[1].matrix(g).copy() for g in c3.elements()}
    mats[2] = np.array([[complex("nan")]])
    irreps = [irreps_cyclic(3)[0], UnitaryIrrep("nan", mats), irreps_cyclic(3)[2]]
    report = validate_irrep_set(c3, IrrepSet(c3, irreps))
    checks = {issue.check for issue in report.issues}
    assert {"homomorphism", "unitarity", "irreducibility"} <= checks
    homomorphism = next(i for i in report.issues if i.check == "homomorphism")
    assert homomorphism.witness == (0, 2)  # first pair in element order


# -- Fourier transform and P-matrix ------------------------------------------


def random_color(group, rng, density=0.7):
    return ColorFunction(group, {
        g: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for g in group.elements() if rng.random() < density
    })


def test_fourier_and_p_matrix_match_loop_oracles_bit_for_bit():
    rng = random.Random(11)
    for group in (CyclicGroup(9), DihedralGroup(6), AbelianProductGroup((2, 3, 2)),
                  MetacyclicGroup(7, 3, 2), MetacyclicGroup(9, 6, 2)):
        irr = builtin_irreps(group)
        assert build_p_matrix(group, irr).matrix.tobytes() == \
            p_matrix_oracle(group, irr).tobytes()
        for _ in range(3):
            color = random_color(group, rng)
            decomposition = block_diagonalize(group, color, irr)
            for rho, block in zip(irr, decomposition.blocks):
                expected = fourier_oracle(color, rho).tobytes()
                assert fourier_transform(color, rho).matrix.tobytes() == expected
                assert block.matrix.tobytes() == expected


def test_p_matrix_holds_one_batch_beside_its_result():
    """On C1200 an n x n complex array is 22 MiB.  The normal route holds
    the P matrix with one stacked batch, then the P matrix with the
    vectors it claims: two such arrays.  Scaling a batch into a third
    array, as the route once did, peaked at 66.6 MiB."""
    group = CyclicGroup(1200)
    irr = builtin_irreps(group)
    color = color_from_set(group, [1, 1199])
    square = 16 * 1200 ** 2
    tracemalloc.start()
    try:
        spectrum_normal(group, color, irr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * square <= peak < 2 * square + (2 << 20), peak / square


def test_p_matrix_checks_the_byte_budget(monkeypatch):
    from cayleyspec import groups as groups_module

    group = DihedralGroup(6)
    irr = builtin_irreps(group)
    monkeypatch.setattr(groups_module, "DENSE_BYTE_BUDGET", 32 * 12 ** 2 - 1)
    with pytest.raises(CapacityExceeded, match=r"P matrix of order 12 needs an estimated 4608 bytes"):
        build_p_matrix(group, irr)
    monkeypatch.setattr(groups_module, "DENSE_BYTE_BUDGET", 32 * 12 ** 2)
    assert build_p_matrix(group, irr).matrix.shape == (12, 12)


def test_shuffled_user_tables_give_the_builtin_results():
    group = DihedralGroup(4)
    irr = builtin_irreps(group)
    order = list(group.elements())
    random.Random(3).shuffle(order)
    tables = IrrepSet(group, [UnitaryIrrep(rho.label, {g: rho.matrix(g) for g in order})
                              for rho in irr])
    color = random_color(group, random.Random(4))
    assert build_p_matrix(group, tables).matrix.tobytes() == \
        build_p_matrix(group, irr).matrix.tobytes()
    got = block_diagonalize(group, color, tables)
    want = block_diagonalize(group, color, irr)
    for a, b in zip(got.blocks, want.blocks):
        assert a.matrix.tobytes() == b.matrix.tobytes()
    assert got.reconstruction_deviation == want.reconstruction_deviation


def test_diagonal_matrix_is_the_kron_assembly():
    group = MetacyclicGroup(7, 3, 2)
    color = random_color(group, random.Random(5))
    decomposition = block_diagonalize(group, color, builtin_irreps(group))
    expected = np.zeros((21, 21), dtype=complex)
    offset = 0
    for block in decomposition.blocks:
        d = block.degree
        expected[offset:offset + d * d, offset:offset + d * d] = np.kron(
            np.eye(d), block.matrix.T)
        offset += d * d
    assert np.array_equal(decomposition.diagonal_matrix(), expected)


def test_block_diagonalize_capacity_guard_comes_first(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("allocated before the capacity check")

    monkeypatch.setattr(spectra_module, "build_p_matrix", forbidden)
    monkeypatch.setattr(spectra_module, "adjacency_matrix", forbidden)
    monkeypatch.setattr(spectra_module, "ensure_trusted", forbidden)
    group = CyclicGroup(spectra_module.RECONSTRUCTION_CAPACITY + 1)
    color = color_from_set(group, [1])
    with pytest.raises(CapacityExceeded, match="exceeds"):
        block_diagonalize(group, color, IrrepSet(group, []))


# -- cross-route properties ---------------------------------------------------


@st.composite
def route_cases(draw):
    """A cyclic, dihedral or metacyclic group with a class-function color or
    an r-invariant layered connection set."""
    kind = draw(st.sampled_from(["cyclic", "dihedral", "metacyclic"]))
    if kind == "cyclic":
        group = CyclicGroup(draw(st.integers(1, 16)))
    elif kind == "dihedral":
        group = DihedralGroup(draw(st.integers(3, 10)))
    else:
        m = draw(st.integers(2, 11))
        l = draw(st.integers(1, 5))
        group = MetacyclicGroup(m, l, draw(st.sampled_from(twists(m, l))))
    if kind == "metacyclic" and draw(st.booleans()):
        # union of <r>-orbits per coset layer
        layers = []
        for _ in range(group.l):
            seeds = draw(st.lists(st.integers(0, group.m - 1), max_size=3))
            layer = {s * pow(group.r, e, group.m) % group.m
                     for s in seeds for e in range(group.l)}
            layers.append(sorted(layer))
        subset = [(t, s) for t, layer in enumerate(layers) for s in layer]
        return group, color_from_set(group, subset), layers
    values = draw(st.lists(
        st.sampled_from([0, 1, 2, -1, 0.5, 1j, 1 - 2j]),
        min_size=len(group.conjugacy_classes()),
        max_size=len(group.conjugacy_classes())))
    color = ColorFunction(group, {
        g: value for value, cls in zip(values, group.conjugacy_classes())
        for g in cls.members
    })
    return group, color, None


def routes(group, color, layers):
    out = []
    if color.is_class_function:
        out.append(spectrum_normal(group, color, builtin_irreps(group)))
        decomposition = block_diagonalize(group, color, builtin_irreps(group))
        assert decomposition.reconstruction_deviation <= 1e-9
        if max(builtin_irreps(group).degrees()) <= 2:
            out.append(decomposition.spectrum())
    if isinstance(group, (DihedralGroup, MetacyclicGroup)):
        if check_split_hypotheses(group, color).passed:
            out.append(spectrum_split(group, color, builtin_irreps(group.h_group),
                                      irreps_cyclic(group.m)))
    if layers is not None:
        out.append(spectrum_metacyclic(group.m, group.l, group.r, layers))
    if isinstance(group, CyclicGroup) and all(v == 1 for _, v in color.items()):
        out.append(spectrum_metacyclic(group.order, 1, 1,
                                       [sorted(g for g, _ in color.items())]))
    return out


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(route_cases())
def test_routes_agree_and_certify(case):
    group, color, layers = case
    found = routes(group, color, layers)
    assert found
    adjacency = adjacency_matrix(group, color)
    for spectrum in found:
        assert spectrum.total_multiplicity == group.order
        if spectrum.method != "blocks":
            report = certify(adjacency, spectrum, color, tol=1e-9)
            assert report.passed, (spectrum.method, report)
    for other in found[1:]:
        same, pair = compare_spectra(found[0], other, tol=1e-8)
        assert same, (found[0].method, other.method, pair)


def permutation_matrix(p):
    """P with P e_x = e_{p(x)}, so that P(p q) = P(p) P(q)."""
    out = np.zeros((len(p), len(p)))
    out[list(p), range(len(p))] = 1
    return out


def standard_matrix(p):
    """The standard irrep: P(p) on an orthonormal (Helmert) basis of the
    sum-zero subspace."""
    n = len(p)
    basis = np.zeros((n, n - 1))
    for k in range(1, n):
        basis[:k, k - 1] = 1 / sqrt(k * (k + 1))
        basis[k, k - 1] = -k / sqrt(k * (k + 1))
    return basis.T @ permutation_matrix(p) @ basis


def symmetric_irreps(group):
    """Irrep tables of S3 or S4 from permutation matrices: trivial, sign and
    standard; on S4 also sign (x) standard, and the degree-2 irrep through
    S4 -> S3, the action on the three splittings of {0, 1, 2, 3} into pairs."""
    elems = group.elements()
    sign = {p: round(np.linalg.det(permutation_matrix(p))) for p in elems}
    tables = {
        "trivial": {p: np.eye(1) for p in elems},
        "sign": {p: np.array([[sign[p]]]) for p in elems},
        "standard": {p: standard_matrix(p) for p in elems},
    }
    if group.degree == 4:
        splittings = [{frozenset({0, i}), frozenset({1, 2, 3} - {i})} for i in (1, 2, 3)]

        def on_splittings(p):
            return tuple(splittings.index({frozenset(p[x] for x in pair) for pair in pairs})
                         for pairs in splittings)

        tables["sign standard"] = {p: sign[p] * standard_matrix(p) for p in elems}
        tables["splittings"] = {p: standard_matrix(on_splittings(p)) for p in elems}
    return IrrepSet(group, [UnitaryIrrep(label, table) for label, table in tables.items()])


SYMMETRIC_GROUPS = {
    3: PermutationGroup([(1, 0, 2), (1, 2, 0)]),
    4: PermutationGroup([(1, 0, 2, 3), (1, 2, 3, 0)]),
}


@st.composite
def symmetric_cases(draw):
    """S3 or S4 with its validated irrep tables and a random class color."""
    group = SYMMETRIC_GROUPS[draw(st.sampled_from([3, 4]))]
    irrep_set = symmetric_irreps(group)
    assert validate_irrep_set(group, irrep_set).passed
    classes = group.conjugacy_classes()
    values = draw(st.lists(st.sampled_from([0, 1, 2, -1, 0.5, 1j, 1 - 2j]),
                           min_size=len(classes), max_size=len(classes)))
    color = ColorFunction(group, {g: value for value, cls in zip(values, classes)
                                  for g in cls.members})
    return group, irrep_set, color


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_cases())
def test_permutation_routes_agree_and_certify(case):
    """The normal and blocks routes on S3 and S4, which have no built-in
    irreps.  The blocks route leaves degree-3 blocks unextracted; numpy
    solves those here."""
    group, irrep_set, color = case
    normal = spectrum_normal(group, color, irrep_set)
    report = certify(adjacency_matrix(group, color), normal, color, tol=1e-9)
    assert report.passed and report.complete, report
    decomposition = block_diagonalize(group, color, irrep_set)
    assert decomposition.reconstruction_deviation <= 1e-9
    blocks = Spectrum(n=group.order, method="blocks", lines=[
        SpectralLine(u=u, v=v, labels=(block.label,), eigenvalue=complex(value),
                     multiplicity=block.degree)
        for u, (block, eigs) in enumerate(zip(decomposition.blocks,
                                              decomposition.block_eigenvalues))
        for v, value in enumerate(np.linalg.eigvals(block.matrix) if eigs is None else eigs)])
    same, pair = compare_spectra(normal, blocks, tol=1e-8)
    assert same, pair


# -- formula routes against their element loops ------------------------------


def normal_oracle(group, color, irr):
    values = [color(g) for g in group.elements()]
    return [
        complex(sum(v * rho.character(g) for g, v in zip(group.elements(), values)
                    if v != 0) / rho.degree)
        for rho in irr
    ]


def split_oracle(group, color, irreps_h, irreps_k):
    h_group, m, l = group.h_group, group.m, group.l
    classes = h_group.conjugacy_classes()
    rows = [[color((h_group.index(cls.representative), b)) for b in range(m)]
            for cls in classes]
    out = []
    for rho_u in irreps_h:
        stack = np.stack([rho_u.matrix(h) for h in h_group.elements()])
        h_cols = [sqrt(rho_u.degree / l) * stack[:, i, j]
                  for j in range(rho_u.degree) for i in range(rho_u.degree)]
        lam = [cls.size * rho_u.character(cls.representative) / rho_u.degree
               for cls in classes]
        for rho_v in irreps_k:
            sigma = [sum(row[b] * rho_v.character(b) for b in range(m) if row[b] != 0)
                     / rho_v.degree for row in rows]
            k_stack = np.stack([rho_v.matrix(b) for b in range(m)])
            k_cols = [sqrt(rho_v.degree / m) * k_stack[:, i, j]
                      for j in range(rho_v.degree) for i in range(rho_v.degree)]
            vectors = np.vstack([np.kron(h, k) for h in h_cols for k in k_cols])
            out.append((complex(sum(a * b for a, b in zip(lam, sigma))), vectors))
    return out


def test_formula_routes_equal_their_element_loops_bit_for_bit():
    rng = random.Random(8)
    d3 = DihedralGroup(3)
    for group in (DihedralGroup(5), MetacyclicGroup(7, 3, 2), CyclicGroup(12)):
        weights = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                   for _ in group.conjugacy_classes()]
        color = ColorFunction(group, {g: w for w, cls in zip(weights, group.conjugacy_classes())
                                      for g in cls.members})
        irr = builtin_irreps(group)
        got = [line.eigenvalue for line in spectrum_normal(group, color, irr).lines]
        assert np.array(got).tobytes() == np.array(normal_oracle(group, color, irr)).tobytes()
    for group, h_irreps in ((SemidirectProductGroup(7, d3, [6, 1]), builtin_irreps(d3)),
                            (MetacyclicGroup(7, 3, 2), irreps_cyclic(3))):
        # constant on (H-class of a, K-orbit of b): both conditions hold
        h_group = group.h_group
        h_class = {h_group.index(h): i for i, cls in enumerate(h_group.conjugacy_classes())
                   for h in cls.members}
        k_orbit = {k[1]: i for i, orbit in enumerate(conjugation_orbits_on_k(group))
                   for k in orbit}
        weights = {}
        color = ColorFunction(group, {
            (a, b): weights.setdefault((h_class[a], k_orbit[b]),
                                       complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            for a, b in group.elements()})
        assert check_split_hypotheses(group, color).passed
        spec = spectrum_split(group, color, h_irreps, irreps_cyclic(7))
        offset = 0
        for line, (eig, vectors) in zip(spec.lines, split_oracle(
                group, color, h_irreps, irreps_cyclic(7))):
            assert np.complex128(line.eigenvalue).tobytes() == np.complex128(eig).tobytes()
            rows = spec.vector_rows(offset, offset + line.multiplicity)
            assert rows.tobytes() == vectors.tobytes()
            offset += line.multiplicity


def metacyclic_oracle(m, l, layers):
    """The per-line loop ``spectrum_metacyclic`` ran before its root tables:
    (eigenvalue, vector) per line (u, v), u outer."""
    layer_sets = [sorted({int(s) % m for s in layer}) for layer in layers]
    layer_sums = [
        [sum(unit_root(v * s, m) for s in layer) for layer in layer_sets]
        for v in range(m)
    ]
    h_vectors = [np.array([unit_root(u * a, l) for a in range(l)]) / sqrt(l)
                 for u in range(l)]
    k_vectors = [np.array([unit_root(v * b, m) for b in range(m)]) / sqrt(m)
                 for v in range(m)]
    for u in range(l):
        for v in range(m):
            eig = sum(unit_root(u * t, l) * layer_sums[v][t] for t in range(l))
            yield complex(eig), np.kron(h_vectors[u], k_vectors[v])[np.newaxis, :]


def test_metacyclic_route_equals_its_line_loop_bit_for_bit():
    cases = []
    # the benchmark's ladder rungs with their family connection sets
    for m, l, r in ((61, 10, 3), (127, 7, 2), (211, 10, 23)):
        group, conn = nonnormal_family(m, l, r)
        cases.append((m, l, r, layers_from_set(group, conn.elements)))
    # a random r-invariant layered case, with an empty layer
    rng = random.Random(12)
    m, l, r = 31, 5, 2
    layers = [sorted({s * pow(r, e, m) % m for s in rng.sample(range(m), 3) for e in range(l)})
              for _ in range(l)]
    layers[2] = []
    cases.append((m, l, r, layers))
    for m, l, r, layers in cases:
        spec = spectrum_metacyclic(m, l, r, layers)
        assert len(spec.lines) == m * l
        for t, (line, (eig, vector)) in enumerate(
                zip(spec.lines, metacyclic_oracle(m, l, layers))):
            assert np.complex128(line.eigenvalue).tobytes() == np.complex128(eig).tobytes()
            rows = spec.vector_rows(t, t + 1)
            assert rows.tobytes() == vector.tobytes()
            assert not rows.flags.writeable
