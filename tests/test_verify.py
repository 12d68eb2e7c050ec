import dataclasses
import random
import re
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cayleyspec import groups as groups_module
from cayleyspec import verify as verify_module
from test_cayley import formed
from test_columns import edited_lines
from test_intern import config_of
from test_kernel import groups_strategy, random_complex_color
from cayleyspec import (
    AbelianProductGroup,
    AdjacencyMatrix,
    BlockDecomposition,
    CapacityExceeded,
    ColorFunction,
    CyclicGroup,
    DihedralGroup,
    DimensionMismatch,
    InvalidAction,
    KroneckerFactors,
    MetacyclicGroup,
    SemidirectProductGroup,
    SpectralLines,
    SplitExtensionGroup,
    Spectrum,
    adjacency_matrix,
    beta_blocks,
    builtin_irreps,
    certify,
    check_split_hypotheses,
    color_from_set,
    compare_spectra,
    conjugation_orbits_on_k,
    construct_group,
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


def line_rows(spec):
    """Each line's vectors, read through ``Spectrum.vector_rows``."""
    offsets = spec._vector_offsets().tolist()
    return [spec.vector_rows(lo, hi) for lo, hi in zip(offsets, offsets[1:])]


def explicit(spec, vectors=None, **changes):
    """``spec`` claiming ``vectors`` (by default its own) as one explicit
    array instead of factors, with the field ``changes`` applied."""
    if vectors is None:
        vectors = spec.vector_rows(0, spec.vector_count())
    return dataclasses.replace(spec, factors=None, vectors=vectors, **changes)


def with_row(rows, at, row):
    """``rows`` with ``row`` inserted before position ``at``."""
    return np.concatenate((rows[:at], row[None], rows[at:]))


def prism_case():
    group = MetacyclicGroup(3, 2, 2)
    color = color_from_set(group, [(0, 1), (0, 2), (1, 0)])
    spec = spectrum_metacyclic(3, 2, 2, [[1, 2], [0]])
    return group, color, spec


def test_verify_eigenpairs_pass():
    group, color, spec = prism_case()
    adj = adjacency_matrix(group, color)
    report = verify_eigenpairs(adj, spec, tol=1e-9)
    assert report.passed
    assert report.max_residual <= 1e-12 * report.scale
    assert len(report.per_line_residuals) == len(spec.lines)


def test_verify_eigenpairs_detects_perturbation():
    group, color, spec = prism_case()
    adj = adjacency_matrix(group, color)
    bad = explicit(spec, lines=edited_lines(spec, shifts=[(0, 0.1)]))
    report = verify_eigenpairs(adj, bad, tol=1e-9)
    assert not report.passed
    # |A x - (lambda + d) x|_inf = d * |x|_inf = 0.1/sqrt(6) for a unit
    # eigenvector with flat modulus
    assert report.per_line_residuals[0] >= 0.1 / np.sqrt(6) - 1e-12
    assert report.max_residual >= 0.1 / np.sqrt(6) - 1e-12


def test_verify_zero_color_standard_basis():
    group = CyclicGroup(4)
    color = ColorFunction(group, {})
    adj = adjacency_matrix(group, color)
    lines = SpectralLines([0j], [4], [0], axes=(("zero",),))
    spec = Spectrum(n=4, method="normal", lines=lines, vectors=np.eye(4, dtype=complex))
    report = certify(adj, spec, color, tol=1e-9)
    assert report.passed
    assert report.max_residual == 0
    assert report.gram_deviation == 0
    assert report.trace_deviation == 0 and report.trace_sq_deviation == 0


def test_verify_basis_completeness():
    group, color, spec = prism_case()
    gram, complete = verify_basis(spec)
    assert gram <= 1e-12
    assert complete

    # duplicated eigenvector: Gram deviation 1
    rows = spec.vector_rows(0, 6)
    lines = edited_lines(spec, multiplicities=[(0, 2)])
    broken = explicit(spec, with_row(rows, 1, rows[0]), lines=lines)
    gram, complete = verify_basis(broken)
    assert abs(gram - 1) <= 1e-12
    assert not complete  # 7 vectors for n = 6


def test_complete_requires_one_vector_per_claimed_multiplicity():
    """n orthonormal vectors that pass their residuals fix the multiset, so
    a miscounted multiplicity is caught by the residuals: the line after
    the miscount owns a vector of another eigenvalue."""
    group, conn = nonnormal_family(7, 3, 2)
    color = color_from_set(group, conn.elements)
    spec = spectrum_split(group, color, builtin_irreps(CyclicGroup(3)),
                          irreps_cyclic(7))
    adj = adjacency_matrix(group, color)
    values = spec.eigenvalues.tolist()
    other = next(i for i, value in enumerate(values) if abs(value - values[0]) > 1e-3)
    # multiplicities still sum to n and every vector is a true eigenvector
    lines = edited_lines(spec, multiplicities=[(0, 2), (other, 0)])
    for claimed in (explicit(spec, lines=lines), dataclasses.replace(spec, lines=lines)):
        assert not compare_spectra(claimed, spec)[0]
        gram, complete = verify_basis(claimed)
        assert gram <= 1e-12 and complete
        report = certify(adj, claimed, color)
        assert report.complete and not report.passed
        assert report.max_residual > 1e-3 / np.sqrt(21)


def test_a_negative_multiplicity_owns_no_vectors():
    """A line of multiplicity -1 owns no vectors and is not complete; it
    used to crash ``np.repeat`` in ``verify_eigenpairs``."""
    group, conn = nonnormal_family(7, 3, 2)
    color = color_from_set(group, conn.elements)
    spec = spectrum_metacyclic(7, 3, 2, layers_from_set(group, conn.elements))
    adj = adjacency_matrix(group, color)
    lines = edited_lines(spec, multiplicities=[(4, -1)])
    for claimed in (dataclasses.replace(spec, lines=lines), explicit(spec, lines=lines)):
        report = certify(adj, claimed, color)
        assert not report.passed and not report.complete
        offsets = claimed._vector_offsets()
        assert offsets[4] == offsets[5] == 4 and offsets[-1] == 20
        assert report.per_line_residuals[4] == 0.0
        assert len(report.per_line_residuals) == 21


def test_dimension_mismatch():
    group, color, spec = prism_case()
    adj = adjacency_matrix(CyclicGroup(4), color_from_set(CyclicGroup(4), [1]))
    with pytest.raises(DimensionMismatch):
        verify_eigenpairs(adj, spec, tol=1e-9)


@pytest.mark.parametrize("shape", [(3, 4), (3,), (3, 3, 3), ()], ids=str)
def test_a_non_square_adjacency_is_a_dimension_mismatch(shape):
    group = CyclicGroup(3)
    color = color_from_set(group, [1])
    spec = spectrum_normal(group, color, builtin_irreps(group))
    matrix = np.ones(shape)
    message = rf"^adjacency must be square, got {re.escape(str(shape))}$"
    with pytest.raises(DimensionMismatch, match=message):
        trace_identities(matrix, color)
    with pytest.raises(DimensionMismatch, match=message):
        verify_eigenpairs(matrix, spec)


def test_compare_spectra():
    def flat(values):
        lines = SpectralLines(values, [1] * len(values), np.arange(len(values)),
                              axes=([str(i) for i in range(len(values))],))
        return Spectrum(n=len(values), method="normal", lines=lines)

    same, witness = compare_spectra(flat([1 + 1e-12, 2]), flat([1, 2]), tol=1e-9)
    assert same and witness is None
    same, witness = compare_spectra(flat([2, 0]), flat([2, 1]), tol=1e-9)
    assert not same
    assert witness == (0, 1)
    with pytest.raises(DimensionMismatch):
        compare_spectra(flat([1]), flat([1, 2]), tol=1e-9)


def test_trace_identities_family():
    group, conn = nonnormal_family(7, 3, 2)
    color = color_from_set(group, conn.elements)
    adj = adjacency_matrix(group, color)
    dev1, dev2 = trace_identities(adj, color)
    # tr A = 0 (e not in S) and tr A^2 = 21*8 = 168, both exact
    assert dev1 == 0 and dev2 == 0
    assert np.trace(adj.matrix) == 0
    assert abs(np.trace(adj.matrix @ adj.matrix) - 168) == 0


def test_trace_identities_identity_color():
    group = CyclicGroup(5)
    color = color_from_set(group, [0])
    adj = adjacency_matrix(group, color)
    assert np.trace(adj.matrix) == 5
    assert trace_identities(adj, color) == (0, 0)


def test_a_color_of_another_group_of_the_same_order_is_refused():
    """On M(7, 3, 2), C21's indicator of {1, 2, 4, 7, 14} has the same
    vector as the indicator of {k, k^2, k^4, h, h^2}, but its inverses are
    C21's.  Against an adjacency that carries its beta table, on either
    path, the color must live on that table's group; a dense matrix
    carries no group, so only its order is checked."""
    group = MetacyclicGroup(7, 3, 2)
    subset = [(0, 1), (0, 2), (0, 4), (1, 0), (2, 0)]
    color = color_from_set(group, subset)
    spec = spectrum_metacyclic(7, 3, 2, layers_from_set(group, subset))
    adj = adjacency_matrix(group, color)
    other = color_from_set(CyclicGroup(21), [1, 2, 4, 7, 14])
    assert np.array_equal(other.vector, color.vector)
    for claim in (spec, explicit(spec)):
        assert certify(adj, claim, color).passed
        with pytest.raises(InvalidAction, match="the color lives on"):
            certify(adj, claim, other)
    with pytest.raises(InvalidAction, match="the color lives on"):
        trace_identities(adj, other)
    dense_adj = AdjacencyMatrix(adj.matrix.copy())
    assert trace_identities(dense_adj, other) == trace_identities(adj.matrix, other)


@pytest.mark.parametrize("form", ["carried", "dense", "array"])
def test_certify_refuses_a_wrong_color_before_any_check(monkeypatch, form):
    """A color of another order, or of another group against a carried
    beta table, is refused from the adjacency's shape alone: neither the
    residual nor the basis check runs, and a carried table forms no matrix."""
    group = MetacyclicGroup(7, 3, 2)
    subset = [(0, 1), (0, 2), (0, 4), (1, 0), (2, 0)]
    spec = spectrum_metacyclic(7, 3, 2, layers_from_set(group, subset))
    adj = adjacency_matrix(group, color_from_set(group, subset))
    if form != "carried":
        adj = AdjacencyMatrix(adj.matrix.copy()) if form == "dense" else adj.matrix.copy()
    calls = []

    def forbidden(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a check ran on a wrong color")

    monkeypatch.setattr(verify_module, "verify_eigenpairs", forbidden)
    monkeypatch.setattr(verify_module, "verify_basis", forbidden)
    with pytest.raises(DimensionMismatch, match="group of order 22"):
        certify(adj, spec, color_from_set(CyclicGroup(22), [1, 21]))
    if form == "carried":
        adj = adjacency_matrix(group, color_from_set(group, subset))
        with pytest.raises(InvalidAction, match="the color lives on"):
            certify(adj, spec, color_from_set(CyclicGroup(21), [1, 2, 4, 7, 14]))
        assert vars(adj)["_matrix"] is None
    assert calls == []


def regular_rep_matrix(group, g) -> np.ndarray:
    """Permutation matrix of left translation by g: M[a, b] = [g g_b = g_a]."""
    n = group.order
    columns = np.arange(n, dtype=np.int64)
    out = np.zeros((n, n), dtype=complex)
    out[group.mul_idx(group.index(g), columns), columns] = 1.0
    return out


def test_regular_rep_homomorphism():
    rng = random.Random(11)
    for group in (MetacyclicGroup(7, 3, 2), DihedralGroup(5)):
        elems = group.elements()
        for _ in range(25):
            a, b = rng.choice(elems), rng.choice(elems)
            ma = regular_rep_matrix(group, a)
            mb = regular_rep_matrix(group, b)
            mab = regular_rep_matrix(group, group.mul(a, b))
            assert np.array_equal(ma @ mb, mab)
            assert np.array_equal(ma.sum(axis=0), np.ones(group.order))
            assert np.array_equal(ma.sum(axis=1), np.ones(group.order))


def test_block_reconstruction_small():
    rng = random.Random(5)
    c4 = CyclicGroup(4)
    values = {g: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
              for g in c4.elements()}
    dev = verify_block_reconstruction(c4, ColorFunction(c4, values),
                                      builtin_irreps(c4))
    assert dev <= 1e-12

    group = MetacyclicGroup(3, 2, 2)
    color = color_from_set(group, [(0, 1), (0, 2), (1, 0)])
    assert verify_block_reconstruction(group, color,
                                       builtin_irreps(group)) <= 1e-11

    zero = ColorFunction(group, {})
    assert verify_block_reconstruction(group, zero, builtin_irreps(group)) == 0


def test_block_reconstruction_capacity():
    group = construct_group({"type": "cyclic", "n": 600})
    color = color_from_set(group, [1, 599])
    with pytest.raises(CapacityExceeded):
        verify_block_reconstruction(group, color, irreps_cyclic(600))


def test_certify_aggregates_all_checks():
    group, conn = nonnormal_family(7, 3, 2)
    color = color_from_set(group, conn.elements)
    spec = spectrum_split(group, color, builtin_irreps(CyclicGroup(3)),
                          irreps_cyclic(7))
    adj = adjacency_matrix(group, color)
    report = certify(adj, spec, color, tol=1e-9)
    assert report.passed
    assert report.complete and report.vector_count == 21
    assert report.gram_deviation <= 1e-9
    assert report.trace_deviation <= 1e-9 * 21
    assert report.scale == max(1.0, np.abs(adj.matrix).sum(axis=1).max())


# -- blocked certification ----------------------------------------------------


def order_42_case():
    d3 = DihedralGroup(3)
    group = construct_group({"type": "semidirect", "m": 7,
                             "h": {"type": "dihedral", "n": 3}, "action": [6, 1]})
    subset = [(0, b) for b in range(1, 7)]
    subset += [(d3.index(h), 0) for h in d3.elements() if h[0] == 1]
    color = color_from_set(group, subset)
    spec = spectrum_split(group, color, builtin_irreps(d3), irreps_cyclic(7))
    return group, color, spec


def per_line_matvec(matrix, spec):
    """Residuals the way certification computed them one line at a time."""
    return [
        float(np.max(np.abs(matrix @ rows.T - line.eigenvalue * rows.T), initial=0.0))
        for line, rows in zip(spec.lines, line_rows(spec))
    ]


def dense(adjacency):
    """A dense copy of ``adjacency``, carrying no beta table."""
    return AdjacencyMatrix(matrix=adjacency.matrix.copy())


def small_blocks(monkeypatch, columns, n):
    monkeypatch.setattr(groups_module, "_BLOCK_BYTES", 16 * n * columns)


@pytest.mark.parametrize("columns", [1, 3, 5, 7, 64])
def test_blocked_residuals_match_per_line_matvecs(monkeypatch, columns):
    group, color, spec = order_42_case()
    # E1 lines carry four vectors, so blocks of 3, 5 or 7 columns split them
    assert {len(rows) for rows in line_rows(spec)} == {1, 4}
    adj = dense(adjacency_matrix(group, color))
    small_blocks(monkeypatch, columns, 42)
    from cayleyspec import verify as verify_module

    widths = []
    block = verify_module._residual_block

    def recorded(matrix, rows, *rest):
        widths.append(len(rows))
        return block(matrix, rows, *rest)

    monkeypatch.setattr(verify_module, "_residual_block", recorded)
    report = certify(adj, spec, color, tol=1e-9)
    # full blocks of the budgeted width, then the remainder
    assert sum(widths) == 42 and max(widths) <= columns
    assert all(w == columns for w in widths[:-1])
    expect = per_line_matvec(adj.matrix, spec)
    assert len(report.per_line_residuals) == len(spec.lines)
    for got, want in zip(report.per_line_residuals, expect):
        assert abs(got - want) <= 1e-12 * report.scale
    assert report.passed and report.complete and report.vector_count == 42
    gram, complete = verify_basis(spec)
    assert gram <= 1e-12 and complete


def test_blocked_residual_reports_the_perturbed_line(monkeypatch):
    group, color, spec = order_42_case()
    adj = adjacency_matrix(group, color)
    small_blocks(monkeypatch, 5, 42)
    starts = spec._vector_offsets()
    # the line whose vectors sit in the middle of a 5-column block
    target = next(i for i, (lo, hi) in enumerate(zip(starts, starts[1:]))
                  if lo % 5 not in (0, 4) and hi - lo == 4)
    vectors = spec.vector_rows(0, spec.n).copy()
    vectors[starts[target] + 1, 5] += 1e-3
    bad = explicit(spec, vectors)
    report = verify_eigenpairs(adj, bad, tol=1e-9)
    worst = int(np.argmax(report.per_line_residuals))
    assert worst == target
    assert not report.passed
    assert all(r <= 1e-12 * report.scale
               for i, r in enumerate(report.per_line_residuals) if i != target)
    expect = per_line_matvec(adj.matrix, bad)
    assert abs(report.per_line_residuals[target] - expect[target]) <= 1e-12 * report.scale


def test_line_errors_are_raised_before_any_gemm(monkeypatch):
    from cayleyspec import verify as verify_module

    group, color, spec = order_42_case()
    adj = adjacency_matrix(group, color)

    def no_gemm(*args):
        raise AssertionError("a residual block ran before the line checks")

    monkeypatch.setattr(verify_module, "_residual_block", no_gemm)
    missing = dataclasses.replace(spec, factors=None)
    with pytest.raises(ValueError, match=r"^the spectrum claims no eigenvectors to certify$"):
        verify_eigenpairs(adj, missing)
    short = explicit(spec, spec.vector_rows(0, 42)[:, :41])
    with pytest.raises(DimensionMismatch,
                       match=r"^claimed vectors have row shape \(41,\), expected \(42,\)$"):
        verify_eigenpairs(adj, short)
    factors = spec.factors
    narrow = dataclasses.replace(spec, factors=dataclasses.replace(
        factors, k_rows=factors.k_rows[:, :6]))
    with pytest.raises(DimensionMismatch,
                       match=r"^claimed vectors have row shape \(36,\), expected \(42,\)$"):
        verify_eigenpairs(adj, narrow)


def whole_gram_deviation(spec):
    stacked = spec.vector_rows(0, spec.n).T
    return float(np.max(np.abs(stacked.conj().T @ stacked - np.eye(stacked.shape[1]))))


def duplicated(spec, index):
    """``spec`` with the first vector of line ``index`` stacked twice."""
    lines = edited_lines(spec, multiplicities=[(index, spec.multiplicities[index] + 1)])
    start, stop = spec._vector_offsets()[index:index + 2]
    rows = spec.vector_rows(0, spec.n)
    return explicit(spec, with_row(rows, stop, rows[start]), lines=lines)


def test_blocked_gram_matches_whole_gram(monkeypatch):
    group, color, spec = order_42_case()
    whole = whole_gram_deviation(spec)
    for columns in (1, 4, 42):
        small_blocks(monkeypatch, columns, 42)
        gram, complete = verify_basis(explicit(spec))
        assert abs(gram - whole) <= 1e-14 and complete
        for index in (0, len(spec.lines) - 1):
            check = verify_basis(duplicated(spec, index))
            assert abs(check[0] - 1) <= 1e-12 and not check[1]
            assert check.vector_count == 43


def test_upper_triangle_gram_at_n_610():
    group, conn = nonnormal_family(61, 10, 3)
    spec = spectrum_metacyclic(61, 10, 3, layers_from_set(group, conn.elements))
    # 610 vectors make five row blocks of at most 128 rows
    assert verify_module._gram_rows(610) == 128
    check = verify_basis(explicit(spec))
    assert not check.structured
    gram, complete = check
    assert abs(gram - whole_gram_deviation(spec)) <= 1e-14 and complete
    for index in (0, len(spec.lines) - 1):
        check = verify_basis(duplicated(spec, index))
        assert abs(check[0] - 1) <= 1e-12 and not check[1]
        assert check.vector_count == 611


def test_blocked_scale_equals_the_whole_row_sum_norm(monkeypatch):
    group, color, spec = order_42_case()
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(42, 42)) + 1j * rng.normal(size=(42, 42))
    whole = max(1.0, float(np.max(np.sum(np.abs(matrix), axis=1), initial=0.0)))
    for columns in (1, 5, 42):
        small_blocks(monkeypatch, columns, 42)
        report = verify_eigenpairs(matrix, spec)
        assert np.float64(report.scale).tobytes() == np.float64(whole).tobytes()


def test_nan_deviations_fail_verification():
    from cayleyspec import VerificationReport

    nan = float("nan")
    for field in ("max_residual", "gram_deviation", "trace_deviation",
                  "trace_sq_deviation"):
        report = VerificationReport(n=4, tolerance=1e-9, scale=1.0, **{field: nan})
        assert not report.passed, field
    assert VerificationReport(n=4, tolerance=1e-9, scale=1.0, max_residual=0.0).passed

    # a NaN adjacency entry reaches max_residual and fails certification,
    # in the real part (the real GEMM) or only in the imaginary part
    group, color, spec = prism_case()
    for entry in (nan, complex(1.0, nan)):
        matrix = adjacency_matrix(group, color).matrix.copy()
        matrix[5, 5] = entry
        report = certify(matrix, spec, color)
        assert np.isnan(report.max_residual) and not report.passed


# -- real and complex residual paths --------------------------------------------


def complex_color_case():
    """C7 x| C3 with random complex weights on (a, K-orbit of b) pairs,
    which satisfy the split hypotheses."""
    group = MetacyclicGroup(7, 3, 2)
    rng = random.Random(4)
    k_orbit = {k[1]: i for i, orbit in enumerate(conjugation_orbits_on_k(group))
               for k in orbit}
    weights = {}
    color = ColorFunction(group, {
        (a, b): weights.setdefault((a, k_orbit[b]),
                                   complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        for a, b in group.elements()})
    assert check_split_hypotheses(group, color).passed
    spec = spectrum_split(group, color, irreps_cyclic(3), irreps_cyclic(7))
    return group, color, spec


@pytest.mark.parametrize("columns", [1, 3, 5, 64])
@pytest.mark.parametrize("case", [order_42_case, complex_color_case])
def test_residual_path_follows_the_adjacency(monkeypatch, case, columns):
    from cayleyspec import verify as verify_module

    group, color, spec = case()
    adj = dense(adjacency_matrix(group, color))
    real = case is order_42_case
    assert adj.matrix.dtype == complex and adj.matrix.imag.any() != real
    small_blocks(monkeypatch, columns, group.order)
    dtypes = []
    block = verify_module._residual_block

    def recorded(matrix, rows, *rest):
        dtypes.append(matrix.dtype)
        return block(matrix, rows, *rest)

    monkeypatch.setattr(verify_module, "_residual_block", recorded)
    report = verify_eigenpairs(adj, spec)
    assert set(dtypes) == {np.dtype(np.float64 if real else complex)}
    expect = per_line_matvec(adj.matrix, spec)
    assert len(report.per_line_residuals) == len(spec.lines)
    for got, want in zip(report.per_line_residuals, expect):
        assert abs(got - want) <= 1e-12 * report.scale
    assert report.passed


# -- structured certification ---------------------------------------------------


LADDER = ((61, 10, 3), (127, 7, 2), (211, 10, 23))


def family_case(m, l, r):
    group, conn = nonnormal_family(m, l, r)
    color = color_from_set(group, conn.elements)
    spec = spectrum_metacyclic(m, l, r, layers_from_set(group, conn.elements))
    return group, color, spec, adjacency_matrix(group, color)


def dense_certify(adjacency, spec, color):
    """``certify`` of a dense copy of the matrix against ``spec`` claimed as
    explicit vectors: the dense path for residuals, traces and Gram."""
    matrix = adjacency.matrix if isinstance(adjacency, AdjacencyMatrix) else adjacency
    return certify(np.array(matrix), explicit(spec), color)


def block_color(group, rng, values):
    """A color constant on (H-class, K-orbit) blocks, which meets both
    split hypotheses; each block's value is drawn from ``values``."""
    h_group = group.h_group
    h_class = {h_group.index(h): c for c, cls in enumerate(h_group.conjugacy_classes())
               for h in cls.members}
    k_orbit = {k[1]: o for o, orbit in enumerate(conjugation_orbits_on_k(group))
               for k in orbit}
    weights = {}
    return ColorFunction(group, {
        (a, b): weights.setdefault((h_class[a], k_orbit[b]), rng.choice(values))
        for a, b in group.elements()})


def order_42_with_adjacency():
    group, color, spec = order_42_case()
    return group, color, spec, adjacency_matrix(group, color)


@pytest.mark.parametrize("case", [
    pytest.param(lambda rung=rung: family_case(*rung), id=f"n={rung[0] * rung[1]}")
    for rung in LADDER + ((7, 3, 2),)] + [pytest.param(order_42_with_adjacency, id="n=42")])
def test_structured_path_runs_on_the_ladder_rungs(case, monkeypatch):
    """The ladder rungs, the n = 21 family and the order-42 split case, on
    the Fourier path for both the residuals and the K Gram."""
    group, color, spec, adj = case()

    def unused(*args):
        raise AssertionError("the Fourier path declined a claimed character basis")

    with monkeypatch.context() as patch:
        patch.setattr(verify_module, "_dense_residuals", unused)
        patch.setattr(verify_module, "_upper_gram_deviation", unused)
        report = certify(adj, spec, color)
    assert report.structured and report.passed and report.complete
    assert report.vector_count == spec.n
    assert verify_basis(spec).structured
    assert (report.trace_deviation, report.trace_sq_deviation) == trace_identities(adj, color)
    # the beta-table traces against the dense ones, on the family and on a
    # random complex block color
    complex_color = block_color(group, random.Random(group.m),
                                [0, 1, -2.5, 1j, complex(0.5, -1.25)])
    for c in (color, complex_color):
        matrix = adjacency_matrix(group, c).matrix
        trace, trace_sq = verify_module._beta_traces(beta_blocks(group, c))
        assert abs(trace - np.trace(matrix)) <= 1e-12 * spec.n
        assert abs(trace_sq - np.einsum("ij,ji->", matrix, matrix)) <= 1e-12 * spec.n


def _units(m, order):
    """Units u mod m with u^order = 1."""
    return [u for u in range(m) if gcd(u, m) == 1 and pow(u, order, m) == 1 % m]


@st.composite
def factored_cases(draw):
    """A split group of order at most 600 with cyclic, abelian or dihedral H,
    or a metacyclic group, and a block color: 0/1 (r-invariant layers on a
    metacyclic group) or complex."""
    kind = draw(st.sampled_from(["metacyclic", "cyclic", "abelian", "dihedral"]))
    m = draw(st.integers(2, 60))
    if kind in ("metacyclic", "cyclic"):
        l = draw(st.integers(1, min(10, 600 // m)))
        r = draw(st.sampled_from(_units(m, l)))
        group = (MetacyclicGroup(m, l, r) if kind == "metacyclic"
                 else SemidirectProductGroup(m, CyclicGroup(l), [r]))
    elif kind == "abelian":
        orders = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
        images = [draw(st.sampled_from(_units(m, o))) for o in orders]
        group = SemidirectProductGroup(m, AbelianProductGroup(orders), images)
    else:
        k = draw(st.integers(1, 3))
        rotations = [u for u in _units(m, k) if u * u % m == 1 % m]
        images = [draw(st.sampled_from(_units(m, 2))), draw(st.sampled_from(rotations))]
        group = SemidirectProductGroup(m, DihedralGroup(k), images)
    values = draw(st.sampled_from([[0, 1], [0, 1, -0.5j, complex(2, -0.0), 0.25 - 3j]]))
    return group, block_color(group, random.Random(draw(st.integers(0, 2 ** 32))), values)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(factored_cases())
@example((MetacyclicGroup(61, 10, 3), None))
def test_structured_certification_agrees_with_dense(case):
    group, color = case
    if color is None:
        # the largest ladder shape the property reaches, with a complex color
        color = block_color(group, random.Random(7), [0, 1, -0.5j, 0.25 - 3j])
    n = group.order
    spectra = [spectrum_split(group, color, builtin_irreps(group.h_group),
                              irreps_cyclic(group.m))]
    if isinstance(group, MetacyclicGroup) and set(color.vector.tolist()) <= {0, 1}:
        layers = layers_from_set(group, color.support())
        spectra.append(spectrum_metacyclic(group.m, group.l, group.r, layers))
    adj = adjacency_matrix(group, color)
    for spec in spectra:
        structured = certify(adj, spec, color)
        dense = dense_certify(adj, spec, color)
        assert structured.structured and not dense.structured
        assert structured.scale == dense.scale
        assert len(structured.per_line_residuals) == len(dense.per_line_residuals)
        for got, want in zip(structured.per_line_residuals, dense.per_line_residuals):
            assert abs(got - want) <= 1e-12 * dense.scale
        assert abs(structured.gram_deviation - dense.gram_deviation) <= 1e-12
        assert abs(structured.trace_deviation - dense.trace_deviation) <= 1e-12 * n
        assert abs(structured.trace_sq_deviation - dense.trace_sq_deviation) <= 1e-12 * n
        assert (structured.passed, structured.complete, structured.vector_count) == (
            dense.passed, dense.complete, dense.vector_count)
        assert structured.passed and structured.complete


def blocked_gram_deviation(factors):
    """The factor-Gram deviation one m x m product block at a time:
    max |G_H[u, u'] G_K - delta| over u' >= u."""
    h_rows, k_rows = factors.h_rows, factors.k_rows
    gram_h = h_rows.conj() @ h_rows.T
    gram_k = k_rows.conj() @ k_rows.T
    deviation = 0.0
    for u in range(len(h_rows)):
        for w in range(u, len(h_rows)):
            block = gram_h[u, w] * gram_k
            if w == u:
                block -= np.eye(len(k_rows))
            deviation = max(deviation, float(np.abs(block).max()))
    return deviation


def structured_gram(factors):
    """max |G_H[u, u'] G_K[v, v'] - delta| over the grid, u' >= u, with
    both factor Grams formed by GEMM: the oracle of ``_fourier_gram``.

    Off the diagonal an entry's size is a product of sizes, so the maximum
    is the largest of three terms: max |G_H| over u' > u times max |G_K|;
    max |G_H[u, u]| times max |G_K| off its diagonal; and
    max |G_H[u, u] G_K[v, v] - 1|.
    """
    h_rows, k_rows = factors.h_rows, factors.k_rows
    gram_h = h_rows.conj() @ h_rows.T
    gram_k = k_rows.conj() @ k_rows.T
    sizes_k = np.abs(gram_k)
    largest_k = sizes_k.max()
    np.fill_diagonal(sizes_k, 0.0)
    diagonal = np.abs(np.diagonal(gram_h)[:, None] * np.diagonal(gram_k) - 1)
    return float(np.max([
        np.triu(np.abs(gram_h), 1).max() * largest_k,
        np.abs(np.diagonal(gram_h)).max() * sizes_k.max(),
        diagonal.max(),
    ]))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy().filter(lambda group: isinstance(group, SplitExtensionGroup)),
       st.integers(0, 2 ** 32), st.sampled_from([0.0, 1e-9, 0.1]))
def test_closed_form_gram_deviation_equals_the_blocked_form(group, seed, noise):
    """On the split route's factors, exact or with rows moved by ``noise``
    so that an off-diagonal term can be the largest."""
    color = block_color(group, random.Random(seed), [0, 1, -0.5j, 0.25 - 3j])
    factors = spectrum_split(group, color, builtin_irreps(group.h_group),
                             irreps_cyclic(group.m)).factors
    rng = np.random.default_rng(seed)
    moved = [rows + noise * (rng.standard_normal(rows.shape) + 1j * rng.standard_normal(rows.shape))
             for rows in (factors.h_rows, factors.k_rows)]
    for case in (factors, KroneckerFactors(*moved, factors.pairs)):
        expect = blocked_gram_deviation(case)
        assert structured_gram(case) == pytest.approx(expect, rel=1e-12, abs=0)


def with_lines(spec, **changes):
    """``spec`` with ``edited_lines(spec, **changes)``; the factors are kept."""
    out = dataclasses.replace(spec, lines=edited_lines(spec, **changes))
    assert out.factors is spec.factors is not None
    return out


def test_a_perturbed_adjacency_entry_falls_back_to_dense():
    """Only an adjacency that carries its beta table is certified on the
    structured path.  The exact grid as a dense matrix, raw or wrapped,
    takes the dense path and passes; with one entry changed it fails."""
    group, color, spec, adj = family_case(31, 5, 2)
    assert certify(adj, spec, color).structured
    for exact in (adj.matrix.copy(), AdjacencyMatrix(matrix=adj.matrix.copy())):
        report = certify(exact, spec, color)
        assert not report.structured and report.passed and report.complete
    for i, j in ((0, 40), (62, 7), (17, 100)):
        matrix = adj.matrix.copy()
        matrix[i, j] += 0.25
        report = certify(matrix, spec, color)
        assert not report.structured and not report.passed
        # the vectors are still their Kronecker products, so the Gram check
        # alone stays on the structured path
        dense = dense_certify(matrix, spec, color)
        assert abs(report.gram_deviation - dense.gram_deviation) <= 1e-12
        assert report == dataclasses.replace(dense, gram_deviation=report.gram_deviation)


def test_the_real_flag_reads_every_row_block(monkeypatch):
    """The residual GEMMs run on a float64 copy only when no row block of
    the adjacency has an imaginary part, wherever the complex rows lie."""
    group = MetacyclicGroup(31, 5, 2)
    color = block_color(group, random.Random(3), [0, 1, -0.5j, 0.25 - 3j])
    spec = spectrum_split(group, color, builtin_irreps(group.h_group), irreps_cyclic(31))
    complex_matrix = adjacency_matrix(group, color).matrix
    # with 16-row blocks, the complex rows lie only in the first six blocks,
    # or only from the seventh on
    head_complex, tail_complex = complex_matrix.copy(), complex_matrix.copy()
    head_complex[96:] = head_complex[96:].real
    tail_complex[:96] = tail_complex[:96].real
    real_matrix = adjacency_matrix(group, color_from_set(group, color.support())).matrix.copy()
    real_matrix[100, 7] += 0.25
    small_blocks(monkeypatch, 16, group.order)
    block = verify_module._residual_block
    for matrix, dtype in ((head_complex, complex), (tail_complex, complex),
                          (real_matrix, np.float64)):
        dtypes = set()

        def recorded(matrix, rows, *rest):
            dtypes.add(matrix.dtype)
            return block(matrix, rows, *rest)

        monkeypatch.setattr(verify_module, "_residual_block", recorded)
        report = verify_eigenpairs(matrix, spec)
        assert not report.structured and dtypes == {np.dtype(dtype)}
        monkeypatch.setattr(verify_module, "_residual_block", block)
        dense = dense_certify(matrix, spec, color)
        assert report.per_line_residuals == dense.per_line_residuals


def every_block(group, beta):
    """The block table of the dense (l, l, m) ``beta`` with every coset
    held: ``columns[i, t] = t h_i``, the table |T| = l gives."""
    l = group.l
    columns = group.h_group.mul_idx(np.arange(l)[None, :], np.arange(l)[:, None])
    return BlockDecomposition(group=group, columns=columns,
                              values=beta[np.arange(l)[:, None], columns])


def test_a_block_circulant_change_fails_on_the_structured_path():
    """A change in a block of a coset outside T = {1, h, h^-1}, held in a
    table of every coset."""
    group, color, spec, adj = family_case(31, 5, 2)
    beta = np.array(beta_blocks(group, color).beta_values)
    beta[1, 3, 4] += 0.25
    changed = AdjacencyMatrix(blocks=every_block(group, beta))
    report = certify(changed, spec, color)
    dense = dense_certify(changed, spec, color)
    assert report.structured and not report.passed and not dense.passed
    for got, want in zip(report.per_line_residuals, dense.per_line_residuals):
        assert abs(got - want) <= 1e-12 * dense.scale
    assert abs(report.trace_sq_deviation - dense.trace_sq_deviation) <= 1e-12 * spec.n


def test_changed_vectors_with_the_factors_kept_fall_back_to_dense():
    """The factored basis claimed as explicit vectors, one entry changed:
    off by 1e-3 it fails; one ulp off it still passes, on the dense path."""
    group, color, spec, adj = family_case(31, 5, 2)
    for entry, passes in ((lambda z: z + 1e-3, False),
                          (lambda z: complex(np.nextafter(z.real, 2.0), z.imag), True)):
        vectors = spec.vector_rows(0, spec.n).copy()
        vectors[7, 3] = entry(vectors[7, 3])
        bad = explicit(spec, vectors)
        report = certify(adj, bad, color)
        assert not report.structured and report.passed is passes
        assert report == dense_certify(adj, bad, color)
        assert not verify_basis(bad).structured
        if not passes:
            assert int(np.argmax(report.per_line_residuals)) == 7


def test_pairs_that_miss_a_grid_cell_fall_back_to_dense():
    group, color, spec, adj = family_case(31, 5, 2)
    pairs = spec.factors.pairs
    # one cell left out, so the last line claims no vector; or one cell
    # named twice, so two vectors coincide
    for kept, complete, count in ((pairs[:-1], False, 154),
                                  (np.concatenate((pairs[:-1], pairs[:1])), True, 155)):
        bad = dataclasses.replace(
            spec, factors=dataclasses.replace(spec.factors, pairs=kept))
        assert len(bad.vector_rows(0, spec.n)) == count
        report = certify(adj, bad, color)
        assert not report.structured and not report.passed
        assert report.complete is complete and report.vector_count == count
        assert report == dense_certify(adj, bad, color)
        assert not verify_basis(bad).structured
    # the factors gone, and no vectors claimed in their place
    with pytest.raises(ValueError, match=r"^the spectrum claims no eigenvectors to certify$"):
        certify(adj, dataclasses.replace(spec, factors=None), color)


def broadcast_basis(spec, h_degrees, k_degrees):
    """The explicit rows the split and metacyclic routes built before they
    claimed Kronecker factors: the metacyclic route broadcast the whole
    basis at once, the split route each line's H- and K-spans."""
    h_rows, k_rows = spec.factors.h_rows, spec.factors.k_rows
    n = spec.n
    if spec.method == "metacyclic":
        return (h_rows[:, None, :, None] * k_rows[None, :, None, :]).reshape(n, n)
    h_start = np.cumsum([0] + [d * d for d in h_degrees])
    k_start = np.cumsum([0] + [d * d for d in k_degrees])
    blocks = []
    for line in spec.lines:
        h_vecs = h_rows[h_start[line.u]:h_start[line.u + 1]]
        k_vecs = k_rows[k_start[line.v]:k_start[line.v + 1]]
        blocks.append((h_vecs[:, None, :, None] * k_vecs[None, :, None, :]).reshape(-1, n))
    return np.vstack(blocks)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(factored_cases(), st.data())
def test_vector_rows_equal_the_broadcast_basis(case, data):
    group, color = case
    h_irreps, k_irreps = builtin_irreps(group.h_group), irreps_cyclic(group.m)
    spectra = [spectrum_split(group, color, h_irreps, k_irreps)]
    if isinstance(group, MetacyclicGroup) and set(color.vector.tolist()) <= {0, 1}:
        layers = layers_from_set(group, color.support())
        spectra.append(spectrum_metacyclic(group.m, group.l, group.r, layers))
    n = group.order
    for spec in spectra:
        assert spec.vectors is None and spec.vector_count() == n
        basis = broadcast_basis(spec, h_irreps.degrees(), k_irreps.degrees())
        rows = spec.vector_rows(0, n)
        assert rows.dtype == complex and rows.shape == (n, n)
        assert rows.tobytes() == basis.tobytes()
        assert not rows.flags.writeable
        # any range
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        part = spec.vector_rows(lo, hi)
        assert part.tobytes() == basis[lo:hi].tobytes() and not part.flags.writeable


def test_factored_claims_stay_far_below_an_n_squared_basis():
    """At the n = 2110 rung, an n x n complex basis is 68 MiB.  The formula
    routes claim O(n) bytes of factors in its place, and structured
    certification holds at most four blocks of ``_BLOCK_BYTES`` beyond the
    adjacency, whatever n."""
    m, l, r = 211, 10, 23
    group, conn = nonnormal_family(m, l, r)
    color = color_from_set(group, conn.elements)
    layers = layers_from_set(group, conn.elements)
    irreps_h, irreps_k = builtin_irreps(group.h_group), irreps_cyclic(m)
    adj = adjacency_matrix(group, color)
    n = group.order
    basis_bytes = 16 * n * n

    def peak_bytes(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    claims = [
        peak_bytes(lambda: spectrum_metacyclic(m, l, r, layers)),
        peak_bytes(lambda: spectrum_split(group, color, irreps_h, irreps_k)),
    ]
    for spec, peak in claims:
        assert spec.factors is not None
        assert peak <= basis_bytes / 8, (spec.method, peak)
        report, peak = peak_bytes(lambda: certify(adj, spec, color))
        assert report.structured and report.passed
        assert peak <= 4 * groups_module._BLOCK_BYTES, (spec.method, peak)


def test_a_wrong_eigenvalue_fails_on_the_structured_path():
    group, color, spec, adj = family_case(31, 5, 2)
    bad = with_lines(spec, shifts=[(7, 0.1)])
    report = certify(adj, bad, color)
    dense = dense_certify(adj, bad, color)
    assert report.structured and not report.passed
    assert int(np.argmax(report.per_line_residuals)) == 7
    for got, want in zip(report.per_line_residuals, dense.per_line_residuals):
        assert abs(got - want) <= 1e-12 * dense.scale


def test_a_duplicated_or_missing_vector_is_incomplete_on_the_dense_path():
    group, color, spec, adj = family_case(31, 5, 2)
    rows = spec.vector_rows(0, spec.n)
    lines = edited_lines(spec, multiplicities=[(3, 2)])
    duplicate = explicit(spec, with_row(rows, 3, rows[3]), lines=lines)
    drop = explicit(spec, np.delete(rows, 3, axis=0))
    for bad, count in ((duplicate, 156), (drop, 154)):
        report = certify(adj, bad, color)
        assert not report.structured and not report.complete and not report.passed
        assert report.vector_count == count
        assert report == dense_certify(adj, bad, color)


# -- certification from the carried beta table ------------------------------


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy().filter(lambda group: isinstance(group, SplitExtensionGroup)),
       st.randoms(use_true_random=False), st.booleans(), st.booleans())
@example(MetacyclicGroup(7, 3, 2), None, False, True)
def test_certifying_the_carried_beta_table_equals_certifying_its_matrix(
        group, rng, indicator, structured):
    """Certification of an adjacency that carries its beta table against
    that of a dense copy of its matrix, which takes the dense path.  With
    the factored claim the carried one runs structured, never forms its
    matrix, and agrees with the copy within the tolerances of
    ``test_structured_certification_agrees_with_dense``.  With the claim
    as explicit vectors, or a non-finite color, which fails the Fourier
    rule, both run dense and agree bit for bit.  The color
    is random complex, NaN and infinite values among them, or the
    indicator of its support."""
    if rng is None:
        elems = group.elements()
        color = ColorFunction(group, {elems[3]: complex("nan+1j"), elems[4]: 1,
                                      elems[5]: complex(-0.0, float("inf"))})
    else:
        color = random_complex_color(group, rng)
        if indicator:
            color = color_from_set(group, color.support())
    n = group.order
    spec = spectrum_split(group, color, builtin_irreps(group.h_group),
                          irreps_cyclic(group.m), force=True)
    if not structured:
        spec = explicit(spec)
    carried = adjacency_matrix(group, color)
    report = certify(carried, spec, color)
    # a non-finite table makes a non-finite remainder term
    assert report.structured is (structured and bool(np.isfinite(color.vector).all()))
    assert formed(carried) is not report.structured
    dense = certify(AdjacencyMatrix(carried.matrix.copy()), spec, color)
    assert not dense.structured
    if rng is None:
        # a NaN in the table fails both paths
        assert not report.passed and not dense.passed
    if not report.structured:
        # repr spells every float exactly, and NaN as nan
        assert repr(report) == repr(dense)
        return
    assert report.scale == dense.scale
    assert (report.passed, report.complete, report.vector_count, report.gram_deviation) == (
        dense.passed, dense.complete, dense.vector_count, dense.gram_deviation)
    residuals = zip(report.per_line_residuals + (report.max_residual,),
                    dense.per_line_residuals + (dense.max_residual,))
    bounded = [(got, want, 1e-12 * dense.scale) for got, want in residuals] + [
        (report.trace_deviation, dense.trace_deviation, 1e-12 * n),
        (report.trace_sq_deviation, dense.trace_sq_deviation, 1e-12 * n)]
    for got, want, bound in bounded:
        assert np.isfinite(got) == np.isfinite(want)
        if np.isfinite(want):
            assert abs(got - want) <= bound


def test_certify_on_the_beta_table_catches_a_wrong_eigenvalue_or_vector():
    group, color, spec, adj = family_case(31, 5, 2)
    report = certify(adj, spec, color)
    assert report.structured and report.passed and not formed(adj)
    wrong_value = with_lines(spec, shifts=[(7, 1e-6)])
    k_rows = spec.factors.k_rows.copy()
    k_rows[3, 5] += 1e-6
    changed_vector = dataclasses.replace(
        spec, factors=dataclasses.replace(spec.factors, k_rows=k_rows))
    # the changed K entry leaves a remainder far above the rounding floor,
    # so that claim is certified densely
    for bad, structured in ((wrong_value, True), (changed_vector, False)):
        report = certify(adj, bad, color)
        assert report.structured is structured and not report.passed
        assert formed(adj) is not structured
        assert report.max_residual > report.tolerance * report.scale
        # and on each path, whichever the rule picks
        bound, _, correlation = both_paths(adj, bad)
        assert min(bound.max(), correlation.max()) > report.tolerance * report.scale
    assert certify(adj, changed_vector, color).gram_deviation > 1e-9


def test_factors_of_another_grid_take_the_dense_path():
    """Factors that claim an (l, m) other than the carried table's are
    certified against the formed matrix, as a dense copy of it would be."""
    group, color, spec, adj = family_case(31, 5, 2)
    # a unitary basis of the 31 x 5 grid: DFT rows of orders 31 and 5
    dft = lambda size: np.fft.fft(np.eye(size)) / np.sqrt(size)
    pairs = np.stack(np.divmod(np.arange(155), 5), axis=1)
    other = Spectrum(n=155, method="split", lines=SpectralLines([0j], [155], [0], [0]),
        factors=KroneckerFactors(h_rows=dft(31), k_rows=dft(5), pairs=pairs))
    assert verify_basis(other).structured
    report = certify(adj, other, color)
    assert not report.structured and not report.passed and formed(adj)
    assert report.gram_deviation <= 1e-12
    assert repr(report) == repr(certify(AdjacencyMatrix(adj.matrix.copy()), other, color))


def test_certify_at_n_2110_never_forms_the_matrix():
    """The n = 2110 adjacency would be 68 MiB.  Built and certified from
    the beta table, the whole run stays far below it."""
    m, l, r = 211, 10, 23
    group, conn = nonnormal_family(m, l, r)
    color = color_from_set(group, conn.elements)
    spec = spectrum_metacyclic(m, l, r, layers_from_set(group, conn.elements))
    n = group.order
    tracemalloc.start()
    try:
        adj = adjacency_matrix(group, color)
        report = certify(adj, spec, color)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.structured and report.passed and report.complete
    assert not formed(adj)
    assert peak <= min(16 * n * n / 2, 4 * groups_module._BLOCK_BYTES), peak


def test_dense_certification_checks_the_byte_budget(monkeypatch):
    from cayleyspec import groups as groups_module

    group, color, spec, adj = family_case(31, 5, 2)
    n = spec.n
    explicit_spec = explicit(spec)
    # the carried matrix, its real part and no stacked vectors
    monkeypatch.setattr(groups_module, "DENSE_BYTE_BUDGET", 24 * n * n - 1)
    with pytest.raises(CapacityExceeded, match=f"needs an estimated {24 * n * n} bytes"):
        certify(adj, explicit_spec, color)
    assert not formed(adj)
    # the structured path holds no n x n array
    assert certify(adj, spec, color).passed
    monkeypatch.setattr(groups_module, "DENSE_BYTE_BUDGET", 24 * n * n)
    assert certify(adj, explicit_spec, color).passed
    # factors that ``_checked_factors`` rejects are stacked for their Gram
    rejected = dataclasses.replace(spec, factors=dataclasses.replace(
        spec.factors, pairs=spec.factors.pairs[:-1]))
    monkeypatch.setattr(groups_module, "DENSE_BYTE_BUDGET", 16 * (n - 1) * n - 1)
    with pytest.raises(CapacityExceeded, match=f"needs an estimated {16 * (n - 1) * n} bytes"):
        verify_basis(rejected)
    monkeypatch.setattr(groups_module, "DENSE_BYTE_BUDGET", 16 * (n - 1) * n)
    assert verify_basis(rejected).vector_count == n - 1


# -- the Fourier path ----------------------------------------------------------


def correlation_residuals(contracted, factors, grid_eigenvalues):
    """Each vector's max-abs residual against the beta table, formed: the
    oracle of the Fourier bound.

    Block row i of ``A kron(H[u], K[v])`` is the inverse DFT of
    ``contracted[i, u] * fft(K[v])``, with ``contracted[i, u] = sum_j
    H[u, j] m ifft(beta_ij)``; ``eigenvalue * H[u, i] * K[v]`` is then
    subtracted.  O(n^2 (l + log m)) work, no n x n array.
    """
    h_rows, k_rows, pairs = factors.h_rows, factors.k_rows, factors.pairs
    l, m = len(h_rows), len(k_rows)
    grid_max = np.zeros((l, m))
    k_hat = np.fft.fft(k_rows, axis=-1)
    for i in range(l):
        # applied[u, v, a] = (A kron(H[u], K[v]))[i*m + a]
        applied = np.fft.ifft(contracted[i][:, None, :] * k_hat, axis=-1)
        scaled = grid_eigenvalues * h_rows[:, i, None]
        applied -= scaled[:, :, None] * k_rows
        np.maximum(grid_max, np.abs(applied).max(axis=-1), out=grid_max)
    return grid_max[pairs[:, 0], pairs[:, 1]]


def both_paths(adj, spec):
    """Each claimed vector's residual against the carried beta table on
    both structured paths, whichever the rule picks: ``(bound, remainder,
    correlation)``, the Fourier bound, its largest remainder term and the
    correlation path's residual."""
    beta, factors = adj.blocks.beta_values, spec.factors
    h_rows, k_rows, pairs = factors.h_rows, factors.k_rows, factors.pairs
    l, m = len(h_rows), len(k_rows)
    grid = np.empty((l, m), dtype=complex)
    grid[pairs[:, 0], pairs[:, 1]] = np.repeat(
        [line.eigenvalue for line in spec.lines], np.diff(spec._vector_offsets()))
    contracted = np.matmul(h_rows, m * np.fft.ifft(beta, axis=-1))
    bound, remainder = verify_module._fourier_bounds(
        contracted, h_rows, grid, verify_module._fourier_split(k_rows))
    correlation = correlation_residuals(contracted, factors, grid)
    return bound[pairs[:, 0], pairs[:, 1]], remainder[pairs[:, 0], pairs[:, 1]], correlation


def with_k_rows(spec, k_rows):
    return dataclasses.replace(spec, factors=dataclasses.replace(spec.factors, k_rows=k_rows))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy().filter(lambda group: isinstance(group, SplitExtensionGroup)),
       st.randoms(use_true_random=False))
def test_the_fourier_bound_holds_the_correlation_residual(group, rng):
    """On a forced claim for a random complex color, each vector's Fourier
    bound lies in [c - f, c + 2 r + f], with c its correlation residual, r
    its remainder term and f = sqrt(n) eps scale, and is not finite where
    c is not.  The Fourier Gram deviation is at least the GEMM one less
    sqrt(n) eps max(1, GEMM one) on those factors, and less four times
    that with the K rows moved.  On the passing claim for a block color, a shifted eigenvalue
    fails on both paths, and a changed K entry fails the bound wherever it
    fails the correlation (a color can make every vector an eigenvector)."""
    n = group.order
    color = random_complex_color(group, rng)
    spec = spectrum_split(group, color, builtin_irreps(group.h_group),
                          irreps_cyclic(group.m), force=True)
    adj = adjacency_matrix(group, color)
    # sqrt(n) eps, not the rule's floor, which is at least four ulps
    sqrt_n_eps = np.sqrt(n) * np.finfo(float).eps
    floor = sqrt_n_eps * verify_module._grid_scale(adj.blocks)
    bound, remainder, correlation = both_paths(adj, spec)
    assert (np.isfinite(bound) == np.isfinite(correlation)).all()
    if np.isfinite(correlation).all():
        assert (bound >= correlation - floor).all()
        assert (bound <= correlation + 2 * remainder + floor).all()
    # the Gram bound holds whatever the K rows hold, once their top
    # positions are distinct: on the claimed characters, and on them moved
    factors = spec.factors
    noise = np.random.default_rng(rng.getrandbits(32)).standard_normal((2, group.m, group.m))
    moved = dataclasses.replace(factors, k_rows=factors.k_rows + 0.1 * (noise[0] + 1j * noise[1]))
    # moved rows are not unit, and the two sides round each |K[v]|^2 in
    # their own order, by up to two ulps of it
    for case, ulps in ((factors, 1), (moved, 4)):
        rows = verify_module._fourier_split(case.k_rows)
        assert verify_module._distinct(rows.tops) or case is moved
        if verify_module._distinct(rows.tops):
            deviation, _ = verify_module._fourier_gram(case.h_rows, rows)
            expect = structured_gram(case)
            gram_floor = ulps * sqrt_n_eps * max(1.0, expect)
            assert deviation >= expect - gram_floor

    color = block_color(group, rng, [0, 1, -0.5j, 0.25 - 3j])
    spec = spectrum_split(group, color, builtin_irreps(group.h_group), irreps_cyclic(group.m))
    adj = adjacency_matrix(group, color)
    tolerance = 1e-9 * verify_module._grid_scale(adj.blocks)
    bound, _, correlation = both_paths(adj, spec)
    assert bound.max() <= tolerance and correlation.max() <= tolerance
    t = rng.randrange(len(spec.lines))
    bound, _, correlation = both_paths(adj, with_lines(spec, shifts=[(t, 1e6 * tolerance)]))
    assert bound.max() > tolerance and correlation.max() > tolerance
    k_rows = np.array(spec.factors.k_rows)
    k_rows[rng.randrange(group.m), rng.randrange(group.m)] += 1e-6
    bound, _, correlation = both_paths(adj, with_k_rows(spec, k_rows))
    assert bound.max() > tolerance or not correlation.max() > tolerance


# -- the block-sparse table against the dense one -------------------------------


def dense_bounds(beta, factors, rows, grid_eigenvalues):
    """``(bound, remainder)`` from the dense (l, l, m) ``beta``: every
    block transformed and contracted at once, as before the table was
    block-sparse."""
    m = beta.shape[-1]
    contracted = np.matmul(factors.h_rows, m * np.fft.ifft(beta, axis=-1))
    return verify_module._fourier_bounds(contracted, factors.h_rows, grid_eigenvalues, rows)


def dense_grid_scale(beta):
    """``max(1, |A|_inf)`` from the dense ``beta``: integer magnitudes
    summed over the table, other rows laid out as the matrix holds them."""
    l, m = beta.shape[1], beta.shape[2]
    magnitudes = np.abs(beta)
    sums = magnitudes.sum(axis=(1, 2))
    if np.array_equal(magnitudes, np.floor(magnitudes)) and sums.max(initial=0.0) < 2.0 ** 53:
        return max(1.0, float(sums.max(initial=0.0)))
    doubled = np.concatenate((magnitudes, magnitudes), axis=-1)
    windows = np.lib.stride_tricks.sliding_window_view(doubled, m, axis=-1)
    rows = windows[:, :, m:0:-1].transpose(0, 2, 1, 3).reshape(l * m, l * m)
    return max(1.0, float(np.max(np.sum(rows, axis=1), initial=0.0)))


def dense_traces(beta):
    """tr A and tr A^2 from the dense ``beta``, every block pair summed."""
    m = beta.shape[-1]
    negated = np.roll(beta[:, :, ::-1], 1, axis=-1).transpose(1, 0, 2)
    return (complex(m * np.trace(beta[:, :, 0])),
            complex(m * np.einsum("ijc,ijc->", beta, negated)))


def dense_is_hermitian(beta):
    mirrored = np.roll(beta[:, :, ::-1], 1, axis=-1).transpose(1, 0, 2)
    return bool(np.array_equal(beta, np.conj(mirrored)))


def same_float(a, b) -> bool:
    return np.array_equal(np.array([a]), np.array([b]), equal_nan=True)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy().filter(lambda group: isinstance(group, SplitExtensionGroup)),
       st.sampled_from(["one", "some", "every"]), st.booleans(),
       st.randoms(use_true_random=False))
def test_block_sparse_certificate_equals_the_dense_contraction(group, held, integer, rng):
    """On a color that meets |T| = 1, 1 < |T| < l or |T| = l cosets, with
    two block rows a chunk so that the running maxima cross chunks: the
    Fourier bounds of ``_structured_residuals`` agree with the dense
    contraction to rounding, the scale equals the dense one bit for bit,
    the traces do on integer colors and agree to rounding otherwise, and
    ``is_hermitian`` agrees, on the color and on its Hermitian part."""
    l, m = group.l, group.m
    count = {"one": 1, "some": rng.randint(2, l - 1) if l > 2 else l, "every": l}[held]
    values = {}
    for t in rng.sample(range(l), count):
        for b in rng.sample(range(m), rng.randint(1, m)):
            # nonzero, so that the color meets exactly `count` cosets
            values[(t, b)] = (rng.choice([-3, -2, -1, 1, 2, 3]) if integer
                              else complex("nan") if rng.random() < 0.03
                              else complex(rng.uniform(0.25, 2), rng.uniform(-2, 2))
                              * rng.choice([1, -1, 1j, -1j]))
    color = ColorFunction(group, values)
    blocks = beta_blocks(group, color)
    assert blocks.values.shape == (l, count, m)
    beta = blocks.beta_values
    spec = spectrum_split(group, color, builtin_irreps(group.h_group), irreps_cyclic(m),
                          force=True)
    factors, pairs = spec.factors, spec.factors.pairs
    rows = verify_module._fourier_split(factors.k_rows)
    eigenvalues = np.repeat(spec.eigenvalues, np.diff(spec._vector_offsets()))
    grid = np.empty((l, m), dtype=complex)
    grid[pairs[:, 0], pairs[:, 1]] = eigenvalues
    bound, remainder = dense_bounds(beta, factors, rows, grid)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups_module, "_BLOCK_BYTES", 2 * 16 * l * max(m, count))
        # an infinite scale lifts the rounding floor: only a NaN fails the rule
        column_max, failed = verify_module._structured_residuals(
            blocks, factors, rows, eigenvalues, np.inf)
        scale = verify_module._grid_scale(blocks)
    if failed is None:
        expect = bound[pairs[:, 0], pairs[:, 1]]
        assert np.allclose(column_max, expect, rtol=1e-12,
                           atol=1e-12 * max(1.0, np.abs(expect).max(initial=0.0)))
    else:
        assert np.isnan(remainder).any()
    assert same_float(scale, dense_grid_scale(beta))
    traces, expect = verify_module._beta_traces(blocks), dense_traces(beta)
    for got, want in zip(traces, expect):
        if integer:
            assert same_float(got, want)
        elif not np.isnan(want):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want), m * np.abs(beta).sum())
        else:
            assert np.isnan(got)
    alpha, reversed_alpha = color.vector, color.vector[group.inv_idx]
    hermitian_part = ColorFunction(group, dict(zip(
        group.elements(), ((alpha + reversed_alpha.conj()) / 2).tolist())))
    for c in (color, hermitian_part):
        c_blocks = beta_blocks(group, c)
        assert AdjacencyMatrix(blocks=c_blocks).is_hermitian == \
            dense_is_hermitian(c_blocks.beta_values)


@pytest.mark.parametrize("budget", [None, 14 * 64 * 3 * 7, 64 * 3 * 7])
def test_the_scale_zeroes_each_chunk_it_lays_out(budget, monkeypatch):
    """``_grid_scale`` on a non-integer color whose block rows hold other
    columns (T = {1, h}), laid out in one chunk, two block rows a chunk and
    one row a chunk: the bits of the dense row sums each time."""
    group = construct_group({"type": "metacyclic", "m": 7, "l": 3, "r": 2})
    blocks = beta_blocks(group, ColorFunction(group, {(1, 0): 0.5, (1, 3): 0.7, (0, 1): 0.3}))
    if budget is not None:
        monkeypatch.setattr(groups_module, "_BLOCK_BYTES", budget)
    assert same_float(verify_module._grid_scale(blocks), dense_grid_scale(blocks.beta_values))


def test_the_structured_path_reads_no_dense_table(monkeypatch):
    """``certify`` on the n = 610 family (T = {1, h, h^-1}) neither fills in
    the dense beta table nor assembles the matrix; it transforms the 3 l
    held blocks and contracts them a chunk of block rows at a time, here
    three rows, to the bits of one chunk of every row."""
    group, color, spec, adj = family_case(61, 10, 3)
    whole = certify(adj, spec, color)

    def refused(*args):
        raise AssertionError("the structured path read a dense table")

    monkeypatch.setattr(BlockDecomposition, "beta_values", property(refused))
    monkeypatch.setattr(BlockDecomposition, "assemble", refused)
    transformed, contracted = [], []
    ifft, bounds = np.fft.ifft, verify_module._fourier_bounds

    def recorded_ifft(values, *args, **kwargs):
        transformed.append(np.shape(values))
        return ifft(values, *args, **kwargs)

    def recorded_bounds(chunk, *rest):
        contracted.append(chunk.shape)
        return bounds(chunk, *rest)

    monkeypatch.setattr(np.fft, "ifft", recorded_ifft)
    monkeypatch.setattr(verify_module, "_fourier_bounds", recorded_bounds)
    monkeypatch.setattr(groups_module, "_BLOCK_BYTES", 3 * 16 * 10 * 61)
    report = certify(adjacency_matrix(group, color), spec, color)
    assert report.structured and report.passed and not formed(adj)
    assert transformed == [(3, 3, 61)] * 3 + [(1, 3, 61)]
    assert contracted == [(3, 10, 61)] * 3 + [(1, 10, 61)]
    assert report.per_line_residuals == whole.per_line_residuals
    assert (report.scale, report.trace_deviation, report.trace_sq_deviation) == \
        (whole.scale, whole.trace_deviation, whole.trace_sq_deviation)


def mixed_by_a_unitary(k_rows):
    rng = np.random.default_rng(5)
    m = len(k_rows)
    unitary, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return unitary @ k_rows


def top_duplicated(k_rows):
    k_rows[1] = k_rows[0]
    return k_rows


def with_entry(value):
    def edit(k_rows):
        k_rows[2, 3] = value
        return k_rows
    return edit


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("edit", [
    pytest.param(mixed_by_a_unitary, id="unitary-mix"),
    pytest.param(top_duplicated, id="duplicated-top"),
    pytest.param(with_entry(complex("nan")), id="nan"),
    pytest.param(with_entry(complex(float("inf"), 0)), id="inf"),
])
def test_k_rows_that_fail_the_rule_take_the_dense_path(monkeypatch, edit):
    """K rows that are not Fourier modes up to rounding: mixed by a
    unitary, two with one top position, or a row holding NaN or inf.  The
    residuals and the Gram take the dense path, and the report is the one
    certification of a dense copy against explicit vectors gives.  Over
    the budget, certification raises before it forms the matrix, naming
    the failed rule."""
    group, color, spec, adj = family_case(31, 5, 2)
    claim = with_k_rows(spec, edit(np.array(spec.factors.k_rows)))
    n = spec.n
    with monkeypatch.context() as patch:
        patch.setattr(groups_module, "DENSE_BYTE_BUDGET", 24 * n * n - 1)
        with pytest.raises(CapacityExceeded, match="fails the Fourier rule"):
            certify(adj, claim, color)
        # the stacked vectors, for the Gram alone
        patch.setattr(groups_module, "DENSE_BYTE_BUDGET", 16 * n * n - 1)
        with pytest.raises(CapacityExceeded, match="fails the Fourier rule"):
            verify_basis(claim)
    assert not formed(adj)
    calls = []

    def spy(name):
        original = getattr(verify_module, name)

        def recorded(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(verify_module, name, recorded)

    spy("_dense_residuals")
    spy("_upper_gram_deviation")
    report = certify(adj, claim, color)
    assert calls == ["_dense_residuals", "_upper_gram_deviation"]
    assert not report.structured and not report.passed and formed(adj)
    assert not verify_basis(claim).structured
    if edit is mixed_by_a_unitary:
        assert report.gram_deviation <= 1e-12
    assert repr(report) == repr(dense_certify(adj, claim, color))


K_ROW_EDITS = ("unitary-mix", "duplicated-top", "nan", "inf", "noise")


def edited_k_rows(k_rows, edit, rng):
    """A copy of ``k_rows`` under one of ``K_ROW_EDITS``."""
    m = len(k_rows)
    k_rows = np.array(k_rows)
    if edit == "unitary-mix":
        mix = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        return np.linalg.qr(mix)[0] @ k_rows
    if edit == "duplicated-top":
        k_rows[-1] = k_rows[0]
    elif edit == "noise":
        k_rows += 0.1 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    else:
        k_rows[rng.integers(m), rng.integers(m)] = complex(edit)
    return k_rows


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy().filter(lambda group: isinstance(group, SplitExtensionGroup)),
       st.integers(0, 2 ** 32), st.sampled_from(K_ROW_EDITS))
def test_rule_failing_k_rows_are_certified_as_a_dense_copy(group, seed, edit):
    """Whatever the edit, a check whose K rows fail the Fourier rule runs
    densely; when both fail, the report is that of a dense copy against
    explicit vectors, bit for bit.  Over the budget, a failed residual rule
    raises before the matrix is formed, and the message names it."""
    color = block_color(group, random.Random(seed), [0, 1, -0.5j, 0.25 - 3j])
    spec = spectrum_split(group, color, builtin_irreps(group.h_group), irreps_cyclic(group.m))
    claim = with_k_rows(spec, edited_k_rows(spec.factors.k_rows, edit,
                                            np.random.default_rng(seed)))
    n = group.order
    adj = adjacency_matrix(group, color)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups_module, "DENSE_BYTE_BUDGET", 24 * n * n - 1)
        try:
            residuals_structured = verify_eigenpairs(adj, claim).structured
        except CapacityExceeded as exc:
            assert "fails the Fourier rule" in str(exc)
            residuals_structured = False
    assert not formed(adj)
    report = certify(adj, claim, color)
    assert report.structured is residuals_structured
    if not (report.structured or verify_basis(claim).structured):
        assert repr(report) == repr(dense_certify(adj, claim, color))


def test_certify_splits_the_k_rows_once_and_afresh_when_they_change(monkeypatch):
    """One ``certify`` call takes the K rows' Fourier split once for both
    checks, which each still run; a K row changed between two calls is
    split afresh, so the second call fails.  A third call on the changed
    bytes reuses their kept split and gives the same report."""
    group, color, spec, adj = family_case(7, 3, 2)
    assert group is construct_group({"type": "metacyclic", "m": 7, "l": 3, "r": 2})
    factors = spec.factors
    k_rows = factors.k_rows.copy()
    claim = Spectrum(n=spec.n, method=spec.method, lines=spec.lines,
                     factors=KroneckerFactors(factors.h_rows, k_rows, factors.pairs))
    splits, checks = [], []
    split = verify_module._fourier_split
    monkeypatch.setattr(verify_module, "_fourier_split",
                        lambda rows: splits.append(rows) or split(rows))
    for name in ("verify_eigenpairs", "verify_basis"):
        check = getattr(verify_module, name)
        monkeypatch.setattr(verify_module, name, lambda *args, check=check, name=name, **kw:
                            checks.append(name) or check(*args, **kw))
    report = certify(adj, claim, color)
    assert report.passed and report.structured
    assert len(splits) == 1 and checks == ["verify_eigenpairs", "verify_basis"]
    k_rows[3] = k_rows[4]
    report = certify(adj, claim, color)
    assert len(splits) == 2 and not report.passed
    assert report.gram_deviation > 0.5
    assert repr(certify(adj, claim, color)) == repr(report) and len(splits) == 2


BIT_EDITS = K_ROW_EDITS + ("one-ulp", "signed-zero", "nan-payload", "h-rows-ulp", "pairs-swap")


def bit_edited_pair(k_rows, edit, rng):
    """``(base, edited)`` copies of ``k_rows``: ``edited`` is ``base`` under
    one of the K row edits of ``BIT_EDITS``.  Besides ``K_ROW_EDITS``, one
    float part goes one ulp up, a zero part changes sign, or a NaN part
    changes payload; for that one ``base`` holds a NaN of numpy's payload
    at the spot."""
    if edit in K_ROW_EDITS:
        return np.array(k_rows), edited_k_rows(k_rows, edit, rng)
    base = np.array(k_rows)
    parts = base.view(np.float64).reshape(-1)
    if edit == "signed-zero":
        # the trivial character's imaginary parts are zeros
        spots = np.flatnonzero(parts == 0)
        at = spots[rng.integers(spots.size)]
    else:
        at = rng.integers(parts.size)
    if edit == "nan-payload":
        parts[at] = np.nan
    edited = np.array(base)
    changed = edited.view(np.float64).reshape(-1)
    if edit == "one-ulp":
        changed[at] = np.nextafter(changed[at], np.inf)
    elif edit == "signed-zero":
        changed[at] = -changed[at]
    else:
        changed.view(np.uint64)[at] += 1
    return base, edited


def bit_edited_factors(factors, edit, rng):
    """``(base, edited)``, each a tuple of fresh ``(h_rows, k_rows,
    pairs)``: ``edited`` is ``base`` under one of ``BIT_EDITS``, which
    edit the K rows but for one H row part going one ulp up and the first
    two pairs swapping places."""
    base = [np.array(factors.h_rows), np.array(factors.k_rows), np.array(factors.pairs)]
    edited = [np.array(array) for array in base]
    if edit == "h-rows-ulp":
        # the H rows keep the claim's layout, a transpose
        at = rng.integers(len(edited[0]), size=2)
        edited[0].real[tuple(at)] = np.nextafter(edited[0].real[tuple(at)], np.inf)
    elif edit == "pairs-swap":
        edited[2][:2] = edited[2][1::-1].copy()
    else:
        base[1], edited[1] = bit_edited_pair(factors.k_rows, edit, rng)
    return tuple(base), tuple(edited)


def kept_claims(group) -> list:
    """The claims kept in the memo of ``group``."""
    return [value for key, value in group._memo.items()
            if isinstance(key, tuple) and key[0] == "claim"]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy().filter(lambda group: isinstance(group, SplitExtensionGroup)),
       st.integers(0, 2 ** 32), st.sampled_from(BIT_EDITS))
def test_a_kept_claim_is_reused_for_its_own_bits_only(group, seed, edit):
    """On the group ``construct_group`` interns, ``certify`` gives the same
    report, by ``repr``, with the claim memo cold, warm or cleared.  A
    claim that differs from the kept one in any bit is split afresh, also
    a writable claim mutated after a hit, and replaces the kept one.  The
    memo keeps one claim, holding at most ``_BLOCK_BYTES`` in read-only
    copies that share no memory with any caller's array."""
    config = config_of(group)

    def interned_case():
        """The color and adjacency on the group built afresh, with an empty memo."""
        groups_module._clear_interned()
        group = construct_group(config)
        color = block_color(group, random.Random(seed), [0, 1, -0.5j, 0.25 - 3j])
        return group, color, adjacency_matrix(group, color)

    group, color, adj = interned_case()
    spec = spectrum_split(group, color, builtin_irreps(group.h_group), irreps_cyclic(group.m))
    base_arrays, edited_arrays = bit_edited_factors(spec.factors, edit,
                                                    np.random.default_rng(seed))
    writable_arrays = tuple(np.array(array) for array in base_arrays)
    base, edited, writable = (dataclasses.replace(spec, factors=KroneckerFactors(*arrays))
                              for arrays in (base_arrays, edited_arrays, writable_arrays))
    differs = int(any(a.tobytes() != b.tobytes() for a, b in zip(base_arrays, edited_arrays)))
    splits = []

    def certified(claim):
        """The report's repr, and the number of splits its call took."""
        before = len(splits)
        return repr(certify(adj, claim, color)), len(splits) - before

    with pytest.MonkeyPatch.context() as patch:
        split = verify_module._fourier_split
        patch.setattr(verify_module, "_fourier_split", lambda rows: splits.append(1) or split(rows))
        group, color, adj = interned_case()
        cold_edited, _ = certified(edited)
        group, color, adj = interned_case()
        cold, took = certified(base)
        assert took == 1
        assert certified(base) == (cold, 0)
        assert certified(writable) == (cold, 0)
        for array, changed in zip(writable_arrays, edited_arrays):
            array[...] = changed
        assert certified(writable) == (cold_edited, differs)
        assert certified(edited) == (cold_edited, 0)
        assert certified(base) == (cold, differs)
        group, color, adj = interned_case()
        assert certified(base) == (cold, 1)
        assert certified(edited) == (cold_edited, differs)
    kept = kept_claims(group)
    assert len(kept) == 1 and kept[0].nbytes <= groups_module._BLOCK_BYTES
    assert [copy.tobytes() for copy in kept[0].copies] == [
        array.tobytes() for array in edited_arrays]
    callers = [array for claim in (spec, base, edited, writable)
               for array in (claim.factors.h_rows, claim.factors.k_rows, claim.factors.pairs)]
    for copy in kept[0].copies + kept[0].rows[:3]:
        assert not copy.flags.writeable
        assert not any(np.may_share_memory(copy, array) for array in callers)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_the_same_bytes_under_another_dtype_are_another_claim():
    """H rows holding a kept claim's bytes as big-endian complex are
    another claim, which ``_checked_factors`` rejects: the report is that
    of the claim certified cold, not the kept claim's."""
    group, color, spec, adj = family_case(31, 5, 2)
    swapped = dataclasses.replace(spec, factors=dataclasses.replace(
        spec.factors, h_rows=spec.factors.h_rows.view(">c16")))
    cold = certify(adj, swapped, color)
    assert not cold.structured and not cold.passed
    assert kept_claims(group) == []
    assert certify(adj, spec, color).passed
    assert len(kept_claims(group)) == 1
    assert repr(certify(adj, swapped, color)) == repr(cold)


@pytest.mark.parametrize("bound", ["bytes", "entries"])
def test_kept_claims_stay_within_the_memo_bounds(monkeypatch, bound):
    """The memo of the color's group keeps one claim of a shape, and a
    claim of other bits replaces it.  A claim larger than ``_BLOCK_BYTES``
    is never kept (nothing is copied), nor is one that finds the memo
    holding ``_MEMO_ENTRIES`` products, so every call splits it afresh."""
    group, color, spec, adj = family_case(31, 5, 2)
    claims = [spec] + [with_k_rows(spec, bit_edited_pair(spec.factors.k_rows, "one-ulp",
                                                         np.random.default_rng(seed))[1])
                       for seed in (1, 2)]
    certify(adj, spec, color)
    [kept] = kept_claims(group)
    size = kept.nbytes
    splits = []
    split = verify_module._fourier_split
    monkeypatch.setattr(verify_module, "_fourier_split",
                        lambda rows: splits.append(1) or split(rows))

    def splits_taken(*order):
        before = len(splits)
        for index in order:
            assert certify(adj, claims[index], color).structured
        return len(splits) - before

    assert splits_taken(0, 1, 1, 0, 2, 2) == 3
    assert [claim.copies[1].tobytes() for claim in kept_claims(group)] == [
        claims[2].factors.k_rows.tobytes()]
    held = len(group._memo) - 1
    groups_module._clear_interned()
    if bound == "bytes":
        monkeypatch.setattr(groups_module, "_BLOCK_BYTES", size - 1)
        factors = spec.factors
        arrays = factors.h_rows, factors.k_rows, factors.pairs
        assert verify_module._Claim(arrays).copies is None
    else:
        monkeypatch.setattr(groups_module, "_MEMO_ENTRIES", held)
    group, color, _, adj = family_case(31, 5, 2)
    assert splits_taken(0, 0, 1) == 3 and kept_claims(group) == []
    assert len(group._memo) == held


def test_a_group_built_by_its_class_certifies_cold_on_every_call():
    """A group built by its class memoizes nothing, so every ``certify``
    call on a color of it reads the claim afresh, with the same report."""
    group = MetacyclicGroup(31, 5, 2)
    color = color_from_set(group, nonnormal_family(31, 5, 2)[1].elements)
    spec = spectrum_split(group, color, builtin_irreps(group.h_group), irreps_cyclic(31))
    adj = adjacency_matrix(group, color)
    splits = []
    split = verify_module._fourier_split
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify_module, "_fourier_split",
                      lambda rows: splits.append(1) or split(rows))
        reports = [repr(certify(adj, spec, color)) for _ in range(3)]
    assert len(splits) == 3 and len(set(reports)) == 1
    assert "structured=True" in reports[0]
    assert group._memo is None


@pytest.mark.parametrize("copied", [False, True], ids=["claimed", "row-3-over-row-4"])
def test_certify_reads_the_claim_once(monkeypatch, copied):
    """One ``certify`` call accepts the factors, splits the K rows and
    takes the factor Gram at most once each, on the structured path and,
    with K row 3 copied over row 4, on the dense one.  Each public check
    runs once."""
    group, color, spec, adj = family_case(31, 5, 2)
    claim = spec
    if copied:
        k_rows = np.array(spec.factors.k_rows)
        k_rows[4] = k_rows[3]
        claim = with_k_rows(spec, k_rows)
    calls = {}
    for name in ("_checked_factors", "_fourier_split", "_fourier_gram",
                 "verify_eigenpairs", "verify_basis"):
        original = getattr(verify_module, name)

        def counted(*args, original=original, name=name, **kw):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kw)

        monkeypatch.setattr(verify_module, name, counted)
    report = certify(adj, claim, color)
    assert report.structured is not copied and report.passed is not copied
    assert calls["verify_eigenpairs"] == calls["verify_basis"] == 1
    for name in ("_checked_factors", "_fourier_split", "_fourier_gram"):
        assert calls.get(name, 0) <= 1, (name, calls)


def test_a_dense_check_budgets_the_formed_matrix_with_the_stacked_rows(monkeypatch):
    """A factored claim with a duplicated K row fails the Fourier rule in
    both checks.  The matrix formed from the carried table stays cached
    while the basis check stacks the n claimed rows, so ``certify`` checks
    both at once before forming anything: over that sum it raises.  Within
    it the traced peak passes the matrix's own estimate, which the check
    once made alone, and stays below the sum plus one block (which at this
    n holds every vector, so the bound is loose)."""
    group, color, spec, adj = family_case(31, 5, 2)
    claim = with_k_rows(spec, top_duplicated(np.array(spec.factors.k_rows)))
    n = spec.n
    separate = verify_module.dense_certify_bytes(n, True)
    combined = separate + 16 * n * n
    monkeypatch.setattr(groups_module, "DENSE_BYTE_BUDGET", combined - 1)
    assert separate < combined - 1
    with pytest.raises(CapacityExceeded, match=f"rule .*, needs an estimated {combined} bytes"):
        certify(adj, claim, color)
    assert not formed(adj)
    monkeypatch.setattr(groups_module, "DENSE_BYTE_BUDGET", combined)
    tracemalloc.start()
    try:
        report = certify(adj, claim, color)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.structured and formed(adj)
    assert separate < peak <= combined + groups_module._BLOCK_BYTES, (peak, combined)


def test_the_characters_of_c3_pass_the_fourier_rule():
    """At n = 3 the claimed characters leave remainder terms of up to 2.6
    ulps, above sqrt(3) eps; the rule's floor of at least four ulps lets
    both checks run structured, within the tolerances of their dense
    counterparts."""
    group = MetacyclicGroup(3, 1, 1)
    for color in (color_from_set(group, [group.elements()[2]]),
                  ColorFunction(group, {group.elements()[0]: 1j})):
        spec = spectrum_split(group, color, builtin_irreps(group.h_group), irreps_cyclic(3))
        adj = adjacency_matrix(group, color)
        report, dense = certify(adj, spec, color), dense_certify(adj, spec, color)
        assert report.structured and verify_basis(spec).structured and report.passed
        assert abs(report.max_residual - dense.max_residual) <= 1e-12 * dense.scale
        assert abs(report.gram_deviation - dense.gram_deviation) <= 1e-12
