"""The columnar ``Spectrum`` against the per-line builders it replaced.

Each route used to build one ``SpectralLine`` per line; the oracles below
keep those builders, on the same kernels (the character sums of the normal
route, the K transform and class GEMM of the split route), and the columns
every route builds now must hold their bits.  The split route's old grid,
running sums over K and one product a class, stays here as the reference
its FFT and GEMM must agree with to a rounding bound.
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cayleyspec import (
    ColorFunction,
    IrrepsUnavailable,
    MetacyclicGroup,
    SpectralLine,
    SpectralLines,
    Spectrum,
    SplitExtensionGroup,
    block_diagonalize,
    builtin_irreps,
    irreps_cyclic,
    spectrum_metacyclic,
    spectrum_normal,
    spectrum_split,
)
from cayleyspec.irreps import (
    IrrepSet,
    UnitaryIrrep,
    _character_gather,
    _character_sums,
    _cmul,
    _root_table,
)
from cayleyspec.spectra import _split_grid
from cayleyspec.verify import _rounding_floor
from test_kernel import class_color_values, groups_strategy, random_complex_color


def normal_oracle(group, color, irrep_set):
    sums = _character_sums(color.vector, len(irrep_set), _character_gather(irrep_set))
    return [SpectralLine(u=k, v=None, labels=(rho.label,), eigenvalue=total / rho.degree,
                         multiplicity=rho.degree * rho.degree)
            for k, (rho, total) in enumerate(zip(irrep_set, sums.tolist()))]


def running_sum_grid(h_terms, rows, k_gather, count):
    """The split grid as the route summed it before its FFT: sigma[v, i] a
    running sum of ``_cmul`` products over row i's support, then
    eig[u, v] the class terms added in class order from zeros."""
    sigma = np.array([_character_sums(row, count, k_gather) for row in rows]).T
    eig = np.zeros((len(h_terms), count), dtype=complex)
    for i, lam in enumerate(np.array(h_terms).T):
        eig += _cmul(lam[:, np.newaxis], sigma[:, i])
    return eig


def grid_oracle(h_terms, rows, exponents, h_labels, k_labels, multiplicities):
    """Lines (u, v), u major, of the route's own K transform and class GEMM
    on the given H terms, rows and K exponents."""
    eig = _split_grid(np.array(h_terms, dtype=complex), rows, np.asarray(exponents))
    return [SpectralLine(
        u=u, v=v, labels=(h_label, k_label), eigenvalue=eigenvalue, multiplicity=multiplicity,
    ) for u, (h_label, multiplicity, row) in enumerate(zip(h_labels, multiplicities, eig.tolist()))
        for v, (k_label, eigenvalue) in enumerate(zip(k_labels, row))]


def split_oracle(group, color, irreps_h, irreps_k):
    h_group, m, l = group.h_group, group.m, group.l
    h_classes = h_group.conjugacy_classes()
    reps = [h_group.index(cls.representative) for cls in h_classes]
    h_chars = _character_gather(irreps_h)(0, len(irreps_h), reps)
    h_terms = [tuple(cls.size * c / rho.degree for cls, c in zip(h_classes, chars))
               for rho, chars in zip(irreps_h, h_chars.tolist())]
    # the characters of ``irreps_cyclic(m)`` have exponents e_v = v
    return grid_oracle(h_terms, color.vector.reshape(l, m)[reps], np.arange(m),
                       irreps_h.labels(), irreps_k.labels(),
                       [d * d for d in irreps_h.degrees()])


def metacyclic_oracle(m, l, layers):
    """The root-table grid, summed as the split route sums it: lambda_ut
    is e^{2 pi i u t / l} plus 0.0, which turns the -0.0 of -1j into 0.0
    as a character (a 1 x 1 trace) does, and K's exponents are e_v = v."""
    indicators = np.zeros((l, m), dtype=complex)
    for t, layer in enumerate(layers):
        indicators[t, [s % m for s in layer]] = 1
    roots_l = _root_table(l)
    h_roots = roots_l[np.outer(np.arange(l), np.arange(l)) % l] + 0.0
    return grid_oracle(
        [tuple(row) for row in h_roots.tolist()], indicators, np.arange(m),
        [f"chi_{u}" for u in range(l)], [f"chi_{v}" for v in range(m)], [1] * l)


def blocks_oracle(decomposition):
    return [SpectralLine(u=u, v=v, labels=(block.label,), eigenvalue=complex(value),
                         multiplicity=block.degree)
            for u, (block, eigs) in enumerate(zip(decomposition.blocks,
                                                  decomposition.block_eigenvalues))
            for v, value in enumerate(eigs)]


def line_fields(line):
    """Every field of a line, the eigenvalue as its bits."""
    return (line.u, line.v, line.labels, np.complex128(line.eigenvalue).tobytes(),
            line.multiplicity, line.eigenvectors)


def column_bytes(lines):
    return [None if column is None else column.tobytes()
            for column in (lines.eigenvalues, lines.multiplicities, lines.u, lines.v)]


def oracle_columns(lines):
    """The columns of per-line oracle output, v None when no line has one."""
    v = [line.v for line in lines]
    return [np.array([line.eigenvalue for line in lines], dtype=complex).tobytes(),
            np.array([line.multiplicity for line in lines], dtype=np.int64).tobytes(),
            np.array([line.u for line in lines], dtype=np.int64).tobytes(),
            None if None in v else np.array(v, dtype=np.int64).tobytes()]


def edited_lines(spec, order=None, shifts=(), multiplicities=()):
    """``spec``'s line columns taken in ``order``; then for each (k, shift)
    in ``shifts`` line k's eigenvalue plus ``shift``, as Python adds them,
    and for each (k, count) in ``multiplicities`` line k's multiplicity
    ``count``."""
    lines = spec.lines
    order = np.arange(len(lines)) if order is None else np.asarray(order, dtype=np.intp)
    values, counts = lines.eigenvalues[order], lines.multiplicities[order]
    for k, shift in shifts:
        values[k] = values[k].item() + shift
    for k, count in multiplicities:
        counts[k] = count
    v = None if lines.v is None else lines.v[order]
    return SpectralLines(values, counts, lines.u[order], v, lines.axes)


def check_columns(got, oracle_lines):
    """``got``'s columns equal those of the oracle's lines, bit for bit,
    and every viewed line, by index, slice or iteration, equals the
    oracle's."""
    assert column_bytes(got.lines) == oracle_columns(oracle_lines), got.method
    assert len(got.lines) == len(oracle_lines)
    viewed = list(got.lines)
    assert [line_fields(line) for line in viewed] == \
        [line_fields(line) for line in oracle_lines], got.method
    for k in (0, len(viewed) - 1, -1):
        assert line_fields(got.lines[k]) == line_fields(viewed[k])
    assert [line_fields(line) for line in got.lines[1::2]] == \
        [line_fields(line) for line in viewed[1::2]]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy(), st.randoms(use_true_random=False))
def test_columns_equal_the_per_line_builders_on_every_route(group, rng):
    class_color = ColorFunction(group, class_color_values(group, rng))
    checked = 0
    try:
        irrep_set = builtin_irreps(group)
    except IrrepsUnavailable:
        irrep_set = None
    if irrep_set is not None:
        check_columns(spectrum_normal(group, class_color, irrep_set, eigenvectors=False),
                      normal_oracle(group, class_color, irrep_set))
        if max(irrep_set.degrees()) <= 2:
            decomposition = block_diagonalize(group, class_color, irrep_set)
            check_columns(decomposition.spectrum(), blocks_oracle(decomposition))
        checked += 1
    if isinstance(group, SplitExtensionGroup):
        try:
            irreps_h = builtin_irreps(group.h_group)
        except IrrepsUnavailable:
            irreps_h = None
        if irreps_h is not None:
            irreps_k = irreps_cyclic(group.m)
            # the random color holds NaN and infinite values
            with np.errstate(invalid="ignore"):
                for color in (class_color, random_complex_color(group, rng)):
                    check_columns(
                        spectrum_split(group, color, irreps_h, irreps_k, eigenvectors=False,
                                       force=True),
                        split_oracle(group, color, irreps_h, irreps_k))
            checked += 1
    if isinstance(group, MetacyclicGroup):
        m, l, r = group.m, group.l, group.r
        layers = [sorted({s * pow(r, e, m) % m for s in rng.sample(range(m), min(m, 2))
                          for e in range(l)}) for _ in range(l)]
        check_columns(spectrum_metacyclic(m, l, r, layers, eigenvectors=False),
                      metacyclic_oracle(m, l, layers))
        checked += 1
    assume(checked)


def shuffled_k_tables(m, rng):
    """The characters of C_m as user tables: the irreps listed in a random
    order, each keyed by the elements in a random order."""
    irreps_k = irreps_cyclic(m)
    order, elements = list(range(m)), list(irreps_k.group.elements())
    rng.shuffle(order)
    tables = []
    for v in order:
        rng.shuffle(elements)
        rho = irreps_k[v]
        tables.append(UnitaryIrrep(rho.label, {g: rho.matrix(g) for g in elements}))
    return IrrepSet(irreps_k.group, tables)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy().filter(lambda group: isinstance(group, SplitExtensionGroup)),
       st.randoms(use_true_random=False), st.booleans())
def test_split_grid_agrees_with_the_running_sums(group, rng, shuffled):
    """On finite colors the split route's FFT and GEMM agree with the
    running sums they replaced, entry (u, v) within 4 _rounding_floor(n)
    times sum_i |lambda_ui| sum_b |alpha(h_i k^b)|, on built-in K irreps
    and on shuffled user K tables.  Over 20 000 draws of these groups the
    largest difference was 0.99 of one such floor."""
    try:
        irreps_h = builtin_irreps(group.h_group)
    except IrrepsUnavailable:
        assume(False)
    h_group, m, l = group.h_group, group.m, group.l
    irreps_k = shuffled_k_tables(m, rng) if shuffled else irreps_cyclic(m)
    elements = group.elements()
    color = ColorFunction(group, {
        g: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for g in rng.sample(elements, rng.randint(0, group.order))})
    spec = spectrum_split(group, color, irreps_h, irreps_k, eigenvectors=False, force=True)
    h_classes = h_group.conjugacy_classes()
    reps = [h_group.index(cls.representative) for cls in h_classes]
    h_terms = np.array([[cls.size * c / rho.degree for cls, c in zip(h_classes, chars)]
                        for rho, chars in zip(irreps_h, irreps_h.characters[:, reps].tolist())],
                       dtype=complex)
    rows = color.vector.reshape(l, m)[reps]
    reference = running_sum_grid(h_terms, rows, _character_gather(irreps_k), m)
    bound = 4 * _rounding_floor(group.order) * (np.abs(h_terms) @ np.abs(rows).sum(axis=1))
    got = spec.eigenvalues.reshape(len(irreps_h), m)
    assert np.isfinite(got).all()
    assert (np.abs(got - reference) <= bound[:, np.newaxis]).all()
    assert spec.lines.axes == (tuple(irreps_h.labels()), tuple(irreps_k.labels()))


def test_hand_built_lines_keep_their_labels_and_v():
    """Columns built by hand, with labels on two axes, view as their lines."""
    columns = SpectralLines([1.5, -0.0, 1j], [1, 0, 2], [2, 0, 2], [0, 3, 1],
                            axes=(("a", None, "b"), ("x", "y", None, "z")))
    spec = Spectrum(n=3, method="split", lines=columns)
    assert [line_fields(line) for line in spec.lines] == [line_fields(line) for line in (
        SpectralLine(2, 0, ("b", "x"), 1.5, 1),
        SpectralLine(0, 3, ("a", "z"), -0.0, 0),
        SpectralLine(2, 1, ("b", "y"), 1j, 2))]
    assert list(spec.lines.v_values()) == [0, 3, 1]
    assert not spec.eigenvalues.flags.writeable and not spec.multiplicities.flags.writeable


@pytest.mark.parametrize("u, v, axes", [
    ([0], [0], (("a",), ("x",), ("y",))),
    ([0], None, (("a",), ("x",))),
    ([-1], None, (("a",),)),
    ([0], [-1], (("a",), ("x",))),
], ids=["three labels", "second label without v", "negative u", "negative v"])
def test_lines_the_columns_cannot_hold_are_refused(u, v, axes):
    with pytest.raises(ValueError):
        SpectralLines([1], [1], u, v, axes)


@pytest.mark.parametrize("u, v, axes", [
    ([0, 1], None, (("a",),)),
    ([0], [2], (("a",), ("x", "y"))),
], ids=["u past its axis", "v past its axis"])
def test_lines_past_their_labels_are_refused_at_construction(u, v, axes):
    """Viewing such a line would raise IndexError; the columns refuse it."""
    with pytest.raises(ValueError, match="indexes past its"):
        SpectralLines([1] * len(u), [1] * len(u), u, v, axes)


@pytest.mark.parametrize("u, v", [
    ([1.5], None), ([0], [1.5]), ([np.nan], None), ([1j], None), ([None], None),
], ids=["float u", "float v", "NaN u", "complex u", "object u"])
def test_lines_with_non_integral_u_or_v_are_refused(u, v):
    """A u or v column that is not integral is no longer cast to int."""
    with pytest.raises(ValueError, match="must be integers"):
        SpectralLines([1], [1], u, v)


def test_integral_and_empty_u_and_v_columns_stay_valid():
    lines = SpectralLines([1, 2], [1, 1], [0.0, 1.0], np.array([1, 0], dtype=np.uint8),
                          axes=(("a", "b"), ("x", "y")))
    assert lines.u.dtype == lines.v.dtype == np.int64
    assert [line.labels for line in lines] == [("a", "y"), ("b", "x")]
    empty = SpectralLines([], [], [], [], axes=((), ()))
    assert len(empty) == 0 and empty.u.dtype == empty.v.dtype == np.int64


def test_a_spectrum_refuses_a_list_of_lines():
    """Lines are held only as columns: a list of ``SpectralLine`` objects,
    which a spectrum's own iteration gives, is not taken back."""
    lines = list(SpectralLines([1, 2], [1, 1], [0, 1], axes=(("a", "b"),)))
    with pytest.raises(TypeError, match="SpectralLines"):
        Spectrum(n=2, method="normal", lines=lines)


def test_spectrum_from_columns_keeps_them():
    rng = random.Random(5)
    values = [complex(rng.random(), rng.random()) for _ in range(6)]
    columns = SpectralLines(values, [1] * 6, np.arange(6), axes=([f"z{k}" for k in range(6)],))
    spec = Spectrum(n=6, method="normal", lines=columns)
    assert spec.lines is columns
    assert replace(spec, theorem_verified=False).lines is columns
    assert spec.total_multiplicity == 6 and spec.v is None
    assert [line.labels for line in spec.lines] == [(f"z{k}",) for k in range(6)]
