import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleyspec import (
    AdjacencyMatrix,
    ColorFunction,
    ConfigError,
    CyclicGroup,
    DihedralGroup,
    InvalidAction,
    MetacyclicGroup,
    SplitExtensionGroup,
    adjacency_matrix,
    beta_blocks,
    classify_connection_set,
    color_from_set,
    export_edge_list,
    layers_from_set,
    nonnormal_family,
    read_edge_list,
)
from cayleyspec.cayley import EDGE_LIST_HEADER, ConnectionSet, _element_indices
from cayleyspec.groups import _first_conjugator, is_generating_set
from test_kernel import groups_strategy, random_complex_color


def prism():
    group = MetacyclicGroup(3, 2, 2)
    return group, color_from_set(group, [(0, 1), (0, 2), (1, 0)])


def test_color_from_set_flags():
    group = MetacyclicGroup(7, 3, 2)
    _, conn = nonnormal_family(7, 3, 2)
    color = color_from_set(group, conn.elements)
    assert color.vanishes_at_identity
    assert color.is_real
    assert color.is_symmetric
    assert not color.is_class_function
    empty = color_from_set(group, [])
    assert empty.support() == set()
    assert empty((1, 1)) == 0

    c4 = CyclicGroup(4)
    directed = classify_connection_set(c4, [1])
    assert not directed.inverse_closed
    assert directed.witnesses["inverse_closed"] == (1, 3)


def test_color_function_validates_membership():
    group = CyclicGroup(4)
    with pytest.raises(ConfigError):
        ColorFunction(group, {7: 1.0})
    # exact zeros are stripped from the support
    f = ColorFunction(group, {1: 0j, 2: 1 + 0j})
    assert f.support() == {2}


def test_color_function_indexes_a_split_kind_in_one_pass(monkeypatch):
    """A split kind indexes every key in one array pass, with no ``index``
    call; a cyclic kind looks each key up once.  A key outside the group
    keeps its message."""
    group, conn = nonnormal_family(31, 5, 2)
    cyclic = CyclicGroup(12)
    calls = []
    for kind in (group, cyclic):
        index = kind.index
        monkeypatch.setattr(kind, "index", lambda g, index=index: calls.append(g) or index(g))
    color = color_from_set(group, conn.elements)
    assert calls == [] and color.support() == set(conn.elements)
    assert color_from_set(cyclic, [1, 5, 11]).support() == {1, 5, 11}
    assert calls == [1, 5, 11]
    for kind, outside in ((group, (5, 0)), (group, "h"), (cyclic, 12)):
        with pytest.raises(ConfigError) as caught:
            ColorFunction(kind, {outside: 1.0})
        assert str(caught.value) == f"color assigns {outside!r}, which is not in the group"


@st.composite
def split_group_and_elements(draw):
    """A split kind from ``groups_strategy()`` and a list of would-be
    elements: all pairs of the group, or a mix with pairs out of range,
    of the wrong arity, as lists, or holding bools, floats, numpy ints,
    strings or ints beyond int64."""
    group = draw(groups_strategy().filter(lambda group: isinstance(group, SplitExtensionGroup)))
    valid = st.sampled_from(group.elements())
    ints = st.integers(-2, max(group.l, group.m) + 1)
    part = st.one_of(ints, st.booleans(), st.floats(allow_nan=True), ints.map(np.int64),
                     st.just("1"), st.integers(2 ** 63, 2 ** 64))
    odd = st.one_of(valid.map(list), st.tuples(part, part), st.lists(part, max_size=3),
                    ints, st.text(max_size=2), st.none())
    return group, draw(st.one_of(st.lists(valid, max_size=8),
                                 st.lists(st.one_of(valid, odd), max_size=8)))


@settings(max_examples=300, deadline=None)
@given(split_group_and_elements())
def test_a_split_kind_indexes_a_set_as_index_does(case):
    """The one-pass indices of a split kind equal ``index`` of each
    element, and a refusal names the first element ``index`` refuses.  A
    list of pairs of Python ints in range takes the array pass."""
    group, elements = case
    expected, refused = [], []
    for g in elements:
        try:
            expected.append(group.index(g))
        except KeyError:
            refused.append(g)
            break
    one_pass = group._indices(elements)
    assert one_pass is None or one_pass.tolist() == expected and not refused
    if not refused and elements and all(
            type(g) is tuple and len(g) == 2 and set(map(type, g)) == {int} for g in elements):
        assert one_pass is not None
    if not refused:
        assert _element_indices(group, elements, "set holds").tolist() == expected
    else:
        with pytest.raises(ConfigError) as caught:
            _element_indices(group, elements, "set holds")
        assert str(caught.value) == f"set holds {refused[0]!r}, which is not in the group"


def test_forming_the_adjacency_checks_the_byte_budget(tmp_path, monkeypatch):
    """The n x n matrix is checked against the budget wherever it is
    formed: read off a carried beta table (by ``trace_identities`` and
    ``export_edge_list``), or gathered on a kind that carries none."""
    from cayleyspec import CapacityExceeded, trace_identities
    from cayleyspec import groups as groups_module

    group, conn = nonnormal_family(31, 5, 2)
    color = color_from_set(group, conn.elements)
    n = group.order
    path = tmp_path / "edges.txt"
    for budget in (1000, 16 * n * n - 1):
        monkeypatch.setattr(groups_module, "DENSE_BYTE_BUDGET", budget)
        adj = adjacency_matrix(group, color)
        message = f"the {n} x {n} adjacency needs an estimated {16 * n * n} bytes"
        with pytest.raises(CapacityExceeded, match=message):
            trace_identities(adj, color)
        with pytest.raises(CapacityExceeded, match=message):
            export_edge_list(adj, path)
        assert not formed(adj) and not path.exists()
    cyclic = CyclicGroup(20)
    cyclic_color = color_from_set(cyclic, [1, 19])
    monkeypatch.setattr(groups_module, "DENSE_BYTE_BUDGET", 16 * 20 * 20 - 1)
    with pytest.raises(CapacityExceeded, match="the 20 x 20 adjacency needs an estimated 6400"):
        adjacency_matrix(cyclic, cyclic_color)
    monkeypatch.setattr(groups_module, "DENSE_BYTE_BUDGET", 16 * n * n)
    assert trace_identities(adj, color) == (0.0, 0.0)
    export_edge_list(adj, path)
    assert formed(adj) and path.exists()
    assert adjacency_matrix(cyclic, cyclic_color).n == 20


def test_class_function_witness_is_reproducible():
    group, color = prism()
    assert not color.is_class_function
    g, x, conj, lhs, rhs = color.class_function_witness()
    assert group.conjugate(g, x) == conj
    assert color(g) == lhs and color(conj) == rhs and lhs != rhs


def test_adjacency_direction_convention():
    group = CyclicGroup(3)
    color = color_from_set(group, [1, 2])
    adj = adjacency_matrix(group, color)
    assert np.array_equal(adj.matrix, np.ones((3, 3)) - np.eye(3))
    elems = group.elements()
    for i, gi in enumerate(elems):
        for j, gj in enumerate(elems):
            assert adj.matrix[i, j] == color(group.mul(gj, group.inv(gi)))

    delta = color_from_set(group, [0])
    assert np.array_equal(adjacency_matrix(group, delta).matrix, np.eye(3))


def test_adjacency_prism_structure():
    group, color = prism()
    adj = adjacency_matrix(group, color)
    circulant = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert np.array_equal(adj.matrix[:3, :3], circulant)
    assert np.array_equal(adj.matrix[3:, 3:], circulant)
    assert np.array_equal(adj.matrix[:3, 3:], np.eye(3))
    assert np.array_equal(adj.matrix[3:, :3], np.eye(3))
    assert adj.is_hermitian
    # every row of an indicator adjacency sums to |S|
    assert np.array_equal(adj.matrix.sum(axis=1), np.full(6, 3))


def test_hermitian_iff_inverse_closed():
    c4 = CyclicGroup(4)
    assert not adjacency_matrix(c4, color_from_set(c4, [1])).is_hermitian
    assert adjacency_matrix(c4, color_from_set(c4, [1, 3])).is_hermitian


def test_beta_blocks_prism():
    group, color = prism()
    bd = beta_blocks(group, color)
    assert bd.beta(0, 0) == {1: 1, 2: 1}
    assert bd.beta(0, 1) == {0: 1}
    # the kernel gather over all n^2 pairs, independent of the beta table
    n = group.order
    gathered = color.vector[group.mul_idx(np.arange(n)[None, :], group.inv_idx[:, None])]
    assert np.array_equal(bd.assemble(), gathered)

    zero = ColorFunction(group, {})
    assert not np.any(beta_blocks(group, zero).assemble())


def test_beta_blocks_equal_the_element_loops_byte_for_byte():
    group, conn = nonnormal_family(7, 3, 2)
    values = {g: complex(1 + i, -0.5 * i) for i, g in enumerate(conn.elements)}
    for color in (color_from_set(group, conn.elements), ColorFunction(group, values)):
        bd = beta_blocks(group, color)
        assert bd.beta_values.shape == (3, 3, 7)
        assert not bd.beta_values.flags.writeable
        assembled = bd.assemble()
        for i in range(3):
            for j in range(3):
                beta = [color(group.mul(group.mul((j, 0), (0, c)), group.inv((i, 0))))
                        for c in range(7)]
                assert bd.beta_values[i, j].tobytes() == np.array(beta).tobytes()
                loop = np.zeros((7, 7), dtype=complex)
                for a in range(7):
                    for b in range(7):
                        if beta[(b - a) % 7] != 0:
                            loop[a, b] = beta[(b - a) % 7]
                block = assembled[i * 7:(i + 1) * 7, j * 7:(j + 1) * 7]
                assert block.tobytes() == loop.tobytes()


def test_split_adjacency_allocates_little_beyond_its_result():
    """At the n = 2110 rung the adjacency is 68 MiB; copying it from the
    beta table on first read holds no n^2 index array or second n^2 copy
    beside it."""
    group, conn = nonnormal_family(211, 10, 23)
    color = color_from_set(group, conn.elements)
    result_bytes = 16 * group.order ** 2
    tracemalloc.start()
    try:
        adjacency = adjacency_matrix(group, color)
        adjacency.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert adjacency.matrix.nbytes == result_bytes
    assert peak <= 1.1 * result_bytes, peak / result_bytes


def formed(adjacency) -> bool:
    """Whether the adjacency's n x n matrix exists yet."""
    return vars(adjacency)["_matrix"] is not None


def test_split_adjacency_forms_its_matrix_on_first_read():
    group, conn = nonnormal_family(211, 10, 23)
    color = color_from_set(group, conn.elements)
    tracemalloc.start()
    try:
        adjacency = adjacency_matrix(group, color)
        n, hermitian = adjacency.n, adjacency.is_hermitian
        repr(adjacency)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the beta table is l*l*m entries; the matrix would be 68 MiB
    assert not formed(adjacency) and peak < 1 << 20
    assert (n, hermitian) == (2110, True)
    matrix = adjacency.matrix
    assert formed(adjacency) and adjacency.matrix is matrix
    assert not matrix.flags.writeable
    assert matrix.tobytes() == adjacency.blocks.assemble().tobytes()
    # the field the benchmark's observer reads stays a dataclass field
    assert "matrix" in {f.name for f in fields(adjacency)}


def test_an_adjacency_holds_a_matrix_or_blocks():
    group, color = prism()
    blocks = beta_blocks(group, color)
    with pytest.raises(ValueError, match="exactly one"):
        AdjacencyMatrix()
    with pytest.raises(ValueError, match="exactly one"):
        AdjacencyMatrix(matrix=blocks.assemble(), blocks=blocks)
    dense = AdjacencyMatrix(blocks.assemble())
    assert dense.blocks is None and dense.n == 6
    with pytest.raises(AttributeError):
        dense.matrix = blocks.assemble()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(groups_strategy().filter(lambda group: isinstance(group, SplitExtensionGroup)),
       st.randoms(use_true_random=False))
def test_split_adjacency_answers_from_the_beta_table(group, rng):
    """``n`` and ``is_hermitian`` of a random complex color (NaN and
    infinite values among them) and of its Hermitian part, exactly
    Hermitian, equal the dense matrix's answers; the matrix is not formed."""
    color = random_complex_color(group, rng)
    alpha, reversed_alpha = color.vector, color.vector[group.inv_idx]
    hermitian_part = ColorFunction(group, dict(zip(
        group.elements(), ((alpha + reversed_alpha.conj()) / 2).tolist())))
    for color in (color, hermitian_part):
        adjacency = adjacency_matrix(group, color)
        n, hermitian = adjacency.n, adjacency.is_hermitian
        assert not formed(adjacency)
        dense = AdjacencyMatrix(adjacency.matrix.copy())
        assert n == dense.n == group.order
        assert hermitian == dense.is_hermitian
    assert hermitian or np.isnan(hermitian_part.vector).any()


def test_beta_blocks_depend_only_on_coset_difference():
    # under the checked invariance conditions, beta_ij = beta_{0t} with
    # h_t = h_j * h_i^{-1}
    group, conn = nonnormal_family(7, 3, 2)
    color = color_from_set(group, conn.elements)
    bd = beta_blocks(group, color)
    h_group = group.h_group
    for i in range(3):
        for j in range(3):
            t = h_group.index(h_group.mul(j, h_group.inv(i)))
            assert bd.beta(i, j) == bd.beta(0, t)


def test_classify_family_witness():
    group, conn = nonnormal_family(7, 3, 2)
    assert len(conn) == 8
    assert conn.inverse_closed
    assert not conn.contains_identity
    assert conn.generates and conn.closure_size == 21
    assert not conn.conjugation_closed
    x, s, conj = conn.witnesses["conjugation_closed"]
    assert s in set(conn.elements)
    assert group.conjugate(s, x) == conj
    assert conj not in set(conn.elements)
    # the escape the construction guarantees: k^2 h k^{-2} = h k^6
    k2 = (0, 2)
    assert group.conjugate((1, 0), k2) == (1, 6)
    assert (1, 6) not in set(conn.elements)


def test_classify_small_orbit():
    group = MetacyclicGroup(7, 3, 2)
    conn = classify_connection_set(group, [(0, 1), (0, 6)])
    assert conn.inverse_closed
    assert not conn.conjugation_closed  # orbit of k is {k, k^2, k^4}
    assert not conn.generates and conn.closure_size == 7

    union = [e for cls in group.conjugacy_classes() if cls.size == 3
             for e in cls.members]
    assert classify_connection_set(group, union).conjugation_closed


def test_family_layers_and_rejection():
    group, conn = nonnormal_family(7, 3, 2)
    assert layers_from_set(group, conn.elements) == [[1, 2, 3, 4, 5, 6], [0], [0]]
    g2, conn2 = nonnormal_family(3, 2, 2)
    assert sorted(conn2.elements) == [(0, 1), (0, 2), (1, 0)]  # h = h^{-1}
    for bad in ((7, 3, 1), (2, 2, 1)):
        with pytest.raises(InvalidAction):
            nonnormal_family(*bad)


@pytest.mark.parametrize("outside", [(-1, 0), (0, 9), (3, 0), (0, 1.5), "h"])
def test_layers_from_set_refuses_what_a_color_refuses(outside):
    """A member that is not an element of M(7, 3, 2) raises ConfigError,
    as in a color, instead of landing in a layer by Python's
    negative indexing, keeping an exponent of m or more, or raising
    IndexError.  Elements in any order and repeated give the sorted
    layers."""
    group = MetacyclicGroup(7, 3, 2)
    with pytest.raises(ConfigError, match="which is not in the group"):
        color_from_set(group, [(0, 1), outside])
    with pytest.raises(ConfigError) as caught:
        layers_from_set(group, [(0, 1), outside])
    assert str(caught.value) == f"connection set holds {outside!r}, which is not in the group"
    shuffled = [(2, 0), (0, 4), (1, 0), (0, 1), (0, 4), (0, 2)]
    assert layers_from_set(group, shuffled) == [[1, 2, 4], [0], [0]]
    assert layers_from_set(group, []) == [[], [], []]


def classify_by_lists(group, subset):
    """``classify_connection_set`` as once spelled, its indices turned
    into a list, a set and a sorted list."""
    indices = sorted(set(_element_indices(group, list(subset), "connection set holds").tolist()))
    elems = group.elements()
    members = [elems[i] for i in indices]
    witnesses = {}
    member_idx = np.array(indices, dtype=np.int64)
    in_set = np.zeros(group.order, dtype=bool)
    in_set[member_idx] = True
    inverses = group.inv_idx[member_idx]
    missing = np.flatnonzero(~in_set[inverses])
    if missing.size:
        witnesses["inverse_closed"] = (members[missing[0]], elems[inverses[missing[0]]])
    labels = group._class_labels
    leaves = np.zeros(group.order, dtype=bool)
    leaves[labels[~in_set]] = True
    escaping = member_idx[leaves[labels[member_idx]]]
    if escaping.size:
        x, conjugate = _first_conjugator(group, escaping[0], ~in_set)
        witnesses["conjugation_closed"] = (elems[x], elems[escaping[0]], elems[conjugate])
    generates, closure_size = is_generating_set(group, indices=member_idx)
    return ConnectionSet(tuple(members), missing.size == 0,
                         bool(in_set[group.index(group.identity)]), generates, closure_size,
                         "conjugation_closed" not in witnesses, witnesses)


def layers_by_lists(group, subset):
    """``layers_from_set`` as once spelled, one ``divmod`` per index."""
    layers = [[] for _ in range(group.l)]
    for index in sorted(set(_element_indices(group, list(subset), "connection set holds").tolist())):
        a, b = divmod(index, group.m)
        layers[a].append(b)
    return layers


@st.composite
def raw_connection_sets(draw):
    """A group and a list of its elements, repeated and in any order; on
    a split kind some pairs hold a bool for a 0 or 1 exponent, and one
    entry may lie outside the group."""
    group = draw(groups_strategy())
    elems = group.elements()
    picks = draw(st.lists(st.integers(0, group.order - 1), max_size=12))
    picks += draw(st.lists(st.sampled_from(picks), max_size=4)) if picks else []
    subset = [elems[i] for i in draw(st.permutations(picks))]
    if isinstance(group, SplitExtensionGroup):
        subset = [tuple(bool(x) if x in (0, 1) and draw(st.booleans()) else x for x in g)
                  for g in subset]
        if draw(st.integers(0, 4)) == 0:
            subset.insert(draw(st.integers(0, len(subset))), (group.l, 0))
    return group, subset


def outcome(function, *args):
    try:
        return function(*args)
    except ConfigError as exc:
        return "ConfigError", str(exc)


@settings(max_examples=200, deadline=None)
@given(raw_connection_sets())
def test_array_index_pass_matches_the_list_spelling(case):
    """Deduplicating and sorting the indices in numpy, and splitting the
    layers with one ``np.divmod``, leaves the connection set, its
    witnesses, the layers and every ``ConfigError`` as they were."""
    group, subset = case
    assert outcome(classify_connection_set, group, subset) == outcome(
        classify_by_lists, group, subset)
    if isinstance(group, SplitExtensionGroup):
        layers = outcome(layers_from_set, group, subset)
        assert layers == outcome(layers_by_lists, group, subset)
        if isinstance(layers, list):
            assert all(type(b) is int for layer in layers for b in layer)


def test_edge_list_round_trip(tmp_path):
    group, conn = nonnormal_family(7, 3, 2)
    color = color_from_set(group, conn.elements)
    adj = adjacency_matrix(group, color)
    path = tmp_path / "edges.txt"
    export_edge_list(adj, path)
    text = path.read_text()
    assert text.startswith("# vertex v = h^(v div m) k^(v mod m)\n")
    assert len(text.splitlines()) == 1 + 21 * 8
    back = read_edge_list(path, 21)
    assert np.array_equal(back, adj.matrix)


def edge_list_by_loop(adjacency):
    """The element-by-element writer that export_edge_list replaced."""
    lines = [EDGE_LIST_HEADER]
    matrix = adjacency.matrix
    n = adjacency.n
    for i in range(n):
        for j in range(n):
            value = matrix[i, j]
            if value != 0:
                lines.append(f"{i} {j} {value.real:.15g} {value.imag:.15g}")
    return "\n".join(lines) + "\n"


def test_edge_list_equals_the_double_loop(tmp_path):
    group, conn = nonnormal_family(61, 10, 3)
    family = adjacency_matrix(group, color_from_set(group, conn.elements))
    rng = np.random.default_rng(7)
    dihedral = DihedralGroup(15)
    support = [g for g in dihedral.elements() if rng.random() < 0.4]
    weights = rng.normal(size=(len(support), 2)) * 10.0 ** rng.integers(-6, 7, size=(len(support), 1))
    weighted = adjacency_matrix(dihedral, ColorFunction(
        dihedral, {g: complex(*w) for g, w in zip(support, weights)}))
    # NaN counts as an edge, -0.0 does not
    special = np.array([[0, -0.0, complex(float("nan"), 0)],
                        [complex(-0.0, -0.0), 1e16 + 1 / 3j, complex(0, float("inf"))],
                        [0.1 + 0.2, 0, -1e-05]])
    odd = AdjacencyMatrix(matrix=special)
    path = tmp_path / "edges.txt"
    for adjacency in (family, weighted, odd):
        export_edge_list(adjacency, path)
        assert path.read_text(encoding="utf-8") == edge_list_by_loop(adjacency)
    assert path.read_text().count("\n") == 1 + 5


def test_edge_list_rejects_a_repeated_pair(tmp_path):
    # were both lines read, the second would overwrite the first
    path = tmp_path / "edges.txt"
    path.write_text(f"{EDGE_LIST_HEADER}\n0 1 1 0\n1 0 1 0\n0 1 5 0\n")
    with pytest.raises(ConfigError, match=r"edges\.txt:4: edge 0 1 repeats line 2"):
        read_edge_list(path, 2)
    path.write_text(f"{EDGE_LIST_HEADER}\n0 1 1 0\n1 0 1 0\n")
    assert read_edge_list(path, 2).tolist() == [[0, 1], [1, 0]]


def test_edge_list_read_checks_the_byte_budget(tmp_path, monkeypatch):
    from cayleyspec import CapacityExceeded
    from cayleyspec import groups as groups_module

    path = tmp_path / "edges.txt"
    path.write_text(f"{EDGE_LIST_HEADER}\n0 1 1 0\n")
    monkeypatch.setattr(groups_module, "DENSE_BYTE_BUDGET", 16 * 4 ** 2 - 1)
    with pytest.raises(CapacityExceeded, match=r"edge list of 4 vertices needs an estimated 256 bytes"):
        read_edge_list(path, 4)
    assert read_edge_list(path, 3)[0, 1] == 1


def test_edge_list_diagnostics(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 1\n")
    with pytest.raises(ConfigError, match=r"bad\.txt:1"):
        read_edge_list(path, 4)
    path.write_text("9 0 1 0\n")
    with pytest.raises(ConfigError, match="vertex"):
        read_edge_list(path, 4)
    for value in ("nan 0", "0 inf", "-inf 1", "1e999 0"):
        path.write_text(f"# header\n0 1 1 0\n1 0 {value}\n")
        with pytest.raises(ConfigError, match=r"bad\.txt:3: non-finite"):
            read_edge_list(path, 4)


def test_weighted_complex_colors():
    group = DihedralGroup(3)
    values = {(0, 1): 2j, (0, 2): -2j, (1, 0): 1.5 + 0j}
    color = ColorFunction(group, values)
    assert color.is_symmetric  # alpha(g) = conj(alpha(g^{-1}))
    assert not color.is_real
    adj = adjacency_matrix(group, color)
    assert adj.is_hermitian
    assert adj.matrix[0, group.index((0, 1))] == 2j
