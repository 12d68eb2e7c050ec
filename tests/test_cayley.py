import tracemalloc

import numpy as np
import pytest

from cayleyspec import (
    AdjacencyMatrix,
    ColorFunction,
    ConfigError,
    CyclicGroup,
    DihedralGroup,
    InvalidAction,
    MetacyclicGroup,
    adjacency_matrix,
    beta_blocks,
    classify_connection_set,
    color_from_set,
    export_edge_list,
    layers_from_set,
    nonnormal_family,
    read_edge_list,
)
from cayleyspec.cayley import EDGE_LIST_HEADER


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
    beta table holds no n^2 index array or second n^2 copy beside it."""
    group, conn = nonnormal_family(211, 10, 23)
    color = color_from_set(group, conn.elements)
    result_bytes = 16 * group.order ** 2
    tracemalloc.start()
    try:
        adjacency = adjacency_matrix(group, color)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert adjacency.matrix.nbytes == result_bytes
    assert peak <= 1.1 * result_bytes, peak / result_bytes


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
