"""Interned groups and the per-group memo.

The library shares one instance per group signature among the groups it
builds for itself, and keeps a few read-only products on it.  Nothing a
caller sees may depend on whether they were built fresh or found warm;
``conftest.py`` clears both before every test, so no test reads what an
earlier one built.
"""

import gc
import json
import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cayleyspec import (
    CyclicGroup,
    DihedralGroup,
    IrrepSet,
    IrrepsUnavailable,
    MetacyclicGroup,
    SplitExtensionGroup,
    adjacency_matrix,
    beta_blocks,
    build_p_matrix,
    builtin_irreps,
    certify,
    classify_connection_set,
    cli,
    construct_group,
    irreps_cyclic,
    irreps_metacyclic,
    is_generating_set,
    nonnormal_family,
    spectrum_metacyclic,
    spectrum_normal,
    spectrum_split,
)
from cayleyspec import groups as groups_module
from cayleyspec.cayley import ColorFunction
from cayleyspec.errors import ConfigError
from cayleyspec.irreps import builtin_degrees
from test_kernel import class_color_values, dense_beta_index, groups_strategy


def config_of(group) -> dict:
    """The ``construct_group`` description of a group built by its class."""
    kind = group.signature()[0]
    if kind == "cyclic":
        return {"type": "cyclic", "n": group.m}
    if kind == "abelian":
        return {"type": "abelian", "orders": list(group.orders)}
    if kind == "dihedral":
        return {"type": "dihedral", "n": group.n}
    if kind == "metacyclic":
        return {"type": "metacyclic", "m": group.m, "l": group.l, "r": group.r}
    if kind == "semidirect":
        return {"type": "semidirect", "m": group.m, "h": config_of(group.h_group),
                "action": list(group.generator_images)}
    return {"type": "permutation", "generators": [list(g) for g in group.generators]}


def encoded(g):
    return list(g) if isinstance(g, tuple) else g


def spectrum_bytes(spectrum, adjacency, color) -> tuple:
    report = certify(adjacency, spectrum, color)
    return (spectrum.method, spectrum.theorem_verified, spectrum.eigenvalues.tobytes(),
            spectrum.multiplicities.tobytes(), spectrum.u.tobytes(),
            None if spectrum.v is None else spectrum.v.tobytes(),
            spectrum.vector_rows(0, spectrum.vector_count()).tobytes(), repr(report))


def library_outputs(config: dict, picks: list, weights: list, layer_picks: list) -> list:
    """Every route that applies, on a group built from ``config``, with
    the bytes of its spectrum and of its certificate."""
    group = construct_group(config)
    elems = group.elements()
    color = ColorFunction(group, {elems[i]: w for i, w in zip(picks, weights)})
    adjacency = adjacency_matrix(group, color)
    out = []
    try:
        irrep_set = builtin_irreps(group)
    except IrrepsUnavailable:
        irrep_set = None
    if irrep_set is not None:
        class_color = ColorFunction(group, class_color_values(group, random.Random(len(picks))))
        out.append(spectrum_bytes(spectrum_normal(group, class_color, irrep_set),
                                  adjacency_matrix(group, class_color), class_color))
    if isinstance(group, SplitExtensionGroup):
        try:
            irreps_h = builtin_irreps(group.h_group)
        except IrrepsUnavailable:
            irreps_h = None
        if irreps_h is not None:
            spectrum = spectrum_split(group, color, irreps_h, irreps_cyclic(group.m), force=True)
            out.append(spectrum_bytes(spectrum, adjacency, color))
    if isinstance(group, MetacyclicGroup):
        # layers that are unions of K-orbits are closed under s -> r s
        labels = group._k_orbit_labels
        layers = [[s for s in range(group.m) if labels[s] in chosen] for chosen in layer_picks]
        spectrum = spectrum_metacyclic(group.m, group.l, group.r, layers)
        indicator = ColorFunction(group, {(t, s): 1 for t, layer in enumerate(layers)
                                          for s in layer})
        out.append(spectrum_bytes(spectrum, adjacency_matrix(group, indicator), indicator))
    return out


def cli_outputs(config: dict, elements: list) -> list:
    """The exit code and the bytes of ``describe`` and ``verify``."""
    job = {"group": config, "connection": {"mode": "set", "elements": elements},
           "options": {"eigenvectors": True}}
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(job), encoding="utf-8")
        for command in ("describe", "verify"):
            result = Path(tmp) / f"{command}.json"
            code = cli.main([command, "--config", str(path), "--output", str(result)])
            out.append((command, code, result.read_bytes() if result.exists() else None))
    return out


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy(), st.data())
def test_outputs_are_bit_identical_with_a_warm_and_a_cleared_cache(group, data):
    config = config_of(group)
    n = group.order
    picks = data.draw(st.lists(st.integers(0, n - 1), max_size=6, unique=True))
    weights = data.draw(st.lists(st.sampled_from([1, -1, 2.5, 1j, 0.25 - 3j]),
                                 min_size=len(picks), max_size=len(picks)))
    l = getattr(group, "l", 1)
    layer_picks = [set(data.draw(st.lists(st.integers(0, getattr(group, "m", 1) - 1),
                                          max_size=3))) for _ in range(l)]
    elements = [encoded(group.elements()[i]) for i in picks]

    def everything():
        return (library_outputs(config, picks, weights, layer_picks),
                cli_outputs(config, elements))

    groups_module._clear_interned()
    cold = everything()
    warm = everything()
    assert warm == cold
    groups_module._clear_interned()
    assert everything() == cold


def test_library_constructions_share_one_group():
    config = {"type": "metacyclic", "m": 7, "l": 3, "r": 2}
    group = construct_group(config)
    assert construct_group(dict(config)) is group
    assert nonnormal_family(7, 3, 2)[0] is group
    assert irreps_metacyclic(7, 3, 2).group is group
    assert irreps_cyclic(7).group is construct_group({"type": "cyclic", "n": 7})
    # a semidirect description shares its complement with the plain one
    semi = construct_group({"type": "semidirect", "m": 7, "h": {"type": "cyclic", "n": 3},
                            "action": [2]})
    assert semi.h_group is construct_group({"type": "cyclic", "n": 3})
    # a group built by its class is never interned
    assert MetacyclicGroup(7, 3, 2) is not group
    assert CyclicGroup(7) is not CyclicGroup(7)
    assert MetacyclicGroup(7, 3, 2)._memo is None


@pytest.mark.parametrize("cached, malformed", [
    ({"type": "cyclic", "n": 1}, {"type": "cyclic", "n": True}),
    ({"type": "cyclic", "n": 6}, {"type": "cyclic", "n": 6.0}),
    ({"type": "dihedral", "n": 1}, {"type": "dihedral", "n": True}),
    ({"type": "abelian", "orders": [2, 1]}, {"type": "abelian", "orders": [2, True]}),
    ({"type": "metacyclic", "m": 7, "l": 3, "r": 2},
     {"type": "metacyclic", "m": 7, "l": 3, "r": 2.0}),
    ({"type": "metacyclic", "m": 7, "l": 1, "r": 1},
     {"type": "metacyclic", "m": 7, "l": True, "r": 1}),
    ({"type": "semidirect", "m": 7, "h": {"type": "cyclic", "n": 3}, "action": [2]},
     {"type": "semidirect", "m": 7, "h": {"type": "cyclic", "n": 3}, "action": [2.0]}),
], ids=["cyclic bool", "cyclic float", "dihedral bool", "abelian bool", "metacyclic float",
        "metacyclic bool", "semidirect float"])
def test_a_malformed_field_is_refused_after_an_equal_group_is_cached(cached, malformed):
    """A raw key would take True for 1 and 6.0 for 6: the description is
    checked before the cache is read."""
    construct_group(cached)
    with pytest.raises(ConfigError, match="must be an integer"):
        construct_group(malformed)


def test_memoized_products_are_read_only_and_built_once():
    """Every product a memo keeps is read-only and within ``_BLOCK_BYTES``,
    and each lives in the memo of its own group: the beta index table,
    the grid pairs and the certified claim in G's, the irreps of C_31 in
    C_31's, and the irreps of H = C_5 and their P matrix in C_5's.  The K
    rows are the characters of C_31 times sqrt(1/31), formed afresh by
    each spectrum with the same bits."""
    group, connection = nonnormal_family(31, 5, 2)
    color = ColorFunction(group, {g: 1 for g in connection.elements})
    layers = [[] for _ in range(5)]
    for a, b in connection.elements:
        layers[a].append(b)
    first = spectrum_metacyclic(31, 5, 2, layers)
    second = spectrum_metacyclic(31, 5, 2, layers)
    for name in ("h_rows", "k_rows", "pairs"):
        shared, other = getattr(first.factors, name), getattr(second.factors, name)
        # H's rows are a transposed view of its P matrix
        assert np.shares_memory(other, shared) is (name != "k_rows")
        assert other.tobytes() == shared.tobytes()
        assert not shared.flags.writeable
    adjacency = adjacency_matrix(group, color)
    assert adjacency_matrix(group, color).blocks.beta_values.flags.writeable is False
    assert certify(adjacency, first, color).structured
    irreps_k = irreps_cyclic(31)
    assert irreps_cyclic(31) is irreps_k
    irreps_h = builtin_irreps(group.h_group)
    p_h = build_p_matrix(group.h_group, irreps_h)
    assert build_p_matrix(group.h_group, builtin_irreps(group.h_group)) is p_h
    memos = {"G": group._memo, "C_31": irreps_k.group._memo, "C_5": irreps_h.group._memo}
    assert {name: sorted(str(key[0]) if isinstance(key, tuple) else key for key in memo)
            for name, memo in memos.items()} == {
        "G": ["beta_index", "claim", "pairs"], "C_31": ["irreps"], "C_5": ["irreps", "p_matrix"]}
    for value in (value for memo in memos.values() for value in memo.values()):
        arrays = ([value.matrix] if hasattr(value, "matrix") else
                  [value.characters, *value.stacks.values()] if hasattr(value, "stacks")
                  else [*value.copies, *value.rows[:3]] if hasattr(value, "copies")
                  else [value.columns, value.index] if hasattr(value, "index")
                  else [value])
        for array in arrays:
            assert not array.flags.writeable
            assert array.nbytes <= groups_module._BLOCK_BYTES
            with pytest.raises(ValueError):
                array.reshape(-1)[:1] = 0


def test_the_beta_index_takes_one_memo_slot():
    """Colors on other coset sets replace their group's one beta index
    entry, through its ``holds`` test, and each table still equals the
    dense gather; a set seen before is rebuilt with the same bits."""
    group = construct_group({"type": "metacyclic", "m": 7, "l": 3, "r": 2})
    tables = []
    for support in ([(0, 1)], [(1, 0), (2, 0)], [(0, 1), (1, 3), (2, 5)], [(0, 1)], []):
        color = ColorFunction(group, {g: 1.0 for g in support})
        blocks = beta_blocks(group, color)
        assert blocks.beta_values.tobytes() == color.vector[dense_beta_index(group)].tobytes()
        assert [key for key in group._memo if "beta" in str(key)] == ["beta_index"]
        kept = group._memo["beta_index"]
        assert kept.columns is blocks.columns
        assert kept.columns[0].tolist() == sorted({a for a, _ in support})
        tables.append(blocks)
    assert tables[3].columns.tobytes() == tables[0].columns.tobytes()
    assert tables[4].values.shape == (3, 0, 7)


BUILT_IN_KINDS = [
    {"type": "cyclic", "n": 12},
    {"type": "abelian", "orders": [2, 3, 4]},
    {"type": "dihedral", "n": 7},
    {"type": "dihedral", "n": 2},
    {"type": "metacyclic", "m": 7, "l": 3, "r": 2},
    {"type": "semidirect", "m": 9, "h": {"type": "cyclic", "n": 6}, "action": [2]},
]


@pytest.mark.parametrize("config", BUILT_IN_KINDS,
                         ids=[f"{c['type']}-{i}" for i, c in enumerate(BUILT_IN_KINDS)])
def test_built_in_irreps_live_on_the_interned_group(config):
    """Each kind's built-in irreps are made on the very group
    ``construct_group`` returns, so the set and its P matrix share that
    group's memo: a second call finds both."""
    group = construct_group(config)
    irrep_set = builtin_irreps(group)
    assert irrep_set.group is construct_group(dict(config)) is group
    assert builtin_irreps(construct_group(dict(config))) is irrep_set
    p_matrix = build_p_matrix(group, irrep_set)
    assert group._memo["p_matrix"] is p_matrix
    assert build_p_matrix(group, builtin_irreps(group)) is p_matrix


@pytest.mark.parametrize("config", [BUILT_IN_KINDS[2], BUILT_IN_KINDS[4]],
                         ids=["dihedral", "metacyclic"])
def test_a_user_table_leaves_the_memo_unchanged(config):
    """A user table over an interned group never reads or writes its
    memo: its P matrix is built from its own stacks on every call, even
    when the built-in set's P matrix is kept, and the memo holds the same
    products afterwards."""
    group = construct_group(config)
    builtin = builtin_irreps(group)
    kept = build_p_matrix(group, builtin)
    # the same irreps, listed in reverse, as the user's own table
    user = IrrepSet(group, list(reversed(builtin.irreps)))
    before = dict(group._memo)
    first = build_p_matrix(group, user)
    assert dict(group._memo) == before
    assert all(group._memo[key] is value for key, value in before.items())
    assert first is not kept and build_p_matrix(group, user) is not first
    assert first.column_labels == tuple(
        (rho.label, i, j) for rho in user for j in range(rho.degree) for i in range(rho.degree))
    squares = np.square(user.degrees())
    offsets = np.cumsum(squares) - squares
    for k, rho in enumerate(user):
        d = rho.degree
        columns = first.matrix[:, offsets[k]:offsets[k] + d * d]
        expected = (rho.stack * np.sqrt(d / group.order)).transpose(0, 2, 1).reshape(group.order, -1)
        assert np.array_equal(columns, expected)


def test_products_over_the_block_budget_are_not_kept():
    """A memo keeps only products of at most ``_BLOCK_BYTES``: C_800's
    irreps (16 * 800 * 1600 bytes) are built on every call."""
    first = irreps_cyclic(800)
    assert irreps_cyclic(800) is not first
    assert irreps_cyclic(800).group is first.group
    assert "irreps" not in first.group._memo
    small = irreps_cyclic(8)
    assert irreps_cyclic(8) is small


def test_only_a_few_groups_are_held():
    built = [construct_group({"type": "cyclic", "n": n}) for n in range(1, 41)]
    assert len(groups_module._held) == groups_module._INTERN_HELD
    assert list(groups_module._held.values()) == built[-groups_module._INTERN_HELD:]
    del built
    gc.collect()
    assert len(groups_module._interned) == groups_module._INTERN_HELD


def test_a_large_complement_is_held_without_a_table():
    """C_1 x| C_2048 multiplies through C_2048's own arithmetic: classifying
    {h, h^-1} peaks far below the 8 l^2 bytes (34 MB) an l x l complement
    table would take, and the group is held like any other, retaining
    only arrays of O(l) entries after its caller drops it."""
    l = 2048
    config = {"type": "semidirect", "m": 1, "h": {"type": "cyclic", "n": l},
              "action": [0]}
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = construct_group(config)
        connection = classify_connection_set(group, [(1, 0), (l - 1, 0)])
        peak = tracemalloc.get_traced_memory()[1] - before
        assert (connection.generates, connection.closure_size) == (True, l)
        assert connection.inverse_closed and connection.conjugation_closed
        del group, connection
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * l ** 2 // 16, peak
    assert retained <= groups_module._BLOCK_BYTES // 2, retained
    assert [group.signature() for group in groups_module._held.values()] == [
        ("cyclic", l), ("semidirect", 1, ("cyclic", l), (0,))]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_strategy())
def test_describe_never_counts_less_than_the_built_in_irreps(group):
    """On a route that builds the group's own irreps, ``describe``'s
    estimate is at least the one the built-in irreps refuse on."""
    try:
        count = len(builtin_degrees(group))
    except IrrepsUnavailable:
        return
    config = {"group": config_of(group), "connection": {"mode": "set", "elements": []},
              "options": {"eigenvectors": False}}
    n = group.order
    with tempfile.TemporaryDirectory() as tmp:
        path, result = Path(tmp) / "job.json", Path(tmp) / "out.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["describe", "--config", str(path), "--output", str(result)]) == 0
        dense = json.loads(result.read_text())["dense_bytes"]
    job = cli.Job(config)
    for method in ("normal", "blocks"):
        for verify in (False, True):
            assert cli._dense_bytes(job, method, verify, False, False) >= 16 * n * (n + count)
    if cli._choose_method(job, None) == "normal":
        assert dense["spectrum"] >= 16 * n * (n + count)


def test_d5000_describe_counts_the_character_table():
    """The dihedral class route of order 10 000 counts 16 n (n + 2503)."""
    job = cli.Job({"group": {"type": "dihedral", "n": 5000},
                   "connection": {"mode": "set", "elements": []},
                   "options": {"eigenvectors": False}})
    assert cli._dense_bytes(job, "normal", False, False, False) == 16 * 10000 * (10000 + 2503)
    assert len(builtin_degrees(DihedralGroup(5000))) == 2503
