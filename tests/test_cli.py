import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cayleyspec
from cayleyspec import DihedralGroup, MetacyclicGroup, irreps_cyclic
from cayleyspec.cli import main


def write_config(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def prism_config(tmp_path, **options):
    return write_config(tmp_path, {
        "group": {"type": "metacyclic", "m": 3, "l": 2, "r": 2},
        "connection": {"mode": "set",
                       "elements": [[0, 1], [0, 2], [1, 0]]},
        "options": options,
    })


def s4_config(tmp_path):
    # distinct value per conjugacy class
    from cayleyspec import PermutationGroup
    group = PermutationGroup(
        [(1, 0, 2, 3), (1, 2, 3, 0)],
        normal_generators=[(1, 2, 0, 3), (1, 0, 3, 2)],
        complement_generators=[(1, 0, 2, 3)],
    )
    entries = []
    for weight, cls in enumerate(group.conjugacy_classes(), start=1):
        for g in cls.members:
            entries.append({"element": list(g), "value": [weight, 0]})
    return write_config(tmp_path, {
        "group": {"type": "permutation",
                  "generators": [[1, 0, 2, 3], [1, 2, 3, 0]],
                  "normal_generators": [[1, 2, 0, 3], [1, 0, 3, 2]],
                  "complement_generators": [[1, 0, 2, 3]]},
        "connection": {"mode": "color", "entries": entries},
    })


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rounded_counts(multiset):
    return {(round(re, 9), round(im, 9)): count for re, im, count in multiset}


def test_spectrum_prism(tmp_path, capsys):
    config = prism_config(tmp_path)
    code, out, err = run(capsys, "spectrum", "--config", config)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["n"] == 6
    assert payload["method"] == "split"
    assert len(payload["lines"]) == 6
    assert rounded_counts(payload["multiset"]) == {
        (-2.0, 0.0): 2, (0.0, 0.0): 2, (1.0, 0.0): 1, (3.0, 0.0): 1,
    }
    assert "verification" not in payload
    assert all("eigenvectors" in line for line in payload["lines"])


def test_spectrum_without_eigenvectors(tmp_path, capsys):
    config = prism_config(tmp_path, eigenvectors=False)
    code, out, _ = run(capsys, "spectrum", "--config", config)
    assert code == 0
    payload = json.loads(out)
    assert all("eigenvectors" not in line for line in payload["lines"])


def test_verify_family(tmp_path, capsys):
    fam = str(tmp_path / "fam.json")
    code, out, err = run(capsys, "family", "--m", "7", "--l", "3", "--r", "2",
                         "--output", fam)
    assert code == 0
    config = json.loads(Path(fam).read_text())
    assert config["group"] == {"type": "metacyclic", "m": 7, "l": 3, "r": 2}
    assert config["connection"]["layers"] == [[1, 2, 3, 4, 5, 6], [0], [0]]

    code, out, err = run(capsys, "verify", "--config", fam)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["verification"]["passed"] is True
    assert payload["verification"]["complete"] is True
    assert rounded_counts(payload["multiset"]) == {
        (-2.0, 0.0): 12, (1.0, 0.0): 6, (5.0, 0.0): 2, (8.0, 0.0): 1,
    }


def test_family_rejects_bad_parameters(tmp_path, capsys):
    code, _, err = run(capsys, "family", "--m", "7", "--l", "3", "--r", "1")
    assert code == 4
    assert "1 < r < m" in err


def test_family_checks_the_order_before_building_the_group(capsys):
    """Order 20014 is over the capacity: refused at once, not after the
    connection set of a group twice the capacity is classified."""
    start = time.perf_counter()
    code, out, err = run(capsys, "family", "--m", "10007", "--l", "2", "--r", "10006")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (4, "")
    assert err == "error: group order 20014 exceeds capacity 10000\n"
    code, out, err = run(capsys, "family", "--m", "7", "--l", "0", "--r", "2")
    assert (code, out) == (4, "")
    assert err == "error: family needs 1 < r < m and l >= 1, got r=2, m=7, l=0\n"


MALFORMED_GROUPS = [
    ({"type": "cyclic", "n": 0}, "'n' must be an integer of at least 1, got 0"),
    ({"type": "dihedral", "n": -3}, "'n' must be an integer of at least 1, got -3"),
    ({"type": "metacyclic", "m": 0, "l": 2, "r": 1}, "'m' must be an integer of at least 1"),
    ({"type": "semidirect", "m": 0, "h": {"type": "cyclic", "n": 2}, "action": [1]},
     "'m' must be an integer of at least 1"),
    ({"type": "abelian", "orders": []}, "'orders' must be a non-empty list, got []"),
    ({"type": "abelian", "orders": [2, 0]}, "'orders[1]' must be an integer of at least 1"),
    ({"type": "abelian", "orders": [2.5, 3]}, "'orders[0]' must be an integer of at least 1"),
    ({"type": "abelian", "orders": [True, 3]}, "'orders[0]' must be an integer of at least 1"),
    ({"type": "semidirect", "m": 5, "h": {"type": "cyclic", "n": 2}, "action": [2.0]},
     "'action[0]' must be an integer, got 2.0"),
    ({"type": "semidirect", "m": 5, "h": {"type": "cyclic", "n": 2}, "action": ["2"]},
     "'action[0]' must be an integer, got '2'"),
    ({"type": "permutation", "generators": [5]},
     "'generators[0]' must be a non-empty list, got 5"),
    ({"type": "permutation", "generators": [[1, 0]], "normal_generators": 5,
      "complement_generators": []}, "'normal_generators' must be a list, got 5"),
]


@pytest.mark.parametrize("group, message", MALFORMED_GROUPS,
                         ids=[json.dumps(group) for group, _ in MALFORMED_GROUPS])
def test_malformed_group_sizes_are_config_errors(tmp_path, capsys, group, message):
    config = write_config(tmp_path, {"group": group,
                                     "connection": {"mode": "set", "elements": []}})
    code, out, err = run(capsys, "describe", "--config", config)
    assert (code, out) == (4, "")
    assert err.startswith(f"error: group field {message}") and err.count("\n") == 1


def test_deterministic_output(tmp_path, capsys):
    config = prism_config(tmp_path, verify=True)
    first = str(tmp_path / "a.json")
    second = str(tmp_path / "b.json")
    assert run(capsys, "verify", "--config", config, "--output", first)[0] == 0
    assert run(capsys, "verify", "--config", config, "--output", second)[0] == 0
    a = Path(first).read_bytes()
    b = Path(second).read_bytes()
    assert a == b
    assert b"\r" not in a


def test_check_hypotheses_exit_codes(tmp_path, capsys):
    code, out, _ = run(capsys, "check-hypotheses", "--config",
                       s4_config(tmp_path))
    assert code == 3
    payload = json.loads(out)
    assert payload["condition_a"] is False
    assert payload["passed"] is False
    triple = payload["witness_a"]["triple"]
    assert len(triple) == 3
    assert payload["witness_a"]["lhs_value"] != payload["witness_a"]["rhs_value"]

    config = prism_config(tmp_path)
    code, out, _ = run(capsys, "check-hypotheses", "--config", config)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_describe(tmp_path, capsys):
    config = prism_config(tmp_path)
    code, out, _ = run(capsys, "describe", "--config", config)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "metacyclic"
    assert payload["order"] == 6
    assert sorted(payload["class_sizes"]) == [1, 2, 3]
    assert payload["irrep_degrees"] == [1, 1, 2]
    assert payload["split"] == {"m": 3, "l": 2}
    assert payload["connection"]["inverse_closed"] is True
    assert payload["connection"]["generates"] is True


def test_builtin_degrees_equal_the_built_irreps():
    from test_kernel import every_kind

    from cayleyspec import IrrepsUnavailable, builtin_irreps
    from cayleyspec.irreps import builtin_degrees

    for group in every_kind() + [DihedralGroup(7), MetacyclicGroup(9, 3, 4)]:
        try:
            expect = builtin_irreps(group).degrees()
        except IrrepsUnavailable:
            with pytest.raises(IrrepsUnavailable):
                builtin_degrees(group)
            continue
        assert builtin_degrees(group) == expect, group


def test_describe_builds_no_irrep_matrices(tmp_path, capsys, monkeypatch):
    from cayleyspec import UnitaryIrrep

    def refuse(*args, **kwargs):
        raise AssertionError("describe built an irrep stack")

    monkeypatch.setattr(UnitaryIrrep, "_install", refuse)
    for group, degrees in (({"type": "cyclic", "n": 5}, [1] * 5),
                           ({"type": "dihedral", "n": 4}, [1, 1, 1, 1, 2]),
                           ({"type": "metacyclic", "m": 7, "l": 3, "r": 2}, [1, 1, 1, 3, 3])):
        config = write_config(tmp_path, {
            "group": group, "connection": {"mode": "set", "elements": []}})
        code, out, err = run(capsys, "describe", "--config", config)
        assert code == 0, err
        assert json.loads(out)["irrep_degrees"] == degrees


def test_csv_format(tmp_path, capsys):
    config = prism_config(tmp_path)
    code, out, _ = run(capsys, "spectrum", "--config", config,
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "u,v,re,im,multiplicity"
    assert len(lines) == 7
    assert lines[1].split(",") == ["0", "0", "3", "0", "1"]


def test_method_override_and_blocks(tmp_path, capsys):
    config = prism_config(tmp_path)
    code, out, _ = run(capsys, "spectrum", "--config", config,
                       "--method", "split")
    assert code == 0
    assert json.loads(out)["method"] == "split"

    code, out, _ = run(capsys, "spectrum", "--config", config,
                       "--method", "blocks")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "blocks"
    assert rounded_counts(payload["multiset"]) == {
        (-2.0, 0.0): 2, (0.0, 0.0): 2, (1.0, 0.0): 1, (3.0, 0.0): 1,
    }

    # degree-3 blocks admit no closed-form extraction
    big = write_config(tmp_path, {
        "group": {"type": "metacyclic", "m": 7, "l": 3, "r": 2},
        "connection": {"mode": "set", "elements": [[0, 1], [0, 2], [0, 4]]},
    }, name="deg3.json")
    code, _, err = run(capsys, "spectrum", "--config", big,
                       "--method", "blocks")
    assert code == 4
    assert "degree-3" in err


def test_no_method_for_nonclass_permutation_color(tmp_path, capsys):
    # one transposition out of a six-element class: not a class function,
    # and the group carries no distinguished split structure
    config = write_config(tmp_path, {
        "group": {"type": "permutation",
                  "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]},
        "connection": {"mode": "set", "elements": [[1, 0, 2, 3]]},
    })
    code, _, err = run(capsys, "spectrum", "--config", config)
    assert code == 4
    assert "no applicable" in err


def test_layers_mode(tmp_path, capsys):
    config = write_config(tmp_path, {
        "group": {"type": "metacyclic", "m": 7, "l": 3, "r": 2},
        "connection": {"mode": "layers",
                       "layers": [[1, 2, 3, 4, 5, 6], [0], [0]]},
        "options": {"verify": True, "eigenvectors": False},
    })
    code, out, err = run(capsys, "spectrum", "--config", config)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["method"] == "metacyclic"
    assert payload["verification"]["passed"] is True

    bad = write_config(tmp_path, {
        "group": {"type": "cyclic", "n": 6},
        "connection": {"mode": "layers", "layers": [[1, 5]]},
    }, name="bad.json")
    code, _, err = run(capsys, "spectrum", "--config", bad)
    assert code == 4
    assert "metacyclic" in err


def test_metacyclic_indicator_error_names_the_first_element_in_index_order(
        tmp_path, capsys):
    # entries listed out of canonical order: the message names the least
    # canonical index among the non-indicator values, not the first listed
    config = write_config(tmp_path, {
        "group": {"type": "metacyclic", "m": 7, "l": 3, "r": 2},
        "connection": {"mode": "color", "entries": [
            {"element": [2, 1], "value": [0.5, 0]},
            {"element": [1, 0], "value": [1.0, 0]},
            {"element": [0, 3], "value": [2.0, 0]}]},
    })
    code, out, err = run(capsys, "spectrum", "--config", config,
                         "--method", "metacyclic")
    assert (code, out) == (4, "")
    assert err == ("error: method 'metacyclic' needs an indicator color; "
                   "alpha([0, 3]) = (2+0j)\n")


@pytest.mark.parametrize("group, elements, n", [
    ({"type": "metacyclic", "m": 3, "l": 2, "r": 2}, [[0, 1], [0, 2], [1, 0]], 6),
    ({"type": "cyclic", "n": 10}, [1, 9], 10),
])
def test_export_graph_checks_the_byte_budget(tmp_path, capsys, monkeypatch, group, elements, n):
    """``export-graph`` forms the n x n adjacency, from the beta table or by
    a gather, only within the dense byte budget; over it, exit 4."""
    from cayleyspec import groups

    config = write_config(tmp_path, {"group": group,
                                     "connection": {"mode": "set", "elements": elements}})
    edges = tmp_path / "edges.txt"
    monkeypatch.setattr(groups, "DENSE_BYTE_BUDGET", 16 * n * n - 1)
    code, out, err = run(capsys, "export-graph", "--config", config, "--out", str(edges))
    assert code == 4 and out == "" and not edges.exists()
    assert err.startswith(f"error: the {n} x {n} adjacency needs an estimated {16 * n * n} bytes")
    assert "Traceback" not in err
    monkeypatch.setattr(groups, "DENSE_BYTE_BUDGET", 16 * n * n)
    code, _, err = run(capsys, "export-graph", "--config", config, "--out", str(edges))
    assert code == 0 and edges.exists(), err


def test_tampered_edges_fail_on_the_family610_config(tmp_path, capsys, monkeypatch):
    from cayleyspec import verify

    config = write_config(tmp_path, {
        "group": {"type": "metacyclic", "m": 61, "l": 10, "r": 3},
        "connection": {"mode": "layers",
                       "layers": [list(range(1, 61)), [0]] + [[]] * 7 + [[0]]},
        "options": {"verify": True, "eigenvectors": False},
    })
    edges = str(tmp_path / "edges.txt")
    code, _, _ = run(capsys, "export-graph", "--config", config, "--out", edges)
    assert code == 0
    paths = []
    structured = verify._structured_residuals

    def recorded(*args):
        paths.append("structured")
        return structured(*args)

    monkeypatch.setattr(verify, "_structured_residuals", recorded)
    code, out, err = run(capsys, "verify", "--config", config, "--edges", edges)
    assert code == 0, err
    assert json.loads(out)["verification"]["passed"] is True
    # an edge list is a dense adjacency: it is certified on the dense path
    assert paths == []

    # one tampered weight fails certification
    lines = Path(edges).read_text().splitlines()
    lines[1] = lines[1].rsplit(" ", 2)[0] + " 0.5 0"
    Path(edges).write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "--config", config, "--edges", edges)
    assert code == 2
    assert json.loads(out)["verification"]["passed"] is False
    assert paths == []


def test_export_and_reingest(tmp_path, capsys):
    config = prism_config(tmp_path)
    edges = str(tmp_path / "edges.txt")
    code, _, _ = run(capsys, "export-graph", "--config", config, "--out", edges)
    assert code == 0
    code, out, err = run(capsys, "verify", "--config", config,
                         "--edges", edges)
    assert code == 0, err
    assert json.loads(out)["verification"]["passed"] is True

    # tamper with one edge weight: certification must fail
    lines = Path(edges).read_text().splitlines()
    lines[1] = lines[1].rsplit(" ", 2)[0] + " 0.5 0"
    Path(edges).write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "--config", config, "--edges", edges)
    assert code == 2
    assert json.loads(out)["verification"]["passed"] is False


def test_config_diagnostics(tmp_path, capsys):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text('{"group": }', encoding="utf-8")
    code, _, err = run(capsys, "describe", "--config", str(bad_json))
    assert code == 4
    assert "line 1" in err

    cases = [
        ({"connection": {"mode": "set", "elements": [1]}},
         "needs a 'group'"),
        ({"group": {"type": "cyclic", "n": 6}}, "connection"),
        ({"group": {"type": "cyclic", "n": 6},
          "connection": {"mode": "ring", "elements": [1]}}, "mode"),
        ({"group": {"type": "cyclic", "n": 6},
          "connection": {"mode": "set", "elements": [1], "layers": []}},
         "stray"),
        ({"group": {"type": "cyclic", "n": 6},
          "connection": {"mode": "set", "elements": [[0, 1]]}},
         "elements[0]"),
        ({"group": {"type": "cyclic", "n": 6},
          "connection": {"mode": "set", "elements": [1]},
          "options": {"tolerance": -1}}, "tolerance"),
        ({"group": {"type": "cyclic", "n": 6},
          "connection": {"mode": "set", "elements": [1]},
          "options": {"speed": 9}}, "unknown option"),
        ({"group": {"type": "metacyclic", "m": 7, "l": 3, "r": 2},
          "connection": {"mode": "layers", "layers": [[1], [0]]}},
         "3 layers"),
        ({"group": {"type": "cyclic", "n": 6},
          "connection": {"mode": "color",
                         "entries": [{"element": 1, "value": [1]}]}},
         "re, im"),
        ({"group": {"type": "cyclic", "n": 6},
          "connection": {"mode": "color",
                         "entries": [{"element": 1, "value": [float("inf"), 0]}]}},
         "finite"),
    ]
    for payload, needle in cases:
        config = write_config(tmp_path, payload, name="case.json")
        code, _, err = run(capsys, "describe" if "options" not in payload
                           else "spectrum", "--config", config)
        assert code == 4, payload
        assert needle in err, (payload, err)


def test_user_irrep_tables(tmp_path, capsys):
    base = irreps_cyclic(3)
    tables = []
    for rho in base:
        matrices = {
            str(g): [[float(rho.matrix(g)[0, 0].real),
                      float(rho.matrix(g)[0, 0].imag)]]
            for g in range(3)
        }
        tables.append({"label": rho.label, "degree": 1, "matrices": matrices})
    config = write_config(tmp_path, {
        "group": {"type": "cyclic", "n": 3},
        "connection": {"mode": "set", "elements": [1, 2]},
        "irreps": tables,
    })
    code, out, err = run(capsys, "verify", "--config", config)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["method"] == "normal"
    assert payload["verification"]["passed"] is True

    # break the homomorphism: validation rejects the table
    tables[1]["matrices"]["1"] = [[5.0, 0.0]]
    config = write_config(tmp_path, {
        "group": {"type": "cyclic", "n": 3},
        "connection": {"mode": "set", "elements": [1, 2]},
        "irreps": tables,
    }, name="bad_irreps.json")
    code, _, err = run(capsys, "verify", "--config", config)
    assert code == 4
    assert "unitarity" in err or "homomorphism" in err


def run_module(*argv):
    """``python -m cayleyspec ARGV...`` in a child process, output as bytes."""
    # the child imports the package these tests import, also when pytest
    # put it on sys.path itself (pyproject's pythonpath) rather than PYTHONPATH
    source = os.path.dirname(os.path.dirname(cayleyspec.__file__))
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cayleyspec", *argv],
        capture_output=True, env=dict(os.environ, PYTHONPATH=path), check=False,
    )


def test_module_entry_point(tmp_path):
    proc = run_module("spectrum", "--config", prism_config(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n"] == 6


def test_output_bytes_repeat_across_processes_and_destinations(tmp_path, capsys):
    config = str(tmp_path / "family155.json")
    assert run(capsys, "family", "--m", "31", "--l", "5", "--r", "2",
               "--output", config)[0] == 0
    first, second = (run_module("verify", "--config", config) for _ in range(2))
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr == b""
    assert json.loads(first.stdout)["verification"]["passed"] is True
    for command, stdout in (("verify", first.stdout),
                            ("spectrum", run_module("spectrum", "--config", config).stdout)):
        target = tmp_path / f"{command}.json"
        proc = run_module(command, "--config", config, "--output", str(target))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert target.read_bytes() == stdout, command


@pytest.mark.parametrize("value", [True, 1, [1], ""])
def test_export_graph_must_be_null_or_a_path(tmp_path, value):
    # run in a child: an integer once reached open() as a file descriptor
    # and closed the process's stdout
    proc = run_module("verify", "--config", prism_config(tmp_path, export_graph=value))
    assert (proc.returncode, proc.stdout) == (4, b"")
    assert proc.stderr == (b"error: options.export_graph must be null or a "
                           b"non-empty path\n")


def test_verify_and_export_build_the_adjacency_once(tmp_path, capsys, monkeypatch):
    from cayleyspec import cayley

    builds = []
    original = cayley.adjacency_matrix

    def counted(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cayley, "adjacency_matrix", counted)
    exported = tmp_path / "exported.txt"
    config = prism_config(tmp_path, export_graph=str(exported))
    code, out, err = run(capsys, "verify", "--config", config)
    assert code == 0, err
    assert len(builds) == 1
    group, color = builds[0]
    expect = original(group, color).matrix
    assert np.array_equal(cayley.read_edge_list(exported, 6), expect)

    # with --edges the certified matrix comes from the file; the export is
    # still built from the group
    edges = tmp_path / "edges.txt"
    lines = exported.read_text().splitlines()
    lines[1] = lines[1].rsplit(" ", 2)[0] + " 0.5 0"
    edges.write_text("\n".join(lines) + "\n")
    exported.unlink()
    builds.clear()
    code, out, _ = run(capsys, "verify", "--config", config, "--edges", str(edges))
    assert code == 2
    assert len(builds) == 1
    assert np.array_equal(cayley.read_edge_list(exported, 6), expect)


def test_non_finite_tolerance_is_a_config_error(tmp_path, capsys):
    for raw in ("1e999", "NaN", "Infinity", "-Infinity"):
        path = tmp_path / "tol.json"
        path.write_text(
            '{"group": {"type": "cyclic", "n": 5}, '
            '"connection": {"mode": "set", "elements": [1, 4]}, '
            f'"options": {{"tolerance": {raw}}}}}', encoding="utf-8")
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert code == 4, raw
        assert "options.tolerance" in err and out == ""


def test_non_finite_edge_weight_is_rejected(tmp_path, capsys):
    config = write_config(tmp_path, {
        "group": {"type": "cyclic", "n": 5},
        "connection": {"mode": "set", "elements": [1, 4]},
    })
    edges = str(tmp_path / "edges.txt")
    assert run(capsys, "export-graph", "--config", config, "--out", edges)[0] == 0
    lines = Path(edges).read_text().splitlines()
    lines[2] = lines[2].rsplit(" ", 2)[0] + " nan 0"
    Path(edges).write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", "--config", config, "--edges", edges)
    assert code == 4 and out == ""
    assert "edges.txt:3" in err and "non-finite" in err


@pytest.mark.parametrize("entry", [["1", 0], [True, 0], [0, float("nan")],
                                   [float("inf"), 0], [10 ** 400, 0]])
def test_malformed_irrep_table_entries(tmp_path, capsys, entry):
    tables = [
        {"label": rho.label, "degree": 1, "matrices": {
            str(g): [[rho.character(g).real, rho.character(g).imag]] for g in range(3)}}
        for rho in irreps_cyclic(3)
    ]
    tables[1]["matrices"]["2"] = [entry]
    path = tmp_path / "tables.json"
    path.write_text(json.dumps({
        "group": {"type": "cyclic", "n": 3},
        "connection": {"mode": "set", "elements": [1, 2]},
        "irreps": tables,
    }), encoding="utf-8")
    code, _, err = run(capsys, "spectrum", "--config", str(path))
    assert code == 4
    assert "irreps[1].matrices[2]" in err


def c3_tables():
    return [
        {"label": rho.label, "degree": 1, "matrices": {
            str(g): [[rho.character(g).real, rho.character(g).imag]] for g in range(3)}}
        for rho in irreps_cyclic(3)
    ]


@pytest.mark.parametrize("spelling", ["01", " 1", "1 ", "+1", "0_1", "\u0661"])
def test_irrep_table_index_spelled_twice(tmp_path, capsys, spelling):
    # a bad entry for index 1, then the valid one under another spelling
    # that int() also reads as 1; were both read, the last would win
    tables = c3_tables()
    valid = tables[1]["matrices"].pop("1")
    tables[1]["matrices"]["1"] = [[5.0, 5.0]]
    tables[1]["matrices"][spelling] = valid
    config = write_config(tmp_path, {
        "group": {"type": "cyclic", "n": 3},
        "connection": {"mode": "set", "elements": [1, 2]},
        "irreps": tables,
    })
    code, out, err = run(capsys, "spectrum", "--config", config)
    assert code == 4 and out == ""
    assert f"irreps[1].matrices key {spelling!r} is not an element index" in err


def test_config_key_named_twice(tmp_path, capsys):
    tables = c3_tables()
    table = json.dumps(tables[1])
    valid = json.dumps(tables[1]["matrices"]["1"])
    doubled = table.replace('"1": ' + valid, '"1": [[5.0, 5.0]], "1": ' + valid)
    assert doubled != table
    path = tmp_path / "job.json"
    path.write_text(
        '{"group": {"type": "cyclic", "n": 3}, '
        '"connection": {"mode": "set", "elements": [1, 2]}, '
        f'"irreps": [{json.dumps(tables[0])}, {doubled}, {json.dumps(tables[2])}]}}',
        encoding="utf-8")
    code, out, err = run(capsys, "spectrum", "--config", str(path))
    assert code == 4 and out == ""
    assert "job.json: key '1' appears twice in one object" in err


def test_blocks_method_capacity(tmp_path, capsys):
    config = write_config(tmp_path, {
        "group": {"type": "cyclic", "n": 600},
        "connection": {"mode": "set", "elements": [1, 599]},
    })
    code, out, err = run(capsys, "spectrum", "--config", config, "--method", "blocks")
    assert code == 4 and out == ""
    assert "600 exceeds 500" in err


def test_oversized_dense_jobs_fail_before_any_computation(tmp_path, capsys, monkeypatch):
    """Certifying the n = 9081 family against an edge list, or the normal
    route on C10000, would hold GBs of dense arrays: both stop at the
    estimate, before the spectrum is computed."""
    from cayleyspec import cli

    def refuse(*args):
        raise AssertionError("the spectrum was computed")

    monkeypatch.setattr(cli, "_compute_spectrum", refuse)
    family = write_config(tmp_path, {
        "group": {"type": "metacyclic", "m": 1009, "l": 9, "r": 337},
        "connection": {"mode": "layers", "layers": [[1]] + [[]] * 8},
        "options": {"eigenvectors": False}}, name="family.json")
    cyclic = write_config(tmp_path, {
        "group": {"type": "cyclic", "n": 10000},
        "connection": {"mode": "set", "elements": [1, 9999]},
        "options": {"eigenvectors": False}}, name="cyclic.json")
    n = 9081
    # the edge list and the real part of the matrix read
    for argv, estimate in ((["--config", family, "--edges", "none.txt"], (16 + 8) * n * n),
                           (["--config", cyclic], 72 * 10000 ** 2)):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 4 and out == ""
        assert err == (f"error: this verify job needs an estimated {estimate} bytes of "
                       "dense arrays, over the budget of 1073741824 bytes\n")


def test_describe_reports_the_dense_estimate(tmp_path, capsys):
    family = write_config(tmp_path, {
        "group": {"type": "metacyclic", "m": 61, "l": 10, "r": 3},
        "connection": {"mode": "layers", "layers": [[1]] + [[]] * 9}}, name="family.json")
    cyclic = write_config(tmp_path, {
        "group": {"type": "cyclic", "n": 6},
        "connection": {"mode": "set", "elements": [1, 5]},
        "options": {"format": "csv"}}, name="cyclic.json")
    square = lambda n: 16 * n * n
    for config, expect in (
            # vectors written as JSON: the factors' rows and np.unique's arrays;
            # certification on the beta table holds none
            (family, {"spectrum": 3 * square(610), "verify": 3 * square(610)}),
            # irrep stacks and the P matrix; verify adds the adjacency and its real part
            (cyclic, {"spectrum": 3 * square(6), "verify": 4.5 * square(6)})):
        code, out, _ = run(capsys, "describe", "--config", config)
        assert code == 0
        assert json.loads(out)["dense_bytes"] == expect
    # no route applies to a non-class color on S4
    s4 = json.loads(Path(s4_config(tmp_path)).read_text())
    s4["connection"]["entries"] = [{"element": [1, 0, 2, 3], "value": [1, 0]}]
    code, out, _ = run(capsys, "describe", "--config", write_config(tmp_path, s4))
    assert code == 0 and json.loads(out)["dense_bytes"] is None
