"""The streaming spectrum writer against the json.dumps document it replaced."""

import json

import numpy as np
import pytest

from cayleyspec import DihedralGroup, cayley, cli, irreps_cyclic, verify
from cayleyspec.spectra import SpectralLines, Spectrum


def oracle(spectrum, include_vectors, verification=None):
    """The document as json.dumps wrote it from nested [re, im] lists:
    when the spectrum claims vectors, each line lists the next
    ``multiplicity`` of them, read through ``Spectrum.vector_rows``."""
    payload = cli._spectrum_payload(spectrum, verification)
    if include_vectors and (spectrum.vectors is not None or spectrum.factors is not None):
        offset = 0
        for entry, line in zip(payload["lines"], spectrum.lines):
            entry["eigenvectors"] = [
                [cli._pair(z) for z in row]
                for row in spectrum.vector_rows(offset, offset + line.multiplicity)
            ]
            offset += line.multiplicity
    return json.dumps(payload, indent=2) + "\n"


def written(spectrum, include_vectors, verification=None):
    return "".join(cli._spectrum_json(spectrum, include_vectors, verification))


def cyclic3_tables():
    return [
        {"label": rho.label, "degree": 1, "matrices": {
            str(g): [[rho.character(g).real, rho.character(g).imag]] for g in range(3)}}
        for rho in irreps_cyclic(3)
    ]


D3 = DihedralGroup(3)
PRISM = {"group": {"type": "metacyclic", "m": 3, "l": 2, "r": 2},
         "connection": {"mode": "set", "elements": [[0, 1], [0, 2], [1, 0]]}}

# (config, requested method): every route the spectrum command can take
ROUTES = {
    "normal_builtin": ({
        "group": {"type": "dihedral", "n": 5},
        "connection": {"mode": "set", "elements": [
            [0, 1], [0, 4], [1, 0], [1, 1], [1, 2], [1, 3], [1, 4]]},
    }, None),
    "normal_user_irreps": ({
        "group": {"type": "cyclic", "n": 3},
        "connection": {"mode": "set", "elements": [1, 2]},
        "irreps": cyclic3_tables(),
    }, None),
    "split": (PRISM, None),
    "split_semidirect": ({
        "group": {"type": "semidirect", "m": 7,
                  "h": {"type": "dihedral", "n": 3}, "action": [6, 1]},
        "connection": {"mode": "set", "elements": (
            [[0, b] for b in range(1, 7)]
            + [[D3.index(h), 0] for h in D3.elements() if h[0] == 1])},
    }, None),
    "metacyclic": ({
        "group": {"type": "metacyclic", "m": 7, "l": 3, "r": 2},
        "connection": {"mode": "layers", "layers": [[1, 2, 3, 4, 5, 6], [0], [0]]},
    }, None),
    "blocks": (PRISM, "blocks"),
    "order_1": ({"group": {"type": "cyclic", "n": 1},
                 "connection": {"mode": "set", "elements": [0]}}, None),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_writes_the_encoder_bytes(route):
    config, requested = ROUTES[route]
    job = cli.Job(config)
    method = cli._choose_method(job, requested)
    spectrum = cli._compute_spectrum(job, method, True)
    assert spectrum.method == method
    reports = [None]
    if method != "blocks":
        adjacency = cayley.adjacency_matrix(job.group, job.color)
        reports.append(verify.certify(adjacency, spectrum, job.color, tol=1e-9))
    for include_vectors in (True, False):
        for report in reports:
            assert (written(spectrum, include_vectors, report)
                    == oracle(spectrum, include_vectors, report)), (include_vectors, report)


def test_edge_values_are_spelled_as_the_encoder_spells_them():
    nan, inf = float("nan"), float("inf")
    values = [
        -0.0, complex(-0.0, -0.0), 1e-05, 1e16, 0.1 + 0.2, 1 / 3, 2 / 3j,
        0.12345678901234567, 1.0000000000000002, 123456789012345.67,
        9.999999999999999e22, 5e-324, 1e-320, 2.5e-310, -1e300,
        # NaNs beside each other must not merge into one value
        complex(nan, 1), complex(nan, 2), complex(1, nan), complex(nan, nan),
        inf, -inf, complex(0, -inf), complex(inf, nan),
    ]
    n = 4
    padded = np.array(values + [0] * (-len(values) % n), dtype=complex).reshape(-1, n)
    # the last line claims three vectors, but only two are left for it
    vectors = np.asfortranarray(
        np.vstack([padded, [[0.5, -0.5, 1 / 3, -0.0]], padded[::-1, ::-1][:3]]))
    values, counts = [2.5 - 1j, 0.0, 1 / 3, -0.0, 1e-05j], [len(padded), 0, 1, 1, 3]
    # lines without a v, as on the normal route, and lines with one
    for v in (None, [3, 0, 1, 0, 2]):
        lines = SpectralLines(values, counts, np.arange(5), v, axes=(range(5),))
        spectrum = Spectrum(n=n, method="normal", lines=lines, theorem_verified=False,
                            vectors=vectors)
        text = written(spectrum, True)
        assert text == oracle(spectrum, True)
        assert text.count('"eigenvectors"') == len(lines)
        assert "NaN,\n            1.0\n" in text and "NaN,\n            2.0\n" in text
        assert written(spectrum, False) == oracle(spectrum, False)
        # no claim, no vector slot on any line
        bare = Spectrum(n=n, method="normal", lines=lines, theorem_verified=False)
        assert written(bare, True) == oracle(bare, True) == written(spectrum, False)
        assert '"eigenvectors"' not in written(bare, True)
