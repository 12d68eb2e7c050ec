"""Command-line front end.

Commands consume a JSON job config describing a group, a connection
(set, layers, or an explicit color), and options; results are emitted as
deterministic JSON (fixed key order, floats rounded to 15 significant
digits, LF newlines) or CSV.  Exit codes: 0 success, 2 verification
failure, 3 hypothesis violation, 4 malformed config or unsupported request.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterable, Iterator, Optional

import numpy as np

from . import cayley, groups, irreps, spectra, verify
from .errors import (
    CapacityExceeded,
    CayleyError,
    ConfigError,
    DimensionMismatch,
    HypothesesViolated,
    InvalidAction,
    IrrepValidationFailed,
    IrrepsUnavailable,
    LayerNotInvariant,
    NotClassFunction,
)

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_HYPOTHESES = 3
EXIT_CONFIG = 4

METHODS = ("normal", "split", "metacyclic", "blocks")


def _round15(x: float) -> float:
    return float(f"{float(x):.15g}") + 0.0


def _pair(z: complex) -> list:
    z = complex(z)
    return [_round15(z.real), _round15(z.imag)]


def _encode_element(g):
    if isinstance(g, tuple):
        return list(g)
    return g


def _is_finite_number(x) -> bool:
    """A JSON int or float (not a bool) with a finite float value."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _emit(chunks: Iterable[str], output: Optional[str]) -> None:
    """Write text pieces in order to the ``output`` file, or to stdout.

    Each piece is one ``write`` call on ``sys.stdout`` as bound at call
    time, so a caller that swapped in its own stream sees every piece.
    """
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            for chunk in chunks:
                handle.write(chunk)
    else:
        stream = sys.stdout
        for chunk in chunks:
            stream.write(chunk)


def _emit_json(payload, output: Optional[str]) -> None:
    _emit([json.dumps(payload, indent=2) + "\n"], output)


def _unique_keys(pairs: list) -> dict:
    """A JSON object that names no key twice (``json`` keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ConfigError(f"key {key!r} appears twice in one object")
    return obj


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        config = json.loads(raw, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return config


class Job:
    """A parsed config: group, color, connection data, options."""

    def __init__(self, config: dict):
        if "group" not in config:
            raise ConfigError("config needs a 'group' section")
        self.group = groups.construct_group(config["group"])
        self.connection_mode, self.color, self.subset = self._parse_connection(config)
        self.options = self._parse_options(config.get("options", {}))
        self.user_irreps = None
        if "irreps" in config:
            self.user_irreps = _parse_irrep_tables(self.group, config["irreps"])

    def _parse_connection(self, config):
        if "connection" not in config:
            raise ConfigError("config needs a 'connection' section")
        conn = config["connection"]
        if not isinstance(conn, dict):
            raise ConfigError("'connection' must be an object")
        mode = conn.get("mode")
        if mode not in ("set", "layers", "color"):
            raise ConfigError(
                f"connection.mode must be 'set', 'layers', or 'color', got {mode!r}"
            )
        payload_keys = {"set": "elements", "layers": "layers", "color": "entries"}
        extra = set(conn) - {"mode", payload_keys[mode]}
        if extra:
            raise ConfigError(
                f"connection has stray keys {sorted(extra)} for mode {mode!r}"
            )
        key = payload_keys[mode]
        if key not in conn:
            raise ConfigError(f"connection mode {mode!r} needs field {key!r}")
        if mode == "set":
            raw = conn["elements"]
            if not isinstance(raw, list):
                raise ConfigError("connection.elements must be a list")
            subset = []
            for idx, entry in enumerate(raw):
                try:
                    subset.append(self.group.coerce_element(entry))
                except ConfigError as exc:
                    raise ConfigError(f"connection.elements[{idx}]: {exc}") from None
            subset = sorted(set(subset), key=self.group.index)
            color = cayley.color_from_set(self.group, subset)
            return mode, color, subset
        if mode == "layers":
            if not isinstance(self.group, groups.MetacyclicGroup):
                raise ConfigError(
                    "connection mode 'layers' needs a metacyclic group, got "
                    f"{self.group.kind!r}"
                )
            raw = conn["layers"]
            if (not isinstance(raw, list)
                    or any(not isinstance(layer, list) for layer in raw)):
                raise ConfigError("connection.layers must be a list of lists")
            if len(raw) != self.group.l:
                raise ConfigError(
                    f"connection.layers needs {self.group.l} layers, got {len(raw)}"
                )
            for t, layer in enumerate(raw):
                for s in layer:
                    if not isinstance(s, int) or isinstance(s, bool):
                        raise ConfigError(
                            f"connection.layers[{t}] holds a non-integer {s!r}"
                        )
            subset = sorted({(t, s % self.group.m) for t, layer in enumerate(raw)
                             for s in layer}, key=self.group.index)
            color = cayley.color_from_set(self.group, subset)
            return mode, color, subset
        # explicit color entries
        raw = conn["entries"]
        if not isinstance(raw, list):
            raise ConfigError("connection.entries must be a list")
        values = {}
        for idx, entry in enumerate(raw):
            if (not isinstance(entry, dict)
                    or "element" not in entry or "value" not in entry):
                raise ConfigError(
                    f"connection.entries[{idx}] needs 'element' and 'value'"
                )
            try:
                g = self.group.coerce_element(entry["element"])
            except ConfigError as exc:
                raise ConfigError(f"connection.entries[{idx}].element: {exc}") from None
            value = entry["value"]
            if (not isinstance(value, list) or len(value) != 2
                    or not all(_is_finite_number(x) for x in value)):
                raise ConfigError(
                    f"connection.entries[{idx}].value must be [re, im] finite numbers"
                )
            if g in values:
                raise ConfigError(
                    f"connection.entries[{idx}] repeats element {entry['element']!r}"
                )
            values[g] = complex(value[0], value[1])
        color = cayley.ColorFunction(self.group, values)
        # a zero weight draws no edge, so the connection set is the support
        support = [g for g, value in values.items() if value != 0]
        return mode, color, sorted(support, key=self.group.index)

    @staticmethod
    def _parse_options(raw) -> dict:
        if not isinstance(raw, dict):
            raise ConfigError("'options' must be an object")
        options = {
            "eigenvectors": True,
            "verify": False,
            "tolerance": 1e-9,
            "format": "json",
            "export_graph": None,
        }
        for key, value in raw.items():
            if key not in options:
                raise ConfigError(f"unknown option {key!r}")
            options[key] = value
        if not isinstance(options["eigenvectors"], bool):
            raise ConfigError("options.eigenvectors must be a boolean")
        if not isinstance(options["verify"], bool):
            raise ConfigError("options.verify must be a boolean")
        tol = options["tolerance"]
        if not _is_finite_number(tol) or tol <= 0:
            raise ConfigError("options.tolerance must be a positive finite number")
        options["tolerance"] = float(tol)
        if options["format"] not in ("json", "csv"):
            raise ConfigError("options.format must be 'json' or 'csv'")
        export = options["export_graph"]
        if export is not None and not (isinstance(export, str) and export):
            raise ConfigError("options.export_graph must be null or a non-empty path")
        return options


def _parse_irrep_tables(group, raw) -> irreps.IrrepSet:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("'irreps' must be a non-empty list of tables")
    elems = group.elements()
    built = []
    for idx, table in enumerate(raw):
        if not isinstance(table, dict):
            raise ConfigError(f"irreps[{idx}] must be an object")
        label = table.get("label")
        degree = table.get("degree")
        matrices = table.get("matrices")
        if not isinstance(label, str):
            raise ConfigError(f"irreps[{idx}].label must be a string")
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
            raise ConfigError(f"irreps[{idx}].degree must be a positive integer")
        if not isinstance(matrices, dict):
            raise ConfigError(
                f"irreps[{idx}].matrices must map element indices to entries"
            )
        mats = {}
        for key, flat in matrices.items():
            # the plain decimal spelling only, so no two keys name one index
            if not (key.isascii() and key.isdigit()) or key != str(int(key)):
                raise ConfigError(
                    f"irreps[{idx}].matrices key {key!r} is not an element index"
                )
            position = int(key)
            if not 0 <= position < len(elems):
                raise ConfigError(
                    f"irreps[{idx}].matrices index {position} out of range"
                )
            if (not isinstance(flat, list) or len(flat) != degree * degree
                    or any(not isinstance(pair, list) or len(pair) != 2
                           for pair in flat)):
                raise ConfigError(
                    f"irreps[{idx}].matrices[{key}] must hold {degree * degree} "
                    "[re, im] pairs in row-major order"
                )
            if not all(_is_finite_number(x) for pair in flat for x in pair):
                raise ConfigError(
                    f"irreps[{idx}].matrices[{key}] entries must be finite numbers"
                )
            data = np.array(
                [complex(pair[0], pair[1]) for pair in flat], dtype=complex
            ).reshape(degree, degree)
            mats[elems[position]] = data
        if len(mats) != len(elems):
            raise ConfigError(
                f"irreps[{idx}].matrices covers {len(mats)} of {len(elems)} elements"
            )
        built.append(irreps.UnitaryIrrep(label, mats))
    table_set = irreps.IrrepSet(group, built, trusted=False)
    irreps.validate_irrep_set(group, table_set).raise_if_failed()
    return table_set


def _choose_method(job: Job, requested: Optional[str]) -> str:
    if requested:
        if requested not in METHODS:
            raise ConfigError(
                f"unknown method {requested!r}; expected one of {METHODS}"
            )
        return requested
    if job.connection_mode == "layers":
        return "metacyclic"
    group = job.group
    if group.kind in ("metacyclic", "semidirect"):
        return "split"
    if group.kind == "dihedral":
        return "normal" if job.color.is_class_function else "split"
    if job.color.is_class_function:
        return "normal"
    raise ConfigError(
        f"no applicable spectrum method for group kind {group.kind!r} with a "
        "non-class color function"
    )


def _normal_irreps(job: Job) -> irreps.IrrepSet:
    if job.user_irreps is not None:
        return job.user_irreps
    return irreps.builtin_irreps(job.group)


def _compute_spectrum(job: Job, method: str, eigenvectors: bool) -> spectra.Spectrum:
    group = job.group
    if method == "metacyclic":
        if not isinstance(group, groups.MetacyclicGroup):
            raise ConfigError(
                f"method 'metacyclic' needs a metacyclic group, got {group.kind!r}"
            )
        # layered formula applies to indicator colors only; element (a, b)
        # sits at index a * m + b, so the support runs by layer, then exponent
        vector = job.color.vector
        support = np.flatnonzero(vector)
        bad = support[vector[support] != 1]
        if bad.size:
            raise ConfigError(
                "method 'metacyclic' needs an indicator color; "
                f"alpha({list(divmod(int(bad[0]), group.m))!r}) = {vector.item(bad[0])}"
            )
        layer, exponent = np.divmod(support, group.m)
        cuts = np.searchsorted(layer, np.arange(1, group.l))
        return spectra.spectrum_metacyclic(
            group.m, group.l, group.r, [s.tolist() for s in np.split(exponent, cuts)],
            eigenvectors=eigenvectors,
        )
    if method == "split":
        if not isinstance(group, groups.SplitExtensionGroup):
            raise ConfigError(
                f"method 'split' needs a split extension, got {group.kind!r}"
            )
        irreps_h = irreps.builtin_irreps(group.h_group)
        irreps_k = irreps.irreps_cyclic(group.m)
        return spectra.spectrum_split(
            group, job.color, irreps_h, irreps_k, eigenvectors=eigenvectors
        )
    if method == "normal":
        return spectra.spectrum_normal(
            group, job.color, _normal_irreps(job), eigenvectors=eigenvectors
        )
    # blocks
    return spectra.block_diagonalize(group, job.color, _normal_irreps(job)).spectrum()


def _dense_bytes(job: Job, method: str, do_verify: bool, edges: bool,
                 vectors_out: bool) -> int:
    """Estimated bytes of the n x n arrays a spectrum or verify job
    allocates, summed over its stages: an upper bound on what is live at
    once.  A stage that holds none counts nothing, e.g. structured
    certification of a factored spectrum against the beta table."""
    group = job.group
    n = group.order
    square = 16 * n * n
    factored = method in ("split", "metacyclic")
    total = 0
    if not factored:
        # the irrep stacks hold n*n entries over all irreps and their
        # characters one row per irrep, as irreps._check_builtin_bytes
        # counts them; the P matrix is built when vectors are
        total += 16 * n * (n + _irrep_count(job))
        if do_verify or job.options["eigenvectors"] or method == "blocks":
            total += irreps.p_matrix_bytes(n)
    carried = isinstance(group, groups.SplitExtensionGroup) and not edges
    if do_verify:
        if edges:
            total += cayley.edge_list_bytes(n)
        elif not carried:
            total += square  # the gathered adjacency
        if not (factored and carried):
            total += verify.dense_certify_bytes(n, carried)
    if job.options["export_graph"]:
        total += square
    if vectors_out:
        # the stacked rows of factors, and np.unique's sorted copy,
        # permutation and inverse
        total += (square if factored else 0) + 2 * square
    return total


def _irrep_count(job: Job) -> int:
    """How many irreps a non-factored route reads: the user's tables, or
    the built-in ones counted without building a matrix; 0 when there are
    none, as the route then stops before it allocates."""
    if job.user_irreps is not None:
        return len(job.user_irreps)
    try:
        return len(irreps.builtin_degrees(job.group))
    except IrrepsUnavailable:
        return 0


def _spectrum_payload(spectrum: spectra.Spectrum, verification=None) -> dict:
    """The ``spectrum``/``verify`` document without eigenvectors."""
    payload = {
        "n": spectrum.n,
        "method": spectrum.method,
        "lines": [
            {"u": u, "v": v, "eigenvalue": [_round15(re), _round15(im)], "multiplicity": count}
            for u, v, re, im, count in _line_rows(spectrum)
        ],
        "multiset": [
            [_round15(value.real), _round15(value.imag), count]
            for value, count in spectrum.multiset()
        ],
    }
    if not spectrum.theorem_verified:
        payload["unverified_by_theorem"] = True
    if verification is not None:
        payload["verification"] = _verification_payload(verification)
    return payload


# Stands in for one line's eigenvectors in the skeleton document; no other
# string there holds a NUL, which json.dumps spells as \u0000.
_VECTORS_SLOT = "\x00eigenvectors"
_VECTORS_SLOT_JSON = json.dumps(_VECTORS_SLOT)


def _json_number(x: float) -> str:
    """``_round15(x)`` spelled as ``json.dumps`` spells a float."""
    x = _round15(x)
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _vector_block(pairs: list, rows: int, cols: int) -> str:
    """One line's ``eigenvectors`` value as ``json.dumps(..., indent=2)``
    lays it out at its depth, from the text of each [re, im] pair."""
    if rows == 0:
        return "[]"
    body = ",\n".join(
        "        [\n" + ",\n".join(pairs[r * cols:(r + 1) * cols]) + "\n        ]"
        for r in range(rows)
    )
    return "[\n" + body + "\n      ]"


def _spectrum_json(spectrum: spectra.Spectrum, include_vectors: bool,
                   verification=None) -> Iterator[str]:
    """The ``spectrum``/``verify`` JSON document as text pieces in order.

    The bytes equal ``json.dumps(payload, indent=2) + "\n"`` of the payload
    whose lines carry ``[[_pair(z) for z in row] for row in vectors]``,
    but each distinct vector entry is spelled once, and each line's block
    is built only when the consumer reaches it.  Everything that can fail
    runs before the first piece is returned.
    """
    payload = _spectrum_payload(spectrum, verification)
    if include_vectors and spectrum.claims_vectors:
        for entry in payload["lines"]:
            entry["eigenvectors"] = _VECTORS_SLOT
    pieces = (json.dumps(payload, indent=2) + "\n").split(_VECTORS_SLOT_JSON)
    if len(pieces) == 1:
        return iter(pieces)
    offsets = spectrum._vector_offsets().tolist()
    spans = zip(offsets, offsets[1:])  # each line's vectors, as (first, last)
    rows = spectrum.vector_rows(0, offsets[-1])
    cols = rows.shape[1]
    # equal_nan=False: the default merges every complex value holding a NaN
    values, inverse = np.unique(rows.ravel(), return_inverse=True, equal_nan=False)
    pair_text = np.array([
        f"          [\n            {_json_number(z.real)},\n"
        f"            {_json_number(z.imag)}\n          ]"
        for z in values.tolist()
    ], dtype=object)

    def chunks():
        for piece, (first, last) in zip(pieces, spans):
            yield piece
            yield _vector_block(
                pair_text[inverse[first * cols:last * cols]].tolist(), last - first, cols
            )
        yield pieces[-1]

    return chunks()


def _verification_payload(report: verify.VerificationReport) -> dict:
    payload = {
        "tolerance": _round15(report.tolerance),
        "scale": _round15(report.scale),
        "max_residual": _round15(report.max_residual),
        "per_line_residuals": [_round15(r) for r in report.per_line_residuals],
        "gram_deviation": _round15(report.gram_deviation),
        "vector_count": report.vector_count,
        "complete": report.complete,
        "trace_deviation": _round15(report.trace_deviation),
        "trace_sq_deviation": _round15(report.trace_sq_deviation),
        "passed": report.passed,
    }
    return payload


def _line_rows(spectrum: spectra.Spectrum):
    """``(u, v, re, im, multiplicity)`` of each line, read off the
    spectrum's columns as Python numbers; v is None on the normal route."""
    values = spectrum.eigenvalues
    return zip(spectrum.u.tolist(), spectrum.lines.v_values(), values.real.tolist(),
               values.imag.tolist(), spectrum.multiplicities.tolist())


def _spectrum_csv(spectrum: spectra.Spectrum) -> str:
    rows = ["u,v,re,im,multiplicity"] + [
        f"{u},{'' if v is None else v},{re:.15g},{im:.15g},{count}"
        for u, v, re, im, count in _line_rows(spectrum)
    ]
    return "\n".join(rows) + "\n"


def _witness_payload(witness) -> Optional[dict]:
    if witness is None:
        return None
    return {
        "triple": [_encode_element(g) for g in witness.triple],
        "lhs_element": _encode_element(witness.lhs_element),
        "rhs_element": _encode_element(witness.rhs_element),
        "lhs_value": _pair(witness.lhs_value),
        "rhs_value": _pair(witness.rhs_value),
    }


def _run_spectrum_job(args, force_verify: bool) -> int:
    job = Job(_load_config(args.config))
    method = _choose_method(job, args.method)
    do_verify = force_verify or job.options["verify"]
    eigenvectors = job.options["eigenvectors"] or do_verify
    if method == "blocks" and do_verify:
        raise ConfigError(
            "method 'blocks' produces no eigenvectors and cannot be verified; "
            "use another method"
        )
    edges = getattr(args, "edges", None)
    fmt = args.format or job.options["format"]
    groups.check_dense_bytes(
        _dense_bytes(job, method, do_verify, bool(edges),
                     job.options["eigenvectors"] and fmt == "json"),
        f"this {args.command} job")
    spectrum = _compute_spectrum(job, method, eigenvectors)
    verification = None
    built = None  # the adjacency built from the group, shared with the export
    if do_verify:
        tol = job.options["tolerance"]
        if edges:
            adjacency = cayley.AdjacencyMatrix(
                cayley.read_edge_list(edges, job.group.order))
        else:
            adjacency = built = cayley.adjacency_matrix(job.group, job.color)
        verification = verify.certify(adjacency, spectrum, job.color, tol=tol)
    export_path = job.options["export_graph"]
    if export_path:
        if built is None:
            built = cayley.adjacency_matrix(job.group, job.color)
        cayley.export_edge_list(built, export_path)
    if fmt == "csv":
        _emit([_spectrum_csv(spectrum)], args.output)
    else:
        _emit(_spectrum_json(spectrum, job.options["eigenvectors"], verification),
              args.output)
    if verification is not None and not verification.passed:
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    return _run_spectrum_job(args, force_verify=False)


def _cmd_verify(args) -> int:
    return _run_spectrum_job(args, force_verify=True)


def _cmd_describe(args) -> int:
    job = Job(_load_config(args.config))
    group = job.group
    try:
        degrees = irreps.builtin_degrees(group)
    except (IrrepsUnavailable, CayleyError):
        degrees = None
    split = None
    if isinstance(group, groups.SplitExtensionGroup):
        split = {"m": group.m, "l": group.l}
    subset = job.subset or []
    classification = cayley.classify_connection_set(group, subset) if subset else None
    try:
        method = _choose_method(job, None)
    except ConfigError:
        dense_bytes = None
    else:
        vectors_out = job.options["eigenvectors"] and job.options["format"] == "json"
        dense_bytes = {
            command: _dense_bytes(job, method, do_verify, False, vectors_out)
            for command, do_verify in (("spectrum", job.options["verify"]), ("verify", True))
        }
    labels = group._class_labels
    payload = {
        "kind": group.kind,
        "order": group.order,
        "class_sizes": np.bincount(labels, minlength=group.order)[
            labels == np.arange(group.order)].tolist(),
        "irrep_degrees": degrees,
        "split": split,
        "connection": None if classification is None else {
            "size": len(classification),
            "inverse_closed": classification.inverse_closed,
            "contains_identity": classification.contains_identity,
            "generates": classification.generates,
            "closure_size": classification.closure_size,
            "conjugation_closed": classification.conjugation_closed,
        },
        "dense_bytes": dense_bytes,
    }
    _emit_json(payload, args.output)
    return EXIT_OK


def _cmd_check_hypotheses(args) -> int:
    job = Job(_load_config(args.config))
    report = spectra.check_split_hypotheses(job.group, job.color)
    payload = {
        "condition_a": report.condition_a,
        "condition_b": report.condition_b,
        "witness_a": _witness_payload(report.witness_a),
        "witness_b": _witness_payload(report.witness_b),
        "passed": report.passed,
    }
    _emit_json(payload, args.output)
    return EXIT_OK if report.passed else EXIT_HYPOTHESES


def _cmd_family(args) -> int:
    group, connection = cayley.nonnormal_family(args.m, args.l, args.r)
    layers = cayley.layers_from_set(group, connection.elements)
    payload = {
        "group": {"type": "metacyclic", "m": args.m, "l": args.l, "r": args.r},
        "connection": {"mode": "layers", "layers": layers},
        "options": {"verify": True},
    }
    _emit_json(payload, args.output)
    return EXIT_OK


def _cmd_export_graph(args) -> int:
    job = Job(_load_config(args.config))
    adjacency = cayley.adjacency_matrix(job.group, job.color)
    cayley.export_edge_list(adjacency, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleyspec",
        description="Exact spectra of Cayley color graphs with certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        cmd = sub.add_parser(name, **kwargs)
        cmd.set_defaults(handler=handler)
        return cmd

    describe = add("describe", _cmd_describe, help="summarize a config's group")
    spectrum = add("spectrum", _cmd_spectrum, help="compute a labeled spectrum")
    verify_cmd = add("verify", _cmd_verify,
                     help="compute a spectrum and certify it against the adjacency")
    check = add("check-hypotheses", _cmd_check_hypotheses,
                help="test the split-formula invariance conditions")
    family = add("family", _cmd_family,
                 help="emit the non-normal layered family config")
    export = add("export-graph", _cmd_export_graph,
                 help="write the colored edge list")

    for cmd in (describe, spectrum, verify_cmd, check, export):
        cmd.add_argument("--config", required=True, help="path to the job JSON")
    for cmd in (describe, spectrum, verify_cmd, check, family):
        cmd.add_argument("--output", default=None,
                         help="write the result here instead of stdout")
    for cmd in (spectrum, verify_cmd):
        cmd.add_argument("--method", default=None, choices=METHODS,
                         help="override the automatic formula selection")
        cmd.add_argument("--format", default=None, choices=("json", "csv"),
                         help="override the output format")
    verify_cmd.add_argument("--edges", default=None,
                            help="certify against a previously exported edge list")
    family.add_argument("--m", type=int, required=True)
    family.add_argument("--l", type=int, required=True)
    family.add_argument("--r", type=int, required=True)
    export.add_argument("--out", required=True, help="edge list destination")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except HypothesesViolated as exc:
        report = exc.report
        sys.stderr.write(f"error: {exc}\n")
        for name, witness in (("A", report.witness_a), ("B", report.witness_b)):
            if witness is not None:
                sys.stderr.write(
                    f"condition {name} witness: triple={witness.triple!r} "
                    f"values {witness.lhs_value} != {witness.rhs_value}\n"
                )
        return EXIT_HYPOTHESES
    except (ConfigError, InvalidAction, CapacityExceeded, NotClassFunction,
            LayerNotInvariant, IrrepValidationFailed, IrrepsUnavailable,
            DimensionMismatch) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
