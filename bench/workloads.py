"""The three workloads: seeded inputs, one job at a time, a check per job.

Every workload is a closed loop in one process: the next job starts when
the previous one has finished.  Inputs come in *passes*, fixed mixes of
jobs whose parameters are drawn from the seed, and a run always measures
whole passes, so two seeds measure the same mix of work.

Each workload's ``run(job)`` returns ``((wall_s, calibrated_s), reason)``:
the time the program spent on the job, in wall and in calibrated seconds
(hostclock.py), and None, or a one-line reason the job's check failed.  Checks that only the benchmark needs (parsing the CLI's output,
re-evaluating a witness) are not timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from math import gcd, prod
from pathlib import Path

from cayleyspec import cayley, groups, irreps, spectra, verify
from cayleyspec.errors import HypothesesViolated
from hostclock import ONE_THREAD_ENV

BENCH_DIR = Path(__file__).resolve().parent
TOL = 1e-9
PASS_CAP = 256  # passes generated at set-up, far more than a run holds


class Workload:
    """What a workload reports beyond job times; defaults for a workload
    whose program runs inside the measuring process."""

    min_passes = 1
    program_in_children = False
    golden_mismatch = 0  # CLI outputs that differ from golden.json
    output_bytes = 0     # bytes the program wrote to stdout
    wall_s = 0.0         # wall time of child processes
    summaries = ()       # span summaries handed back by child processes
    watch = None         # the worker's hostclock.Stopwatch, which times each job


def _orbits(m: int, units) -> list:
    """Orbits of Z_m under multiplication by a group of units, sorted."""
    seen, out = set(), []
    for b in range(m):
        if b not in seen:
            orbit = sorted({b * u % m for u in units})
            seen.update(orbit)
            out.append(orbit)
    return out


def _witness_reason(group, color, report) -> str | None:
    """None when a failed hypothesis check carries a witness that holds up."""
    if report.passed:
        return "hypotheses passed where a violation was expected"
    for name, witness in (("A", report.witness_a), ("B", report.witness_b)):
        if witness is None:
            continue
        if name == "A":
            h, g, k = witness.triple
            lhs, rhs = group.mul(h, group.conjugate(k, g)), group.mul(h, k)
        else:
            x, h, k = witness.triple
            lhs, rhs = group.mul(group.conjugate(h, x), k), group.mul(h, k)
        if (lhs, rhs) != (witness.lhs_element, witness.rhs_element):
            return f"witness {name} elements do not re-evaluate"
        if (color(lhs), color(rhs)) != (witness.lhs_value, witness.rhs_value):
            return f"witness {name} values do not re-evaluate"
        if color(lhs) == color(rhs):
            return f"witness {name} values agree"
    return None


def _certify_reason(adjacency, spectrum, color) -> str | None:
    report = verify.certify(adjacency, spectrum, color, tol=TOL)
    if not (report.passed and report.complete):
        return (f"{spectrum.method} certification failed: residual "
                f"{report.max_residual:.3e}, complete={report.complete}")
    return None


# -- metacyclic_large ------------------------------------------------------

RUNGS = ((61, 10, 3), (127, 7, 2), (211, 10, 23))


class MetacyclicLarge(Workload):
    """Library calls on the ROADMAP ladder rungs n = 610, 889, 2110.

    A pass runs n=610 with the family set and a seeded set, n=889 with the
    family set and a seeded set four times each, and n=2110 once,
    alternating the family and a seeded set between passes; a one-pass
    run still holds every rung.  The median job falls in the middle of the
    eight n=889 jobs, and the n=2110 job runs halfway through the pass, so
    those eight straddle it and sample the whole run, not a few seconds.
    """

    name = "metacyclic_large"
    MID_JOBS = 8  # n=889 jobs per pass, half with the family set

    def __init__(self, seed: int, workdir: Path, trace: bool):
        rng = random.Random(seed)
        orbits = [
            [o for o in _orbits(m, [pow(r, a, m) for a in range(l)]) if o != [0]]
            for m, l, r in RUNGS
        ]
        self.passes = []
        for index in range(PASS_CAP):
            jobs = []
            for rung, (m, l, r) in enumerate(RUNGS[:-1]):
                kinds = ("family", "seeded") * (1 if rung == 0 else self.MID_JOBS // 2)
                jobs += [self._job(rng, m, l, r, kind, orbits[rung]) for kind in kinds]
            rng.shuffle(jobs)
            m, l, r = RUNGS[-1]
            large = self._job(rng, m, l, r, ("family", "seeded")[index % 2], orbits[-1])
            jobs.insert(len(jobs) // 2, large)
            self.passes.append(jobs)

    @classmethod
    def _job(cls, rng, m, l, r, kind, orbits) -> dict:
        layers = cls._seeded_layers(rng, l, orbits) if kind == "seeded" else None
        return {"m": m, "l": l, "r": r, "kind": kind, "layers": layers}

    @staticmethod
    def _seeded_layers(rng, l, orbits) -> list:
        """r-invariant layers that generate G: half the nonzero r-orbits
        (``orbits``) as the K-part, plus one orbit in each of layers 1 and l-1.

        m is prime on every rung, so any nonzero K-exponent generates K, and
        an element in layer 1 generates G/K.  The set's size is the same for
        every seed, and so is the cost of classifying it.
        """
        layers = [[] for _ in range(l)]
        layers[0] = sorted(s for orbit in rng.sample(orbits, len(orbits) // 2) for s in orbit)
        for t in (1, l - 1):
            layers[t] = sorted(set(layers[t]) | set(rng.choice(orbits)))
        return layers

    def tag(self, job) -> str:
        return f"n={job['m'] * job['l']}"

    def signature(self, job) -> str:
        return f"metacyclic {job['m']} {job['l']} {job['r']}"

    def run(self, job):
        m, l, r = job["m"], job["l"], job["r"]
        self.watch.start()
        if job["kind"] == "family":
            group, conn = cayley.nonnormal_family(m, l, r)
        else:
            group = groups.construct_group({"type": "metacyclic", "m": m, "l": l, "r": r})
            subset = [(t, s) for t, layer in enumerate(job["layers"]) for s in layer]
            conn = cayley.classify_connection_set(group, subset)
        color = cayley.color_from_set(group, conn.elements)
        layers = cayley.layers_from_set(group, conn.elements)
        spectrum = spectra.spectrum_metacyclic(m, l, r, layers)
        adjacency = cayley.adjacency_matrix(group, color)
        report = verify.certify(adjacency, spectrum, color, tol=TOL)
        multiset = spectrum.multiset()
        lap = self.watch.stop()

        n = m * l
        if not (report.passed and report.complete):
            return lap, f"n={n} certification failed: residual {report.max_residual:.3e}"
        if sum(count for _, count in multiset) != n:
            return lap, f"n={n} multiset does not count n eigenvalues"
        if not (conn.generates and conn.closure_size == n):
            return lap, f"n={n} {job['kind']} set classified as not generating"
        if job["kind"] == "family" and (conn.conjugation_closed or not conn.inverse_closed):
            return lap, f"n={n} family set misclassified"
        return lap, None


# -- catalog_small ---------------------------------------------------------

# untrusted-table and reconstruction jobs come from the first band
ORDER_BANDS = ((1, 40), (41, 80), (81, 120))
COLOR_KINDS = ("class", "layers", "random")
S4 = {
    "type": "permutation",
    "generators": [[1, 0, 2, 3], [1, 2, 3, 0]],
    "normal_generators": [[1, 2, 0, 3], [1, 0, 3, 2]],
    "complement_generators": [[1, 0, 2, 3]],
}


def _twists(m: int, l: int) -> list:
    return [r for r in range(2, m) if gcd(r, m) == 1 and pow(r, l, m) == 1]


def catalog_groups() -> dict:
    """Group descriptions by kind, every order at most the top band's."""
    top = ORDER_BANDS[-1][1]
    abelian = []

    def factor_tuples(prefix, low, product):
        for f in range(low, top + 1):
            if product * f > top:
                break
            if prefix:
                abelian.append({"type": "abelian", "orders": list(prefix) + [f]})
            factor_tuples(prefix + (f,), f, product * f)

    factor_tuples((), 2, 1)
    metacyclic = [
        {"type": "metacyclic", "m": m, "l": l, "r": r}
        for m in range(3, top // 2 + 1)
        for l in range(2, top // m + 1)
        for r in _twists(m, l)
    ]
    semidirect = []
    for k in range(3, top // 6 + 1):
        for m in range(3, top // (2 * k) + 1):
            for reflection in (1, m - 1):
                for rotation in (1, m - 1):
                    if (reflection, rotation) == (1, 1) or pow(rotation, k, m) != 1:
                        continue
                    semidirect.append({
                        "type": "semidirect", "m": m,
                        "h": {"type": "dihedral", "n": k},
                        "action": [reflection, rotation],
                    })
    return {
        "cyclic": [{"type": "cyclic", "n": n} for n in range(2, top + 1)],
        "abelian": abelian,
        "dihedral": [{"type": "dihedral", "n": n} for n in range(3, top // 2 + 1)],
        "metacyclic": metacyclic,
        "semidirect": semidirect,
    }


def _order(desc) -> int:
    """Order of a catalog group, from its description alone."""
    kind = desc["type"]
    if kind == "cyclic":
        return desc["n"]
    if kind == "abelian":
        return prod(desc["orders"])
    if kind == "dihedral":
        return 2 * desc["n"]
    if kind == "metacyclic":
        return desc["m"] * desc["l"]
    return desc["m"] * 2 * desc["h"]["n"]  # semidirect, dihedral complement


def catalog_color(group, kind: str, rng: random.Random):
    """A seeded color: a class function, an invariant layer set or noise.

    Supports have a fixed size per group (half the classes, 30% of the
    blocks), so seeds change which elements are chosen, not how many.
    """
    elements = group.elements()
    if kind == "random":
        return cayley.ColorFunction(group, {
            g: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for g in elements
        })
    if kind == "class":
        classes = group.conjugacy_classes()[1:]
        chosen = rng.sample(classes, max(1, len(classes) // 2))
        values = {}
        for cls in chosen:
            weight = rng.choice((1, 1, 2, 3))
            values.update({g: weight for g in cls.members})
        return cayley.ColorFunction(group, values)
    # invariant layer set: a union of (H-class) x (K-orbit) blocks, which
    # satisfies both split conditions; any subset is invariant when abelian
    if isinstance(group, groups.SplitExtensionGroup):
        h_group = group.h_group
        blocks = [
            [(h_group.index(h), s) for h in cls.members for s in orbit]
            for cls in h_group.conjugacy_classes()
            for orbit in _orbits(group.m, set(group.units))
        ][1:]
    else:
        blocks = [[g] for g in elements[1:]]
    chosen = rng.sample(blocks, max(1, round(0.3 * len(blocks))))
    return cayley.color_from_set(group, [g for block in chosen for g in block])


class CatalogSmall(Workload):
    """Seeded jobs over small built-in groups, every applicable route.

    A pass holds, for each group kind, one group from each order band plus
    the S4 negative case.  The group schedule is the same for every seed:
    each band's groups come round in a fixed order, the three color kinds
    rotate over the bands, and two smallest-band jobs pass their irrep table
    untrusted while two others run the block-reconstruction check.  The seed
    draws the colors and the job order, so two seeds measure the same work.
    """

    name = "catalog_small"

    def __init__(self, seed: int, workdir: Path, trace: bool):
        rng = random.Random(seed)
        schedule = random.Random("catalog schedule")
        bands = {}
        for kind, descs in catalog_groups().items():
            bands[kind] = []
            for lo, hi in ORDER_BANDS:
                band = [d for d in descs if lo <= _order(d) <= hi]
                schedule.shuffle(band)
                bands[kind].append(band)
        checked = [kind for kind in bands if kind != "semidirect"]
        self.passes = []
        for index in range(PASS_CAP):
            jobs = []
            for kind, by_band in bands.items():
                for b, band in enumerate(by_band):
                    flags = [checked[(index + i) % len(checked)] for i in range(4)]
                    jobs.append({
                        "group": band[index % len(band)],
                        "color": COLOR_KINDS[(index + b) % len(COLOR_KINDS)],
                        "color_seed": rng.getrandbits(32),
                        "untrusted": b == 0 and kind in flags[:2],
                        "reconstruct": b == 0 and kind in flags[2:],
                    })
            jobs.append({"group": S4, "color": "s4", "color_seed": rng.getrandbits(32),
                         "untrusted": False, "reconstruct": False})
            rng.shuffle(jobs)
            self.passes.append(jobs)

    def tag(self, job) -> str:
        return job["group"]["type"]

    def signature(self, job) -> str:
        return json.dumps(job["group"], sort_keys=True)

    def run(self, job):
        self.watch.start()
        reason = self._job(job)
        return self.watch.stop(), reason

    def _job(self, job):
        group = groups.construct_group(job["group"])
        rng = random.Random(job["color_seed"])
        if job["color"] == "s4":
            classes = group.conjugacy_classes()
            weights = rng.sample(range(1, 10), len(classes))
            color = cayley.ColorFunction(group, {
                g: w for w, cls in zip(weights, classes) for g in cls.members
            })
            report = spectra.check_split_hypotheses(group, color)
            return _witness_reason(group, color, report)
        color = catalog_color(group, job["color"], rng)

        routes = []
        negative = False
        if job["group"]["type"] != "semidirect":
            irrep_set = irreps.builtin_irreps(group)
            if job["untrusted"]:
                irrep_set = irreps.IrrepSet(group, irrep_set.irreps, trusted=False)
            if color.is_class_function:
                routes.append(spectra.spectrum_normal(group, color, irrep_set))
            decomposition = spectra.block_diagonalize(group, color, irrep_set)
            scale = max(1.0, sum(abs(v) for _, v in color.items()))
            if decomposition.reconstruction_deviation > TOL * scale:
                return f"block reconstruction deviates by {decomposition.reconstruction_deviation:.3e}"
            if job["untrusted"] and not irrep_set.trusted:
                return "untrusted irrep table was never validated"
            if job["reconstruct"]:
                deviation = verify.verify_block_reconstruction(group, color, irrep_set)
                if deviation > TOL * scale:
                    return f"regular-representation reconstruction deviates by {deviation:.3e}"
        if isinstance(group, groups.SplitExtensionGroup):
            try:
                routes.append(spectra.spectrum_split(
                    group, color, irreps.builtin_irreps(group.h_group),
                    irreps.irreps_cyclic(group.m)))
            except HypothesesViolated as exc:
                if job["color"] == "layers":
                    return "split hypotheses failed on an invariant layer set"
                reason = _witness_reason(group, color, exc.report)
                if reason:
                    return reason
                negative = True
        indicator = all(value == 1 for _, value in color.items())
        if indicator and isinstance(group, (groups.MetacyclicGroup, groups.CyclicGroup)):
            m, l, r = ((group.m, group.l, group.r)
                       if isinstance(group, groups.MetacyclicGroup) else (group.order, 1, 1))
            layers = [[] for _ in range(l)]
            for g, _ in color.items():
                t, s = g if isinstance(g, tuple) else (0, g)
                layers[t].append(s)
            if all((s * r) % m in set(layer) for layer in layers for s in layer):
                routes.append(spectra.spectrum_metacyclic(m, l, r, layers))
        if not routes:
            return None if negative else "no spectrum route applied"

        adjacency = cayley.adjacency_matrix(group, color)
        for spectrum in routes:
            reason = _certify_reason(adjacency, spectrum, color)
            if reason:
                return reason
        for other in routes[1:]:
            same, pair = verify.compare_spectra(routes[0], other, tol=TOL)
            if not same:
                return f"{routes[0].method} and {other.method} multisets differ at {pair}"
        return None


# -- cli_jobs --------------------------------------------------------------


def _family_config(m: int, l: int, r: int, **options) -> dict:
    """The ``cayleyspec family`` config: K minus e, plus h and h^-1."""
    layers = [[] for _ in range(l)]
    layers[0] = list(range(1, m))
    for t in {1 % l, (l - 1) % l}:
        layers[t].append(0)
    return {
        "group": {"type": "metacyclic", "m": m, "l": l, "r": r},
        "connection": {"mode": "layers", "layers": layers},
        "options": {"verify": True, **options},
    }


def cli_configs() -> dict:
    """The fixed job configs; only the order they run in is seeded."""
    d3 = groups.DihedralGroup(3)
    dihedral = groups.DihedralGroup(10)
    classes = dihedral.conjugacy_classes()
    s4 = groups.construct_group(S4)
    return {
        "family155": _family_config(31, 5, 2),
        "family610": _family_config(61, 10, 3),
        "family610_novec": _family_config(61, 10, 3, eigenvectors=False),
        "order42": {
            "group": {"type": "semidirect", "m": 7,
                      "h": {"type": "dihedral", "n": 3}, "action": [6, 1]},
            "connection": {"mode": "set", "elements": (
                [[0, b] for b in range(1, 7)]
                + [[d3.index(h), 0] for h in d3.elements() if h[0] == 1])},
        },
        "dihedral20": {
            "group": {"type": "dihedral", "n": 10},
            "connection": {"mode": "set", "elements": [
                list(g) for cls in (classes[1], classes[2], classes[-1])
                for g in cls.members]},
        },
        "s4": {
            "group": S4,
            "connection": {"mode": "color", "entries": [
                {"element": list(g), "value": [weight, 0]}
                for weight, cls in enumerate(s4.conjugacy_classes(), start=1)
                for g in cls.members]},
        },
    }


# (job name, argv after the program, config, expected exit code)
CLI_JOBS = (
    ("verify155", ["verify"], "family155", 0),
    ("verify610", ["verify"], "family610", 0),
    ("verify610_novec", ["verify"], "family610_novec", 0),
    ("verify42", ["verify"], "order42", 0),
    ("spectrum_csv", ["spectrum", "--format", "csv"], "dihedral20", 0),
    ("hypotheses_s4", ["check-hypotheses"], "s4", 3),
    ("describe610", ["describe"], "family610", 0),
)
# jobs a pass runs twice (see CliJobs)
TWICE_PER_PASS = ("verify155", "verify610_novec", "describe610")


def _pair_value(pair) -> complex:
    return complex(pair[0], pair[1])


class CliJobs(Workload):
    """One ``cayleyspec`` subprocess per job over configs written at set-up.

    A pass runs every job in a seeded order, the three mid-size jobs twice,
    so the median job falls among them rather than at the edge between
    the quick jobs and those.  A run holds at least two passes so each
    config's output is also compared byte for byte across passes.
    """

    name = "cli_jobs"
    min_passes = 2
    program_in_children = True
    timeout_s = 120

    def __init__(self, seed: int, workdir: Path, trace: bool):
        rng = random.Random(seed)
        src = BENCH_DIR.parent / "src"
        self.env = dict(os.environ, **ONE_THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.workdir = workdir
        self.trace = trace
        self.paths = {}
        configs = cli_configs()
        for name, config in configs.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            self.paths[name] = path
        s4 = groups.construct_group(S4)
        self.s4 = (s4, cayley.ColorFunction(s4, {
            tuple(e["element"]): e["value"][0] for e in configs["s4"]["connection"]["entries"]
        }))
        golden = BENCH_DIR / "golden.json"
        self.golden = json.loads(golden.read_text(encoding="utf-8")) if golden.exists() else {}
        self.first_digest = {}
        self.summaries = []
        self.passes = []
        for _ in range(PASS_CAP):
            jobs = list(CLI_JOBS) + [job for job in CLI_JOBS if job[0] in TWICE_PER_PASS]
            rng.shuffle(jobs)
            self.passes.append(jobs)

    def tag(self, job) -> str:
        return job[0]

    def signature(self, job) -> str:
        return job[2]

    def _argv(self, job, clock_path, spans_path):
        name, command, config, _ = job
        args = command + ["--config", str(self.paths[config])]
        spans = ["--spans", str(spans_path)] if self.trace else []
        return [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(clock_path), *spans, *args]

    def run(self, job):
        """Times the child's whole life in wall seconds less its probes,
        calibrated by the rate the child's own probes saw (hostclock.py):
        probes here would share the CPU with the child."""
        name, _, config, expected = job
        clock_path = self.workdir / f"{name}.clock.json"
        spans_path = self.workdir / f"{name}.spans.json"
        start = time.perf_counter()
        proc = subprocess.run(self._argv(job, clock_path, spans_path), env=self.env,
                              capture_output=True, timeout=self.timeout_s, check=False)
        wall_s = time.perf_counter() - start
        child = json.loads(clock_path.read_text(encoding="utf-8"))
        clock_path.unlink()
        wall_s -= child["probe_s"]
        lap = (wall_s, wall_s * child["cal_s"] / child["wall_s"])
        self.wall_s += wall_s
        self.output_bytes += len(proc.stdout)
        if self.trace:
            self.summaries.append(json.loads(spans_path.read_text(encoding="utf-8")))
            spans_path.unlink()
        if proc.returncode != expected:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return lap, f"{name} exited {proc.returncode}, expected {expected}: {tail}"
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if self.golden.get(name) != digest:
            self.golden_mismatch += 1
        if name not in self.first_digest:
            self.first_digest[name] = digest
            return lap, self._check(name, proc.stdout)
        if self.first_digest[name] != digest:
            return lap, f"{name} output differs from its earlier run"
        return lap, None

    def _check(self, name: str, stdout: bytes):
        text = stdout.decode("utf-8")
        if name == "spectrum_csv":
            rows = text.splitlines()
            if rows[0] != "u,v,re,im,multiplicity":
                return "csv header changed"
            if sum(int(row.rsplit(",", 1)[1]) for row in rows[1:]) != 20:
                return "csv multiplicities do not sum to n=20"
            return None
        payload = json.loads(text)
        if name == "hypotheses_s4":
            group, color = self.s4
            witness = payload["witness_a"] or payload["witness_b"]
            if payload["passed"] or witness is None:
                return "S4 hypotheses passed"
            lhs = tuple(witness["lhs_element"])
            rhs = tuple(witness["rhs_element"])
            values = (_pair_value(witness["lhs_value"]), _pair_value(witness["rhs_value"]))
            if (color(lhs), color(rhs)) != values or values[0] == values[1]:
                return "S4 witness does not re-evaluate"
            return None
        if name == "describe610":
            conn = payload["connection"]
            if payload["order"] != 610 or not conn["generates"] or conn["conjugation_closed"]:
                return "describe misreports the n=610 family"
            return None
        check = payload["verification"]
        if not (check["passed"] and check["complete"]):
            return f"{name} certification failed"
        has_vectors = "eigenvectors" in payload["lines"][0]
        if has_vectors != (name != "verify610_novec"):
            return f"{name} eigenvector output does not match its options"
        return None


WORKLOADS = {cls.name: cls for cls in (MetacyclicLarge, CatalogSmall, CliJobs)}
