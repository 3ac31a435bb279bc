"""Benchmark workloads: seeded inputs, the CLI call chains, oracles.

Two workloads: ``pipeline`` (code -> quotient -> surface -> dual origami)
and ``spectra``, which runs three item groups in every batch (geodesics ->
action, spectral and torus actions, transfer operators).  Each turns
``(seed, batch)`` into a list of items, JSON-able dicts that are the only
inputs the library sees.  ``run`` pushes one item
through the same public calls, in the same order, as the matching handler
in ``adinkra_spectra.cli`` (including its JSON and CSV round trips), with
a tracer span around each call, and then checks the outputs against an
exact or independent oracle.  A miss raises :class:`Miss`.

Inputs change from batch to batch (new codes, vertex orders, Lambda grids,
tau, beta and coset shifts) while the amount of work stays fixed, so a
cache kept across calls cannot make later batches look faster than a
fresh CLI call would be.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from adinkra_spectra.adinkra import (
    build_quotient,
    count_well_dashed_exact,
    graph_to_json,
    two_colored_four_cycles,
    validate_chromotopology,
)
from adinkra_spectra.codes import BinaryCode, analyze_code
from adinkra_spectra.embedding import attach_faces, dual_origami_graph, triangulation_stats
from adinkra_spectra.hyperbolic import (
    length_spectrum,
    power_closure,
    spectrum_from_csv,
    spectrum_to_csv,
    triangle_generators,
)
from adinkra_spectra.origami import monodromy, validate_origami_graph
from adinkra_spectra.spectral import (
    dirac_action,
    laplace_action_conjugacy,
    laplace_action_geodesic,
    make_test_pair,
    super_action,
)
from adinkra_spectra.torus_spectrum import (
    PeriodData,
    gaussian,
    origami_action,
    poisson_reference,
    solution_set,
    spectrum_to_csv as torus_csv,
)
from adinkra_spectra.transfer import (
    build_transfer_matrix,
    extend_to_coset,
    fredholm_det,
    gauss_branch_system,
    gauss_leading_pair,
)

HERE = Path(__file__).resolve().parent
GKW = 0.3036630028987327  # Gauss-Kuzmin-Wirsing constant |lambda_2|
CLI_TOLERANCE = 1e-9  # the CLI's --tolerance default
TEST_KINDS = {"bump": "smooth_bump", "coswin": "cosine_window", "poly": "polynomial"}
GENUS = 2  # genus passed to the actions, as in `action --genus 2`


class Miss(Exception):
    """An output missed its oracle."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise Miss(message)


def dump(payload) -> str:
    """The CLI's output encoding (``cli._dump`` plus its newline)."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit(tr, payload) -> None:
    with tr.span("cli.emit"):
        text = dump(payload)
    tr.count("cli.emit.bytes", len(text.encode()))


def _rng(name: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{batch}")


class Workload:
    name = ""
    # counters that depend only on the workload's shape, never on the seed
    invariant: tuple[str, ...] = ()

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def batch(self, b: int) -> list[dict]:
        raise NotImplementedError

    def run(self, tr, item: dict) -> None:
        raise NotImplementedError


# -- pipeline: code -> quotient -> surface -> dual origami, plus dashing counts

STRATA = ((9, 0), (9, 1), (10, 1), (10, 2), (11, 1), (11, 2), (12, 2), (12, 3))
STRICT_MAX_EDGES = 1300  # strict (all 2-colored 4-cycle) count on the smaller quotients


def _span_words(rows: list[int]) -> list[int]:
    words = [0]
    for g in rows:
        words += [w ^ g for w in words]
    return words


def _random_doubly_even(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    """k independent rows spanning a doubly-even [n, k] code (pure Python)."""
    while True:
        rows = [sum(1 << p for p in rng.sample(range(n), rng.choice((4, 8))))
                for _ in range(k)]
        words = _span_words(rows)
        if len(set(words)) == 1 << k and all(w.bit_count() % 4 == 0 for w in words):
            return tuple(rows)


def _flat_holonomy_trivial(n: int, rows) -> bool:
    """Whether every codeword meets the odd colors an even number of times.

    For N = 0 mod 4 this is when the square frame transports consistently,
    so the dual origami is the surface itself and has its genus.  Other
    codes get the fallback orientation: a valid origami, another surface.
    """
    odd = sum(1 << (n - c) for c in range(1, n + 1, 2))  # color c is bit n - c
    # the parity is additive under XOR, so checking the generators suffices
    return all((r & odd).bit_count() % 2 == 0 for r in rows)


def closed_genus(n: int, k: int) -> int:
    """g = 1 + 2^(N-k-3) (N-4), the closed form for the face-attached surface."""
    return int(1 + Fraction(2) ** (n - k - 3) * (n - 4))


class Pipeline(Workload):
    name = "pipeline"
    invariant = ("adinkra.edges", "embedding.faces", "adinkra.gf2_count.calls")

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self._rng = random.Random(f"pipeline:{seed}")
        self._seen: set = set()
        self._batches: list[list[dict]] = []

    def batch(self, b):
        # one rng stream over all batches keeps every code of a run distinct
        while len(self._batches) <= b:
            items = []
            for n, k in STRATA:
                while True:
                    rows = _random_doubly_even(self._rng, n, k)
                    span = (n, frozenset(_span_words(list(rows))))
                    if k == 0 or span not in self._seen:
                        break
                self._seen.add(span)
                code = ",".join(format(r, f"0{n}b") for r in rows) or "trivial"
                items.append({"n": n, "k": k, "code": code})
            self._batches.append(items)
        return self._batches[b]

    def run(self, tr, item):
        n, k = item["n"], item["k"]
        # cmd_pipeline
        with tr.span("codes.parse"):
            code = (BinaryCode.trivial(n) if item["code"] == "trivial"
                    else BinaryCode.from_strings(n, item["code"].split(",")))
        with tr.span("adinkra.build_quotient"):
            graph = build_quotient(n, code)
        with tr.span("adinkra.validate"):
            report = validate_chromotopology(graph)
        with tr.span("codes.analyze"):
            code_report = analyze_code(code)
        check(report.ok, f"({n},{k}) {item['code']}: quotient fails validation")
        with tr.span("embedding.attach_faces"):
            surface = attach_faces(graph)
        with tr.span("embedding.triangulation"):
            stats = triangulation_stats(surface)
        try:
            with tr.span("embedding.dual"):
                dual = dual_origami_graph(surface)
            with tr.span("origami.monodromy"):
                mono, dual_genus = monodromy(dual)
            with tr.span("origami.validate"):
                dual_report = validate_origami_graph(dual)
            dual_payload = {"monodromy": mono.to_json(), "genus": dual_genus,
                            "valid": dual_report.ok}
        except ValueError as exc:
            dual_payload = {"rejected": str(exc)}
        with tr.span("cli.emit"):
            payload = {
                "code": code_report.to_json(),
                "graph": graph_to_json(graph),
                "validation": report.to_json(),
                "surface": surface.to_json(),
                "triangulation": stats.to_json(),
                "genus": surface.euler_genus,
                "dual": dual_payload,
            }
            text = dump(payload)
        tr.count("cli.emit.bytes", len(text.encode()))

        # Kasteleyn (embedded-face) count, and the strict count when small
        V, E = graph.vertex_count, graph.edge_count
        with tr.span("adinkra.gf2_count"):
            embedded = count_well_dashed_exact(graph, surface.faces)
        counts = [embedded]
        strict = None
        if E <= STRICT_MAX_EDGES:
            with tr.span("adinkra.four_cycles"):
                faces = two_colored_four_cycles(graph)
            with tr.span("adinkra.gf2_count"):
                strict = count_well_dashed_exact(graph, faces)
            counts.append(strict)
        tr.count("adinkra.edges", E)
        tr.count("embedding.faces", surface.face_count)
        tr.count("adinkra.gf2_count.calls", len(counts))
        tr.count("adinkra.gf2_rank", sum(E - (c.bit_length() - 1) for c in counts))

        g = closed_genus(n, k)
        label = f"({n},{k}) {item['code']}"
        check(surface.euler_genus == g, f"{label}: genus {surface.euler_genus} != {g}")
        check(stats.total_area_pi == 4 * (g - 1), f"{label}: area {stats.total_area_pi}pi")
        check(embedded == 1 << (2 * g + V - 1), f"{label}: embedded count != 2^(2g) 2^(V-1)")
        if strict is not None:
            check(1 << (V - 1) <= strict <= embedded, f"{label}: strict count {strict} out of range")
        if n % 2:
            check("rejected" in dual_payload, f"{label}: odd N dual not rejected")
        else:
            check(dual_payload.get("valid") is True, f"{label}: dual origami invalid")
            if n % 4 == 0 and _flat_holonomy_trivial(n, code.generators):
                check(dual_genus == g, f"{label}: dual genus {dual_genus} != {g}")


# -- geodesics: length spectrum -> CSV -> Laplace action (geodesics | action)

GEODESIC_SIGNATURES = tuple((sig, 4.0) for sig in ((5, 5, 2), (3, 3, 4), (6, 6, 2),
                                                   (2, 4, 6), (2, 4, 5)))
REFERENCE_FILE = HERE / "reference_spectra.json"


def reference_key(signature, l_max: float) -> str:
    return ",".join(map(str, sorted(signature))) + f"@{l_max!r}"


class Geodesics(Workload):
    name = "geodesics"
    invariant = ("hyperbolic.ball_elements", "hyperbolic.depth", "hyperbolic.classes")

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.reference = json.loads(REFERENCE_FILE.read_text())
        start = random.Random(f"geodesics:{seed}")
        self._offsets = [start.randrange(6) for _ in GEODESIC_SIGNATURES]

    def batch(self, b):
        # the seed picks each signature's vertex order; later batches rotate it
        items = []
        for (sig, l_max), off in zip(GEODESIC_SIGNATURES, self._offsets):
            orders = sorted(set(itertools.permutations(sig)))
            p, q, r = orders[(off + b) % len(orders)]
            items.append({"p": p, "q": q, "r": r, "lmax": l_max,
                          "csv": str(self.workdir / f"spec-{p}{q}{r}.csv")})
        return items

    def run(self, tr, item):
        p, q, r, l_max = item["p"], item["q"], item["r"], item["lmax"]
        path = Path(item["csv"])
        # cmd_geodesics with --out
        with tr.span("hyperbolic.generators"):
            group = triangle_generators(p, q, r)
        with tr.span("hyperbolic.length_spectrum"):
            spec = length_spectrum(group, l_max, dedupe_tol=CLI_TOLERANCE)
        with tr.span("hyperbolic.csv"):
            text = spectrum_to_csv(spec)
        with tr.span("cli.emit"):
            path.write_text(text)
        emit(tr, {"converged": spec.converged, "certified_below": spec.certified_below,
                  "depth": spec.depth, "elements": spec.element_count,
                  "classes": len(spec.classes)})
        # cmd_action laplace --spectrum <csv> --lam 1/lmax
        with tr.span("cli.read"):
            text = path.read_text()
        with tr.span("hyperbolic.csv"):
            classes = spectrum_from_csv(text)
        with tr.span("spectral.test_pair"):
            pair = make_test_pair(TEST_KINDS["bump"])
        with tr.span("spectral.laplace"):
            res = laplace_action_conjugacy(GENUS, classes, pair, 1.0 / l_max)
        emit(tr, res.to_json())
        tr.count("hyperbolic.ball_elements", spec.element_count)
        tr.count("hyperbolic.depth", spec.depth)
        tr.count("hyperbolic.classes", len(spec.classes))
        tr.count("spectral.calls", 1)
        tr.count("spectral.terms", res.contributing_class_count)

        label = f"({p},{q},{r}) l_max={l_max}"
        check(spec.converged and spec.certified_below >= l_max, f"{label}: not certified")
        ref = self.reference[reference_key((p, q, r), l_max)]
        got = [(c.length, c.multiplicity) for c in classes]
        check(len(got) == len(ref), f"{label}: {len(got)} classes, reference {len(ref)}")
        for (length, mult), (ref_len, ref_mult) in zip(got, ref):
            check(abs(length - ref_len) <= 1e-8 and mult == ref_mult,
                  f"{label}: class ({length}, {mult}) != reference ({ref_len}, {ref_mult})")
        for c in classes:
            check(c.trace > 2.0, f"{label}: class {c.word} has trace {c.trace} <= 2")
            m = group.word_matrix(c.word)
            check(abs(float(np.linalg.det(m)) - 1.0) < 1e-12, f"{label}: det of {c.word} != 1")
            check(abs(abs(m[0, 0] + m[1, 1]) - c.trace) <= 1e-8 * c.trace,
                  f"{label}: word {c.word} does not have the class trace")
        check(not res.flagged and math.isfinite(res.total), f"{label}: action flagged")


# -- actions: spectral actions on one CSV spectrum, plus torus lattice actions

ACTION_SIGNATURE, ACTION_LMAX = (5, 5, 2), 5.0
LAMBDAS = 4  # Lambda = 1 plus 3 seeded values in [1/l_max, 2]
TORUS_G1 = 1  # genus-1 tau per batch, each with the Poisson reference
TORUS_G1_BOX, TORUS_G2_BOX = 40, 5


class Actions(Workload):
    name = "actions"
    invariant = ("torus_spectrum.lattice_points", "torus_spectrum.entries", "spectral.calls")

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        spec = length_spectrum(triangle_generators(*ACTION_SIGNATURE), ACTION_LMAX,
                               dedupe_tol=CLI_TOLERANCE)
        if not (spec.converged and spec.certified_below >= ACTION_LMAX):
            raise RuntimeError("set-up spectrum is not certified to l_max")
        self.csv = workdir / "spectrum.csv"
        self.csv.write_text(spectrum_to_csv(spec))
        self.words = [c.word for c in spec.classes]

    def batch(self, b):
        rng = _rng(self.name, self.seed, b)
        lams = sorted([1.0] + [rng.uniform(1.0 / ACTION_LMAX, 2.0) for _ in range(LAMBDAS - 1)])
        # CSV action input carries no certificate, so stay inside the spectrum
        if min(lams) < 1.0 / ACTION_LMAX:
            raise RuntimeError("Lambda grid goes below 1/l_max")
        chi = json.dumps({w: [rng.choice((1.0, -1.0)), 0.0] for w in self.words})
        items = [{"kind": "action", "lam": lam, "test": test, "chi": chi}
                 for lam in lams for test in sorted(TEST_KINDS)]
        for _ in range(TORUS_G1):
            tau = [rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0)]
            items.append({"kind": "torus", "box": TORUS_G1_BOX, "omega": json.dumps(
                {"g": 1, "omega": [[tau]], "n": [0], "m": [1]})})
        t1, t2 = ([rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0)] for _ in range(2))
        items.append({"kind": "torus", "box": TORUS_G2_BOX, "omega": json.dumps(
            {"g": 2, "omega": [[t1, [0.0, 0.0]], [[0.0, 0.0], t2]], "n": [0, 0], "m": [1, 0]})})
        return items

    def run(self, tr, item):
        if item["kind"] == "torus":
            self._torus(tr, item)
        else:
            self._actions(tr, item)

    def _classes(self, tr):
        # every action call re-reads the CSV, as `action --spectrum` does
        with tr.span("cli.read"):
            text = self.csv.read_text()
        with tr.span("hyperbolic.csv"):
            return spectrum_from_csv(text)

    def _chi(self, tr, item, classes):
        with tr.span("cli.read"):
            chi_map = {w: complex(v[0], v[1]) for w, v in json.loads(item["chi"]).items()}
        return [chi_map[c.word] for c in classes]

    @staticmethod
    def _act(tr, layer, test, call):
        with tr.span("spectral.test_pair"):
            pair = make_test_pair(TEST_KINDS[test])
        with tr.span(layer):
            res = call(pair)
        emit(tr, res.to_json())
        tr.count("spectral.calls", 1)
        tr.count("spectral.terms", res.contributing_class_count)
        return res

    def _actions(self, tr, item):
        lam, test = item["lam"], item["test"]
        # action laplace|dirac|super --genus 2 --spectrum CSV --lam L --test T [--chi F]
        classes = self._classes(tr)
        with tr.span("hyperbolic.power_closure"):
            closed = power_closure(classes, 1.0 / lam)
        lap_g = self._act(tr, "spectral.laplace", test,
                          lambda pair: laplace_action_geodesic(GENUS, closed, pair, lam))
        classes = self._classes(tr)
        lap_c = self._act(tr, "spectral.laplace", test,
                          lambda pair: laplace_action_conjugacy(GENUS, classes, pair, lam))
        classes = self._classes(tr)
        ones = [1.0 + 0j] * len(classes)
        dir_1 = self._act(tr, "spectral.dirac", test,
                          lambda pair: dirac_action(GENUS, classes, ones, pair, lam))
        classes = self._classes(tr)
        chi = self._chi(tr, item, classes)
        dir_x = self._act(tr, "spectral.dirac", test,
                          lambda pair: dirac_action(GENUS, classes, chi, pair, lam))
        supers = []
        for variant in ("lambda_scaled", "r_scaled"):
            classes = self._classes(tr)
            chi = self._chi(tr, item, classes)
            supers.append(self._act(
                tr, "spectral.super", test,
                lambda pair: super_action(GENUS, classes, chi, pair, lam, variant=variant)))

        label = f"Lambda={lam!r} {test}"
        scale = max(1.0, abs(lap_c.total))
        check(abs(lap_g.total - lap_c.total) <= 1e-12 * scale,
              f"{label}: geodesic and conjugacy Laplace forms differ")
        scale = max(1.0, abs(lap_c.geodesic_term))
        check(abs(dir_1.geodesic_term - lap_c.geodesic_term) <= 1e-12 * scale,
              f"{label}: Dirac at chi = 1 differs from Laplace")
        if lam == 1.0:
            a, b = supers[0].total, supers[1].total
            check(abs(a - b) <= 1e-12 * max(1.0, abs(b)), f"{label}: super variants differ")
        for res in (lap_g, lap_c, dir_1, dir_x, *supers):
            check(not res.flagged, f"{label}: result flagged")
            check(math.isfinite(abs(res.total)), f"{label}: total not finite")

    def _torus(self, tr, item):
        box = item["box"]
        # cmd_torus action --width 1 --lam 1 --box B --spectrum-out FILE
        with tr.span("cli.read"):
            obj = json.loads(item["omega"])
        with tr.span("torus_spectrum.period_data"):
            pd = PeriodData.from_json(obj)
        with tr.span("torus_spectrum.action"):
            res = origami_action(pd, gaussian(1.0), 1.0, box)
        payload = {"action": res.to_json()}
        if pd.genus == 1:
            with tr.span("torus_spectrum.poisson"):
                poisson = poisson_reference(pd, 1.0, 1.0, max(box, 50))
            payload["poisson"] = {"direct": poisson.direct, "dual": poisson.dual,
                                  "discrepancy": poisson.discrepancy}
        with tr.span("torus_spectrum.solution_set"):
            entries = solution_set(pd, box)
        with tr.span("torus_spectrum.csv"):
            text = torus_csv(entries)
        payload["spectrum_written_to"] = "spectrum.csv"
        emit(tr, payload)
        lattice = (2 * box + 1) ** (2 * pd.genus) - 1
        tr.count("torus_spectrum.lattice_points", lattice)
        tr.count("torus_spectrum.entries", res.entry_count)

        label = f"torus g={pd.genus} box={box}"
        check(len(text.splitlines()) == len(entries) + 1, f"{label}: spectrum CSV rows")
        check(res.entry_count == len(entries), f"{label}: action and solution set disagree")
        if pd.genus == 1:
            # every lattice vector is parallel to the marked one in genus 1
            check(res.entry_count == lattice, f"{label}: {res.entry_count} entries")
            check(poisson.discrepancy < 1e-8, f"{label}: Poisson discrepancy {poisson.discrepancy}")
        lam_of = {(e.n, e.m): e.lam for e in entries}
        base = lam_of[(pd.n, pd.m)]
        for j in range(-box, box + 1):
            if j:
                key = (tuple(j * x for x in pd.n), tuple(j * x for x in pd.m))
                check(key in lam_of and abs(lam_of[key] - j * j * base) <= 1e-12 * j * j * base,
                      f"{label}: lambda of the {j}-multiple is not {j * j} lambda")
        check(math.isfinite(res.value) and res.value > 0, f"{label}: action value {res.value}")


# -- zeta: transfer-operator Fredholm determinants, base and coset-extended

ZETA_NODES = 32
ZETA_BASE = (20,)  # Gauss branches of the base items, one seeded beta each
ZETA_COSETS = ((10, 4),)  # (branches, cyclic degree): a 1280^2 operator


class Zeta(Workload):
    name = "zeta"
    invariant = ("transfer.matrix_rows", "transfer.matrix_bytes", "transfer.eigenvalues_used")

    def batch(self, b):
        rng = _rng(self.name, self.seed, b)
        items = [{"kind": "base", "gauss": n, "beta": rng.uniform(1.2, 3.0)} for n in ZETA_BASE]
        for n, d in ZETA_COSETS:
            # branch labels of the n-branch Gauss system are "1".."n"
            perms = {str(label): [(a + shift) % d + 1 for a in range(d)]
                     for label, shift in ((i, rng.randrange(d)) for i in range(1, n + 1))}
            items.append({"kind": "coset", "gauss": n, "beta": rng.uniform(1.2, 3.0),
                          "degree": d, "coset": json.dumps({"perms": perms})})
        items.append({"kind": "gkw"})
        return items

    def run(self, tr, item):
        if item["kind"] == "gkw":
            with tr.span("transfer.arnoldi"):
                l1, l2 = gauss_leading_pair()
            check(abs(l1 - 1.0) < 1e-8, f"GKW sweep: lambda_1 = {l1}")
            check(abs(abs(l2) - GKW) < 1e-4, f"GKW sweep: |lambda_2| = {abs(l2)}")
            return
        beta = item["beta"]
        # cmd_zeta --gauss N --beta B --nodes 32 [--coset FILE]
        with tr.span("transfer.system"):
            system = gauss_branch_system(item["gauss"])
        if item["kind"] == "coset":
            with tr.span("cli.read"):
                action = json.loads(item["coset"])
                perms = {l: tuple(int(i) - 1 for i in p) for l, p in action["perms"].items()}
            with tr.span("transfer.build"):
                tm = extend_to_coset(system, perms, beta, ZETA_NODES)
        else:
            with tr.span("transfer.build"):
                tm = build_transfer_matrix(system, beta, ZETA_NODES)
        with tr.span("transfer.det"):
            res = fredholm_det(tm, singular_tol=CLI_TOLERANCE)
        payload = res.to_json()
        payload["matrix_size"] = tm.size
        payload["beta"] = [beta, 0.0]
        emit(tr, payload)
        tr.count("transfer.matrix_rows", tm.size)
        tr.count("transfer.matrix_bytes", tm.matrix.dtype.itemsize * tm.size ** 2)
        tr.count("transfer.eigenvalues_used", res.eigenvalues_used)

        label = f"{item['kind']} gauss={item['gauss']} beta={beta!r}"
        check(not res.singular and res.spectral_radius < 1.0, f"{label}: radius {res.spectral_radius}")
        if item["kind"] == "base":
            # independent route: LU determinant of 1 - L
            sign, logdet = np.linalg.slogdet(np.eye(tm.size) - tm.matrix)
            ref = complex(sign * math.exp(logdet))
        else:
            ref = self._character_product(system, beta, perms, item["degree"])
        check(abs(res.value - ref) <= 1e-12 * abs(ref), f"{label}: det {res.value} != {ref}")

    @staticmethod
    def _character_product(system, beta, perms, degree) -> complex:
        """prod over characters chi of Z/d of det(1 - sum_s chi(g_s) block_s)."""
        base = build_transfer_matrix(system, beta, ZETA_NODES).matrix
        k = ZETA_NODES
        shifts = [perms[b.label][0] for b in system.branches]  # g_s = shift by perm(0)
        out = 1.0 + 0j
        for j in range(degree):
            col = np.repeat(np.exp(2j * math.pi * j * np.array(shifts) / degree), k)
            out *= np.linalg.det(np.eye(base.shape[0]) - base * col[None, :])
        return complex(out)


class Suite(Workload):
    """A workload made of item groups, each run in full in every batch."""

    def __init__(self, name: str, *groups: Workload):
        self.name = name
        self.groups = groups
        self.invariant = tuple(key for g in groups for key in g.invariant)

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        for g in self.groups:
            g.setup(seed, workdir)

    def batch(self, b):
        return [{"group": g.name, **item} for g in self.groups for item in g.batch(b)]

    def run(self, tr, item):
        next(g for g in self.groups if g.name == item["group"]).run(tr, item)


# Two workloads, so that each run can last ~40 s within the benchmark's
# time budget: long runs are what keeps wall_s steady on a shared host
# (see README).  The spectral chains share the second workload.
WORKLOADS = {
    "pipeline": Pipeline,
    "spectra": lambda: Suite("spectra", Geodesics(), Actions(), Zeta()),
}
