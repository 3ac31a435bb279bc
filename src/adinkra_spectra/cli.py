"""Command-line interface: one binary, subcommand per pipeline stage.

Outputs are deterministic JSON (sorted keys, shortest round-trip float
repr) on stdout or ``--out``; validation failures exit 1 with a JSON
error object on stderr, resource-bound refusals exit 2.  ``geodesics``
without ``--out`` writes its CSV on stdout and its convergence metadata as
one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .adinkra import build_quotient, graph_to_json, validate_chromotopology
from .codes import BinaryCode, analyze_code, enumerate_cosets, format_word
from .embedding import (
    attach_faces,
    cartesian_product,
    dual_origami_graph,
    fibered_genus_report,
    fibered_product,
    triangulation_stats,
)
from .errors import ResourceBoundError
from .hyperbolic import (
    length_spectrum,
    spectrum_from_csv,
    spectrum_to_csv,
    triangle_generators,
)
from .origami import (
    Monodromy,
    genus_from_monodromy,
    m_origami_embeddings,
    monodromy,
    origami_from_monodromy,
    validate_origami_graph,
)
from .perms import json_complex, one_based_table
from .spectral import dirac_action, laplace_action_conjugacy, make_test_pair, super_action
from .torus_spectrum import (
    PeriodData,
    gaussian,
    origami_action,
    poisson_reference,
    solution_set,
    spectrum_to_csv as torus_csv,
)
from .transfer import (
    BranchSystem,
    build_transfer_matrix,
    extend_to_coset,
    fredholm_det,
    gauss_branch_system,
)

TEST_KINDS = {"bump": "smooth_bump", "coswin": "cosine_window", "poly": "polynomial"}


def real_or_complex(text: str) -> float | complex:
    """A finite float when ``text`` is real (``2.0``), else a finite complex
    (``1.5+0.7j``)."""
    try:
        value = float(text)
    except ValueError:
        value = complex(text)
    if not cmath.isfinite(value):
        raise ValueError(f"not finite: {text}")
    return value


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved run configuration shared by the subcommand handlers."""

    subcommand: str
    tolerance: float = 1e-9
    out: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _emit(config: PipelineConfig, payload, text: str | None = None) -> None:
    body = text if text is not None else _dump(payload) + "\n"
    if config.out:
        Path(config.out).write_text(body)
    else:
        sys.stdout.write(body)


def _parse_code(n: int, code_arg: str) -> BinaryCode:
    if code_arg in ("trivial", ""):
        return BinaryCode.trivial(n)
    return BinaryCode.from_strings(n, code_arg.split(","))


def _surface_payload(graph, surface) -> dict:
    stats = triangulation_stats(surface)
    return {
        "surface": surface.to_json(),
        "triangulation": stats.to_json(),
        "genus": surface.euler_genus,
    }


def cmd_code(config: PipelineConfig) -> None:
    p = config.params
    code = _parse_code(p["n"], p["code"])
    payload = {"code": code.to_json(), "report": analyze_code(code).to_json()}
    if p["cosets"]:
        payload["cosets"] = [format_word(r, code.length) for r in enumerate_cosets(code)]
    _emit(config, payload)


def cmd_adinkra(config: PipelineConfig) -> None:
    p = config.params
    code = _parse_code(p["n"], p["code"])
    graph = build_quotient(p["n"], code)
    report = validate_chromotopology(graph)
    payload = {"graph": graph_to_json(graph), "validation": report.to_json()}
    if report.ok:
        payload["genus"] = attach_faces(graph).euler_genus
    _emit(config, payload)


def cmd_surface(config: PipelineConfig) -> None:
    p = config.params
    code = _parse_code(p["n"], p["code"])
    graph = build_quotient(p["n"], code)
    surface = attach_faces(graph)
    payload = _surface_payload(graph, surface)
    if p["emit_dual"]:
        dual = dual_origami_graph(surface)
        mono, genus = monodromy(dual)
        dual_payload = {
            "d": dual.d,
            "edges": [[u, v, "x" if x else "y"] for u, v, x in
                      zip(dual.tails.tolist(), dual.heads.tolist(), dual.is_x.tolist())],
            "monodromy": mono.to_json(),
            "genus": genus,
        }
        Path(p["emit_dual"]).write_text(_dump(dual_payload) + "\n")
        payload["dual_written_to"] = p["emit_dual"]
    _emit(config, payload)


def cmd_origami(config: PipelineConfig) -> None:
    p = config.params
    if p["embeddings"]:
        code = _parse_code(p["n"], p["code"])
        graph = build_quotient(p["n"], code)
        res = m_origami_embeddings(graph)
        payload = {
            "edge_count": res.n_edges,
            "embedding_count": str(res.count),  # exact big integer
            "mode": "count",  # the only mode left; kept so the JSON is unchanged
        }
        _emit(config, payload)
        return
    obj = json.loads(Path(p["json"]).read_text())
    mono = Monodromy.from_json(obj)
    report = validate_origami_graph(origami_from_monodromy(mono))
    payload = {"validation": report.to_json(), "monodromy": mono.to_json()}
    if report.ok:
        payload["genus"] = genus_from_monodromy(mono)
    _emit(config, payload)


def cmd_product(config: PipelineConfig) -> None:
    p = config.params
    code1 = _parse_code(p["n1"], p["code1"])
    code2 = _parse_code(p["n2"], p["code2"])
    g1 = build_quotient(p["n1"], code1)
    g2 = build_quotient(p["n2"], code2)
    if p["kind"] == "cartesian":
        from .adinkra import Adinkra, Dashing, default_ranking

        a1 = Adinkra(g1, default_ranking(g1), Dashing.solid(g1.edge_count))
        a2 = Adinkra(g2, default_ranking(g2), Dashing.solid(g2.edge_count))
        prod = cartesian_product(a1, a2)
        payload = {
            "graph": graph_to_json(prod.graph, prod.dashing),
            "validation": validate_chromotopology(prod.graph).to_json(),
        }
    else:
        graph, _ranking = fibered_product(g1, g2, residue=p["residue"])
        payload = {
            "graph": graph_to_json(graph),
            "validation": validate_chromotopology(graph).to_json(),
            "genus_report": fibered_genus_report(g1, g2, graph).to_json(),
        }
    _emit(config, payload)


def cmd_geodesics(config: PipelineConfig) -> None:
    p = config.params
    group = triangle_generators(p["p"], p["q"], p["r"])
    spec = length_spectrum(group, p["lmax"], dedupe_tol=config.tolerance)
    text = spectrum_to_csv(spec)
    meta = {
        "converged": spec.converged,
        "certified_below": spec.certified_below,
        "depth": spec.depth,
        "elements": spec.element_count,
        "classes": len(spec.merged()),
    }
    if config.out:
        Path(config.out).write_text(text)
        sys.stdout.write(_dump(meta) + "\n")
    else:
        sys.stdout.write(text)
        sys.stderr.write(json.dumps(meta, sort_keys=True) + "\n")


def cmd_action(config: PipelineConfig) -> None:
    p = config.params
    classes = spectrum_from_csv(Path(p["spectrum"]).read_text()) if p["spectrum"] else []
    pair = make_test_pair(TEST_KINDS[p["test"]])
    lam = p["lam"]
    genus = p["genus"]
    if p["flavor"] == "laplace":
        res = laplace_action_conjugacy(genus, classes, pair, lam)
    else:
        if p["chi"]:
            chi_obj = json.loads(Path(p["chi"]).read_text())
            if not isinstance(chi_obj, dict):
                raise ValueError("chi must be an object of [re, im] pairs by class word")
            chi_map = {w: json_complex(v, f"chi[{w!r}]") for w, v in chi_obj.items()}
            missing = next((c.word for c in classes if c.word not in chi_map), None)
            if missing is not None:
                raise ValueError(f"chi has no value for class {missing!r}")
            chi = [chi_map[c.word] for c in classes]
        else:
            chi = [1.0 + 0j] * len(classes)
        if p["flavor"] == "dirac":
            res = dirac_action(genus, classes, chi, pair, lam)
        else:
            variant = "r_scaled" if p["variant"] == "r" else "lambda_scaled"
            res = super_action(genus, classes, chi, pair, lam, variant=variant)
    _emit(config, res.to_json())


def cmd_zeta(config: PipelineConfig) -> None:
    p = config.params
    if p["gauss"]:
        system = gauss_branch_system(p["gauss"])
    else:
        system = BranchSystem.from_json(json.loads(Path(p["system"]).read_text()))
    if p["coset"]:
        table = json.loads(Path(p["coset"]).read_text())["perms"]
        tm = extend_to_coset(system, one_based_table(table, "perm for branch {!r}"),
                             p["beta"], p["nodes"])
    else:
        tm = build_transfer_matrix(system, p["beta"], p["nodes"])
    res = fredholm_det(tm, singular_tol=config.tolerance)
    payload = res.to_json()
    payload["matrix_size"] = tm.size
    payload["beta"] = [complex(p["beta"]).real, complex(p["beta"]).imag]
    _emit(config, payload)


def cmd_torus(config: PipelineConfig) -> None:
    p = config.params
    pd = PeriodData.from_json(json.loads(Path(p["omega"]).read_text()))
    f = gaussian(p["width"])
    res = origami_action(pd, f, p["lam"], p["box"])
    payload = {"action": res.to_json()}
    if pd.genus == 1:
        poisson = poisson_reference(pd, p["width"], p["lam"], max(p["box"], 50))
        payload["poisson"] = {
            "direct": poisson.direct,
            "dual": poisson.dual,
            "discrepancy": poisson.discrepancy,
        }
    if p["spectrum_out"]:
        Path(p["spectrum_out"]).write_text(torus_csv(solution_set(pd, p["box"])))
        payload["spectrum_written_to"] = p["spectrum_out"]
    _emit(config, payload)


def cmd_pipeline(config: PipelineConfig) -> None:
    p = config.params
    code = _parse_code(p["n"], p["code"])
    graph = build_quotient(p["n"], code)
    report = validate_chromotopology(graph)
    payload = {
        "code": analyze_code(code).to_json(),
        "graph": graph_to_json(graph),
        "validation": report.to_json(),
    }
    if report.ok:
        surface = attach_faces(graph)
        payload.update(_surface_payload(graph, surface))
        try:
            dual = dual_origami_graph(surface)
            mono, genus = monodromy(dual)
            payload["dual"] = {
                "monodromy": mono.to_json(),
                "genus": genus,
                "valid": validate_origami_graph(dual).ok,
            }
        except ValueError as exc:
            payload["dual"] = {"rejected": str(exc)}
    _emit(config, payload)


_HANDLERS = {
    "code": cmd_code,
    "adinkra": cmd_adinkra,
    "surface": cmd_surface,
    "origami": cmd_origami,
    "product": cmd_product,
    "geodesics": cmd_geodesics,
    "action": cmd_action,
    "zeta": cmd_zeta,
    "torus": cmd_torus,
    "pipeline": cmd_pipeline,
}


def _global_options() -> argparse.ArgumentParser:
    """The flags that go before the subcommand."""
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--tolerance", type=float, default=1e-9)
    parser.add_argument("--out", default=None)
    return parser


def _unknown_global_flags(argv: list[str]) -> list[str]:
    """Unrecognised flags before the subcommand.  argparse reads the value
    of such a flag (``--seed 7``) as the subcommand and names only that."""
    scan = _global_options()
    scan.add_argument("rest", nargs=argparse.REMAINDER)
    return scan.parse_known_args(argv)[1]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adinkra-spectra", parents=[_global_options()],
                                     exit_on_error=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("code", exit_on_error=False)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--code", default="trivial", help="comma-separated generator rows or 'trivial'")
    s.add_argument("--cosets", action="store_true")

    s = sub.add_parser("adinkra", exit_on_error=False)
    s.add_argument("verb", choices=["build"])
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--code", default="trivial")

    s = sub.add_parser("surface", exit_on_error=False)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--code", default="trivial")
    s.add_argument("--emit-dual", dest="emit_dual", default=None)

    s = sub.add_parser("origami", exit_on_error=False)
    s.add_argument("--json", default=None, help="monodromy JSON file")
    s.add_argument("--embeddings", action="store_true")
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--code", default="trivial")

    s = sub.add_parser("product", exit_on_error=False)
    s.add_argument("kind", choices=["cartesian", "fibered"])
    s.add_argument("--n1", type=int, required=True)
    s.add_argument("--code1", default="trivial")
    s.add_argument("--n2", type=int, required=True)
    s.add_argument("--code2", default="trivial")
    s.add_argument("--residue", type=int, default=0)

    s = sub.add_parser("geodesics", exit_on_error=False)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--lmax", type=float, required=True)

    s = sub.add_parser("action", exit_on_error=False)
    s.add_argument("flavor", choices=["laplace", "dirac", "super"])
    s.add_argument("--genus", type=int, required=True)
    s.add_argument("--spectrum", default=None, help="length-spectrum CSV")
    s.add_argument("--lam", "--lambda", dest="lam", type=float, required=True)
    s.add_argument("--test", choices=sorted(TEST_KINDS), default="bump")
    s.add_argument("--chi", default=None, help="character JSON {word: [re, im]}")
    s.add_argument("--variant", choices=["lambda", "r"], default="lambda")

    s = sub.add_parser("zeta", exit_on_error=False)
    s.add_argument("--beta", type=real_or_complex, required=True, help="real or complex, e.g. 1.5+0.7j")
    s.add_argument("--system", default=None, help="branch-system JSON")
    s.add_argument("--gauss", type=int, default=None, help="use the n-branch Gauss system")
    s.add_argument("--nodes", type=int, default=32)
    s.add_argument("--coset", default=None, help="coset-action JSON")

    s = sub.add_parser("torus", exit_on_error=False)
    s.add_argument("verb", choices=["action"])
    s.add_argument("--omega", required=True, help="period-data JSON")
    s.add_argument("--box", type=int, default=30)
    s.add_argument("--width", type=float, default=1.0)
    s.add_argument("--lam", "--lambda", dest="lam", type=float, default=1.0)
    s.add_argument("--spectrum-out", dest="spectrum_out", default=None)

    s = sub.add_parser("pipeline", exit_on_error=False)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--code", default="trivial")
    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        try:
            ns, extra = parser.parse_known_args(argv)
        except argparse.ArgumentError:
            extra = _unknown_global_flags(argv)
            if not extra:
                raise
        if extra:  # parse_args would exit with plain-text usage instead
            raise argparse.ArgumentError(None, f"unrecognized arguments: {' '.join(extra)}")
    except argparse.ArgumentError as exc:
        sys.stderr.write(_dump({"error": "usage", "message": str(exc)}) + "\n")
        return 1
    except SystemExit as exc:  # --help / --version or argparse-internal exits
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    params = {k: v for k, v in vars(ns).items()
              if k not in ("subcommand", "tolerance", "out")}
    try:
        config = PipelineConfig(
            subcommand=ns.subcommand,
            tolerance=ns.tolerance,
            out=ns.out,
            params=params,
        )
        if config.subcommand == "origami" and not params.get("embeddings") and not params.get("json"):
            raise ValueError("origami needs --json FILE or --embeddings")
        if config.subcommand == "origami" and params.get("embeddings") and params.get("n") is None:
            raise ValueError("origami --embeddings needs --n (and --code)")
        if config.subcommand == "zeta" and not params.get("system") and not params.get("gauss"):
            raise ValueError("zeta needs --system FILE or --gauss N")
        _HANDLERS[config.subcommand](config)
        return 0
    except ResourceBoundError as exc:
        sys.stderr.write(_dump({"error": "resource-bound", "message": str(exc)}) + "\n")
        return 2
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        sys.stderr.write(
            _dump({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
