"""Regenerate ``reference_spectra.json``, the geodesics workload's oracle.

Each entry is the (length, multiplicity) list of ``length_spectrum`` for
the sorted signature; the workload checks every seeded vertex order of the
same signature against it (reordering the vertices does not change the
group).  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json

from adinkra_spectra.hyperbolic import length_spectrum, triangle_generators

from workloads import GEODESIC_SIGNATURES, REFERENCE_FILE, reference_key


def main() -> None:
    table = {}
    for sig, l_max in GEODESIC_SIGNATURES:
        spec = length_spectrum(triangle_generators(*sorted(sig)), l_max)
        if not spec.converged:
            raise SystemExit(f"{sig} at l_max {l_max} did not converge")
        table[reference_key(sig, l_max)] = [[c.length, c.multiplicity] for c in spec.classes]
    rows = (f" {json.dumps(key)}: {json.dumps(value)}" for key, value in table.items())
    REFERENCE_FILE.write_text("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    main()
