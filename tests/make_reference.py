"""Reference values of the assembled numbers, and the script that writes them.

For three point-source cases (gaussian coefficient on the equator partition,
constant coefficient on the polar cap, inclusion on the equator) at levels
1 and 2, the arrays of one solve are summarised by their SHA-256 digest,
their largest |entry| and their Frobenius norm: the matrix, the data
columns, the assembled right-hand side and that of with_data, the solved
cell values u, the recovered trace and conormal, and the field at
``cases.PROBE_POINTS``.  The file also records the environment the digests
hold in (numpy, scipy, the BLAS thread setting and the CPU); elsewhere only
the norms are compared (see tests/test_reference.py).

Regenerate, on a tree whose numbers move by design, with

    PYTHONPATH=src python tests/make_reference.py

which writes tests/reference.json; on an unchanged tree it writes the same
bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import numpy as np
import scipy

from bdie import cases as cs
from bdie import coefficients as co
from bdie import system as sy

REFERENCE = pathlib.Path(__file__).with_name("reference.json")
CASES = (("gaussian", "equator"), ("constant", "polar-cap"), ("inclusion", "equator"))
LEVELS = (1, 2)


def environment() -> dict:
    """What the digests depend on besides the tree."""
    from numpy._core._multiarray_umath import __cpu_features__

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


def arrays():
    """(name, array) of every case, level and array, in a fixed order."""
    for coefficient, partition in CASES:
        field = co.coefficient_by_name(coefficient)
        case = cs.point_source_case(field)
        for level in LEVELS:
            surf, vol = cs.level_meshes(level, partition)
            ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
            system = sy.assemble_M12(vol, surf, field, f=case.f, extensions=ext)
            solution = sy.solve_M12(system)
            prefix = f"{coefficient}/{partition}/level{level}/"
            yield prefix + "matrix", system.matrix
            yield prefix + "data_columns", system.data_columns
            yield prefix + "rhs", system.rhs
            yield prefix + "with_data_rhs", system.with_data(case.f, ext).rhs
            yield prefix + "u", solution.u.values
            yield prefix + "trace", solution.recovered_trace
            yield prefix + "conormal", solution.recovered_conormal
            yield prefix + "probes", sy.evaluate_solution(system, solution, cs.PROBE_POINTS)


def summary(a: np.ndarray) -> dict:
    """The digest of an array's shape and bytes, its largest |entry| and its
    Frobenius norm."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    digest = hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()
    return {"shape": list(a.shape), "sha256": digest,
            "max_abs": float(np.abs(a).max()), "frobenius": float(np.linalg.norm(a))}


def reference() -> dict:
    return {"environment": environment(),
            "arrays": {name: summary(a) for name, a in arrays()}}


def dumps(ref: dict) -> str:
    return json.dumps(ref, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    REFERENCE.write_text(dumps(reference()))
    print(f"wrote {REFERENCE}")
