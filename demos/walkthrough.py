"""End-to-end walkthrough of the solver library at refinement level 2.

Runs the full pipeline by hand instead of through the command line:
audit the coefficient, build the paired surface/volume meshes, check the
Green identities for the manufactured point-source field, assemble and
solve the boundary-domain system, and compare the recovered solution
against the exact one.  Finishes in well under a minute.

    python3 demos/walkthrough.py
"""

import numpy as np

from bdie import cases
from bdie import coefficients as co
from bdie import greens as gr
from bdie import reports
from bdie import system as sy

LEVEL = 2


def main():
    # 1. The coefficient a(x) = 1 + exp(-|x|^2) and its admissibility audit.
    field = co.gaussian_coefficient()
    audit = co.validate_conditions(field)
    print("coefficient: gaussian")
    print(f"  bounds hold: {audit.passes_cond0}, weighted gradient: "
          f"{audit.passes_cond1}, weighted laplacian: {audit.passes_cond3}, "
          f"gradient decay: {audit.passes_decay}")

    # 2. Partitioned icosphere plus a graded truncated-shell volume mesh.
    surf, vol = cases.level_meshes(LEVEL)
    print(f"meshes: {surf.n_triangles} boundary triangles, "
          f"{vol.n_cells} volume cells, h = {surf.max_edge:.3f}")

    # 3. The manufactured problem: u = 1/(4 pi |x|) with mixed data read
    #    off the exact field, and f = grad a . grad u as the source.
    case = cases.point_source_case(field)
    probes = cases.PROBE_POINTS

    # 4. Green identity residuals for the exact field on these meshes.
    third = gr.third_green_residual(field, case.exact, surf, vol, probes, level=LEVEL)
    trace = gr.trace_identity_residual(field, case.exact, surf, vol, level=LEVEL)
    print(f"third Green identity: rel residual {third.rel_to_scale:.4f}")
    print(f"trace identity:       rel residual {trace.rel_to_scale:.4f}")

    # 5. Assemble the 2x3 block system and solve for (u, psi, phi).
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    system = sy.assemble_M12(vol, surf, field, f=case.f, extensions=ext)
    solution = sy.solve_M12(system)
    print(f"system: n = {system.matrix.shape[0]}, "
          f"cond ~ {solution.conditioning:.1f}, "
          f"linear residual {solution.residual_norm:.2e}")

    # 6. How well the discrete triple reproduces the exact field.
    report = sy.equivalence_residuals(solution, case.exact, field, surf, vol)
    print(f"recovery: interior {report.interior_rel:.4f}, "
          f"trace {report.trace_rel:.4f}, conormal {report.conormal_rel:.4f}")
    values = sy.evaluate_solution(system, solution, probes)
    exact = case.exact.u(probes)
    for point, got, want in zip(probes, values, exact):
        print(f"  probe ({point[0]:+.1f},{point[1]:+.1f},{point[2]:+.1f}): "
              f"u = {got:.6f}, exact {want:.6f}, "
              f"rel {abs(got - want) / abs(want):.4f}")

    # 7. Persist a machine-readable record of the run.
    out = reports.resolve_output_dir("demo-out")
    path = reports.write_json_report(out / "walkthrough.json", {
        "level": LEVEL,
        "identities": {"third_green": third.rel_to_scale,
                       "trace": trace.rel_to_scale},
        "recovery": report.to_dict(),
        "probes": {"values": values, "exact": exact},
    })
    print(f"report -> {path}")


if __name__ == "__main__":
    main()
