"""Command-line harness: meshes, coefficient audits, operator cross-checks,
identity checks, solves, and convergence sweeps.

Every command reads an optional JSON config file, applies flag overrides,
echoes the full effective configuration into its reports, and writes
deterministic artifacts (see reports module).  Exit codes: 0 success and all
gates met, 1 gate failure, 2 configuration error, 3 resource cap exceeded.
"""

import argparse
import dataclasses
import json
import numbers
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cases
from . import coefficients as co
from . import geometry as geo
from . import greens as gr
from . import laplace as lp
from . import parametrix as px
from . import reports
from . import system as sy

EXIT_OK = 0
EXIT_GATE = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3

SOLVE_RESIDUAL_GATE = 1e-10
THIRD_GREEN_GATE_CONSTANT = 0.03
THIRD_GREEN_GATE_VARIABLE = 0.05
TRACE_GATE = 0.05
RELATION_GATE = 1e-10
DUAL_FORM_GATE = 1e-3
REDUCTION_GATE = 1e-12


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    """Effective settings of one harness invocation, echoed into reports."""

    coefficient: str = "gaussian"
    coefficient_params: dict = field(default_factory=dict)
    case: str = "point-source"
    partition: str = "equator"
    level: int = 2
    levels: tuple = (1, 2, 3)
    truncation_radius: float = 4.0
    n_radial: Optional[int] = None
    angular_level: Optional[int] = None
    probe_points: tuple = tuple(map(tuple, cases.PROBE_POINTS.tolist()))
    output_dir: str = "bdie-out"
    workers: int = 1
    method: str = "direct"

    def to_dict(self) -> dict:
        # workers (validated, then ignored) and output_dir are execution
        # knobs, not part of the problem statement; outputs must be
        # byte-identical across worker counts and destination directories.
        body = dataclasses.asdict(self)
        body.pop("workers")
        body.pop("output_dir")
        return body


def _is_int(val) -> bool:
    return isinstance(val, numbers.Integral) and not isinstance(val, bool)


def _is_real(val) -> bool:
    return isinstance(val, numbers.Real) and not isinstance(val, bool)


def _is_list(val, each) -> bool:
    return isinstance(val, (list, tuple)) and len(val) > 0 and all(map(each, val))


_STRING = (lambda v: isinstance(v, str), "a string")
_INTEGER = (_is_int, "an integer")
_OPTIONAL_INTEGER = (lambda v: v is None or _is_int(v), "an integer")
# What the value of each config key is, checked before the value itself: a
# test and its words.  Integer keys take ints, not floats or bools.
_KINDS = {
    "coefficient": _STRING, "coefficient_params": (lambda v: isinstance(v, dict), "an object"),
    "case": _STRING, "partition": _STRING, "level": _INTEGER,
    "levels": (lambda v: _is_list(v, _is_int), "a non-empty list of integers"),
    "truncation_radius": (_is_real, "a number"),
    "n_radial": _OPTIONAL_INTEGER, "angular_level": _OPTIONAL_INTEGER,
    "probe_points": (lambda v: _is_list(v, lambda p: _is_list(p, _is_real) and len(p) == 3),
                     "a non-empty list of 3d points"),
    "output_dir": _STRING, "workers": _INTEGER, "method": _STRING,
}


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Defaults, then the JSON file, then command-line overrides."""
    values = {}
    if path is not None:
        try:
            loaded = json.loads(open(path).read())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        values.update(loaded)
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    unknown = set(values) - set(_KINDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, val in values.items():
        holds, kind = _KINDS[key]
        if not holds(val):
            raise ConfigError(f"{key} must be {kind}, not {val!r}")
    if "levels" in values:
        values["levels"] = tuple(values["levels"])
    if "probe_points" in values:
        values["probe_points"] = tuple(map(tuple, values["probe_points"]))
    config = RunConfig(**values)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.case not in cases.CASES:
        raise ConfigError(f"unknown case '{config.case}'; "
                          f"choose from {sorted(cases.CASES)}")
    if config.coefficient not in co.coefficient_names():
        raise ConfigError(f"unknown coefficient '{config.coefficient}'; "
                          f"choose from {sorted(co.coefficient_names())}")
    try:
        _coefficient(config)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"coefficient_params {config.coefficient_params!r} do not fit "
                          f"coefficient '{config.coefficient}': {exc}")
    if config.partition not in cases.PARTITION_RULES:
        raise ConfigError(f"unknown partition rule '{config.partition}'; "
                          f"choose from {sorted(cases.PARTITION_RULES)}")
    if config.level not in cases.LEVELS:
        raise ConfigError(f"level must be one of {cases.LEVELS}")
    if any(lv not in cases.LEVELS for lv in config.levels):
        raise ConfigError(f"levels must be drawn from {cases.LEVELS}")
    if list(config.levels) != sorted(set(config.levels)):
        raise ConfigError("levels must be strictly increasing")
    if not geo.INNER_RADIUS < config.truncation_radius < np.inf:
        raise ConfigError("truncation radius must be finite and exceed the unit sphere")
    if config.n_radial is not None and config.n_radial < 1:
        raise ConfigError("n_radial must be at least 1")
    if config.angular_level is not None and config.angular_level < 0:
        raise ConfigError("angular_level must be at least 0")
    if config.workers < 1:
        raise ConfigError("workers must be at least 1")
    if config.method not in ("direct", "iterative"):
        raise ConfigError("method must be 'direct' or 'iterative'")
    radii = np.linalg.norm(_probes(config), axis=1)
    if not np.all((radii > geo.INNER_RADIUS) & (radii < config.truncation_radius)):
        raise ConfigError("probe_points must lie in the shell "
                          f"{geo.INNER_RADIUS} < |x| < {config.truncation_radius}")


def _coefficient(config: RunConfig) -> co.CoefficientField:
    return co.coefficient_by_name(config.coefficient, **config.coefficient_params)


def _probes(config: RunConfig) -> np.ndarray:
    return np.asarray(config.probe_points, dtype=float)


# --- commands -----------------------------------------------------------------


def cmd_mesh(config: RunConfig) -> int:
    surf, vol = cases.level_meshes(config.level, config.partition, config.truncation_radius,
                                   config.n_radial, config.angular_level)
    out = reports.resolve_output_dir(config.output_dir)
    off_path = out / f"surface_level{config.level}.off"
    geo.write_off(surf, off_path)

    area = float(surf.areas.sum())
    area_exact = 4.0 * np.pi
    volume = float(vol.volumes.sum())
    r3 = config.truncation_radius ** 3
    volume_exact = 4.0 * np.pi / 3.0 * (r3 - geo.INNER_RADIUS ** 3)
    summary = {
        "config": config.to_dict(),
        "surface": {
            "file": off_path.name,
            "n_vertices": surf.n_vertices,
            "n_triangles": surf.n_triangles,
            "n_dirichlet": int(surf.triangles_with_label(geo.PART_DIRICHLET).size),
            "n_neumann": int(surf.triangles_with_label(geo.PART_NEUMANN).size),
            "max_edge": surf.max_edge,
            "area": area,
            "area_rel_error": abs(area - area_exact) / area_exact,
        },
        "volume": {
            "n_cells": vol.n_cells,
            "volume": volume,
            "volume_rel_error": abs(volume - volume_exact) / volume_exact,
        },
    }
    reports.write_json_report(out / f"mesh_level{config.level}.json", summary)
    print(f"surface: {surf.n_triangles} triangles, {surf.n_vertices} vertices "
          f"-> {off_path}")
    print(f"area {area:.6f} vs {area_exact:.6f} "
          f"(rel {summary['surface']['area_rel_error']:.2e})")
    print(f"volume cells {vol.n_cells}, volume {volume:.6f} vs "
          f"{volume_exact:.6f} (rel {summary['volume']['volume_rel_error']:.2e})")
    return EXIT_OK


def cmd_check_coeff(config: RunConfig) -> int:
    register = co.validate_conditions(_coefficient(config))
    out = reports.resolve_output_dir(config.output_dir)
    payload = {"config": config.to_dict(), "report": register.to_dict()}
    path = reports.write_json_report(out / f"coeff_{config.coefficient}.json",
                                     payload)
    ok = (register.passes_cond0 and register.passes_cond1
          and register.passes_cond3 and register.passes_decay)
    for label, flag in [("bounds", register.passes_cond0),
                        ("weighted gradient", register.passes_cond1),
                        ("weighted laplacian", register.passes_cond3),
                        ("gradient decay", register.passes_decay)]:
        print(f"{label}: {'pass' if flag else 'FAIL'}")
    print(f"report -> {path}")
    return EXIT_OK if ok else EXIT_GATE


def cmd_operators(config: RunConfig) -> int:
    field_obj = _coefficient(config)
    unit = co.constant_coefficient()
    surf, vol = cases.level_meshes(config.level, config.partition, config.truncation_radius,
                                   config.n_radial, config.angular_level)
    targets = _probes(config)

    tdens = lp.BoundaryDensity(lp.SPACE_TRIANGLE, np.ones(surf.n_triangles))
    v_rel = px.op_V(surf, field_obj, tdens, targets)
    v_ker = px.op_V_by_kernel(surf, field_obj, tdens, targets)
    v_diff = float(np.abs(v_rel - v_ker).max())

    fdens = lp.DomainDensity(1.0 / np.linalg.norm(vol.centers, axis=1))
    p_rel = px.op_P(vol, field_obj, fdens, targets)
    p_ker = px.op_P_by_kernel(vol, field_obj, fdens, targets)
    p_diff = float(np.abs(p_rel - p_ker).max())

    r_kern = px.op_R(vol, field_obj, fdens, targets)
    r_dual = px.op_R_divergence_form(vol, field_obj, fdens, targets)
    denom = np.abs(r_dual)
    r_rel = float(np.max(np.abs(r_kern - r_dual) / np.where(denom > 0, denom, 1.0)))

    vu_rel = px.op_V(surf, unit, tdens, targets)
    vu_lap = lp.single_layer(surf, tdens, targets)
    reduction = float(np.abs(vu_rel - vu_lap).max())
    r_unit = px.op_R(vol, unit, fdens, targets)
    reduction = max(reduction, float(np.abs(r_unit).max()))

    checks = {
        "single_layer_relation_vs_kernel": {"diff": v_diff, "gate": RELATION_GATE},
        "newton_relation_vs_kernel": {"diff": p_diff, "gate": RELATION_GATE},
        "remainder_dual_form_rel": {"diff": r_rel, "gate": DUAL_FORM_GATE},
        "unit_coefficient_reduction": {"diff": reduction, "gate": REDUCTION_GATE},
    }
    ok = all(c["diff"] <= c["gate"] for c in checks.values())
    out = reports.resolve_output_dir(config.output_dir)
    path = reports.write_json_report(out / f"operators_level{config.level}.json",
                                     {"config": config.to_dict(),
                                      "checks": checks, "all_pass": ok})
    for name, c in checks.items():
        state = "pass" if c["diff"] <= c["gate"] else "FAIL"
        print(f"{name}: {c['diff']:.3e} (gate {c['gate']:.0e}) {state}")
    print(f"report -> {path}")
    return EXIT_OK if ok else EXIT_GATE


def cmd_green_check(config: RunConfig) -> int:
    field_obj = _coefficient(config)
    case = cases.case_by_name(config.case, field_obj)
    if case.exact is None:
        raise ConfigError(f"case '{config.case}' has no closed-form field "
                          "to check identities against")
    surf, vol = cases.level_meshes(config.level, config.partition, config.truncation_radius,
                                   config.n_radial, config.angular_level)
    probes = _probes(config)

    try:
        third = gr.third_green_residual(field_obj, case.exact, surf, vol, probes,
                                        level=config.level)
    except ValueError as exc:  # every probe point excluded
        raise ConfigError(str(exc)) from exc
    trace = gr.trace_identity_residual(field_obj, case.exact, surf, vol,
                                       level=config.level)
    if case.u_inf:
        # both identities leave the term at infinity as their residual
        third = dataclasses.replace(third, residuals=third.residuals - case.u_inf)
        trace = dataclasses.replace(trace, residuals=trace.residuals - case.u_inf)
    partner = (gr.point_source_field()
               if case.exact.name.startswith("constant")
               else gr.point_source_field(center=(0.0, 0.0, 0.5)))
    try:
        second = gr.second_green_residual(field_obj, case.exact, partner,
                                          surf, vol, level=config.level)
        second_payload = dict(second.to_dict(), gate=None)
        second_line = f"second_green: rel {second.rel_to_scale:.4e}  info"
    except gr.TruncationError as exc:
        second_payload = {"gate": None, "truncation_error": str(exc)}
        second_line = f"second_green: skipped ({exc})"

    third_gate = (THIRD_GREEN_GATE_CONSTANT if field_obj.is_constant
                  else THIRD_GREEN_GATE_VARIABLE)
    rows = [
        ("third_green", third, third_gate),
        ("trace_identity", trace, TRACE_GATE),
    ]
    ok = all(rep.rel_to_scale <= gate for _, rep, gate in rows)

    out = reports.resolve_output_dir(config.output_dir)
    stem = f"green_{config.case}_level{config.level}"
    checks = {name: dict(rep.to_dict(), gate=gate) for name, rep, gate in rows}
    checks["second_green"] = second_payload
    reports.write_json_report(out / f"{stem}.json",
                              {"config": config.to_dict(), "checks": checks,
                               "all_pass": ok})
    with open(out / f"{stem}.csv", "w", newline="") as handle:
        handle.write("check,scale,max_abs,rel_to_scale,gate\n")
        if "truncation_error" not in second_payload:
            handle.write(f"second_green,{second_payload['scale']!r},"
                         f"{second_payload['max_abs']!r},"
                         f"{second_payload['rel_to_scale']!r},\n")
        for name, rep, gate in rows:
            handle.write(f"{name},{rep.scale!r},{rep.max_abs!r},"
                         f"{rep.rel_to_scale!r},{float(gate)!r}\n")
    print(second_line)
    for name, rep, gate in rows:
        state = "pass" if rep.rel_to_scale <= gate else "FAIL"
        print(f"{name}: rel {rep.rel_to_scale:.4e} (gate {gate}) {state}")
    return EXIT_OK if ok else EXIT_GATE


def _solve_once(config: RunConfig, level: int):
    field_obj = _coefficient(config)
    case = cases.case_by_name(config.case, field_obj)
    surf, vol = cases.level_meshes(level, config.partition, config.truncation_radius,
                                   config.n_radial, config.angular_level)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    system = sy.assemble_M12(vol, surf, field_obj, f=case.f, extensions=ext)
    if case.u_inf:
        # Every row is the third Green identity or its trace, which holds
        # with the term at infinity on the right.
        system = dataclasses.replace(system, rhs=system.rhs + case.u_inf)
    solution = sy.solve_M12(system, method=config.method)
    return case, system, solution


def _field_values(case, system, solution, probes) -> np.ndarray:
    """Representation-formula values plus the term at infinity it drops."""
    values = sy.evaluate_solution(system, solution, probes)
    return values + case.u_inf if case.u_inf else values


def cmd_solve(config: RunConfig) -> int:
    case, system, solution = _solve_once(config, config.level)
    probes = _probes(config)
    values = _field_values(case, system, solution, probes)

    probe_rows = []
    for point, value in zip(probes, values):
        row = {"x": point[0], "y": point[1], "z": point[2], "value": value}
        if case.exact is not None:
            exact = float(case.exact.u(point[None, :])[0])
            row["exact"] = exact
            row["abs_error"] = abs(value - exact)
        probe_rows.append(row)

    payload = {
        "config": config.to_dict(),
        "solution": solution.to_dict(),
        "probes": probe_rows,
    }
    if case.exact is not None:
        report = sy.equivalence_residuals(solution, case.exact, case.field,
                                          system.surfmesh, system.volmesh)
        payload["equivalence"] = report.to_dict()

    out = reports.resolve_output_dir(config.output_dir)
    stem = f"solve_{config.case}_level{config.level}"
    reports.write_json_report(out / f"{stem}.json", payload)
    with open(out / f"{stem}_probes.csv", "w", newline="") as handle:
        handle.write("x,y,z,value,exact,abs_error\n")
        for row in probe_rows:
            exact_txt = "" if "exact" not in row else repr(row["exact"])
            err_txt = "" if "abs_error" not in row else repr(row["abs_error"])
            handle.write(f"{row['x']!r},{row['y']!r},{row['z']!r},"
                         f"{row['value']!r},{exact_txt},{err_txt}\n")

    cond = ("n/a" if solution.conditioning is None
            else f"~ {solution.conditioning:.3e}")
    print(f"n = {system.matrix.shape[0]}, cond {cond}, "
          f"residual {solution.residual_norm:.3e}")
    for row in probe_rows:
        extra = (f" exact {row['exact']:.6e}" if "exact" in row else "")
        print(f"probe ({row['x']:+.2f},{row['y']:+.2f},{row['z']:+.2f}): "
              f"{row['value']:.6e}{extra}")
    ok = solution.residual_norm <= SOLVE_RESIDUAL_GATE
    return EXIT_OK if ok else EXIT_GATE


def cmd_converge(config: RunConfig) -> int:
    probes = _probes(config)
    table = reports.ConvergenceTable(metric_names=(
        "interior_error", "trace_error", "conormal_error",
        "probe_max_rel_error", "solve_residual"))
    for level in config.levels:
        start = time.perf_counter()
        case, system, solution = _solve_once(config, level)
        if case.exact is None:
            raise ConfigError(f"case '{config.case}' has no exact field for "
                              "a convergence sweep")
        report = sy.equivalence_residuals(solution, case.exact, case.field,
                                          system.surfmesh, system.volmesh)
        values = _field_values(case, system, solution, probes)
        exact = case.exact.u(probes)
        denom = np.where(np.abs(exact) > 0, np.abs(exact), 1.0)
        probe_rel = float(np.max(np.abs(values - exact) / denom))
        elapsed = time.perf_counter() - start
        table.add_row(level, system.surfmesh.max_edge, system.volmesh.n_cells,
                      [report.interior_rel, report.trace_rel,
                       report.conormal_rel, probe_rel,
                       solution.residual_norm], elapsed)
        print(f"level {level}: interior {report.interior_rel:.4e} "
              f"trace {report.trace_rel:.4e} conormal {report.conormal_rel:.4e} "
              f"({elapsed:.1f}s)")
    out = reports.resolve_output_dir(config.output_dir)
    path = table.to_csv(out / f"converge_{config.case}.csv")
    print(f"table -> {path}")
    return EXIT_OK


# --- argument parsing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdie",
        description="Boundary-domain integral solver for the mixed exterior "
                    "problem div(a grad u) = f outside the unit sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, level=False, case=False, coeff=False, levels=False,
               method=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", dest="output_dir", help="output directory "
                       "(BDIE_OUT env var wins)")
        p.add_argument("--workers", type=int, help="accepted; changes no work or output")
        p.add_argument("--partition", help="boundary partition rule name")
        if level:
            p.add_argument("--level", type=int, help="refinement level (1-3)")
        if levels:
            p.add_argument("--levels", type=int, nargs="+",
                           help="refinement levels for the sweep")
        if case:
            p.add_argument("--case", help="manufactured case name")
        if coeff:
            p.add_argument("--coefficient", help="coefficient catalog name")
        if method:
            p.add_argument("--method", choices=["direct", "iterative"])

    common(sub.add_parser("mesh", help="build and summarize level meshes"),
           level=True)
    common(sub.add_parser("check-coeff", help="audit coefficient conditions"),
           coeff=True)
    common(sub.add_parser("operators", help="operator cross-validation suite"),
           level=True, coeff=True)
    common(sub.add_parser("green-check", help="Green identity residuals"),
           level=True, case=True, coeff=True)
    common(sub.add_parser("solve", help="assemble and solve the system"),
           level=True, case=True, coeff=True, method=True)
    common(sub.add_parser("converge", help="multi-level convergence sweep"),
           levels=True, case=True, coeff=True)
    return parser


_COMMANDS = {
    "mesh": cmd_mesh,
    "check-coeff": cmd_check_coeff,
    "operators": cmd_operators,
    "green-check": cmd_green_check,
    "solve": cmd_solve,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: val for key, val in vars(args).items()
                 if key not in ("command", "config")}
    try:
        config = load_config(args.config, overrides)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except px.ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (sy.SolverError, gr.TruncationError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_GATE


if __name__ == "__main__":
    sys.exit(main())
