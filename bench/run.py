"""Benchmark of the bdie solver: time to solution, right-hand-side
throughput, and per-block traces.

Run from the root of a checkout:

    python3 bench/run.py --workload solve-gaussian --seed 1 --seconds 28 --trace 0

Each workload is a closed loop with one client.  The benchmark drives the
public ``bdie`` API in this process with ``workers=1``; BLAS and OpenMP
threads are capped at the number of usable cores before numpy is imported.
Every operation is checked against the manufactured exact field and the
solve residual gate; an operation that raises, returns a non-finite value,
misses the gate or is implausibly inaccurate counts as failed.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the package's layer entry points are
wrapped (see tracing.py) and the per-layer metrics are printed instead.
``--level`` runs a workload on the meshes of another level: 1 for the
benchmark's own smoke tests, 3 for the paper's finest level.
Results and, for traced runs, the spans are also written to ``bench/out/``.
See BASELINE.md for why each workload was chosen.
"""

import os
import sys
import time

_START = time.perf_counter()

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    _cur = os.environ.get(_var, "")
    if not _cur.isdigit() or not 1 <= int(_cur) <= NPROC:
        os.environ[_var] = str(NPROC)

import argparse
import json
import platform
import resource
import statistics
import subprocess
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPS = 3    # meshes, boundary data and, on the sweep, the assembly
IMPORT_REPS = 5   # imports alone are about as long as the rest of a solve set-up
N_PROBES = 32   # seeded probes, and as many reference probes
PROBE_RADII = (1.5, 3.5)
SOURCE_RADIUS = 0.5
RESIDUAL_GATE = 1e-10   # the CLI's solve gate
# Errors above these ceilings mean a wrong answer rather than discretization
# error: about twice the worst value seen at each level over many seeds.
ACCURACY_CEILINGS = {
    1: {"trace_rel": 0.1, "conormal_rel": 1.0, "interior_rel": 0.25, "probe_rel": 0.3},
    2: {"trace_rel": 0.06, "conormal_rel": 0.5, "interior_rel": 0.08, "probe_rel": 0.1},
    3: {"trace_rel": 0.02, "conormal_rel": 0.2, "interior_rel": 0.02, "probe_rel": 0.03},
}

WORKLOADS = {
    "solve-gaussian": {"kind": "solve", "level": 2, "coefficient": "gaussian",
                       "partition": "equator"},
    "solve-constant": {"kind": "solve", "level": 2, "coefficient": "constant",
                       "partition": "polar-cap"},
    "rhs-sweep-gaussian": {"kind": "sweep", "level": 2, "coefficient": "gaussian",
                           "partition": "equator"},
}

TIMED_SPANS = ("parametrix.V_centers", "parametrix.V_boundary", "parametrix.W_centers",
               "parametrix.W_boundary", "parametrix.R_centers", "parametrix.R_boundary",
               "parametrix.P", "laplace.layer_matrix", "laplace.layer_value",
               "laplace.newton", "system.jump", "system.F0", "system.with_data",
               "system.lu", "system.evaluate", "system.assemble", "geometry.mesh")
COUNTERS = ("quadrature.distance_calls", "quadrature.distance_s", "quadrature.far_pairs",
            "quadrature.near_pairs", "quadrature.singular_pairs", "quadrature.kernel_evals",
            "coefficients.points_evaluated", "coefficients.busy_s")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--level", type=int, choices=sorted(ACCURACY_CEILINGS),
                        help="mesh level, instead of the workload's own (2)")
    return parser.parse_args(argv)


if not (SRC / "bdie" / "system.py").is_file():
    print(f"bench: no bdie sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np
import scipy

from bdie import cases
from bdie import coefficients as co
from bdie import greens as gr
from bdie import quadrature as quad
from bdie import system as sy

import tracing

# Every sweep run opens with these two sources, one above and one below the
# equator partition, at the largest allowed |c|.  The sweep's accuracy
# figures are the worst over them, so they are the same in every run and do
# not depend on how many right-hand sides a run completes.  The seed picks
# the sources after them; each of those is still checked for correctness.
REFERENCE_SOURCES = SOURCE_RADIUS / 3 ** 0.5 * np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0]])
SWEEP_MIN_RHS = 4
# Likewise probe_rel is the worst over fixed reference probes: quasi-uniform
# directions at radii spread evenly over PROBE_RADII.  The worst of a few
# dozen random probes moves by a third from seed to seed at level 3.  The
# seeded probes are evaluated in the same call and checked for correctness.
REFERENCE_PROBES = np.linspace(*PROBE_RADII, N_PROBES)[:, None] * co.fibonacci_sphere(N_PROBES)

if not Path(sy.__file__).resolve().is_relative_to(SRC.resolve()):
    print(f"bench: bdie was imported from {sy.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

IMPORT_S = time.perf_counter() - _START
IMPORT_CODE = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
               "import numpy, scipy; from bdie import cases, coefficients, greens, "
               "quadrature, system; import tracing; print(time.perf_counter() - t)")


def import_seconds():
    """Median import time over this process and IMPORT_REPS - 1 fresh ones."""
    samples = [IMPORT_S]
    for _ in range(IMPORT_REPS - 1):
        child = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(BENCH_DIR), str(SRC)],
                               capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(child.stdout))
    return statistics.median(samples)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "machine": platform.machine()}


# --- seeded inputs ---------------------------------------------------------------

def probe_points(rng):
    """The reference probes, then uniform random directions at radii uniform
    in PROBE_RADII."""
    d = rng.normal(size=(N_PROBES, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return np.concatenate([REFERENCE_PROBES,
                           d * rng.uniform(*PROBE_RADII, size=N_PROBES)[:, None]])


def source_centres(rng):
    """The reference sources, then seeded centres uniform in |c| <= SOURCE_RADIUS."""
    yield from REFERENCE_SOURCES
    while True:
        d = rng.normal(size=3)
        yield SOURCE_RADIUS * rng.uniform() ** (1.0 / 3.0) * d / np.linalg.norm(d)


def source_case(field, centre):
    """u = 1/(4 pi |x - c|) with f = grad a . grad u and its mixed data."""
    exact = gr.point_source_field(center=centre)

    def f(nodes):
        pts = np.atleast_2d(np.asarray(nodes, dtype=float))
        return np.einsum("ij,ij->i", np.asarray(field.grad_a(pts), dtype=float),
                         exact.grad_u(pts))

    def neumann(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        normals = -pts / np.linalg.norm(pts, axis=1, keepdims=True)
        return field.eval_a(pts) * np.einsum("ij,ij->i", exact.grad_u(pts), normals)

    return exact, f, (lambda pts: exact.u(np.atleast_2d(pts))), neumann


# --- one operation -----------------------------------------------------------------

def finish(system, solution, exact, probes):
    """Probe evaluation and the equivalence check: the end of every operation."""
    values = sy.evaluate_solution(system, solution, probes)
    report = sy.equivalence_residuals(solution, exact, system.field,
                                      system.surfmesh, system.volmesh)
    u_exact = exact.u(probes)
    probe_err = np.abs(values - u_exact) / np.abs(u_exact)
    return {"trace_rel": report.trace_rel, "conormal_rel": report.conormal_rel,
            "interior_rel": report.interior_rel,
            "probe_rel": float(np.max(probe_err[:len(REFERENCE_PROBES)])),
            "probe_rel_all": float(np.max(probe_err)),
            "residual": solution.residual_norm,
            "cond": solution.conditioning, "n_unknowns": system.matrix.shape[0]}


def check(errors, level):
    """Reasons an operation's output is wrong; empty when it is correct."""
    reasons = [f"{k} is not finite" for k, v in errors.items() if not np.isfinite(v)]
    if errors["residual"] > RESIDUAL_GATE:
        reasons.append(f"residual {errors['residual']:.3e} misses the gate {RESIDUAL_GATE:g}")
    for name, ceiling in ACCURACY_CEILINGS[level].items():
        value = errors["probe_rel_all" if name == "probe_rel" else name]
        if value > ceiling:
            reasons.append(f"{name} {value:.3e} exceeds {ceiling:g}")
    return reasons


class Workload:
    """Set-up and one timed operation of a benchmark workload."""

    def __init__(self, spec, level, field, seed, tracer=None):
        self.spec, self.level, self.field = spec, level, field
        self.tracer = tracer
        self.used = False
        rng = np.random.default_rng(seed)
        self.probes = probe_points(rng)
        self.centres = source_centres(rng)

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def meshes(self):
        with self.span("geometry.mesh"):
            return cases.level_meshes(self.level, self.spec["partition"])

    def setup(self):
        """Meshes and boundary data; on the sweep also the operator assembly."""
        self.surf, self.vol = self.meshes()
        if self.spec["kind"] == "solve":
            self.case = cases.point_source_case(self.field)
            self.ext = sy.build_extensions(self.surf, self.case.dirichlet, self.case.neumann)
        else:
            self.base = sy.assemble_M12(self.vol, self.surf, self.field)

    def prepare(self):
        """Untimed work before an operation: fresh meshes for each solve pass,
        so every pass starts from cold panel caches like a `bdie solve` run."""
        if self.spec["kind"] == "solve" and self.used:
            if self.tracer:
                self.tracer.phase = "prepare"
            self.setup()
            if self.tracer:
                self.tracer.phase = "op"
        self.used = True

    def operation(self):
        if self.spec["kind"] == "solve":
            system = sy.assemble_M12(self.vol, self.surf, self.field, f=self.case.f,
                                     extensions=self.ext, workers=1)
            exact = self.case.exact
        else:
            exact, f, dirichlet, neumann = source_case(self.field, next(self.centres))
            ext = sy.build_extensions(self.surf, dirichlet, neumann)
            system = self.base.with_data(f, ext)
        solution = sy.solve_M12(system)
        return finish(system, solution, exact, self.probes)


def run_loop(work, seconds, min_ops):
    """Closed loop: the next operation starts when the previous one ends."""
    times, results, failed = [], [], 0
    start = time.perf_counter()
    while len(times) < min_ops or time.perf_counter() - start < seconds:
        work.prepare()
        t0 = time.perf_counter()
        try:
            errors = work.operation()
        except Exception as exc:  # any failure of the program counts against it
            errors, reasons = None, [f"{type(exc).__name__}: {exc}"]
        times.append(time.perf_counter() - t0)
        if errors is not None:
            reasons = check(errors, work.level)
            results.append(errors)
        if reasons:
            failed += 1
            print(f"operation {len(times)} failed: {'; '.join(reasons)}", file=sys.stderr)
    print(f"# {len(times)} operations, seconds each: {[round(t, 3) for t in times]}")
    return times, results, failed


def accuracy(results, n_first):
    """Worst accuracy figures over the first ``n_first`` operations."""
    first = results[:n_first]
    return {k: max(r[k] for r in first) for k in ("trace_rel", "conormal_rel",
                                                  "interior_rel", "probe_rel")}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- the two kinds of run ------------------------------------------------------------

def untraced_run(spec, level, args):
    field = co.coefficient_by_name(spec["coefficient"])
    work = Workload(spec, level, field, args.seed)
    reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        work.setup()
        reps.append(time.perf_counter() - t0)
    setup_s = import_seconds() + statistics.median(reps)
    sweep = spec["kind"] == "sweep"
    times, results, failed = run_loop(work, args.seconds, SWEEP_MIN_RHS if sweep else 1)
    metrics = {"setup_s": setup_s, "solve_s": statistics.median(times),
               "rhs_per_s": len(times) / sum(times), "peak_rss_mb": peak_rss_mb()}
    # With no completed operation there is nothing to measure; the result
    # then reports correct = false.
    metrics.update(accuracy(results, len(REFERENCE_SOURCES) if sweep else 1) if results
                   else dict.fromkeys(("trace_rel", "conormal_rel", "interior_rel",
                                       "probe_rel"), 0.0))
    return times, failed, metrics, None


def assemble_once(spec, level, field, workers):
    surf, vol = cases.level_meshes(level, spec["partition"])
    case = cases.point_source_case(field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    t0 = time.perf_counter()
    sy.assemble_M12(vol, surf, field, f=case.f, extensions=ext, workers=workers)
    return time.perf_counter() - t0


def traced_run(spec, level, args):
    plain = co.coefficient_by_name(spec["coefficient"])
    tracer = tracing.Tracer()
    distance = quad.point_triangle_distance
    tracer.install()
    try:
        work = Workload(spec, level, tracer.counted_field(plain), args.seed, tracer)
        work.setup()
        tracer.phase = "op"
        min_ops = SWEEP_MIN_RHS if spec["kind"] == "sweep" else 1
        times, results, failed = run_loop(work, args.seconds, min_ops)
    finally:
        tracer.uninstall()

    # Thread pool and tracing overhead, both on one level-2 assembly
    # (level 1 in level-1 runs) of this workload's coefficient and partition.
    probe_level = min(level, 2)
    w1 = assemble_once(spec, probe_level, plain, workers=1)
    w2 = assemble_once(spec, probe_level, plain, workers=2)
    tracer.phase = "probe"
    tracer.install()
    try:
        w1_traced = assemble_once(spec, probe_level, tracer.counted_field(plain), workers=1)
    finally:
        tracer.uninstall()

    if tracer.missing:
        print(f"# not traced, missing from the package: {sorted(tracer.missing)}")
    n_ops = len(times)
    totals = tracer.span_totals()
    totals.update(tracer.counters)
    calls = [c for c in tracer.layer_calls if c[0] != "probe"]
    totals.update(tracing.regime_counts(calls, distance))

    def per_op(name):
        return totals.get(("setup", name), 0) + totals.get(("op", name), 0) / n_ops

    metrics = {f"{name}_s": per_op(name) for name in TIMED_SPANS}
    metrics.update({name: per_op(name) for name in COUNTERS})
    last = results[-1] if results else {"n_unknowns": 0, "cond": 0.0, "residual": 0.0}
    metrics.update({
        "system.n_unknowns": last["n_unknowns"], "system.cond": last["cond"],
        "system.residual": max((r["residual"] for r in results), default=0.0),
        "geometry.n_panels": work.surf.n_triangles, "geometry.n_cells": work.vol.n_cells,
        "system.assemble_w1_s": w1, "system.assemble_w2_s": w2,
        "trace.overhead_s": w1_traced - w1, "trace.assemble_cover": tracer.assemble_cover(),
    })
    return times, failed, metrics, tracer.to_records(args.workload, args.seed)


def main(argv=None):
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    level = args.level or spec["level"]
    runner = traced_run if args.trace else untraced_run
    times, failed, metrics, spans = runner(spec, level, args)
    # BENCHMARK.json names the metrics each kind of run reports.
    spec_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec_file["per_layer" if args.trace else "end_to_end"]
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": len(times), "failed": failed,
              "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                          for m in listed}}
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-l{level}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed, level=level,
                  seconds=args.seconds, env=env, op_times=times)
    if spans is not None:
        record["spans"] = spans
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
