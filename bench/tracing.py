"""Span recorder and per-layer counters for the bdie benchmark.

The solver calls its layers through module attributes (``px.op_R_matrix``,
``lp.single_layer_matrix``, ``quad.point_triangle_distance``, ...), so the
traced run replaces those attributes with timing wrappers from the benchmark
process and restores them afterwards.  Nothing under ``src/`` is changed.

Every span records its name, start, end, parent span and phase ("setup",
"op", or the untimed "prepare" and "probe"); the workload and seed are
stamped on each span when the trace is written.  Quadrature regime counts are not taken inside the timed region:
the surface-layer wrappers only keep the call arguments, and the counts are
computed after the run from the same rules the engine applies.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager

import numpy as np

from bdie import coefficients as co
from bdie import laplace as lp
from bdie import parametrix as px
from bdie import quadrature as quad
from bdie import system as sy


class Tracer:
    """Spans and counters of one traced benchmark run, kept in memory."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, phase]
        self.stack = []
        self.phase = "setup"
        self.counters = {}    # (phase, name) -> value
        self.layer_calls = []  # (phase, bound arguments, scheme) of surface calls
        self.missing = set()   # entry points this version of the package lacks
        self._originals = []

    @contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.phase])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name, value):
        key = (self.phase, name)
        self.counters[key] = self.counters.get(key, 0) + value

    # --- wrappers on the package's module attributes ---------------------------

    def _patch(self, owner, attr, wrapper):
        # A layer that a later version of the package removes is left out of
        # the trace, and its metrics read zero, instead of failing the run.
        if not hasattr(owner, attr):
            self.missing.add(f"{owner.__name__}.{attr}")
            return
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def _spanned(self, namer):
        def wrapper(fn):
            def traced(*args, **kwargs):
                with self.span(namer(args, kwargs)):
                    return fn(*args, **kwargs)
            return traced
        return wrapper

    def _layer(self, name, scheme):
        def wrapper(fn):
            signature = inspect.signature(fn)

            def traced(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.layer_calls.append((self.phase, dict(bound.arguments), scheme))
                with self.span(name):
                    return fn(*args, **kwargs)
            return traced
        return wrapper

    def _distance(self, fn):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.count("quadrature.distance_s", time.perf_counter() - start)
                self.count("quadrature.distance_calls", 1)
        return traced

    def install(self):
        """Wrap the layer entry points; undo with ``uninstall``."""
        fixed = lambda name: self._spanned(lambda args, kwargs: name)

        def where(block, volume=False):
            # Domain rows target the cell centers; boundary rows a Collocation
            # (surface blocks) or the collocation points (volume blocks).
            position = 2 if volume else 3

            def namer(args, kwargs):
                targets = args[position] if len(args) > position else kwargs["targets"]
                if volume:
                    at_centers = targets is args[0].centers
                else:
                    at_centers = not isinstance(targets, lp.Collocation)
                side = "centers" if at_centers else "boundary"
                return f"parametrix.{block}_{side}"
            return self._spanned(namer)

        self._patch(px, "op_R_matrix", where("R", volume=True))
        self._patch(px, "op_V_matrix", where("V"))
        self._patch(px, "op_W_matrix", where("W"))
        self._patch(px, "op_P", fixed("parametrix.P"))
        self._patch(lp, "newton_potential", fixed("laplace.newton"))
        self._patch(lp, "single_layer_matrix", self._layer("laplace.layer_matrix", "duffy"))
        self._patch(lp, "double_layer_matrix", self._layer("laplace.layer_matrix", "skip"))
        self._patch(lp, "single_layer", self._layer("laplace.layer_value", "duffy"))
        self._patch(lp, "double_layer", self._layer("laplace.layer_value", "skip"))
        self._patch(quad, "point_triangle_distance", self._distance)
        self._patch(sy, "assemble_M12", fixed("system.assemble"))
        self._patch(sy, "assemble_F0", fixed("system.F0"))
        self._patch(sy, "jump_coefficients", fixed("system.jump"))
        self._patch(sy, "vertex_eval_matrix", fixed("system.vertex_eval"))
        self._patch(sy, "boundary_collocation", fixed("system.collocation"))
        self._patch(sy, "solve_M12", fixed("system.lu"))
        self._patch(sy, "evaluate_solution", fixed("system.evaluate"))
        self._patch(sy, "equivalence_residuals", fixed("system.equivalence"))
        self._patch(sy.M12System, "with_data", fixed("system.with_data"))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # --- coefficient counting -----------------------------------------------------

    def counted_field(self, field: co.CoefficientField) -> co.CoefficientField:
        """The same closed forms, wrapped to count points and busy time."""
        def wrap(fn):
            def counted(x):
                start = time.perf_counter()
                try:
                    return fn(x)
                finally:
                    self.count("coefficients.busy_s", time.perf_counter() - start)
                    self.count("coefficients.points_evaluated", np.asarray(x).size // 3)
            return counted
        return co.CoefficientField(a=wrap(field.a), grad_a=wrap(field.grad_a),
                                   laplacian_a=wrap(field.laplacian_a),
                                   c_lower=field.c_lower, c_upper=field.c_upper,
                                   name=field.name)

    # --- summaries -------------------------------------------------------------------

    def _child_time(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return child

    def self_times(self):
        """Duration minus the time covered by direct children, per span."""
        return [end - start - c
                for (_, start, end, _, _), c in zip(self.spans, self._child_time())]

    def assemble_cover(self) -> float:
        """Smallest share of a ``system.assemble`` span covered by its children."""
        child = self._child_time()
        shares = [child[i] / (end - start)
                  for i, (name, start, end, _, _) in enumerate(self.spans)
                  if name == "system.assemble"]
        return min(shares) if shares else 0.0

    def span_totals(self):
        """Inclusive seconds per (phase, span name)."""
        out = {}
        for name, start, end, _, phase in self.spans:
            out[(phase, name)] = out.get((phase, name), 0.0) + (end - start)
        return out

    def to_records(self, workload: str, seed: int):
        selfs = self.self_times()
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "phase": phase, "self": s, "workload": workload, "seed": seed}
                for (name, start, end, parent, phase), s in zip(self.spans, selfs)]


# --- quadrature regime counts (computed) ------------------------------------------

def _rule_sizes(cfg: lp.QuadConfig):
    far = quad.gauss_triangle(cfg.far_order)[1].size
    near = quad.subdivided_triangle_rule(cfg.near_order, cfg.levels)[1].size
    duffy = cfg.duffy_order ** 2
    return far, near, duffy


def _active_panels(mesh, arguments):
    # Support restriction as the public layer functions derive it.
    if "space_tag" in arguments:
        support = arguments.get("support")
        if arguments["space_tag"] == lp.SPACE_TRIANGLE and support not in (None, lp.SUPPORT_ALL):
            return mesh.part_label == support
        return np.ones(mesh.n_triangles, dtype=bool)
    density = arguments["density"]
    if (isinstance(density, lp.BoundaryDensity) and density.support_tag != lp.SUPPORT_ALL
            and density.space_tag == lp.SPACE_TRIANGLE):
        return mesh.part_label == density.support_tag
    return np.ones(mesh.n_triangles, dtype=bool)


def regime_counts(layer_calls, distance, chunk: int = 128):
    """Far, near and singular target-panel pairs and kernel evaluations.

    ``distance`` is the unwrapped ``quadrature.point_triangle_distance``.
    A target's singular panels are its own panel (centroids) or its vertex
    star (vertices); the other active panels are far when their distance is
    at least ``near_threshold`` panel diameters and near otherwise.  Kernel
    evaluations are pairs times the nodes of each regime's rule; the skipped
    principal-value panels of the double layer cost none.  Returns totals per
    phase and checks that the three pair counts add up to targets times
    active panels.
    """
    dist_cache = {}
    stars = {}
    totals = {}
    for phase, arguments, scheme in layer_calls:
        mesh = arguments["mesh"]
        cfg = arguments["cfg"]
        colloc = arguments["targets"]
        if not isinstance(colloc, lp.Collocation):
            colloc = lp.Collocation.free(colloc)
        key = (id(mesh), colloc.points.tobytes())
        if key not in dist_cache:
            corners = mesh.corners()
            dist_cache[key] = np.concatenate([
                distance(colloc.points[i:i + chunk], corners)
                for i in range(0, colloc.n, chunk)])
        d = dist_cache[key]
        if id(mesh) not in stars:
            stars[id(mesh)] = [np.nonzero((mesh.triangles == v).any(axis=1))[0]
                               for v in range(mesh.n_vertices)]
        active = _active_panels(mesh, arguments)
        singular = np.zeros_like(d, dtype=bool)
        duffy_nodes = 0
        n_far, n_near, n_duffy = _rule_sizes(cfg)
        for i, (kind, idx) in enumerate(zip(colloc.kinds, colloc.indices)):
            if kind == lp.KIND_CENTROID:
                singular[i, idx] = True
                per_panel = 3 * n_duffy  # three sub-triangles around the centroid
            elif kind == lp.KIND_VERTEX:
                singular[i, stars[id(mesh)][idx]] = True
                per_panel = n_duffy
            else:
                continue
            if scheme == "duffy":
                duffy_nodes += per_panel * int(np.count_nonzero(singular[i] & active))
        singular &= active[None, :]
        regular = active[None, :] & ~singular
        far = regular & (d >= cfg.near_threshold * mesh.diameters[None, :])
        near = regular & ~far
        counts = {"far_pairs": int(far.sum()), "near_pairs": int(near.sum()),
                  "singular_pairs": int(singular.sum())}
        if sum(counts.values()) != colloc.n * int(active.sum()):
            raise AssertionError("regime counts do not cover targets x active panels")
        counts["kernel_evals"] = (counts["far_pairs"] * n_far
                                  + counts["near_pairs"] * n_near + duffy_nodes)
        for name, value in counts.items():
            key = (phase, f"quadrature.{name}")
            totals[key] = totals.get(key, 0) + value
    return totals
