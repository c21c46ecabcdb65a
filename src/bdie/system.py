"""Coupled domain-boundary system for the exterior mixed problem.

The mixed Dirichlet-Neumann problem for div(a grad u) = f outside the unit
sphere is reduced to one linear system in three unknowns: the field u on the
truncated shell, the missing conormal derivative psi on the Dirichlet part
S_D, and the missing trace phi on the Neumann part S_N.  With fixed
extensions Phi0 (vertex-linear) and Psi0 (triangle-constant) of the given
boundary data, the rows read

    u + R u - V psi + W phi                    = F0           in the shell,
    (1/2) phi + R u - calV psi + calW phi      = F0^+ - Phi0   on S,

where F0 = P f + V Psi0 - W Phi0, the boundary row is the exterior trace of
the domain row, and F0^+ denotes that trace.  Script-style symbols (calV,
calW) are the on-surface direct values of the layer potentials.

Discretization: u is cell-wise constant collocated at cell centers, psi is
triangle-constant on S_D triangles, phi is vertex-linear supported at
interior-S_N vertices (zero on the interface, so the recovered trace stays
continuous across it).  Boundary rows collocate at S_D centroids plus
interior-S_N vertices, which makes the system square.  Exterior traces of
the double layer are direct (principal) values minus a jump coefficient
times the density; on the ideal smooth sphere that coefficient is 1/2, and
the assembly uses its discrete counterpart, the unit-density direct value
at each collocation point (the interior-cone solid angle fraction of the
faceted surface: 1/2 up to quadrature error at centroids, smaller at
vertices).  Collocating with the measured fraction keeps the boundary rows
consistent with the assembled operators; with the ideal 1/2 the vertex
rows carry an O(h) facet defect that dominates the recovered trace error.
Stored normals point out of the domain (toward the origin).

The layer terms of F0 are the same V and W blocks as the unknown columns,
on the columns the unknowns leave out: the S_N triangles (Psi0) and the
vertices off the interior of S_N (Phi0).  Assembly builds each block over
all columns once and keeps that known-column block on the system, so the
right-hand side is P f minus the known-column block applied to the
extensions, and new boundary data costs one matrix product plus P f.
The matrix does not depend on the data either, so its LU factor is computed
once, on the first direct solve, and every system that shares the matrix
object reuses it: a new right-hand side then costs two triangular solves.
The representation formula (px.represent, the one the Green residuals
check) is linear in the data as well: the V, W and R rows at a set of
points are kept with the LU, so evaluating a solution at kept points
costs P f plus three row products.  R and P f at a target set are the
methods of one volume target set (px._VolumeTargets), which measures its
near set (4.0 MB at level 2, about 14 MB at level 3) once for both, and
only when R or P f needs it.  The matrix keeps the target set of the cell
centres and collocation points from the first with_data that has a
source, and that of a point set with its evaluation rows, so R is never
computed per right-hand side and every target set is classified and
measured once.

Everything is dense; sizes are guarded by the same caps as the operator
assembly routines.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Optional, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import geometry as geo
from . import laplace as lp
from . import parametrix as px
from .coefficients import CoefficientField


class SolverError(RuntimeError):
    """Dense factorization failed or is numerically singular."""


def _as_vertex_data(data, points):
    if callable(data):
        return np.asarray(data(points), dtype=float)
    return np.broadcast_to(np.asarray(data, dtype=float), (len(points),)).copy()


@dataclass(frozen=True)
class ExtensionPair:
    """Fixed extensions of the boundary data to the whole surface.

    phi0 is the vertex-linear extension of the Dirichlet datum (zero at
    interior-S_N vertices); psi0 is the triangle-constant extension of the
    Neumann datum (zero on S_D triangles).
    """

    phi0: lp.BoundaryDensity
    psi0: lp.BoundaryDensity


def build_extensions(mesh: geo.SurfaceMesh, dirichlet_data, neumann_data) -> ExtensionPair:
    """Extend boundary data by zero into the complementary parts.

    Parameters
    ----------
    mesh : SurfaceMesh with a D/N partition.
    dirichlet_data : scalar or callable(points) -> values
        Trace datum, sampled at S_D-adjacent vertices (classes D and I).
    neumann_data : scalar or callable(points) -> values
        Conormal datum, sampled at S_N triangle centroids.
    """
    if mesh.part_label is None:
        raise ValueError("mesh has no partition labels")
    phi_vals = np.zeros(mesh.n_vertices)
    touched = mesh.vertex_class != geo.PART_NEUMANN
    phi_vals[touched] = _as_vertex_data(dirichlet_data, mesh.vertices[touched])
    psi_vals = np.zeros(mesh.n_triangles)
    n_tris = mesh.triangles_with_label(geo.PART_NEUMANN)
    psi_vals[n_tris] = _as_vertex_data(neumann_data, mesh.centroids[n_tris])
    if not (np.all(np.isfinite(phi_vals)) and np.all(np.isfinite(psi_vals))):
        raise ValueError("boundary data is not finite")
    return ExtensionPair(
        phi0=lp.BoundaryDensity(lp.SPACE_VERTEX, phi_vals),
        psi0=lp.BoundaryDensity(lp.SPACE_TRIANGLE, psi_vals),
    )


def zero_extensions(mesh: geo.SurfaceMesh) -> ExtensionPair:
    return build_extensions(mesh, 0.0, 0.0)


def vertex_eval_matrix(mesh: geo.SurfaceMesh, colloc: lp.Collocation) -> np.ndarray:
    """Evaluation of vertex-linear densities at registered collocation points.

    Rows are collocation points; centroid rows average the three corner
    values, vertex rows pick the nodal value.
    """
    out = np.zeros((colloc.n, mesh.n_vertices))
    for i, (kind, idx) in enumerate(zip(colloc.kinds, colloc.indices)):
        if kind == lp.KIND_CENTROID:
            out[i, mesh.triangles[idx]] = 1.0 / 3.0
        elif kind == lp.KIND_VERTEX:
            out[i, idx] = 1.0
        else:
            raise ValueError("free points have no vertex-linear registration")
    return out


def _f_density(f):
    if f is None:
        return None
    if isinstance(f, lp.DomainDensity) or callable(f):
        return f
    raise TypeError("f must be None, a DomainDensity, or a callable on nodes")


def _data_masks(mesh: geo.SurfaceMesh):
    """Triangles and vertices whose columns carry data rather than unknowns:
    the S_N triangles (Psi0) and the vertices off the interior of S_N (Phi0)."""
    return mesh.part_label == geo.PART_NEUMANN, mesh.vertex_class != geo.PART_NEUMANN


def _data_values(mesh: geo.SurfaceMesh, extensions: ExtensionPair) -> np.ndarray:
    """The extensions in the order of the data columns."""
    psi_known, phi_known = _data_masks(mesh)
    if np.any(extensions.psi0.values[~psi_known]) or np.any(extensions.phi0.values[~phi_known]):
        raise ValueError("extensions must vanish where the unknowns live "
                         "(Psi0 on S_D, Phi0 at interior-S_N vertices)")
    return np.concatenate([extensions.psi0.values[psi_known],
                           extensions.phi0.values[phi_known]])


def _data_rhs(system: "M12System", extensions: ExtensionPair, pf=None) -> np.ndarray:
    """F0 rows of the system: P f at the cell centres and the collocation
    points (pf; None without a source) minus the data columns applied to
    the data."""
    known = system.data_columns @ _data_values(system.surfmesh, extensions)
    return -known if pf is None else pf - known


def _with_rhs(system: "M12System", f, extensions: ExtensionPair, pf,
              f_nodes=None) -> "M12System":
    """The system with the data f and extensions, their F0 rows from P f
    at its targets (pf; see _data_rhs), and f at the volume nodes
    (f_nodes, laplace._node_values; None without a source)."""
    kept = None if f_nodes is None else (f, system.volmesh, f_nodes)
    return replace(system, rhs=_data_rhs(system, extensions, pf), extensions=extensions, f=f,
                   _f_nodes=kept)


def _immutable(a: np.ndarray) -> bool:
    """True when neither the array nor any array it views can be written."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return True


class _MatrixCache:
    """What the systems sharing one matrix object keep: the LU factor and
    reciprocal 1-norm condition estimate of the matrix, and the data-free
    parts of the right-hand side and of the representation formula.

    Each is computed on first use and kept only when the matrix cannot be
    written, so a kept factor never goes stale; a failed factorization
    raises SolverError and keeps nothing.  The other parts depend on a
    point set, the meshes and the field rather than on the matrix: part()
    returns the one kept under a name, keyed on the bytes of the points
    and on the mesh and field objects, or builds it, and keeps it (one
    point set per name) under the same rule as the factor.  Under "rhs" is
    the volume target set (px._VolumeTargets: its near set, 4.0 MB at level
    2, and the sparse operator of P's near half, 2.0 MB more) of the
    system's own targets, the cell centres and the collocation points, made
    by the first with_data that has a source.  Under "points" is the build
    of px.represent at the last point set that evaluate_solution keeps.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self._kept = None
        self._parts = {}  # name -> (points key, (mesh and field objects), part)

    @staticmethod
    def _key(points: np.ndarray):
        return points.shape, points.tobytes()

    def part(self, name, points, owners, build):
        """The part kept under name for the points and the owners, or else
        build(), kept there only when the matrix cannot be written."""
        key = self._key(points)
        kept = self._parts.get(name)
        if kept is not None and kept[0] == key and all(
                a is b for a, b in zip(kept[1], owners)):
            return kept[2]
        part = build()
        if _immutable(self.matrix):
            self._parts[name] = key, owners, part
        return part

    def lu(self):
        """((lu, piv), rcond) of the matrix."""
        if self._kept is not None:
            return self._kept
        A = self.matrix
        anorm = np.linalg.norm(A, 1)  # before the factor exists: |A| is a copy
        with warnings.catch_warnings():
            # A zero pivot warns; the rcond check below reports it as the fault.
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = sla.lu_factor(A)
        rcond = sla.lapack.dgecon(lu, anorm)[0]
        if not np.all(np.isfinite(lu)) or rcond == 0.0:
            raise SolverError(f"singular factorization (reciprocal condition {rcond:.3e})")
        factor = (lu, piv), rcond
        if _immutable(A):
            self._kept = factor
        return factor


def boundary_collocation(surfmesh: geo.SurfaceMesh) -> lp.Collocation:
    """S_D triangle centroids followed by interior-S_N vertices."""
    sd = surfmesh.triangles_with_label(geo.PART_DIRICHLET)
    nin = surfmesh.vertices_with_class(geo.PART_NEUMANN)
    return lp.Collocation.concat([
        lp.Collocation.centroids(surfmesh, sd),
        lp.Collocation.vertices(surfmesh, nin),
    ])


@dataclass(frozen=True)
class M12System:
    """Square dense system in the unknowns (u | psi on S_D | phi on S_N).

    data_columns holds the blocks on the columns the unknowns leave out, so
    that rhs = P f - data_columns @ (Psi0 on S_N | Phi0 off interior S_N).
    assemble_M12 makes matrix and data_columns read-only.  The LU factor of
    the matrix, the volume target set of the system's own targets, and
    the evaluation rows of the last point set, are kept with the matrix
    object (see _MatrixCache): systems made from this one by
    with_data or dataclasses.replace(..., rhs=...) share them, so each is
    computed once; a system given another matrix gets a cache of its own,
    and one given a writable matrix builds them again on every use.

    A system made by with_data or assemble_M12 with a source also keeps f
    at the volume nodes, which evaluate_solution reuses, so f is evaluated
    once per right-hand side.  They are kept with the f and the volume mesh
    objects they were taken from: a system given another f or volume mesh
    (dataclasses.replace) drops them.
    """

    matrix: np.ndarray
    data_columns: np.ndarray
    rhs: np.ndarray
    surfmesh: geo.SurfaceMesh
    volmesh: geo.VolumeMesh
    field: CoefficientField
    psi_triangles: np.ndarray
    phi_vertices: np.ndarray
    colloc: lp.Collocation
    extensions: ExtensionPair
    f: Optional[Union[lp.DomainDensity, Callable]] = None
    _cache: Optional[_MatrixCache] = dc_field(default=None, repr=False, compare=False)
    # (f, volmesh, f at the volume nodes), see _source.
    _f_nodes: Optional[tuple] = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._cache is None or self._cache.matrix is not self.matrix:
            object.__setattr__(self, "_cache", _MatrixCache(self.matrix))
        kept = self._f_nodes
        if kept is not None and (kept[0] is not self.f or kept[1] is not self.volmesh):
            object.__setattr__(self, "_f_nodes", None)

    def _source(self):
        """The source for P: f at the volume nodes when this system keeps
        them, else f itself (None without a source)."""
        return _f_density(self.f) if self._f_nodes is None else self._f_nodes[2]

    @property
    def n_cells(self) -> int:
        return self.volmesh.n_cells

    @property
    def n_psi(self) -> int:
        return len(self.psi_triangles)

    @property
    def n_phi(self) -> int:
        return len(self.phi_vertices)

    @property
    def slice_u(self) -> slice:
        return slice(0, self.n_cells)

    @property
    def slice_psi(self) -> slice:
        return slice(self.n_cells, self.n_cells + self.n_psi)

    @property
    def slice_phi(self) -> slice:
        n = self.n_cells + self.n_psi
        return slice(n, n + self.n_phi)

    def with_data(self, f, extensions: ExtensionPair) -> "M12System":
        """Same operator blocks with a right-hand side built from new data.

        Only P f needs quadrature, at the cell centres and the collocation
        points; the layer terms are one matrix product.  f is evaluated once
        on both volume node tables, and the new system keeps those values
        for evaluate_solution.  P f is the P method of the volume target set
        there (px._VolumeTargets): one far pass and one sparse product of
        the set's inverse distances with the near pairs' weights, with the
        bits of px.op_P; the matrix's cache keeps the set (see
        _MatrixCache).  The new system shares the matrix, and with it the
        LU factor and the kept parts, so a direct solve after the first
        costs two triangular solves.
        """
        dens = _f_density(f)
        pf = nodes = None
        if dens is not None:
            vol, field = self.volmesh, self.field
            targets = np.concatenate([vol.centers, self.colloc.points])
            nodes = lp._node_values(vol, dens)
            pf = self._cache.part("rhs", targets, (vol, field),
                                  lambda: px._VolumeTargets(vol, field, targets)).P(nodes)
        return _with_rhs(self, f, extensions, pf, nodes)


def assemble_M12(
    volmesh: geo.VolumeMesh,
    surfmesh: geo.SurfaceMesh,
    field: CoefficientField,
    f=None,
    extensions: Optional[ExtensionPair] = None,
    workers: int = 1,
) -> M12System:
    """Assemble the dense blocks and (optionally) the data right-hand side.

    Domain rows are collocated at cell centers, boundary rows at S_D
    centroids plus interior-S_N vertices; with the unknown layout
    (u | psi | phi) this is square by construction.  One surface pass per
    target set builds its V and W blocks over all columns; they are split
    into the unknown columns of the matrix and the data columns, and placed
    before the next set is built.  The volume passes run at the cell centres
    and collocation points at once, by the methods of one volume target set
    there (px._VolumeTargets), which is not kept: R writes its rows straight
    into the matrix, and with a source P takes P f, as with_data does.
    Omitting f and extensions leaves a zero right-hand side, which is
    enough for the block-structure checks and for synthetic consistency
    studies.  The matrix and the data columns are returned read-only,
    which lets every system sharing them keep one LU factor, the volume
    target set at its targets and one set of evaluation rows (see
    M12System).

    The boundary is the unit sphere, where the shell starts: a surface
    mesh with a vertex off it (by more than 1e-12 in |x|) raises
    ValueError.  ``workers`` is accepted for callers that still pass it
    and is ignored: the assembly runs on one thread, and its output does
    not depend on it.
    """
    px.check_dense_caps(n_triangles=surfmesh.n_triangles, n_cells=volmesh.n_cells)
    off = float(np.max(np.abs(np.linalg.norm(surfmesh.vertices, axis=1) - geo.INNER_RADIUS)))
    if off > 1e-12:
        raise ValueError(f"surface mesh is off the unit sphere: a vertex has "
                         f"||x| - {geo.INNER_RADIUS:g}| = {off:.3g} > 1e-12")
    dens = _f_density(f)
    if dens is not None and extensions is None:
        raise ValueError("a source term requires explicit extensions")
    sd = surfmesh.triangles_with_label(geo.PART_DIRICHLET)
    nin = surfmesh.vertices_with_class(geo.PART_NEUMANN)
    psi_known, phi_known = _data_masks(surfmesh)
    colloc = boundary_collocation(surfmesh)
    n_c, n_psi, n_phi = volmesh.n_cells, len(sd), len(nin)
    n = n_c + n_psi + n_phi
    n_psi0 = int(psi_known.sum())

    centers = volmesh.centers
    A = np.zeros((n, n))
    K = np.zeros((n, n_psi0 + int(phi_known.sum())))
    su = slice(0, n_c)
    spsi = slice(n_c, n_c + n_psi)
    sphi = slice(n_c + n_psi, n)
    rows_b = slice(n_c, n)
    triangle_split = ((spsi, sd), (slice(0, n_psi0), psi_known))
    vertex_split = ((sphi, nin), (slice(n_psi0, None), phi_known))

    def put(rows, block, split):
        (cols, unknown), (data_cols, known) = split
        A[rows, cols] = block[:, unknown]
        K[rows, data_cols] = block[:, known]

    pf = None
    nodes = None if dens is None else lp._node_values(volmesh, dens)
    if dens is not None or not field.is_constant:
        volume = px._VolumeTargets(volmesh, field, np.concatenate([centers, colloc.points]))
        volume.R(out=A[:, su])
        pf = None if dens is None else volume.P(nodes)
        del volume  # before the surface passes; with_data keeps its own
    diagonal = np.arange(n_c)
    A[diagonal, diagonal] += 1.0
    v, w, _ = px._VW_matrices(surfmesh, field, centers)
    put(su, np.negative(v, out=v), triangle_split)
    put(su, w, vertex_split)
    del v, w  # before the next pass, which holds its own blocks
    # Exterior trace of W: principal value minus the jump coefficient times
    # the density, with the boundary row's own "+ phi" folded in.  The jump
    # coefficients are the row sums of W's Laplace term, from the same pass
    # (see px._VW_matrices).
    v, w, jump_c = px._VW_matrices(surfmesh, field, colloc)
    put(rows_b, np.negative(v, out=v), triangle_split)
    w += (1.0 - jump_c)[:, None] * vertex_eval_matrix(surfmesh, colloc)
    put(rows_b, w, vertex_split)
    A.flags.writeable = False
    K.flags.writeable = False

    system = M12System(A, K, np.zeros(n), surfmesh, volmesh, field, sd, nin, colloc,
                       zero_extensions(surfmesh))
    return system if extensions is None else _with_rhs(system, f, extensions, pf, nodes)


@dataclass(frozen=True)
class M12Solution:
    """Solved unknowns plus the recovered full Cauchy data on the surface."""

    u: lp.DomainDensity
    psi: lp.BoundaryDensity
    phi: lp.BoundaryDensity
    recovered_trace: np.ndarray
    recovered_conormal: np.ndarray
    conditioning: Optional[float]  # None for the iterative solve
    residual_norm: float
    method: str = "direct"

    def to_dict(self) -> dict:
        return {
            "u": self.u.values.tolist(),
            "psi": self.psi.values.tolist(),
            "phi": self.phi.values.tolist(),
            "recovered_trace": self.recovered_trace.tolist(),
            "recovered_conormal": self.recovered_conormal.tolist(),
            "conditioning": self.conditioning,
            "residual_norm": self.residual_norm,
            "method": self.method,
        }


def solve_M12(system: M12System, method: str = "direct") -> M12Solution:
    """Solve the assembled system by dense LU or by GMRES.

    Reports the relative algebraic residual.  method="direct" solves with
    the LU factor of the matrix and also reports a 1-norm condition
    estimate; the factor is computed on the first direct solve of any system
    sharing the matrix object and reused after that (see M12System), so a
    later solve is one pair of triangular solves.  method="iterative" runs
    restarted GMRES to relative tolerance 1e-11, a tenth of the CLI's
    residual gate, factors nothing and reports no condition estimate.
    """
    A, b = system.matrix, system.rhs
    if A.shape[0] != A.shape[1]:
        raise ValueError("system is not square")
    if method == "direct":
        factor, rcond = system._cache.lu()
        x = sla.lu_solve(factor, b)
        conditioning = float(1.0 / rcond)
    elif method == "iterative":
        x, info = spla.gmres(spla.aslinearoperator(A), b, rtol=1e-11, atol=0.0,
                             restart=60, maxiter=200)
        if info != 0:
            raise SolverError(f"iterative solve did not converge (info={info})")
        conditioning = None
    else:
        raise ValueError(f"unknown method {method!r}")

    bnorm = np.linalg.norm(b)
    rnorm = np.linalg.norm(A @ x - b)
    residual = 0.0 if (bnorm == 0.0 and rnorm == 0.0) else float(rnorm / max(bnorm, 1e-300))

    mesh = system.surfmesh
    psi_full = np.zeros(mesh.n_triangles)
    psi_full[system.psi_triangles] = x[system.slice_psi]
    phi_full = np.zeros(mesh.n_vertices)
    phi_full[system.phi_vertices] = x[system.slice_phi]
    return M12Solution(
        u=lp.DomainDensity(x[system.slice_u]),
        psi=lp.BoundaryDensity(lp.SPACE_TRIANGLE, psi_full),
        phi=lp.BoundaryDensity(lp.SPACE_VERTEX, phi_full),
        recovered_trace=system.extensions.phi0.values + phi_full,
        recovered_conormal=system.extensions.psi0.values + psi_full,
        conditioning=conditioning,
        residual_norm=residual,
        method=method,
    )


def evaluate_solution(system: M12System, solution: M12Solution, points) -> np.ndarray:
    """Field values at points in the shell via the representation formula.

    u(y) = P f(y) + V(Psi0 + psi)(y) - W(Phi0 + phi)(y) - R u(y), which is
    the domain row rearranged; smooth in y away from the surface.  This is
    px.represent, the formula the Green residuals check: a data-free build
    at the points (V, W and R rows and the volume target set there, which
    measures its near set when R or P f first reads it) and an apply (the
    row products plus P f, with the bits of px.op_P).  P f takes f at the
    volume nodes that the system keeps from with_data or assemble_M12, so
    f is not evaluated again; a system that keeps none evaluates it once
    per call, whatever its blocks.  The matrix's cache keeps the build (see
    _MatrixCache), so a later call at the same points, for any system
    sharing the matrix (with_data or replace(..., rhs=...)), only applies
    it.  Point sets whose rows would take more memory than the matrix are
    built and applied in blocks and kept nowhere.

    A point with |y| <= INNER_RADIUS or a coordinate that is not finite
    lies off the domain, where the formula gives no value of u, and raises
    ValueError, as do points that are not 3-vectors.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be 3-vectors, shape (n, 3); got shape {pts.shape}")
    radii = np.linalg.norm(pts, axis=1)
    off = ~((radii > geo.INNER_RADIUS) & np.isfinite(radii))
    if off.any():
        k = int(np.argmax(off))
        raise ValueError(f"point {pts[k]} is not in the exterior domain: |x| = {radii[k]:g}, "
                         f"not a finite number above the inner radius {geo.INNER_RADIUS:g}")
    mesh, vol, field = system.surfmesh, system.volmesh, system.field
    coefs = (solution.recovered_conormal, -solution.recovered_trace, -solution.u.values)
    block = max(1, system.matrix.size // (mesh.n_triangles + mesh.n_vertices + vol.n_cells))
    keep = lambda build: system._cache.part("points", pts, (mesh, vol, field), build)
    return px.represent(mesh, vol, field, pts, coefs, system._source(), block, keep)


@dataclass(frozen=True)
class EquivalenceReport:
    """Max-norm mismatch of the recovered Cauchy data against exact data."""

    trace_residual: float
    trace_scale: float
    conormal_residual: float
    conormal_scale: float
    interior_error: float
    interior_scale: float
    details: dict = dc_field(default_factory=dict)

    @staticmethod
    def _rel(residual: float, scale: float) -> float:
        if scale:
            return residual / scale
        return 0.0 if residual == 0.0 else np.inf

    @property
    def trace_rel(self) -> float:
        return self._rel(self.trace_residual, self.trace_scale)

    @property
    def conormal_rel(self) -> float:
        return self._rel(self.conormal_residual, self.conormal_scale)

    @property
    def interior_rel(self) -> float:
        return self._rel(self.interior_error, self.interior_scale)

    def to_dict(self) -> dict:
        """Plain data for JSON reports.

        A relative error with a zero scale and a nonzero residual (the
        conormal of u == 1, say) is undefined and becomes None, JSON null.
        """
        def defined(rel: float):
            return None if np.isinf(rel) else rel

        return {
            "trace_residual": self.trace_residual,
            "trace_scale": self.trace_scale,
            "trace_rel": defined(self.trace_rel),
            "conormal_residual": self.conormal_residual,
            "conormal_scale": self.conormal_scale,
            "conormal_rel": defined(self.conormal_rel),
            "interior_error": self.interior_error,
            "interior_scale": self.interior_scale,
            "interior_rel": defined(self.interior_rel),
            "details": dict(self.details),
        }


def equivalence_residuals(solution: M12Solution, afield, field: CoefficientField,
                          surfmesh: geo.SurfaceMesh, volmesh: geo.VolumeMesh,
                          ) -> EquivalenceReport:
    """Compare recovered trace/conormal/field against a manufactured solution.

    The trace needs the exact field at vertices, the conormal its flux at
    centroids (normals point out of the domain), and the interior error is
    the weighted L2 norm of the cell-value mismatch (see weighted_norm).
    """
    gamma = np.asarray(afield.u(surfmesh.vertices), dtype=float)
    a_c = field.eval_a(surfmesh.centroids)
    grad_c = np.asarray(afield.grad_u(surfmesh.centroids), dtype=float)
    t_exact = a_c * np.einsum("ij,ij->i", grad_c, surfmesh.normals)

    trace_res = float(np.max(np.abs(solution.recovered_trace - gamma)))
    con_res = float(np.max(np.abs(solution.recovered_conormal - t_exact)))
    u_exact = np.asarray(afield.u(volmesh.centers), dtype=float)
    err = solution.u.values - u_exact
    interior = weighted_norm(err, volmesh)
    interior_scale = weighted_norm(u_exact, volmesh)

    cls, lbl = surfmesh.vertex_class, surfmesh.part_label
    details = {
        "trace_residual_on_N": float(np.max(np.abs(
            (solution.recovered_trace - gamma)[cls == geo.PART_NEUMANN]))),
        "conormal_residual_on_D": float(np.max(np.abs(
            (solution.recovered_conormal - t_exact)[lbl == geo.PART_DIRICHLET]))),
    }
    return EquivalenceReport(
        trace_residual=trace_res,
        trace_scale=float(np.max(np.abs(gamma))),
        conormal_residual=con_res,
        conormal_scale=float(np.max(np.abs(t_exact))),
        interior_error=interior,
        interior_scale=interior_scale,
        details=details,
    )


def weighted_norm(values, volmesh: geo.VolumeMesh) -> float:
    """Weighted L2 norm of a cell-wise constant field on the shell: the
    square root of the integral of |u|^2 / (1 + |x|^2), by the cell rule."""
    v = np.asarray(values, dtype=float)
    if v.shape != (volmesh.n_cells,):
        raise ValueError("values must be cell-wise (one value per cell)")
    pts = volmesh.nodes
    omega2 = 1.0 + (pts * pts).sum(axis=-1)
    cell_q = (volmesh.node_weights / omega2).sum(axis=1)
    return float(np.sqrt(np.dot(cell_q, v * v)))
