"""Builders for the example flows on chains and rectangular grids.

All examples share one discretization convention, fixed by requiring
that the quadratic case reproduce the standard finite-difference
operators exactly:

=====================  =============================
quantity               weight
=====================  =============================
edge power term        ``h^(d-p)`` per edge
volume integrand       ``h^d`` per interior node
boundary integrand     ``h^(d-1)`` per boundary node
total variation        ``h^(d-1)`` per edge
volume data space      ``h^d`` per node
boundary data space    ``h^(d-1)`` per node
=====================  =============================

Eliminated zero-boundary nodes appear as grounded edges (second
endpoint -1).  Growth exponents of the boundary law are declared
metadata; they are sanity-sampled, never enforced analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .energy import (
    ExtendedFunctional,
    NodewiseIntegral,
    PEdgeEnergy,
    ScalarPrimitive,
    TotalVariationTerm,
)
from .hilbert import WeightedSpace
from .pairs import JEllipticPair, JMap

__all__ = [
    "GridSpec",
    "chain",
    "grid",
    "ScalarRule",
    "ScalarLaw",
    "g_zero",
    "g_linear",
    "g_arctan",
    "g_sine",
    "beta_zero",
    "beta_linear",
    "beta_power",
    "build_robin",
    "build_dtn",
    "build_coupled",
    "build_dirichlet",
    "build_neumann",
    "build_tv",
    "ProblemBundle",
    "load_problem",
    "builtin_problems",
    "PROBLEM_KINDS",
]

COERCIVITY_MARGIN = 1e-6  # added to the declared shift of non-monotone volume laws


@dataclass(frozen=True)
class GridSpec:
    """Chain or rectangular grid of nodes with uniform spacing ``h``."""

    topology: str
    shape: tuple
    h: float

    def __post_init__(self):
        if self.topology not in ("chain", "grid"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.h <= 0:
            raise ValueError("cell size h must be positive")
        if self.topology == "chain" and (len(self.shape) != 1 or self.shape[0] < 3):
            raise ValueError("chain needs at least 3 nodes")
        if self.topology == "grid" and (len(self.shape) != 2 or min(self.shape) < 3):
            raise ValueError("grid needs at least 3 nodes per side")

    @property
    def d(self) -> int:
        return 1 if self.topology == "chain" else 2

    @property
    def node_count(self) -> int:
        return int(np.prod(self.shape))

    def edges(self) -> np.ndarray:
        if self.topology == "chain":
            n = self.shape[0]
            return np.column_stack([np.arange(n - 1), np.arange(1, n)])
        nx, ny = self.shape
        ids = np.arange(nx * ny).reshape(nx, ny)
        horiz = np.column_stack([ids[:-1, :].ravel(), ids[1:, :].ravel()])
        vert = np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
        return np.vstack([horiz, vert])

    def boundary_nodes(self) -> np.ndarray:
        if self.topology == "chain":
            return np.array([0, self.shape[0] - 1])
        nx, ny = self.shape
        mask = np.zeros((nx, ny), dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        return np.nonzero(mask.ravel())[0]

    def interior_nodes(self) -> np.ndarray:
        mask = np.ones(self.node_count, dtype=bool)
        mask[self.boundary_nodes()] = False
        return np.nonzero(mask)[0]


def chain(n: int, h: float) -> GridSpec:
    return GridSpec("chain", (int(n),), float(h))


def grid(nx: int, ny: int, h: float) -> GridSpec:
    return GridSpec("grid", (int(nx), int(ny)), float(h))


# ---------------------------------------------------------------------------
# scalar laws


@dataclass(frozen=True)
class ScalarRule:
    """Scalar nonlinearity with its primitive and declared regularity."""

    fn: Callable[[np.ndarray], np.ndarray]
    primitive: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    monotone: bool
    tag: str
    curvature: Optional[Callable[[np.ndarray], np.ndarray]] = None  # derivative of ``fn``

    def energy_primitive(self) -> ScalarPrimitive:
        omega = 0.0 if self.monotone else float(self.lipschitz)
        return ScalarPrimitive(
            value_fn=self.primitive, deriv_fn=self.fn, omega=omega, tag=self.tag, curvature_fn=self.curvature
        )

    @property
    def is_zero(self) -> bool:
        return self.tag == "zero"


def g_zero() -> ScalarRule:
    zero = lambda z: np.zeros_like(np.asarray(z, float))
    return ScalarRule(zero, zero, 0.0, True, "zero", zero)


def g_linear(a: float) -> ScalarRule:
    return ScalarRule(
        lambda z: a * z,
        lambda z: 0.5 * a * z * z,
        abs(a),
        a >= 0,
        "linear",
        lambda z: np.full_like(np.asarray(z, float), a),
    )


def g_affine(a: float, b: float) -> ScalarRule:
    """``a z + b``: monotone for a >= 0 but with a source offset, so the
    flow it drives is not positivity preserving."""
    return ScalarRule(
        lambda z: a * z + b,
        lambda z: 0.5 * a * z * z + b * z,
        abs(a),
        a >= 0,
        "affine",
        lambda z: np.full_like(np.asarray(z, float), a),
    )


def g_arctan(a: float) -> ScalarRule:
    if a < 0:
        raise ValueError("arctan law expects a >= 0")
    return ScalarRule(
        lambda z: a * np.arctan(z),
        lambda z: a * (z * np.arctan(z) - 0.5 * np.log1p(z * z)),
        a,
        True,
        "arctan",
        lambda z: a / (1.0 + z * z),
    )


def g_sine(a: float) -> ScalarRule:
    """Lipschitz, non-monotone volume law; curvature deficit equals ``a``."""
    return ScalarRule(
        lambda z: a * np.sin(z),
        lambda z: a * (1.0 - np.cos(z)),
        abs(a),
        a == 0.0,
        "sine",
        lambda z: a * np.cos(z),
    )


def beta_zero() -> ScalarRule:
    return g_zero()


def beta_linear(a: float) -> ScalarRule:
    if a < 0:
        raise ValueError("boundary law must be increasing")
    rule = g_linear(a)
    return ScalarRule(rule.fn, rule.primitive, rule.lipschitz, True, "linear", rule.curvature)


def beta_power(a: float, r: float) -> ScalarRule:
    """``a |z|^(r-1) sign z``; increasing, growth exponent ``r``.  Below
    ``r = 2`` the curvature is unbounded at 0 and is left to differencing."""
    if a <= 0 or r <= 1:
        raise ValueError("power boundary law needs a > 0 and r > 1")
    lip = a if r == 2 else math.inf  # derivative unbounded away from r = 2
    return ScalarRule(
        lambda z: a * np.abs(z) ** (r - 1.0) * np.sign(z),
        lambda z: a * np.abs(z) ** r / r,
        lip,
        True,
        "power",
        (lambda z: a * (r - 1.0) * np.abs(z) ** (r - 2.0)) if r >= 2 else None,
    )


_G_RULES = {
    "zero": lambda **kw: g_zero(),
    "linear": g_linear,
    "affine": g_affine,
    "arctan": g_arctan,
    "sine": g_sine,
}
_BETA_RULES = {"zero": lambda **kw: beta_zero(), "linear": beta_linear, "power": beta_power}


@dataclass(frozen=True)
class ScalarLaw:
    """Volume law (Lipschitz) and boundary law (increasing with growth)."""

    g: ScalarRule = field(default_factory=g_zero)
    beta: ScalarRule = field(default_factory=beta_zero)

    @property
    def shift(self) -> float:
        """Convexity shift the pair declares for this law."""
        return 0.0 if self.g.monotone else self.g.lipschitz + COERCIVITY_MARGIN


def _law_from_config(cfg: Optional[dict]) -> ScalarLaw:
    if not cfg:
        return ScalarLaw()
    g_cfg = dict(cfg.get("g", {"kind": "zero"}))
    b_cfg = dict(cfg.get("beta", {"kind": "zero"}))
    g_kind = g_cfg.pop("kind")
    b_kind = b_cfg.pop("kind")
    g_cfg.pop("L", None)
    g_cfg.pop("monotone", None)
    if b_kind == "linear":
        b_cfg.pop("r", None)
    b_cfg.pop("alpha", None)
    return ScalarLaw(g=_G_RULES[g_kind](**g_cfg), beta=_BETA_RULES[b_kind](**b_cfg))


# ---------------------------------------------------------------------------
# assembly helpers


def _restriction(indices, n) -> np.ndarray:
    J = np.zeros((len(indices), n))
    J[np.arange(len(indices)), indices] = 1.0
    return J


def _eliminate(edges: np.ndarray, keep: np.ndarray, n: int):
    """Reindex edges onto ``keep``; edges leaving it become grounded."""
    new_id = np.full(n, -1)
    new_id[keep] = np.arange(keep.size)
    e = new_id[edges].reshape(-1, 2)
    e = e[np.any(e >= 0, axis=1)]
    return np.where(e[:, :1] >= 0, e, e[:, ::-1])  # a grounded first endpoint swaps with the second


# ---------------------------------------------------------------------------
# builders


def build_robin(gridspec: GridSpec, p: float, law: Optional[ScalarLaw] = None) -> JEllipticPair:
    """Flux through all nodes with a reactive boundary.

    Source space: every node.  Data space: interior nodes with volume
    weights; the map restricts to them.  The energy combines the edge
    power, the volume law on the interior and the boundary law on the
    boundary ring.
    """
    if p <= 1:
        raise ValueError("edge exponent must exceed 1 here; use build_tv for the 1-homogeneous flow")
    law = law or ScalarLaw()
    h, d = gridspec.h, gridspec.d
    n = gridspec.node_count
    interior = gridspec.interior_nodes()
    boundary = gridspec.boundary_nodes()

    edges = gridspec.edges()
    terms = [PEdgeEnergy(edges, np.full(edges.shape[0], h ** (d - p)), p)]
    if not law.g.is_zero:
        terms.append(NodewiseIntegral(interior, np.full(interior.size, h**d), law.g.energy_primitive()))
    if not law.beta.is_zero:
        terms.append(
            NodewiseIntegral(boundary, np.full(boundary.size, h ** (d - 1)), law.beta.energy_primitive())
        )
    E = ExtendedFunctional(terms=terms, dim=n)
    space = WeightedSpace(np.full(interior.size, h**d))
    return JEllipticPair(E=E, j=JMap(_restriction(interior, n)), space=space, omega=law.shift)


def build_dtn(gridspec: GridSpec, p: float, law: Optional[ScalarLaw] = None) -> JEllipticPair:
    """Boundary-data flow: the map is the trace onto the boundary ring.

    The kernel consists of every interior-supported vector, which makes
    this the intrinsically non-injective example.  With a non-monotone
    volume law the declared shift follows the volume rule, but no trace
    shift can restore interior convexity; validation reports it.
    """
    law = law or ScalarLaw()
    h, d = gridspec.h, gridspec.d
    n = gridspec.node_count
    boundary = gridspec.boundary_nodes()
    interior = gridspec.interior_nodes()
    if boundary.size == 0:
        raise ValueError("grid has no boundary nodes")
    if p <= 1:
        raise ValueError("edge exponent must exceed 1")

    edges = gridspec.edges()
    terms = [PEdgeEnergy(edges, np.full(edges.shape[0], h ** (d - p)), p)]
    if not law.g.is_zero:
        terms.append(NodewiseIntegral(interior, np.full(interior.size, h**d), law.g.energy_primitive()))
    E = ExtendedFunctional(terms=terms, dim=n)
    space = WeightedSpace(np.full(boundary.size, h ** (d - 1)))
    return JEllipticPair(E=E, j=JMap(_restriction(boundary, n)), space=space, omega=law.shift)


def build_coupled(gridspec: GridSpec, subdomain, p: float) -> JEllipticPair:
    """Evolution on a subregion coupled to a stationary edge-power
    extension on the rest, with a zero outer ring.

    Source space: interior nodes of the enclosing grid (outer ring
    eliminated into grounded edges).  Data space: the subregion with
    volume weights; the map restricts to it.
    """
    if p <= 1:
        raise ValueError("edge exponent must exceed 1")
    h, d = gridspec.h, gridspec.d
    interior = gridspec.interior_nodes()
    boundary = set(gridspec.boundary_nodes().tolist())
    subdomain = np.asarray(subdomain, dtype=int)
    if subdomain.size == 0:
        raise ValueError("subregion is empty")
    if any(s in boundary for s in subdomain.tolist()):
        raise ValueError("subregion touches the outer ring")

    edges = _eliminate(gridspec.edges(), interior, gridspec.node_count)
    E = ExtendedFunctional(
        terms=[PEdgeEnergy(edges, np.full(edges.shape[0], h ** (d - p)), p)], dim=interior.size
    )
    new_id = {node: i for i, node in enumerate(interior.tolist())}
    sub_local = np.array([new_id[s] for s in subdomain.tolist()], dtype=int)
    space = WeightedSpace(np.full(sub_local.size, h**d))
    return JEllipticPair(E=E, j=JMap(_restriction(sub_local, interior.size)), space=space, omega=0.0)


def build_dirichlet(gridspec: GridSpec, p: float) -> JEllipticPair:
    """Edge-power flow on the interior with the boundary pinned at zero."""
    if p <= 1:
        raise ValueError("edge exponent must exceed 1")
    h, d = gridspec.h, gridspec.d
    interior = gridspec.interior_nodes()
    edges = _eliminate(gridspec.edges(), interior, gridspec.node_count)
    E = ExtendedFunctional(
        terms=[PEdgeEnergy(edges, np.full(edges.shape[0], h ** (d - p)), p)], dim=interior.size
    )
    space = WeightedSpace(np.full(interior.size, h**d))
    return JEllipticPair(E=E, j=JMap(np.eye(interior.size)), space=space, omega=0.0)


def build_neumann(gridspec: GridSpec, p: float) -> JEllipticPair:
    """Edge-power flow over all nodes with no boundary pinning."""
    if p <= 1:
        raise ValueError("edge exponent must exceed 1")
    h, d = gridspec.h, gridspec.d
    n = gridspec.node_count
    edges = gridspec.edges()
    E = ExtendedFunctional(terms=[PEdgeEnergy(edges, np.full(edges.shape[0], h ** (d - p)), p)], dim=n)
    space = WeightedSpace(np.full(n, h**d))
    return JEllipticPair(E=E, j=JMap(np.eye(n)), space=space, omega=0.0)


def build_tv(gridspec: GridSpec, subdomain=None) -> JEllipticPair:
    """1-homogeneous flow: anisotropic total variation with a zero ring.

    The data space is the subregion (default: the whole interior, where
    the map is the identity and backward steps are exact shrink
    problems).
    """
    h, d = gridspec.h, gridspec.d
    interior = gridspec.interior_nodes()
    edges = _eliminate(gridspec.edges(), interior, gridspec.node_count)
    E = ExtendedFunctional(
        terms=[TotalVariationTerm(edges, np.full(edges.shape[0], h ** (d - 1)))], dim=interior.size
    )
    if subdomain is None:
        sub_local = np.arange(interior.size)
    else:
        boundary = set(gridspec.boundary_nodes().tolist())
        subdomain = np.asarray(subdomain, dtype=int)
        if any(s in boundary for s in subdomain.tolist()):
            raise ValueError("subregion touches the outer ring")
        new_id = {node: i for i, node in enumerate(interior.tolist())}
        sub_local = np.array([new_id[s] for s in subdomain.tolist()], dtype=int)
    space = WeightedSpace(np.full(sub_local.size, h**d))
    return JEllipticPair(E=E, j=JMap(_restriction(sub_local, interior.size)), space=space, omega=0.0)


# ---------------------------------------------------------------------------
# problem files


PROBLEM_KINDS = ("robin", "dtn", "coupled", "dirichlet", "neumann", "tv")


@dataclass
class ProblemBundle:
    name: str
    kind: str
    pair: JEllipticPair
    reference: Optional[JEllipticPair] = None
    reference_kind: Optional[str] = None
    meta: dict = field(default_factory=dict)


def _grid_from_config(cfg: dict) -> GridSpec:
    topo = cfg["topology"]
    if topo == "chain":
        return chain(cfg["n"], cfg["h"])
    return grid(cfg["nx"], cfg["ny"], cfg["h"])


def _build_from_config(cfg: dict) -> tuple[JEllipticPair, str]:
    kind = cfg["problem"]
    if kind not in PROBLEM_KINDS:
        raise KeyError(f"unknown problem kind {kind!r}")
    gridspec = _grid_from_config(cfg["grid"])
    law = _law_from_config(cfg.get("law"))
    if kind == "robin":
        pair = build_robin(gridspec, cfg["p"], law)
    elif kind == "dtn":
        pair = build_dtn(gridspec, cfg["p"], law)
    elif kind == "coupled":
        pair = build_coupled(gridspec, np.asarray(cfg["subdomain"], dtype=int), cfg["p"])
    elif kind == "dirichlet":
        pair = build_dirichlet(gridspec, cfg["p"])
    elif kind == "neumann":
        pair = build_neumann(gridspec, cfg["p"])
    else:
        pair = build_tv(gridspec, cfg.get("subdomain"))
    if "omega_override" in cfg and cfg["omega_override"] is not None:
        pair = JEllipticPair(E=pair.E, j=pair.j, space=pair.space, omega=float(cfg["omega_override"]))
    return pair, kind


def load_problem(source) -> ProblemBundle:
    """Build a problem from a config dict or a JSON file path."""
    import json
    from pathlib import Path

    if isinstance(source, (str,)) or hasattr(source, "read_text"):
        path = Path(source)
        cfg = json.loads(path.read_text())
        name = cfg.get("name", path.stem)
    else:
        cfg = dict(source)
        name = cfg.get("name", cfg.get("problem", "problem"))
    pair, kind = _build_from_config(cfg)
    reference = None
    reference_kind = None
    if cfg.get("reference"):
        reference, reference_kind = _build_from_config(cfg["reference"])
        if reference.space.dim != pair.space.dim or not np.allclose(
            reference.space.weights, pair.space.weights
        ):
            raise ValueError("reference pair must share the data space")
    meta = {k: v for k, v in cfg.items() if k != "name"}
    return ProblemBundle(name=name, kind=kind, pair=pair, reference=reference, reference_kind=reference_kind, meta=meta)


def builtin_problems() -> dict:
    """Config dicts for the stock desk-scale problems."""
    robin_law = {"g": {"kind": "arctan", "a": 0.5}, "beta": {"kind": "linear", "a": 1.0}}
    grid8 = {"topology": "grid", "nx": 8, "ny": 8, "h": 1.0 / 7.0}
    chain16 = {"topology": "chain", "n": 16, "h": 1.0 / 15.0}
    chain34 = {"topology": "chain", "n": 34, "h": 1.0 / 33.0}
    chain18 = {"topology": "chain", "n": 18, "h": 1.0 / 33.0}
    inner16 = list(range(9, 25))
    out = {}
    for p in (1.5, 2.0, 3.0):
        out[f"robin_p{p:g}"] = {"problem": "robin", "grid": grid8, "p": p, "law": robin_law}
    out["robin_sine_p2"] = {
        "problem": "robin",
        "grid": grid8,
        "p": 2.0,
        "law": {"g": {"kind": "sine", "a": 0.8}, "beta": {"kind": "linear", "a": 1.0}},
    }
    for p in (2.0, 3.0):
        out[f"dtn_p{p:g}"] = {"problem": "dtn", "grid": chain16, "p": p}
        out[f"coupled_p{p:g}"] = {
            "problem": "coupled",
            "grid": chain34,
            "subdomain": inner16,
            "p": p,
            "reference": {"problem": "dirichlet", "grid": chain18, "p": p},
        }
    out["tv_chain32"] = {"problem": "tv", "grid": chain34}
    return out
