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
endpoint -1).  Scalar laws are ``energy.ScalarPrimitive``s whose
``omega`` is 0 for a monotone law and the Lipschitz constant otherwise.
Growth exponents of the boundary law are declared
metadata; they are sanity-sampled, never enforced analytically.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

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
        if not 0 < self.h < np.inf:
            raise ValueError(f"cell size h must be positive and finite, got {self.h}")
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


def _whole(count, key: str) -> int:
    if not (isinstance(count, numbers.Real) and float(count).is_integer()):
        raise ValueError(f"grid size {key} must be a whole number, not {count!r}")
    return int(count)


def chain(n: int, h: float) -> GridSpec:
    return GridSpec("chain", (_whole(n, "n"),), float(h))


def grid(nx: int, ny: int, h: float) -> GridSpec:
    return GridSpec("grid", (_whole(nx, "nx"), _whole(ny, "ny")), float(h))


# ---------------------------------------------------------------------------
# scalar laws


def g_zero() -> ScalarPrimitive:
    zero = lambda z: np.zeros_like(np.asarray(z, float))
    return ScalarPrimitive(zero, zero, 0.0, "zero", zero)


def g_linear(a: float) -> ScalarPrimitive:
    return ScalarPrimitive(
        lambda z: 0.5 * a * z * z,
        lambda z: a * z,
        0.0 if a >= 0 else float(-a),
        "linear",
        lambda z: np.full_like(np.asarray(z, float), a),
    )


def g_affine(a: float, b: float) -> ScalarPrimitive:
    """``a z + b``: monotone for a >= 0 but with a source offset, so the
    flow it drives is not positivity preserving."""
    return ScalarPrimitive(
        lambda z: 0.5 * a * z * z + b * z,
        lambda z: a * z + b,
        0.0 if a >= 0 else float(-a),
        "affine",
        lambda z: np.full_like(np.asarray(z, float), a),
    )


def g_arctan(a: float) -> ScalarPrimitive:
    if a < 0:
        raise ValueError("arctan law expects a >= 0")
    return ScalarPrimitive(
        lambda z: a * (z * np.arctan(z) - 0.5 * np.log1p(z * z)),
        lambda z: a * np.arctan(z),
        0.0,
        "arctan",
        lambda z: a / (1.0 + z * z),
    )


def g_sine(a: float) -> ScalarPrimitive:
    """Lipschitz, non-monotone volume law; curvature deficit equals ``a``."""
    return ScalarPrimitive(
        lambda z: a * (1.0 - np.cos(z)),
        lambda z: a * np.sin(z),
        float(abs(a)),
        "sine",
        lambda z: a * np.cos(z),
    )


beta_zero = g_zero


def beta_linear(a: float) -> ScalarPrimitive:
    if a < 0:
        raise ValueError("boundary law must be increasing")
    return g_linear(a)


def beta_power(a: float, r: float) -> ScalarPrimitive:
    """``a |z|^(r-1) sign z``; increasing, growth exponent ``r``.  Below
    ``r = 2`` the curvature is unbounded at 0 and is left to differencing."""
    if a <= 0 or r <= 1:
        raise ValueError("power boundary law needs a > 0 and r > 1")
    return ScalarPrimitive(
        lambda z: a * np.abs(z) ** r / r,
        lambda z: a * np.abs(z) ** (r - 1.0) * np.sign(z),
        0.0,
        "power",
        (lambda z: a * (r - 1.0) * np.abs(z) ** (r - 2.0)) if r >= 2 else None,
    )


@dataclass(frozen=True)
class ScalarLaw:
    """Volume law (Lipschitz) and boundary law (increasing with growth)."""

    g: ScalarPrimitive = field(default_factory=g_zero)
    beta: ScalarPrimitive = field(default_factory=beta_zero)

    @property
    def shift(self) -> float:
        """Convexity shift the pair declares for this law."""
        return self.g.omega + COERCIVITY_MARGIN if self.g.omega > 0 else 0.0


# ---------------------------------------------------------------------------
# builders


def _interior_ids(gridspec: GridSpec) -> np.ndarray:
    """Index of each node among the interior nodes; -1 on the ring."""
    ids = np.full(gridspec.node_count, -1)
    interior = gridspec.interior_nodes()
    ids[interior] = np.arange(interior.size)
    return ids


def _subregion(gridspec: GridSpec, nodes) -> np.ndarray:
    """Interior indices of the grid nodes ``nodes`` (None: the whole interior)."""
    ids = _interior_ids(gridspec)
    if nodes is None:
        return ids[ids >= 0]
    nodes = np.asarray(nodes, dtype=int)
    if nodes.size == 0:
        raise ValueError("subregion is empty")
    outside = nodes[(nodes < 0) | (nodes >= ids.size)]
    if outside.size:
        raise ValueError(f"subregion node {outside[0]} is outside the grid")
    if np.any(ids[nodes] < 0):
        raise ValueError("subregion touches the outer ring")
    return ids[nodes]


def _assemble(gridspec: GridSpec, p, data, measure: float, laws=(), keep_ring=False, omega=0.0) -> JEllipticPair:
    """The pair of an edge energy plus nodewise laws, observed on ``data``.

    Source space: every node with ``keep_ring``, else the interior nodes
    with the zero ring eliminated into grounded edges.  The edge term is
    the p-power term, or total variation for ``p=None``.  ``laws`` holds
    ``(nodes, measure, primitive)`` integrals; zero laws are left out.
    The map restricts to the source indices ``data``, each of measure
    ``measure`` in the data space.
    """
    if p is not None and not (isinstance(p, numbers.Real) and 1 < p < math.inf):
        raise ValueError(f"edge exponent p must be a finite number above 1, not {p!r}; "
                         "build_tv builds the 1-homogeneous flow")
    h, d = gridspec.h, gridspec.d
    edges = gridspec.edges()
    n = gridspec.node_count
    if not keep_ring:
        ids = _interior_ids(gridspec)
        e = ids[edges]
        e = e[np.any(e >= 0, axis=1)]
        edges = np.where(e[:, :1] >= 0, e, e[:, ::-1])  # a grounded first endpoint swaps with the second
        n = int(np.count_nonzero(ids >= 0))
    weights = np.full(edges.shape[0], h ** (d - (1 if p is None else p)))  # total variation weighs as p = 1
    terms = [TotalVariationTerm(edges, weights) if p is None else PEdgeEnergy(edges, weights, p)]
    terms += [NodewiseIntegral(nodes, np.full(nodes.size, w), g) for nodes, w, g in laws if g.tag != "zero"]
    J = np.zeros((data.size, n))
    J[np.arange(data.size), data] = 1.0
    space = WeightedSpace(np.full(data.size, measure))
    return JEllipticPair(E=ExtendedFunctional(terms=terms, dim=n), j=JMap(J), space=space, omega=omega)


def build_robin(gridspec: GridSpec, p: float, law: ScalarLaw = ScalarLaw()) -> JEllipticPair:
    """Flux through all nodes with a reactive boundary.

    Source space: every node.  Data space: interior nodes with volume
    weights; the map restricts to them.  The energy combines the edge
    power, the volume law on the interior and the boundary law on the
    boundary ring.
    """
    h, d = gridspec.h, gridspec.d
    interior = gridspec.interior_nodes()
    laws = [(interior, h**d, law.g), (gridspec.boundary_nodes(), h ** (d - 1), law.beta)]
    return _assemble(gridspec, p, interior, h**d, laws, keep_ring=True, omega=law.shift)


def build_dtn(gridspec: GridSpec, p: float, law: ScalarLaw = ScalarLaw()) -> JEllipticPair:
    """Boundary-data flow: the map is the trace onto the boundary ring.

    The kernel consists of every interior-supported vector, which makes
    this the intrinsically non-injective example.  With a non-monotone
    volume law the declared shift follows the volume rule, but no trace
    shift can restore interior convexity; validation reports it.
    """
    h, d = gridspec.h, gridspec.d
    laws = [(gridspec.interior_nodes(), h**d, law.g)]
    return _assemble(gridspec, p, gridspec.boundary_nodes(), h ** (d - 1), laws, keep_ring=True, omega=law.shift)


def build_coupled(gridspec: GridSpec, subdomain, p: float) -> JEllipticPair:
    """Evolution on a subregion coupled to a stationary edge-power
    extension on the rest, with a zero outer ring.

    Source space: interior nodes of the enclosing grid (outer ring
    eliminated into grounded edges).  Data space: the subregion with
    volume weights; the map restricts to it.
    """
    return _assemble(gridspec, p, _subregion(gridspec, subdomain), gridspec.h**gridspec.d)


def build_dirichlet(gridspec: GridSpec, p: float) -> JEllipticPair:
    """Edge-power flow on the interior with the boundary pinned at zero."""
    return _assemble(gridspec, p, _subregion(gridspec, None), gridspec.h**gridspec.d)


def build_neumann(gridspec: GridSpec, p: float) -> JEllipticPair:
    """Edge-power flow over all nodes with no boundary pinning."""
    return _assemble(gridspec, p, np.arange(gridspec.node_count), gridspec.h**gridspec.d, keep_ring=True)


def build_tv(gridspec: GridSpec, subdomain=None) -> JEllipticPair:
    """1-homogeneous flow: anisotropic total variation with a zero ring.

    The data space is the subregion (default: the whole interior, where
    the map is the identity and backward steps are exact shrink
    problems).
    """
    return _assemble(gridspec, None, _subregion(gridspec, subdomain), gridspec.h**gridspec.d)


# ---------------------------------------------------------------------------
# problem files


# the keys each problem kind reads, besides problem, grid and omega_override
_KIND_KEYS = {"robin": ("p", "law"), "dtn": ("p", "law"), "coupled": ("subdomain", "p"),
              "dirichlet": ("p",), "neumann": ("p",), "tv": ("subdomain",)}
PROBLEM_KINDS = tuple(_KIND_KEYS)


@dataclass
class ProblemBundle:
    name: str
    kind: str
    pair: JEllipticPair
    reference: Optional[JEllipticPair] = None
    meta: dict = field(default_factory=dict)


_LAWS = {
    "g": {"zero": g_zero, "linear": g_linear, "affine": g_affine, "arctan": g_arctan, "sine": g_sine},
    "beta": {"zero": beta_zero, "linear": beta_linear, "power": beta_power},
}
_DECLARED = ("L", "monotone", "alpha")  # declared metadata of a law, not parameters


def _reject_unread(cfg: dict, reads, where: str) -> None:
    """Raise ``ValueError`` naming the first key of ``cfg`` outside ``reads``."""
    for key in cfg:
        if key not in reads:
            raise ValueError(f"{where}: unknown key {key!r}; it reads {', '.join(reads)}")


def _law_from_config(cfg: Optional[dict]) -> ScalarLaw:
    _reject_unread(cfg or {}, tuple(_LAWS), "law")
    laws = {}
    for which, table in _LAWS.items():
        params = {k: v for k, v in (cfg or {}).get(which, {"kind": "zero"}).items() if k not in _DECLARED}
        kind = params.pop("kind")
        if kind not in table:
            raise ValueError(f"unknown {which} law {kind!r}")
        if kind == "linear":
            params.pop("r", None)  # a linear law grows with exponent 2
        for key, value in params.items():
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ValueError(f"{which} law {kind!r}: parameter {key!r} must be finite, not {value!r}")
        try:
            laws[which] = table[kind](**params)
        except TypeError as exc:  # a parameter the law does not take, or a missing or non-numeric one
            raise ValueError(f"{which} law {kind!r}: {exc}") from None
    return ScalarLaw(**laws)


def _build_from_config(cfg: dict, file_keys: tuple) -> tuple[JEllipticPair, str]:
    """The pair and kind of a config; a key outside the kind's and ``file_keys`` raises."""
    if "problem" not in cfg:
        raise ValueError("missing key 'problem'")
    kind = cfg["problem"]
    if kind not in PROBLEM_KINDS:
        raise KeyError(f"unknown problem kind {kind!r}")
    _reject_unread(cfg, ("problem", "grid", *_KIND_KEYS[kind], "omega_override", *file_keys), f"{kind} problem")
    try:
        g = cfg["grid"]
        gridspec = chain(g["n"], g["h"]) if g["topology"] == "chain" else grid(g["nx"], g["ny"], g["h"])
        _reject_unread(g, ("topology", "n", "h") if g["topology"] == "chain" else ("topology", "nx", "ny", "h"),
                       f"{kind} problem: grid")
        if kind == "tv":
            pair = build_tv(gridspec, cfg.get("subdomain"))
        elif kind == "coupled":
            pair = build_coupled(gridspec, cfg["subdomain"], cfg["p"])
        elif kind in ("robin", "dtn"):
            pair = (build_robin if kind == "robin" else build_dtn)(gridspec, cfg["p"], _law_from_config(cfg.get("law")))
        else:
            pair = (build_dirichlet if kind == "dirichlet" else build_neumann)(gridspec, cfg["p"])
    except KeyError as exc:
        raise ValueError(f"{kind} problem: missing key {exc}") from None
    if cfg.get("omega_override") is not None:
        pair = JEllipticPair(E=pair.E, j=pair.j, space=pair.space, omega=float(cfg["omega_override"]))
    return pair, kind


def load_problem(source) -> ProblemBundle:
    """Build a problem from a config dict or a JSON file path."""
    if isinstance(source, (str,)) or hasattr(source, "read_text"):
        path = Path(source)
        cfg = json.loads(path.read_text())
        name = cfg.get("name", path.stem)
    else:
        cfg = dict(source)
        name = cfg.get("name", cfg.get("problem", "problem"))
    pair, kind = _build_from_config(cfg, ("name", "initial", "reference"))  # read here and by the CLI
    reference = None
    if cfg.get("reference"):
        # a reference may keep the label of the file it was copied from
        reference, _ = _build_from_config(cfg["reference"], ("name",))
        if reference.space.dim != pair.space.dim or not np.allclose(
            reference.space.weights, pair.space.weights
        ):
            raise ValueError("reference pair must share the data space")
    meta = {k: v for k, v in cfg.items() if k != "name"}
    return ProblemBundle(name=name, kind=kind, pair=pair, reference=reference, meta=meta)


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
