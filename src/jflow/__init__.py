"""Gradient flows of convex energies lifted through a linear map.

The package builds backward (implicit-Euler) flows for composite convex
energies whose natural variables live in a bigger space than the data:
the energy is pushed onto the data space by minimizing over fibers, the
flow is generated by resolvent steps, and the qualitative properties
(positivity, order preservation, comparison, domination, sup-norm and
modular contraction) come with executable sampled checkers.
"""

from .hilbert import (
    ConvexSetOracle,
    NFunction,
    WeightedSpace,
    box,
    custom_oracle,
    huber,
    order_cone,
    positive_cone,
    power,
    threshold_excess,
)
from .energy import (
    AffineIndicatorTerm,
    ExtendedFunctional,
    NodewiseIntegral,
    PEdgeEnergy,
    QuadraticTerm,
    ScalarPrimitive,
    TotalVariationTerm,
)
from .pairs import (
    JEllipticPair,
    JMap,
    chain_envelope_value,
    elliptic_extension,
    graph_reduce,
    lifted_value,
    subgradient_residual,
    support_envelope_value,
)
from .flow import ResolventResult, Trajectory, cyclic_monotonicity_gap, evolve, resolvent, semigroup_distance
from .problems import (
    GridSpec,
    ProblemBundle,
    ScalarLaw,
    build_coupled,
    build_dirichlet,
    build_dtn,
    build_neumann,
    build_robin,
    build_tv,
    builtin_problems,
    chain,
    grid,
    load_problem,
)

__version__ = "0.1.0"
