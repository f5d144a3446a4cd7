"""Numerical laboratory for minimal two-valued Lipschitz graphs."""

__version__ = "0.1.0"

from .geometry import Subspace, Ball, Cylinder
from .twovalued import TwoValuedGrid, metric_G, lipschitz_estimate
from .cones import Cone, HalfPlane, nu
from .varifold import SampledVarifold, sample_graph, sample_cone
from .excess import excess_E, excess_Q
from .fixtures import FixtureSpec, generate, cone_fixture

__all__ = [
    "Subspace", "Ball", "Cylinder",
    "TwoValuedGrid", "metric_G", "lipschitz_estimate",
    "Cone", "HalfPlane", "nu",
    "SampledVarifold", "sample_graph", "sample_cone",
    "excess_E", "excess_Q",
    "FixtureSpec", "generate", "cone_fixture",
]
