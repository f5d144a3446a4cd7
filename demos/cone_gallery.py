"""Gallery of the built-in cones: density, stationarity, links, blow-ups.

Every exact cone fixture is sampled as the graph cloud of a two-valued
graph over its first n coordinates, checked against the stationarity
test, and classified by its link on the unit sphere.  The last section
plants a linear field over a pair of planes and recovers its coefficients
by dehomogenization.
"""

import numpy as np

from mintwo.blowup import ConeField, HElement, dehomogenize
from mintwo.fixtures import CONE_FIXTURE_IDS, FixtureSpec, cone_fixture, \
    generate
from mintwo.linkclass import classify_link, sample_link
from mintwo.stationarity import BumpField, first_variation_defect
from mintwo.twovalued import TwoValuedGrid
from mintwo.varifold import density_ratio, sample_graph


def four_half_planes_r4(pts):
    # the n = 1 four half-plane function of the first coordinate, constant
    # along the axis line (the second)
    t = pts[:, :1]
    v = np.where(t <= 0, np.hstack([t, 0 * t]), np.hstack([0 * t, t]))
    return v, -v


# the grid of each cone over the ball of radius 2, at spacing h
GRIDS = {
    "pair_lines_r2": lambda h: generate(FixtureSpec(
        "pair_planes", h, 2.0, {"g1": [[1]], "g2": [[-1]]})),
    "transverse_pair_r4": lambda h: generate(FixtureSpec(
        "pair_planes", h, 2.0, {"g1": [[0, 0], [0, 0]],
                                "g2": [[1, 0], [0, 1]]})),
    "four_half_planes_r3": lambda h: generate(FixtureSpec(
        "four_half_planes", h, 2.0)),
    "four_half_planes_r4": lambda h: TwoValuedGrid.from_function(
        four_half_planes_r4, 2, 2, 2.0, h),
}

print("cone fixtures:")
for name in CONE_FIXTURE_IDS:
    C = cone_fixture(name)
    V = sample_graph(GRIDS[name](1 / 8192 if C.n == 1 else 1 / 64),
                     with_tangents=False)
    ratio = density_ratio(V, np.zeros(C.ambient_dim), 0.5)
    line = "  %-22s n=%d k=%d  density at 0: %.3f" \
        % (name, C.n, C.k, ratio)
    if C.n == 2:
        line += "  link: %s" % classify_link(sample_link(C, M=256)).verdict
    print(line)

print()
print("first-variation defect of the four-half-plane graph fixture")
print("(a stationary union of four half planes; the defect is pure")
print(" quadrature error and shrinks under refinement):")
for h in (1 / 64, 1 / 128, 1 / 256):
    g = generate(FixtureSpec("four_half_planes", h, radius=1.0))
    fields = [BumpField("radial_bump", np.zeros(3), 0.5),
              BumpField("coordinate_bump", np.zeros(3), 0.5,
                        direction=np.array([0.0, 1.0, 0.0]))]
    d = max(first_variation_defect(sample_graph(g), fields,
                                   max_unreliable=0.3))
    print("  h = %-10g defect = %.3e" % (h, d))

print()
print("dehomogenization of a planted degree-one field:")
C = cone_fixture("transverse_pair_r4")
maps = [np.array([[0.2, -0.1], [0.05, 0.3], [0.4, 0.0]]),
        np.array([[0.0, 0.1], [-0.2, 0.0], [0.0, -0.3]])]
psi = HElement(C, maps=maps)
field = ConeField.from_element(psi, h=1 / 32)
recovered, norms = dehomogenize(field)
err = np.linalg.norm(recovered.coefficient_vector()
                     - psi.coefficient_vector())
print("  coefficient recovery error: %.2e" % err)
print("  residual norm: %.2e   orthogonality: %.2e"
      % (norms["residual"], norms["orthogonality"]))
