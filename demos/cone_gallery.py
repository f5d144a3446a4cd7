"""Gallery of the built-in cones: density, stationarity, links, blow-ups.

Every exact cone fixture is sampled as a weighted point cloud, checked
against the stationarity test, and classified by its link on the unit
sphere.  The last section plants a linear field over a pair of planes and
recovers its coefficients by dehomogenization.
"""

import numpy as np

from mintwo.blowup import ConeField, HElement, dehomogenize
from mintwo.fixtures import CONE_FIXTURE_IDS, FixtureSpec, cone_fixture, \
    generate
from mintwo.linkclass import classify_link, sample_link
from mintwo.stationarity import BumpField, first_variation_defect
from mintwo.varifold import density_ratio, sample_cone, sample_graph

print("cone fixtures:")
for name in CONE_FIXTURE_IDS:
    C = cone_fixture(name)
    V = sample_cone(C, 8000, radius=2.0)
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
