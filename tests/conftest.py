import numpy as np
import pytest

from metriclab import bergman, geometry


@pytest.fixture(scope="session")
def disc():
    return geometry.unit_disc()


@pytest.fixture(scope="session")
def ellipse15():
    return geometry.ellipse(1.5, 1.0)


@pytest.fixture(scope="session")
def square():
    return geometry.polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])


@pytest.fixture(scope="session")
def trapezoid_rule():
    # an ellipse's trapezoid rule on any n nodes, laid out as boundary_rule
    # lays out its 2 degree + 4
    def build(domain, n):
        (curve,) = domain._pieces
        t = 2 * np.pi * np.arange(n) / n
        return geometry.BoundaryRule(curve.point(t), curve.derivative(t) * (2 * np.pi / n),
                                     f"trapezoid:{n}:{domain.grid_key()}")
    return build


@pytest.fixture(scope="session")
def disc_kernel(disc):
    # the production defaults: degree 40, resolution 0.01
    return bergman.fit_kernel_model(disc, degree=40, resolution=0.01)


@pytest.fixture(scope="session")
def disc_kernel_coarse(disc):
    # cheap model for solver-heavy tests
    return bergman.fit_kernel_model(disc, degree=24, resolution=0.02)
