import numpy as np
import pytest

from gevspec import geometry, quantize
from gevspec.symbols import (make_analytic_transport, make_gevrey_transport,
                             make_trapped_toy)


def fbi_grid(h):
    """The grid of the FBI and composition tests at h: half width 8 and
    the grid rule's N for the catalog's xi extent 4, at least 256 points."""
    return quantize.RealGrid(
        8.0, max(quantize.required_n_points(8.0, h, 4.0), 256))


@pytest.fixture(scope="session")
def gevrey2():
    return make_gevrey_transport(2.0)


@pytest.fixture(scope="session")
def analytic_model():
    return make_analytic_transport()


@pytest.fixture(scope="session")
def trapped_model():
    return make_trapped_toy()


@pytest.fixture(scope="session")
def escape_gevrey2(gevrey2):
    return geometry.build_escape(gevrey2)


@pytest.fixture(scope="session")
def escape_analytic(analytic_model):
    return geometry.build_escape(analytic_model)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
