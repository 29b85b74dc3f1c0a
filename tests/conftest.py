import numpy as np
import pytest
from hypothesis import settings

import camdrive as cd

settings.register_profile("ci", max_examples=50, deadline=None)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def steel():
    return cd.find_material("improved steel")


@pytest.fixture(scope="session")
def steel_pair(steel):
    return (steel, steel)


@pytest.fixture(scope="session")
def load():
    return cd.LoadCase(1200.0)


@pytest.fixture()
def baseline_spec():
    """p=50 mm, eta=0.18, r=4 mm: the reference mechanism of the study."""
    return cd.TransmissionSpec(p=50.0, eta=0.18, r=4.0, m=2, L=10.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
