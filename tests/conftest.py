import pytest

from hyperideal import fixtures


@pytest.fixture(scope="session")
def paper():
    return fixtures("paper-example")


@pytest.fixture(scope="session")
def z2():
    return fixtures("z2")


@pytest.fixture(scope="session")
def z4():
    return fixtures("z4")


@pytest.fixture(scope="session")
def z6():
    return fixtures("z6")


@pytest.fixture(scope="session")
def z12():
    return fixtures("z12")


@pytest.fixture(scope="session")
def all_fixture_rings():
    from hyperideal import FIXTURE_NAMES

    return [fixtures(name) for name in FIXTURE_NAMES]


@pytest.fixture(scope="session")
def large_rings():
    """The larger rings of the enumeration tests, built once: z16, the
    Boolean ring z2^4 and paper-example squared."""
    from hyperideal import cyclic_ring, product_ring

    return {
        "z16": cyclic_ring(16),
        "z2^4": product_ring([fixtures("z2")] * 4, name="z2^4"),
        "paper-example^2": product_ring([fixtures("paper-example")] * 2, name="paper-example^2"),
    }
