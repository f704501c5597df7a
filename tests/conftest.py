import pytest

from meansombor.graphs import (
    complete_graph,
    path_graph,
    star_graph,
)


@pytest.fixture
def p3():
    return path_graph(3)


@pytest.fixture
def p4():
    return path_graph(4)


@pytest.fixture
def k3():
    return complete_graph(3)


@pytest.fixture
def k13():
    return star_graph(3)


try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # fixed examples and no per-example deadline: reproducible on a loaded host
    settings.register_profile("meansombor", derandomize=True, deadline=None)
    settings.load_profile("meansombor")
