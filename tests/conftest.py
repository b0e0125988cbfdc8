import pytest

from domminor.exact import chromatic_number, clique_number
from domminor.patterns import find_2k2

GRAPH_MEMOS = (clique_number, chromatic_number, find_2k2)


@pytest.fixture(autouse=True)
def fresh_graph_memos():
    """Every test starts with empty per-graph memos, so no outcome depends on
    which graphs an earlier test computed."""
    for fn in GRAPH_MEMOS:
        fn.cache_clear()
