import itertools
import math

import pytest

import linext.cftp as cftp
import linext.exact as exact
from linext.catalog import (
    antichain_poset,
    chain_poset,
    grid_poset,
    two_pairs_poset,
    vee_poset,
    wedge_poset,
    zigzag_poset,
)


def pytest_addoption(parser):
    parser.addoption("--no-kernel", action="store_true",
                     help="run the Python loops in place of the C kernel")


def pytest_configure(config):
    # before collection, so the kernel-only skipifs see no kernel
    if config.getoption("--no-kernel"):
        cftp._kernel = exact._kernel = None


@pytest.fixture
def chain5():
    return chain_poset(5)


@pytest.fixture
def antichain2():
    return antichain_poset(2)


@pytest.fixture
def antichain4():
    return antichain_poset(4)


@pytest.fixture
def pairs4():
    return two_pairs_poset()


@pytest.fixture
def grid23():
    return grid_poset(2, 3)


def brute_force_extensions(poset):
    """Independent oracle: filter all n! permutations by definition."""
    out = []
    for perm in itertools.permutations(range(1, poset.n + 1)):
        ok = True
        for i in range(poset.n):
            for j in range(i + 1, poset.n):
                if poset.less(perm[j], perm[i]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(perm)
    return out


def max_displacement(sigma):
    """Largest value-minus-position over all positions (0 for the identity)."""
    return max(v - p for p, v in enumerate(sigma, start=1))


def grid_hook_count(rows, cols):
    """Hook-length formula: extensions of the rows x cols grid order."""
    hooks = 1
    for r in range(rows):
        for c in range(cols):
            hooks *= (rows - r) + (cols - c) - 1
    return math.factorial(rows * cols) // hooks


SMALL_POSET_BUILDERS = [
    lambda: chain_poset(3),
    lambda: chain_poset(5),
    lambda: antichain_poset(2),
    lambda: antichain_poset(3),
    lambda: antichain_poset(4),
    vee_poset,
    wedge_poset,
    two_pairs_poset,
    zigzag_poset,
]
