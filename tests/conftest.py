"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig, laptop_machine
from repro.storage import DATE, LNG, STR, Catalog, Table


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def small_catalog(rng: np.random.Generator) -> Catalog:
    """A two-table catalog small enough for exhaustive checks."""
    n, m = 2_000, 100
    catalog = Catalog("test")
    catalog.add(
        Table.from_arrays(
            "facts",
            {
                "fk": (LNG, rng.integers(0, m, n)),
                "val": (LNG, rng.integers(0, 1_000, n)),
                "qty": (LNG, rng.integers(1, 50, n)),
                "day": (DATE, rng.integers(8_000, 9_000, n)),
            },
        )
    )
    catalog.add(
        Table.from_arrays(
            "dims",
            {
                "pk": (LNG, np.arange(m)),
                "size": (LNG, rng.integers(1, 10, m)),
                "name": (STR, [f"name-{i % 7}" for i in range(m)]),
            },
        )
    )
    return catalog


@pytest.fixture()
def sim_config() -> SimulationConfig:
    """A small, fast simulated machine for unit tests."""
    return SimulationConfig(machine=laptop_machine(8), data_scale=100.0)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the golden-trace fixtures under tests/observe/golden/ "
        "instead of comparing against them",
    )


@pytest.fixture()
def regen_golden(request: pytest.FixtureRequest) -> bool:
    """True when the run should rewrite golden fixtures, not assert."""
    return bool(request.config.getoption("--regen-golden"))
