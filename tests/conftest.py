"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.node import WorkerNode
from repro.cluster.resources import ResourceVector
from repro.workloads.spec import ServiceKind, default_catalog


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def catalog():
    return default_catalog()


@pytest.fixture
def lc_spec(catalog):
    return next(s for s in catalog if s.kind is ServiceKind.LC)


@pytest.fixture
def be_spec(catalog):
    return next(s for s in catalog if s.kind is ServiceKind.BE)


@pytest.fixture
def small_node():
    """A 4-CPU / 8-GiB worker, the paper's physical worker SKU."""
    return WorkerNode(
        name="w0",
        cluster_id=0,
        capacity=ResourceVector(cpu=4.0, memory=8 * 1024.0),
    )


def make_request(spec, origin=0, arrival=0.0):
    from repro.sim.request import ServiceRequest

    return ServiceRequest(spec=spec, origin_cluster=origin, arrival_ms=arrival)
