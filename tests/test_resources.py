"""Unit and property tests for the ResourceVector model."""

import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.cluster.resources import ResourceKind, ResourceVector, ZERO

dims = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def vectors():
    return st.builds(ResourceVector, dims, dims)


class TestKinds:
    def test_cpu_is_compressible(self):
        assert ResourceKind.CPU.compressible

    def test_memory_is_incompressible(self):
        assert not ResourceKind.MEMORY.compressible

    def test_kind_partition_is_complete(self):
        assert {k for k in ResourceKind if k.compressible} == {ResourceKind.CPU}
        assert {k for k in ResourceKind if not k.compressible} == {
            ResourceKind.MEMORY
        }


class TestConstruction:
    def test_fields_are_cpu_and_memory(self):
        names = [f.name for f in dataclasses.fields(ResourceVector)]
        assert names == ["cpu", "memory"]

    def test_of_coerces_to_float(self):
        v = ResourceVector.of(cpu=1, memory=2)
        assert v.as_tuple() == (1.0, 2.0)
        assert isinstance(v.cpu, float) and isinstance(v.memory, float)
        assert ResourceVector.of(memory=3) == ResourceVector(0.0, 3.0)

    @pytest.mark.parametrize("name", ["gpu", "bandwidth", "disk"])
    def test_of_rejects_unmodelled_dimension(self, name):
        with pytest.raises(TypeError):
            ResourceVector.of(cpu=1.0, **{name: 1.0})

    def test_four_field_state_loads(self):
        """A vector pickled with ``bandwidth`` and ``disk`` in its state, as
        builds that tracked four dimensions wrote every vector, loads as the
        same (cpu, memory) pair."""
        old = object.__new__(ResourceVector)
        old.__dict__.update(cpu=1.0, memory=2.0, bandwidth=3.0, disk=4.0)
        loaded = pickle.loads(pickle.dumps(old))
        assert loaded == ResourceVector(1.0, 2.0)
        assert (loaded + loaded).as_tuple() == (2.0, 4.0)


class TestArithmetic:
    def test_add_sub_roundtrip(self):
        a = ResourceVector(1, 2)
        b = ResourceVector(0.5, 1.0)
        assert (a + b - b).approx_equal(a)

    def test_scalar_multiply(self):
        a = ResourceVector(1, 2)
        assert (a * 2).as_tuple() == (2, 4)
        assert (2 * a).as_tuple() == (2, 4)

    def test_negation(self):
        a = ResourceVector(1, 2)
        assert (-a).as_tuple() == (-1, -2)

    def test_clamp_min(self):
        assert ResourceVector(-1, 2).clamp_min(0.0).as_tuple() == (0, 2)
        assert ResourceVector(1, -2).clamp_min(0.0).as_tuple() == (1, 0)

    def test_replace_single_dimension(self):
        a = ResourceVector(1, 2)
        assert a.replace(ResourceKind.MEMORY, 99.0) == ResourceVector(1, 99.0)
        assert a.replace(ResourceKind.CPU, 7.0) == ResourceVector(7.0, 2)
        assert a.get(ResourceKind.CPU) == 1 and a.get(ResourceKind.MEMORY) == 2

    @given(vectors(), vectors())
    def test_add_commutes(self, a, b):
        assert (a + b).approx_equal(b + a)

    @given(vectors())
    def test_zero_is_identity(self, a):
        assert (a + ZERO).approx_equal(a)


class TestPredicates:
    def test_fits_in_exact_boundary(self):
        a = ResourceVector(4, 8)
        assert a.fits_in(ResourceVector(4, 8))

    def test_fits_in_fails_on_any_dimension(self):
        cap = ResourceVector(4, 8)
        assert not ResourceVector(5, 1).fits_in(cap)
        assert not ResourceVector(1, 9).fits_in(cap)

    def test_is_nonnegative_fails_on_any_dimension(self):
        assert ResourceVector(0, 0).is_nonnegative()
        assert not ResourceVector(-1, 1).is_nonnegative()
        assert not ResourceVector(1, -1).is_nonnegative()

    def test_approx_equal_fails_on_any_dimension(self):
        a = ResourceVector(1, 2)
        assert a.approx_equal(ResourceVector(1 + 1e-9, 2 - 1e-9))
        assert not a.approx_equal(ResourceVector(1.1, 2))
        assert not a.approx_equal(ResourceVector(1, 2.1))

    @given(vectors(), vectors())
    def test_min_with_fits_in_both(self, a, b):
        m = a.min_with(b)
        assert m.fits_in(a) and m.fits_in(b)

    @given(vectors(), vectors())
    def test_max_with_dominates_both(self, a, b):
        m = a.max_with(b)
        assert a.fits_in(m) and b.fits_in(m)

    def test_is_zero(self):
        assert ZERO.is_zero()
        assert not ResourceVector(cpu=0.1).is_zero()
        assert not ResourceVector(memory=0.1).is_zero()
