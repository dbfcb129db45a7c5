"""D-VPA tests: in-place scaling semantics and the ~100× latency advantage."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.hrm.dvpa import DVPA
from repro.kube.objects import ContainerSpec, Pod, PodSpec
from repro.kube.vpa import NativeVPA

rv = ResourceVector.of


class TestScaling:
    def test_scale_changes_limit(self):
        dvpa = DVPA("n0")
        dvpa.scale("svc", rv(cpu=1.0, memory=512))
        dvpa.scale("svc", rv(cpu=2.0, memory=1024))
        assert dvpa.current_limit("svc").cpu == pytest.approx(2.0)

    def test_noop_scale_costs_nothing(self):
        dvpa = DVPA("n0")
        dvpa.scale("svc", rv(cpu=1.0, memory=512))
        ops = dvpa.stats.operations
        assert dvpa.scale("svc", rv(cpu=1.0, memory=512)) == 0.0
        assert dvpa.stats.operations == ops

    def test_latency_matches_paper_measurement(self):
        """§7.1: a single scaling operation takes ~23 ms."""
        dvpa = DVPA("n0")
        dvpa.scale("svc", rv(cpu=1.0, memory=512))
        latency = dvpa.scale("svc", rv(cpu=2.0, memory=1024))
        assert 15.0 <= latency <= 30.0

    def test_detailed_mode_drives_real_cgroups(self):
        dvpa = DVPA("n0", detailed=True)
        dvpa.scale("svc", rv(cpu=1.0, memory=512))
        latency = dvpa.scale("svc", rv(cpu=2.0, memory=1024))
        assert latency > 0
        assert dvpa.tree is not None
        assert len(dvpa.tree.write_log) > 0

    def test_grow_and_release_are_inverse(self):
        dvpa = DVPA("n0")
        dvpa.scale("svc", rv(cpu=1.0, memory=512))
        dvpa.grow("svc", rv(cpu=0.5, memory=256))
        assert dvpa.current_limit("svc").cpu == pytest.approx(1.5)
        dvpa.release("svc", rv(cpu=0.5, memory=256))
        assert dvpa.current_limit("svc").cpu == pytest.approx(1.0)

    def test_release_clamps_at_zero(self):
        dvpa = DVPA("n0")
        dvpa.scale("svc", rv(cpu=1.0, memory=512))
        dvpa.release("svc", rv(cpu=99.0, memory=99999))
        assert dvpa.current_limit("svc").cpu == 0.0

    def test_release_unknown_service_is_noop(self):
        assert DVPA("n0").release("ghost", rv(cpu=1.0)) == 0.0

    def test_stats_track_direction(self):
        dvpa = DVPA("n0")
        dvpa.scale("svc", rv(cpu=1.0, memory=512))  # first op counts as expand
        dvpa.scale("svc", rv(cpu=2.0, memory=512))
        dvpa.scale("svc", rv(cpu=0.5, memory=512))
        assert dvpa.stats.expansions >= 2
        assert dvpa.stats.shrinks >= 1


class TestAgainstNativeVPA:
    def test_dvpa_is_about_100x_faster(self):
        """The headline §7.1 comparison: 23 ms vs delete-and-rebuild."""
        dvpa = DVPA("n0")
        dvpa.scale("svc", rv(cpu=1.0, memory=512))
        dvpa_latency = dvpa.scale("svc", rv(cpu=2.0, memory=1024))

        pod = Pod(
            name="app",
            spec=PodSpec(
                containers=[
                    ContainerSpec(
                        "main", requests=rv(cpu=1.0, memory=512),
                        limits=rv(cpu=1.0, memory=512),
                    )
                ]
            ),
        )
        native_latency = NativeVPA().resize(pod, rv(cpu=2.0, memory=1024)).latency_ms
        ratio = native_latency / dvpa_latency
        assert 50 <= ratio <= 200  # "approximately 100 times"

    def test_dvpa_never_interrupts(self):
        dvpa = DVPA("n0")
        dvpa.scale("svc", rv(cpu=1.0, memory=512))
        # no pod deletion anywhere in the path: current limit always defined
        dvpa.scale("svc", rv(cpu=4.0, memory=2048))
        assert dvpa.current_limit("svc") is not None
