"""Unit tests for the energy model."""

import pytest

from repro.noc.dvfs import DVFS_LEVELS_DEFAULT, OperatingPoint
from repro.noc.model import NoCModel, SimulatorConfig
from repro.noc.power import EnergyBreakdown, PowerModel, PowerParameters

NOMINAL = DVFS_LEVELS_DEFAULT[0]
LOW = DVFS_LEVELS_DEFAULT[-1]


class TestPowerParameters:
    def test_rejects_negative_energies(self):
        with pytest.raises(ValueError):
            PowerParameters(buffer_write_pj=-1.0)

    def test_rejects_nonpositive_nominal_voltage(self):
        with pytest.raises(ValueError):
            PowerParameters(nominal_voltage=0.0)


class TestEnergyBreakdown:
    def test_totals(self):
        energy = EnergyBreakdown(buffer_pj=1.0, crossbar_pj=2.0, link_pj=3.0, leakage_pj=4.0)
        assert energy.dynamic_pj == pytest.approx(6.0)
        assert energy.total_pj == pytest.approx(10.0)

    def test_subtraction_gives_deltas(self):
        before = EnergyBreakdown(buffer_pj=1.0, leakage_pj=1.0)
        after = EnergyBreakdown(buffer_pj=3.0, crossbar_pj=2.0, leakage_pj=4.0)
        delta = after - before
        assert delta.buffer_pj == pytest.approx(2.0)
        assert delta.crossbar_pj == pytest.approx(2.0)
        assert delta.leakage_pj == pytest.approx(3.0)

    def test_copy_is_independent(self):
        original = EnergyBreakdown(buffer_pj=1.0)
        clone = original.copy()
        clone.buffer_pj += 5.0
        assert original.buffer_pj == pytest.approx(1.0)

    def test_as_dict_contains_totals(self):
        payload = EnergyBreakdown(link_pj=2.0).as_dict()
        assert payload["total_pj"] == pytest.approx(2.0)
        assert payload["dynamic_pj"] == pytest.approx(2.0)


class TestPowerModel:
    def test_events_accumulate_per_component(self):
        model = PowerModel()
        model.record_buffer_write(NOMINAL)
        model.record_buffer_read(NOMINAL)
        model.record_crossbar_traversal(NOMINAL)
        model.record_link_traversal(NOMINAL)
        params = model.parameters
        assert model.energy.buffer_pj == pytest.approx(
            params.buffer_write_pj + params.buffer_read_pj
        )
        assert model.energy.crossbar_pj == pytest.approx(params.crossbar_pj)
        assert model.energy.link_pj == pytest.approx(params.link_pj)

    def test_dynamic_energy_scales_with_voltage_squared(self):
        model = PowerModel()
        model.record_crossbar_traversal(NOMINAL)
        at_nominal = model.energy.crossbar_pj
        model.reset()
        model.record_crossbar_traversal(LOW)
        at_low = model.energy.crossbar_pj
        assert at_low == pytest.approx(at_nominal * LOW.voltage**2 / NOMINAL.voltage**2)

    def test_leakage_scales_linearly_with_voltage(self):
        model = PowerModel()
        model.record_router_leakage(NOMINAL)
        at_nominal = model.energy.leakage_pj
        model.reset()
        model.record_router_leakage(LOW)
        assert model.energy.leakage_pj == pytest.approx(
            at_nominal * LOW.voltage / NOMINAL.voltage
        )

    def test_multi_flit_events(self):
        model = PowerModel()
        model.record_link_traversal(NOMINAL, flits=5)
        assert model.energy.link_pj == pytest.approx(5 * model.parameters.link_pj)

    def test_snapshot_and_reset(self):
        model = PowerModel()
        model.record_buffer_write(NOMINAL)
        snapshot = model.snapshot()
        model.record_buffer_write(NOMINAL)
        delta = model.snapshot() - snapshot
        assert delta.buffer_pj == pytest.approx(model.parameters.buffer_write_pj)
        model.reset()
        assert model.energy.total_pj == 0.0

    def test_custom_operating_point_above_nominal(self):
        boost = OperatingPoint(name="boost", voltage=1.2, frequency_ghz=2.4, divider=1)
        model = PowerModel()
        model.record_crossbar_traversal(boost)
        assert model.energy.crossbar_pj > model.parameters.crossbar_pj


class TestBatchedAccrual:
    def test_accrue_matches_per_cycle_record_calls_bitwise(self):
        reference = PowerModel()
        increments = [
            reference.router_leakage_increment(NOMINAL),
            reference.link_leakage_increment(LOW, links=3),
            reference.router_leakage_increment(LOW),
        ]
        for _ in range(7):
            reference.record_router_leakage(NOMINAL)
            reference.record_link_leakage(LOW, links=3)
            reference.record_router_leakage(LOW)
        batched = PowerModel()
        batched.accrue_leakage_increments(increments, cycles=7)
        assert batched.energy.leakage_pj == reference.energy.leakage_pj

    @staticmethod
    def _mesh_increments(width):
        """A real model's leakage schedule with every DVFS level present."""
        model = NoCModel(SimulatorConfig(width=width))
        for node in range(width * width):
            model.set_dvfs_level(node, (node * 7 + node // width) % len(DVFS_LEVELS_DEFAULT))
        return model._cycle_leakage_increments()

    @pytest.mark.parametrize("width", [4, 8, 16])
    def test_long_span_replay_matches_the_python_loop_bitwise(self, width):
        # Spans from one cycle (the Python loop) through the switch to the
        # sequential ufunc and past its chunk size, each from the same odd
        # starting total: the float must be the loop's, bit for bit.
        increments = self._mesh_increments(width)
        start = 12345.678901234567
        after = []  # after[k]: the loop's total once k + 1 cycles are added
        total = start
        for _ in range(5000):
            for increment in increments:
                total += increment
            after.append(total)
        model = PowerModel()
        for span in [*range(1, 66), *range(66, 5000, 89), 4999, 5000]:
            model.energy.leakage_pj = start
            model.accrue_leakage_increments(increments, span)
            assert model.energy.leakage_pj == after[span - 1], span

    def test_replay_buffers_follow_the_increment_list(self):
        # The model hands over a new list after every DVFS change; the tiled
        # buffers must never outlive the list they were built from.
        first, second = self._mesh_increments(4), self._mesh_increments(8)
        model, reference = PowerModel(), PowerModel()
        for increments in (first, second, first, list(first)):
            model.accrue_leakage_increments(increments, 300)
            for _ in range(300):
                reference.accrue_leakage_increments(increments)
            assert model.energy.leakage_pj == reference.energy.leakage_pj

    def test_fused_flit_traversal_matches_individual_events(self):
        reference = PowerModel()
        reference.record_buffer_read(LOW)
        reference.record_crossbar_traversal(LOW)
        reference.record_link_traversal(LOW)
        fused = PowerModel()
        fused.record_flit_traversal(LOW, link=True)
        assert fused.energy.as_dict() == reference.energy.as_dict()
        local = PowerModel()
        local.record_flit_traversal(LOW, link=False)
        assert local.energy.link_pj == 0.0
        assert local.energy.buffer_pj == reference.energy.buffer_pj

    def test_scale_memo_tracks_operating_point_changes(self):
        model = PowerModel()
        model.record_buffer_write(NOMINAL)
        at_nominal = model.energy.buffer_pj
        model.record_buffer_write(LOW)
        assert model.energy.buffer_pj - at_nominal < at_nominal  # lower V^2 scale
