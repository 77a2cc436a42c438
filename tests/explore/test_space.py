"""SpaceSpec: axes, validation, deterministic enumeration, resolution."""

import dataclasses
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.policies import (
    BaselinePolicy,
    DVSDuringIOPolicy,
    SlowestFeasiblePolicy,
)
from repro.errors import ConfigurationError
from repro.explore import (
    AXES,
    CHEMISTRIES,
    POLICY_FAMILIES,
    Axis,
    ConfigBattery,
    SpaceSpec,
    default_space,
)
from repro.explore.halving import explore_fingerprint
from repro.hw.battery import KiBaM
from repro.hw.battery.linear import LinearBattery
from repro.hw.battery.peukert import PeukertBattery
from repro.hw.power import PAPER_POWER_MODEL

#: Candidate values per axis for random spaces (all valid, all distinct).
_VOCABULARY = {
    "policy": POLICY_FAMILIES,
    "cut": ((), (1,), (2,), (3,)),
    "rotation_period": (None, 25, 50, 100),
    "bandwidth_bps": (40_000.0, 80_000.0, 120_000.0, 160_000.0),
    "chemistry": CHEMISTRIES,
    "capacity_mah": (200.0, 400.0, 600.0, 800.0),
    "io_activity": (0.05, 0.2, 0.4, 0.6),
    "deadline_s": (1.8, 2.3, 3.0, 4.0),
}


@st.composite
def spaces(draw, max_size: int = 2000) -> SpaceSpec:
    """Random spaces of at most ``max_size`` configs, axes in any order.

    An axis may be left out (it pins to one default value) or declared
    with a single value, so 1-value axes are common.
    """
    axes = []
    size = 1
    for name in draw(st.permutations(AXES)):
        room = min(len(_VOCABULARY[name]), max_size // size)
        if not draw(st.booleans()):
            continue
        values = draw(st.lists(
            st.sampled_from(_VOCABULARY[name]),
            min_size=1, max_size=room, unique=True,
        ))
        size *= len(values)
        axes.append(Axis.choice(name, *values))
    return SpaceSpec(axes=tuple(axes))


class TestAxis:
    def test_grid_endpoints(self):
        axis = Axis.grid("capacity_mah", 100.0, 200.0, 5)
        assert axis.values[0] == 100.0
        assert axis.values[-1] == 200.0
        assert len(axis.values) == 5

    def test_log_geometric(self):
        axis = Axis.log("bandwidth_bps", 40_000.0, 160_000.0, 3)
        assert axis.values[0] == pytest.approx(40_000.0)
        assert axis.values[1] == pytest.approx(80_000.0)
        assert axis.values[2] == pytest.approx(160_000.0)

    def test_single_point(self):
        assert Axis.grid("io_activity", 0.3, 0.9, 1).values == (0.3,)

    def test_unknown_axis_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown axis"):
            Axis.choice("warp_factor", 9)

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one value"):
            Axis.choice("policy")

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            Axis.grid("capacity_mah", 200.0, 100.0, 3)
        with pytest.raises(ConfigurationError):
            Axis.log("bandwidth_bps", -1.0, 10.0, 3)


class TestSpaceValidation:
    def test_duplicate_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate axis"):
            SpaceSpec(axes=(
                Axis.choice("policy", "dvs_io"),
                Axis.choice("policy", "baseline"),
            ))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown families"):
            SpaceSpec(axes=(Axis.choice("policy", "warp"),))

    def test_unknown_chemistry_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chemistries"):
            SpaceSpec(axes=(Axis.choice("chemistry", "fusion"),))

    def test_bad_cut_rejected(self):
        # PAPER_PROFILE has 4 blocks: valid cut points are 1..3.
        with pytest.raises(ConfigurationError, match="invalid for a 4-block"):
            SpaceSpec(axes=(Axis.choice("cut", (9,)),))
        with pytest.raises(ConfigurationError, match="invalid for a 4-block"):
            SpaceSpec(axes=(Axis.choice("cut", (2, 1)),))

    def test_non_tuple_cut_rejected(self):
        with pytest.raises(ConfigurationError, match="tuples of ints"):
            SpaceSpec(axes=(Axis.choice("cut", [1]),))

    def test_bad_rotation_rejected(self):
        with pytest.raises(ConfigurationError, match="rotation_period"):
            SpaceSpec(axes=(Axis.choice("rotation_period", 0),))

    def test_io_activity_range(self):
        with pytest.raises(ConfigurationError, match="io_activity"):
            SpaceSpec(axes=(Axis.choice("io_activity", 1.5),))
        with pytest.raises(ConfigurationError, match="positive finite"):
            SpaceSpec(axes=(Axis.choice("io_activity", -0.1),))

    def test_bad_max_hours_rejected(self):
        with pytest.raises(ConfigurationError, match="max_hours"):
            SpaceSpec(axes=(), max_hours=0.0)


class TestEnumeration:
    def test_empty_spec_enumerates_the_pinned_point(self):
        space = SpaceSpec(axes=())
        assert space.size() == 1
        (config,) = space.configs()
        assert config.index == 0
        assert config.policy == "dvs_io"
        assert config.cut == (1,)
        assert config.deadline_s == 2.3
        assert config.io_activity == PAPER_POWER_MODEL.io_activity

    def test_size_is_cross_product(self):
        space = SpaceSpec(axes=(
            Axis.choice("policy", "baseline", "dvs_io"),
            Axis.choice("cut", (), (1,), (2,)),
        ))
        assert space.size() == 6
        assert len(space.configs()) == 6

    def test_enumeration_order_fixed_by_axes_vocabulary(self):
        # Declaring axes in reverse order must not change enumeration.
        a = SpaceSpec(axes=(
            Axis.choice("policy", "baseline", "dvs_io"),
            Axis.choice("cut", (), (1,)),
        ))
        b = SpaceSpec(axes=(
            Axis.choice("cut", (), (1,)),
            Axis.choice("policy", "baseline", "dvs_io"),
        ))
        assert a.configs() == b.configs()

    def test_indices_are_enumeration_positions(self):
        space = SpaceSpec(axes=(Axis.choice("policy", *("baseline",) * 1),
                                Axis.grid("capacity_mah", 100.0, 400.0, 4)))
        assert [c.index for c in space.configs()] == [0, 1, 2, 3]

    def test_limit_strides_and_keeps_indices(self):
        space = SpaceSpec(axes=(Axis.grid("capacity_mah", 100.0, 1000.0, 10),))
        sampled = space.configs(limit=4)
        assert len(sampled) == 4
        assert sampled[0].index == 0
        assert sampled[-1].index == 9
        # Original enumeration indices survive subsampling.
        full = space.configs()
        for config in sampled:
            assert full[config.index] == config

    def test_limit_one(self):
        space = SpaceSpec(axes=(Axis.grid("capacity_mah", 100.0, 1000.0, 10),))
        assert [c.index for c in space.configs(limit=1)] == [0]

    def test_limit_larger_than_space_is_noop(self):
        space = SpaceSpec(axes=(Axis.grid("capacity_mah", 100.0, 1000.0, 5),))
        assert len(space.configs(limit=100)) == 5

    def test_default_space_is_big(self):
        space = default_space()
        assert space.size() == 103_680
        assert space.size() >= 100_000


class TestIndexedAccess:
    def test_config_at_equals_enumeration(self):
        space = SpaceSpec(axes=(
            Axis.choice("policy", "baseline", "dvs_io"),
            Axis.choice("cut", (), (1,), (2,)),
            Axis.grid("capacity_mah", 100.0, 400.0, 4),
        ))
        full = space.configs()
        for i in range(space.size()):
            assert space.config_at(i) == full[i]

    def test_config_at_default_space_spot_checks(self):
        # O(1) decode against the materialized 104k enumeration at a
        # few spread-out positions (materializing once is the test).
        space = default_space()
        full = space.configs()
        for i in (0, 1, 51_839, 103_679):
            assert space.config_at(i) == full[i]

    def test_digits_at_round_trips_through_radices(self):
        space = default_space()
        radices = space.radices()
        for index in (0, 7, 103_679):
            digits = space.digits_at(index)
            assert len(digits) == len(radices)
            back = 0
            for digit, radix in zip(digits, radices):
                assert 0 <= digit < radix
                back = back * radix + digit
            assert back == index

    def test_digits_at_rejects_out_of_range(self):
        space = SpaceSpec(axes=(Axis.choice("policy", "baseline"),))
        with pytest.raises(ConfigurationError, match="outside"):
            space.digits_at(1)
        with pytest.raises(ConfigurationError, match="outside"):
            space.digits_at(-1)

    @given(space=spaces(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_digits_array_matches_scalar_decode_and_enumeration(
        self, space, data
    ):
        n = space.size()
        full = space.configs()
        rows = space.digits_array(range(n))
        assert rows.shape == (n, len(AXES))
        for i, config in enumerate(full):
            digits = tuple(
                space.axis_values(name).index(getattr(config, name))
                for name in AXES
            )
            assert tuple(rows[i].tolist()) == space.digits_at(i) == digits
            assert space.config_at(i) == config
        assert space.configs_at(range(n)) == full
        picks = data.draw(st.lists(st.integers(0, n - 1), max_size=20))
        assert space.digits_array(picks).tolist() == [
            list(space.digits_at(i)) for i in picks
        ]
        bad = data.draw(
            st.one_of(st.integers(n, n + 10**6), st.integers(-(10**6), -1))
        )
        with pytest.raises(ConfigurationError, match="outside"):
            space.digits_array(picks + [bad])
        with pytest.raises(ConfigurationError, match="outside"):
            space.digits_at(bad)
        assert space.digits_array([]).shape == (0, len(AXES))

    def test_decode_cache_stays_out_of_fields_and_fingerprints(self):
        # Decoding caches radices and values on the instance; the
        # dataclass fields (what cache keys encode) must not change.
        assert [f.name for f in dataclasses.fields(SpaceSpec)] == [
            "axes", "max_hours", "profile",
        ]
        want = (
            "c38f938bca9dbe75884abc213c35b8c38858861b35fb753a9e39aaab3eec353e"
        )
        space = default_space()
        assert explore_fingerprint(space, (512, 16, 1), None) == want
        space.digits_array(range(0, space.size(), 97))
        space.config_at(5)
        space.place_values()
        assert explore_fingerprint(space, (512, 16, 1), None) == want
        copy = pickle.loads(pickle.dumps(space))
        assert copy == space
        assert explore_fingerprint(copy, (512, 16, 1), None) == want

    def test_indices_match_limited_enumeration(self):
        space = SpaceSpec(axes=(Axis.grid("capacity_mah", 100.0, 1000.0, 10),))
        for limit in (None, 1, 3, 4, 10, 100):
            assert space.indices(limit) == [
                c.index for c in space.configs(limit=limit)
            ]


class TestConfigResolution:
    def _one(self, **axes):
        space = SpaceSpec(axes=tuple(
            Axis.choice(name, value) for name, value in axes.items()
        ))
        (config,) = space.configs()
        return config

    def test_policy_objects(self):
        assert isinstance(
            self._one(policy="baseline").policy_object(), BaselinePolicy
        )
        assert isinstance(
            self._one(policy="slowest").policy_object(), SlowestFeasiblePolicy
        )
        assert isinstance(
            self._one(policy="dvs_io").policy_object(), DVSDuringIOPolicy
        )

    def test_timing_carries_bandwidth(self):
        config = self._one(bandwidth_bps=40_000.0)
        assert config.timing().bandwidth_bps == 40_000.0

    def test_power_model_carries_io_activity(self):
        config = self._one(io_activity=0.5)
        assert config.power_model().io_activity == 0.5

    def test_n_stages(self):
        assert self._one(cut=()).n_stages == 1
        assert self._one(cut=(1, 2)).n_stages == 3

    def test_experiment_spec_round_trip(self):
        config = self._one(cut=(2,), deadline_s=2.0)
        spec = config.experiment_spec()
        assert spec.label == config.label
        assert spec.cuts == (2,)
        assert spec.deadline_s == 2.0
        assert spec.n_nodes == 2

    def test_battery_parameters_kibam_only(self):
        config = self._one(chemistry="linear")
        with pytest.raises(ConfigurationError):
            config.battery_parameters()


class TestConfigBattery:
    def test_kibam(self):
        cell = ConfigBattery("kibam", 500.0)()
        assert isinstance(cell, KiBaM)
        assert cell.params.capacity_mah == 500.0

    def test_linear(self):
        cell = ConfigBattery("linear", 500.0)()
        assert isinstance(cell, LinearBattery)

    def test_peukert(self):
        cell = ConfigBattery("peukert", 500.0)()
        assert isinstance(cell, PeukertBattery)

    def test_unknown_chemistry(self):
        with pytest.raises(ConfigurationError):
            ConfigBattery("fusion", 500.0)()

    def test_picklable(self):
        import pickle

        factory = ConfigBattery("kibam", 500.0)
        assert pickle.loads(pickle.dumps(factory)) == factory
