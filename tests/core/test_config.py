"""Unit tests for the Table 1 configuration presets."""

import pytest

from repro.core import CLUSTER_PRESETS, ProcessorConfig, make_config
from repro.errors import ConfigError


class TestPresets:
    def test_table1_one_cluster(self):
        config = make_config(1)
        assert config.iq_size == 64
        assert config.pregs_per_cluster == 128
        assert (config.int_units, config.int_muldiv) == (8, 4)
        assert (config.fp_units, config.fp_muldiv) == (4, 2)
        assert (config.int_issue_width, config.fp_issue_width) == (8, 4)

    def test_table1_two_clusters(self):
        config = make_config(2)
        assert config.iq_size == 32
        assert config.pregs_per_cluster == 80
        assert (config.int_units, config.int_muldiv) == (4, 2)
        assert (config.int_issue_width, config.fp_issue_width) == (4, 2)

    def test_table1_four_clusters(self):
        config = make_config(4)
        assert config.iq_size == 16
        assert config.pregs_per_cluster == 56
        assert (config.int_units, config.int_muldiv) == (2, 1)
        assert (config.fp_units, config.fp_muldiv) == (1, 1)
        assert (config.int_issue_width, config.fp_issue_width) == (2, 1)

    def test_shared_parameters_constant_across_presets(self):
        """ROB, widths and totals stay constant as clustering scales."""
        for n in (1, 2, 4):
            config = make_config(n)
            assert config.rob_size == 128
            assert config.fetch_width == 8
            assert config.retire_width == 8
            assert config.int_units * n == 8
            assert config.int_issue_width * n == 8

    def test_unknown_preset_rejected(self):
        # Non-power-of-two counts have no Table 1 preset nor a derived
        # one (see TestDerivedPresets for the accepted extensions).
        with pytest.raises(ValueError, match="power of two"):
            make_config(3)

    def test_overrides_apply(self):
        config = make_config(4, comm_latency=4, vp_entries=1024)
        assert config.comm_latency == 4
        assert config.vp_entries == 1024


class TestValidation:
    def test_bad_predictor_name(self):
        with pytest.raises(ValueError, match="predictor"):
            make_config(4, predictor="magic")

    def test_bad_steering_name(self):
        with pytest.raises(ValueError, match="steering"):
            make_config(4, steering="magic")

    def test_bad_latency(self):
        with pytest.raises(ValueError, match="comm_latency"):
            make_config(4, comm_latency=0)

    @pytest.mark.parametrize("paths", [0, -1])
    def test_bad_paths(self, paths):
        with pytest.raises(ConfigError, match="unbounded interconnect"):
            make_config(4, comm_paths_per_cluster=paths)

    def test_register_file_must_hold_initial_mapping(self):
        with pytest.raises(ValueError, match="initial mapping"):
            make_config(1, pregs_per_cluster=32)

    def test_n_clusters_positive(self):
        with pytest.raises(ValueError):
            ProcessorConfig(n_clusters=0).validate()


class TestMisc:
    def test_with_overrides_does_not_mutate(self):
        config = make_config(4)
        other = config.with_overrides(comm_latency=4)
        assert config.comm_latency == 1
        assert other.comm_latency == 4

    def test_unknown_override_raises_config_error(self):
        with pytest.raises(ConfigError, match="bogus_field"):
            make_config(2, bogus_field=1)
        with pytest.raises(ConfigError, match="bogus_field, zzz"):
            make_config(2).with_overrides(zzz=0, bogus_field=1,
                                          comm_latency=2)

    def test_describe_mentions_key_knobs(self):
        text = make_config(4, predictor="stride", steering="vpb").describe()
        assert "4c" in text and "vpb" in text and "stride" in text
        assert "no-predict" in make_config(2).describe()


class TestDerivedPresets:
    def test_matches_table1_exactly(self):
        from repro.core import CLUSTER_PRESETS, derive_preset
        for n, preset in CLUSTER_PRESETS.items():
            assert derive_preset(n) == preset

    def test_eight_cluster_preset(self):
        from repro.core import derive_preset
        iq, pregs, iu, imd, fu, fmd, iw, fw = derive_preset(8)
        assert iq == 8 and pregs == 44
        assert (iu, imd, fu, fmd) == (1, 1, 1, 1)
        assert (iw, fw) == (1, 1)

    def test_make_config_accepts_eight(self):
        config = make_config(8, predictor="stride", steering="vpb")
        assert config.n_clusters == 8
        config.validate()

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            make_config(3)
        with pytest.raises(ValueError, match="power of two"):
            make_config(16)
