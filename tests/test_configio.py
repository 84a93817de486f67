import pytest

from biofilm1d import configio
from biofilm1d.errors import ConfigError, IoFailure
from biofilm1d.model import Stoichiometry, validate_config
from biofilm1d.presets import build_preset
from biofilm1d.traces import TableTrace

import dataclasses


class TestRoundTrip:
    @pytest.mark.parametrize("pid", ["case1", "case2", "case3"])
    def test_presets_round_trip_exactly(self, pid):
        cfg = build_preset(pid).cfg
        assert configio.loads(configio.dumps(cfg)) == cfg

    def test_awkward_floats_round_trip(self):
        cfg = build_preset("case1").cfg
        species = (dataclasses.replace(cfg.species[0], mu_max=0.1 + 0.2,
                                       K=1.0 / 3.0),) + cfg.species[1:]
        cfg = dataclasses.replace(cfg, species=species, delta=1e-300)
        assert configio.loads(configio.dumps(cfg)) == cfg

    def test_custom_stoichiometry_and_table_round_trip(self):
        cfg = build_preset("case2").cfg
        bulk = dataclasses.replace(
            cfg.bulk, s_star=(TableTrace((0.0, 5.0), (100.0, 50.0)),)
            + cfg.bulk.s_star[1:])
        stoich = Stoichiometry(substrate_of=(0, 1, 2),
                               production=((-1.0, 0.0, 0.0),
                                           (0.5, -1.0, 0.0),
                                           (1.0, 0.0, -1.0)))
        cfg = dataclasses.replace(cfg, bulk=bulk, stoichiometry=stoich)
        back = configio.loads(configio.dumps(cfg))
        assert back == cfg
        assert validate_config(back).ok

    def test_modified_builtin_network_round_trips(self):
        builtin = Stoichiometry.builtin3x3()
        stoich = dataclasses.replace(builtin, production=(
            builtin.production[0], (0.5, -1.0, 0.0), builtin.production[2]))
        cfg = dataclasses.replace(build_preset("case1").cfg, stoichiometry=stoich)
        text = configio.dumps(cfg)
        assert "stoichiometry.kind = custom" in text
        assert "stoichiometry.production.2 = 0.5, -1.0, 0.0" in text
        assert configio.loads(text) == cfg

    def test_network_equal_to_builtin_is_echoed_compactly(self):
        builtin = Stoichiometry.builtin3x3()
        stoich = Stoichiometry(substrate_of=(0, 1, 2), production=builtin.production)
        cfg = dataclasses.replace(build_preset("case1").cfg, stoichiometry=stoich)
        assert configio.dumps(cfg) == configio.dumps(build_preset("case1").cfg)

    def test_file_round_trip(self, tmp_path):
        cfg = build_preset("case3").cfg
        path = tmp_path / "scenario.cfg"
        configio.save(cfg, path)
        assert configio.load(path) == cfg

    def test_save_failure_carries_path(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        path = blocker / "scenario.cfg"
        with pytest.raises(IoFailure, match="could not write") as err:
            configio.save(build_preset("case1").cfg, path)
        assert err.value.path == str(path)


class TestParsing:
    def test_comments_and_blank_lines(self):
        text = configio.dumps(build_preset("case1").cfg)
        noisy = "# leading comment\n\n" + text.replace(
            "scenario.delta = 2000.0",
            "scenario.delta = 2000.0   # trailing comment")
        assert configio.loads(noisy) == build_preset("case1").cfg

    def test_unknown_key_rejected(self):
        text = configio.dumps(build_preset("case1").cfg) + "scenario.bogus = 1\n"
        with pytest.raises(ConfigError, match="unknown key"):
            configio.loads(text)

    def test_duplicate_key_rejected(self):
        text = configio.dumps(build_preset("case1").cfg)
        with pytest.raises(ConfigError, match="duplicate"):
            configio.loads(text + "scenario.delta = 1.0\n")

    def test_missing_required_key_rejected(self):
        text = configio.dumps(build_preset("case1").cfg)
        text = text.replace("scenario.horizon = 10.0\n", "")
        with pytest.raises(ConfigError, match="scenario.horizon"):
            configio.loads(text)

    def test_noncontiguous_species_rejected(self):
        text = configio.dumps(build_preset("case1").cfg)
        text = text.replace("species.2.", "species.7.")
        with pytest.raises(ConfigError, match="contiguous"):
            configio.loads(text)

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            configio.loads("scenario.delta 2000\n")

    @pytest.mark.parametrize("key, bad", [
        ("stoichiometry.substrate_of", "1, x, 3"),
        ("stoichiometry.production.2", "0.5, zz, 0.0"),
        ("scenario.snapshot_times", "1.0, soon"),
    ])
    def test_malformed_list_value_names_key(self, key, bad):
        stoich = Stoichiometry(substrate_of=(0, 1, 2),
                               production=((-1.0, 0.0, 0.0), (0.5, -1.0, 0.0),
                                           (1.0, 0.0, -1.0)))
        cfg = dataclasses.replace(build_preset("case2").cfg, stoichiometry=stoich)
        lines = [f"{key} = {bad}" if line.startswith(key + " =") else line
                 for line in configio.dumps(cfg).splitlines()]
        assert f"{key} = {bad}" in lines
        with pytest.raises(ConfigError, match=key):
            configio.loads("\n".join(lines))

    @pytest.mark.parametrize("kind", ["builtin3X3", "Custom", "triangular"])
    def test_unknown_stoichiometry_kind_rejected(self, kind):
        # the custom keys are present, so only the kind itself can be at fault
        stoich = Stoichiometry(substrate_of=(0, 1, 2),
                               production=((-1.0, 0.0, 0.0), (0.5, -1.0, 0.0),
                                           (1.0, 0.0, -1.0)))
        cfg = dataclasses.replace(build_preset("case2").cfg, stoichiometry=stoich)
        text = configio.dumps(cfg).replace("stoichiometry.kind = custom",
                                           f"stoichiometry.kind = {kind}")
        assert f"stoichiometry.kind = {kind}" in text
        with pytest.raises(ConfigError, match=r"stoichiometry\.kind.*"
                           r"builtin3x3 or custom"):
            configio.loads(text)


class TestRemovedKeys:
    def legacy_text(self, transport):
        # files written while the upwind engine existed carry two more keys
        return (configio.dumps(build_preset("case1").cfg)
                + f"numerics.cfl = 0.5\nnumerics.transport = {transport}\n")

    @pytest.mark.parametrize("transport", ["upwind", "lax-wendroff"])
    def test_other_transport_rejected(self, transport):
        with pytest.raises(ConfigError,
                           match="unknown keys: numerics.cfl, numerics.transport$"):
            configio.loads(self.legacy_text(transport))

    def test_bad_numerics_value_rejected(self):
        text = configio.dumps(build_preset("case1").cfg).replace(
            "numerics.N = 200", "numerics.N = 2.5e2")
        with pytest.raises(ConfigError, match="numerics.N"):
            configio.loads(text)

    def test_numerics_keys_follow_the_dataclass(self):
        keys = [line.split(" = ")[0] for line in
                configio.dumps(build_preset("case1").cfg).splitlines()
                if line.startswith("numerics.")]
        assert keys == ["numerics.N", "numerics.dt_max",
                        "numerics.newton_tol", "numerics.newton_max_iter",
                        "numerics.picard_tol", "numerics.picard_max_iter"]

    def test_seed_thickness_rejected(self):
        # files written while runs started from a seed film carry its
        # thickness after dt_max; every run now starts from the empty film
        text = configio.dumps(build_preset("case1").cfg).replace(
            "numerics.dt_max = 0.001\n", "numerics.dt_max = 0.001\nnumerics.L_eps = 1e-09\n")
        assert "numerics.L_eps = 1e-09\n" in text
        with pytest.raises(ConfigError, match="unknown keys: numerics.L_eps$"):
            configio.loads(text)
