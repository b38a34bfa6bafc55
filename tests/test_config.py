import pytest

from pathovc import config


class TestDefaults:
    def test_no_file_gives_defaults(self):
        cfg = config.load_run_config(None)
        assert cfg.dsp.sample_rate == 24000
        assert cfg.model.codebook_size == 64
        assert cfg.training.steps == 200
        assert cfg.pairing.include_female is False
        assert cfg.corpus["band_cuts"] == (25.0, 50.0, 75.0)
        assert cfg.explicit == frozenset()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(config.ConfigError, match="not found"):
            config.load_run_config(tmp_path / "nope.ini")


class TestLoad:
    def test_overrides_applied_and_tracked(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[training]\nseed = 7\nsteps = 11\n"
                        "[model]\nhidden = 16\n"
                        "[pairing]\ninclude_female = true\n")
        cfg = config.load_run_config(path)
        assert cfg.training.seed == 7
        assert cfg.training.steps == 11
        assert cfg.model.hidden == 16
        assert cfg.model.latent_dim == 64
        assert cfg.pairing.include_female is True
        assert cfg.has("training", "seed")
        assert not cfg.has("training", "learning_rate")

    def test_band_cuts_parsed(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[corpus]\nband_cuts = 20, 40, 60\n")
        cfg = config.load_run_config(path)
        assert cfg.corpus["band_cuts"] == (20.0, 40.0, 60.0)

    def test_paths_section(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[paths]\nmanifest = corpus.csv\nout = results\n")
        cfg = config.load_run_config(path)
        assert cfg.paths["manifest"] == "corpus.csv"
        assert cfg.paths["out"] == "results"
        assert cfg.paths["features"] == ""

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(config.ConfigError, match="mystery"):
            config.load_run_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[dsp]\nreverb = lots\n")
        with pytest.raises(config.ConfigError, match="reverb"):
            config.load_run_config(path)

    def test_bad_int_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[training]\nsteps = many\n")
        with pytest.raises(config.ConfigError, match="many"):
            config.load_run_config(path)

    def test_bad_bool_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[pairing]\ninclude_female = perhaps\n")
        with pytest.raises(config.ConfigError, match="boolean"):
            config.load_run_config(path)

    def test_bad_band_cuts_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[corpus]\nband_cuts = 25, 50\n")
        with pytest.raises(config.ConfigError, match="three"):
            config.load_run_config(path)

    def test_decreasing_band_cuts_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[corpus]\nband_cuts = 60, 40, 20\n")
        with pytest.raises(config.ConfigError) as exc:
            config.load_run_config(path)
        assert f"{path} [corpus] band_cuts: band cuts must be three" in str(exc.value)

    @pytest.mark.parametrize("section,key,value", [
        ("dsp", "trim_threshold_db", "nan"),
        ("dsp", "noise_gate_db", "NaN"),
        ("dsp", "fmin", "-nan"),
        ("model", "beta", "nan"),
        ("training", "learning_rate", "nan"),
        ("pairing", "max_delta", "nan"),
        ("corpus", "band_cuts", "25, nan, 75"),
    ])
    def test_nan_float_rejected(self, tmp_path, section, key, value):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(config.ConfigError) as exc:
            config.load_run_config(path)
        assert f"{path} [{section}] {key}: expected a number" in str(exc.value)

    def test_validation_errors_surface(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[dsp]\nhop_size = 4096\n")
        with pytest.raises(config.ConfigError):
            config.load_run_config(path)

    def test_model_dtype_not_configurable(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[model]\nparam_dtype = float64\n")
        with pytest.raises(config.ConfigError, match="param_dtype"):
            config.load_run_config(path)

    # the input width comes from the feature files, the stride and
    # up-conv kernel from the architecture
    @pytest.mark.parametrize("key", ["in_channels", "stride", "up_kernel_size"])
    def test_removed_model_key_rejected(self, tmp_path, key):
        path = tmp_path / "run.ini"
        path.write_text(f"[model]\n{key} = 2\n")
        with pytest.raises(config.ConfigError) as exc:
            config.load_run_config(path)
        assert f"{path}: unknown key {key!r} in [model]" in str(exc.value)

    def test_model_keys(self):
        text = config.dump_run_config(config.load_run_config(None))
        model = text.split("[model]\n")[1].split("\n\n")[0]
        assert [line.split(" = ")[0] for line in model.splitlines()] == [
            "hidden", "latent_dim", "codebook_size", "embed_dim", "beta",
            "kernel_size"]


class TestDump:
    def test_dump_mentions_every_section(self):
        text = config.dump_run_config(config.load_run_config(None))
        for section in ("[dsp]", "[model]", "[training]", "[corpus]",
                        "[pairing]", "[paths]"):
            assert section in text
        assert "sample_rate = 24000" in text
        assert "band_cuts = 25.0, 50.0, 75.0" in text
        assert "include_female = false" in text

    def test_dump_load_round_trip(self, tmp_path):
        first = config.dump_run_config(config.load_run_config(None))
        path = tmp_path / "dumped.ini"
        path.write_text(first)
        again = config.dump_run_config(config.load_run_config(path))
        assert first == again
