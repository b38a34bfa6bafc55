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
        assert cfg.training.seed == 0

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(config.ConfigError, match="not found"):
            config.load_run_config(tmp_path / "nope.ini")


class TestLoad:
    def test_file_values_applied(self, tmp_path):
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
        assert cfg.training.learning_rate == 2e-4

    def test_command_line_overrides_follow_the_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[training]\nseed = 7\n[paths]\nout = results\n")
        cfg = config.load_run_config(path, [
            ("training", "seed", "9", "--seed"),
            ("pairing", "include_female", "true", "--include-female"),
            ("pairing", "max_delta", "2.5", "--max-delta")])
        assert cfg.training.seed == 9
        assert cfg.pairing.include_female is True
        assert cfg.pairing.max_delta == 2.5
        assert cfg.paths["out"] == "results"
        assert cfg.pairing.allow_cross_sex is False

    @pytest.mark.parametrize("override,message", [
        (("pairing", "max_delta", "inf", "--max-delta"),
         "--max-delta: expected a finite number, got 'inf'"),
        (("pairing", "max_delta", "-2", "--max-delta"),
         "--max-delta: max_delta must be non-negative, got -2.0"),
        (("training", "seed", "-1", "--seed"),
         "--seed: seed must be non-negative, got -1"),
        (("training", "seed", "7.0", "--seed"), "--seed: expected int, got '7.0'"),
    ], ids=["max-delta-inf", "max-delta-negative", "seed-negative", "seed-fraction"])
    def test_bad_override_names_its_flag(self, tmp_path, override, message):
        path = tmp_path / "run.ini"
        path.write_text("[training]\nsteps = 3\n")
        with pytest.raises(config.ConfigError) as exc:
            config.load_run_config(path, [override])
        assert str(exc.value) == message

    def test_bad_file_value_names_the_file_over_an_override(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[training]\nseed = -3\n")
        with pytest.raises(config.ConfigError) as exc:
            config.load_run_config(path, [("training", "seed", "1", "--seed")])
        assert str(exc.value) == f"{path}: seed must be non-negative, got -3"

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

    def test_path_with_inner_spaces_kept(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[paths]\nout = my results\n")
        assert config.load_run_config(path).paths["out"] == "my results"
        assert config.load_run_config(None, [
            ("paths", "out", "my results", "--out")]).paths["out"] == "my results"

    def test_continuation_line_rejected(self, tmp_path):
        # an indented line continues the value, which then holds a line
        # break that no dump can write back on one line
        path = tmp_path / "run.ini"
        path.write_text("[paths]\nout = results\n  more\n")
        with pytest.raises(config.ConfigError) as exc:
            config.load_run_config(path)
        assert str(exc.value) == (
            f"{path} [paths] out: expected a value on one line without "
            "surrounding whitespace, got 'results\\nmore'")

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
        assert f"{path} [{section}] {key}: expected a finite number" in str(exc.value)

    def test_nan_max_delta_rejected_by_the_dataclass(self):
        # the loader refuses NaN in a file; a library caller gets here
        with pytest.raises(ValueError, match="max_delta must be non-negative"):
            config.PairingConfig(max_delta=float("nan"))

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
        assert config.load_run_config(path) == config.load_run_config(None)

    def test_every_key_round_trips(self, tmp_path):
        # a valid value other than the default for each of the 36 keys
        path = tmp_path / "run.ini"
        path.write_text(
            "[dsp]\nsample_rate = 16000\nfft_size = 512\nwindow_size = 400\n"
            "hop_size = 160\nn_mels = 40\nfmin = 60.5\nfmax = 7000.0\n"
            "cepstral_order = 24\ntrim_threshold_db = -35.5\n"
            "trim_frame_ms = 20.0\nnoise_gate_db = 4.5\n"
            "noise_floor_quantile = 0.2\nnoise_attenuation_db = -24.0\n"
            "[model]\nhidden = 32\nlatent_dim = 16\ncodebook_size = 16\n"
            "embed_dim = 8\nbeta = 0.5\nkernel_size = 3\n"
            "[training]\nsteps = 7\nbatch_size = 2\ncrop_frames = 32\n"
            "learning_rate = 0.001\nseed = 11\n"
            "[convert]\nall_blocks = true\ngl_iterations = 5\nwav = false\n"
            "[corpus]\nband_cuts = 20, 45.5, 70\n"
            "[pairing]\nmax_delta = 2.5\ninclude_female = true\n"
            "allow_cross_sex = true\n"
            "[paths]\nmanifest = corpus.csv\nfeatures = feats\n"
            "checkpoint = m/model.hvqv\ntrain_list = keys.txt\nout = results\n")
        cfg = config.load_run_config(path)
        set_keys = 0
        for name, (_, defaults) in config.SECTIONS.items():
            section = getattr(cfg, name)
            for key, default in defaults.items():
                value = (section[key] if isinstance(section, dict)
                         else getattr(section, key))
                assert value != default, f"[{name}] {key}"
                set_keys += 1
        assert set_keys == 36
        dumped = tmp_path / "dumped.ini"
        dumped.write_text(config.dump_run_config(cfg))
        assert config.load_run_config(dumped) == cfg
        again = config.dump_run_config(config.load_run_config(dumped))
        assert again == dumped.read_text()
