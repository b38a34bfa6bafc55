import json
import logging
import shutil
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from pathovc import cli, dsp, vqvae
from pathovc.cli import main
from pathovc.config import load_run_config

RUN_INI = """\
[model]
hidden = 16
latent_dim = 8
codebook_size = 8
embed_dim = 4

[training]
steps = 5
batch_size = 4
crop_frames = 12
learning_rate = 0.002
seed = 7
"""


def build_corpus(root: Path):
    """Two speakers, three words, three blocks of short two-tone clips."""
    sr = 16000
    wavs = root / "wavs"
    wavs.mkdir()
    lines = ["speaker_id,sex,intelligibility_score,band,word_id,block,audio_path"]
    lines.append("M04,M,2,very_low,,,")
    lines.append("M12,M,7.4,very_low,,,")
    for sid, f0 in (("M04", 170.0), ("M12", 260.0)):
        for w in range(3):
            for block in ("B1", "B2", "B3"):
                t = np.arange(int(0.35 * sr)) / sr
                x = (0.5 * np.sin(2 * np.pi * f0 * t)
                     + 0.2 * np.sin(2 * np.pi * 2.3 * f0 * t + w))
                path = wavs / f"{sid}_W{w}_{block}.wav"
                dsp.write_wav(path, dsp.Waveform(0.8 * x, sr))
                lines.append(f"{sid},,,,W{w},{block},{path}")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ini = root / "run.ini"
    ini.write_text(RUN_INI, encoding="utf-8")
    return manifest, ini


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    manifest, ini = build_corpus(root)
    feats = root / "feats"
    assert main(["--config", str(ini), "--out", str(feats),
                 "preprocess", str(manifest)]) == 0
    model_dir = root / "model"
    assert main(["--config", str(ini), "--out", str(model_dir),
                 "train", str(manifest), "--features", str(feats)]) == 0
    return {"root": root, "manifest": manifest, "ini": ini, "feats": feats,
            "ckpt": model_dir / "model.hvqv", "report": model_dir / "training_report.csv"}


class TestParsing:
    def test_no_command_is_user_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_is_user_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_bad_config_file_is_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[nonsense]\nx = 1\n")
        assert main(["--config", str(bad), "pair", "whatever.csv"]) == 1
        assert "nonsense" in capsys.readouterr().err

    def test_non_utf8_config_is_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"[training]\nsteps = 5\n# caf\xff\n")
        assert main(["--config", str(bad), "--dump-config"]) == 1
        err = capsys.readouterr().err
        assert f"{bad} line 3: not UTF-8 text" in err
        assert "internal error" not in err


class TestDumpConfig:
    def test_prints_defaults_and_exits_zero(self, capsys):
        assert main(["--dump-config"]) == 0
        out = capsys.readouterr().out
        for section in ("[dsp]", "[model]", "[training]", "[paths]"):
            assert section in out
        assert "steps = 200" in out

    def test_reflects_config_file(self, env, capsys):
        assert main(["--config", str(env["ini"]), "--dump-config"]) == 0
        assert "steps = 5" in capsys.readouterr().out


class TestPreprocess:
    def test_index_written(self, env):
        index = json.loads((env["feats"] / "index.json").read_text())
        assert len(index) == 18
        entry = index["M04/W0/B1"]
        assert entry["speaker_id"] == "M04"
        frames = dsp.read_mcep(env["feats"] / entry["feature_path"])
        assert frames.shape == (entry["frames"], 40)

    def test_missing_audio_named_in_summary(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "speaker_id,sex,intelligibility_score,band,word_id,block,audio_path\n"
            "M04,M,2,very_low,,,\n"
            f"M04,,,,W0,B1,{tmp_path / 'ghost.wav'}\n")
        assert main(["--out", str(tmp_path / "out"),
                     "preprocess", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert "M04/W0/B1" in err

    def test_skips_and_failures_reported_once(self, tmp_path, capsys, caplog):
        silent = tmp_path / "silent.wav"
        dsp.write_wav(silent, dsp.Waveform(np.zeros(8000), 16000))
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "speaker_id,sex,intelligibility_score,band,word_id,block,audio_path\n"
            "M04,M,2,very_low,,,\n"
            f"M04,,,,W0,B1,{silent}\n"
            f"M04,,,,W1,B1,{tmp_path / 'ghost.wav'}\n")
        with caplog.at_level(logging.INFO):
            assert main(["--out", str(tmp_path / "out"),
                         "preprocess", str(manifest)]) == 1
        captured = capsys.readouterr()
        assert "skipped 1 all-silent clip(s)" in captured.out
        assert "1 clip(s) failed" in captured.err
        assert not caplog.records

    def test_bad_wav_header_is_one_error_line(self, env, tmp_path, capsys):
        # format tag 3 (IEEE float), which the wave module refuses
        good = env["root"] / "wavs" / "M04_W0_B1.wav"
        raw = bytearray(good.read_bytes())
        assert raw[20:22] == b"\x01\x00"
        raw[20:22] = b"\x03\x00"
        bad = tmp_path / "float.wav"
        bad.write_bytes(bytes(raw))
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "speaker_id,sex,intelligibility_score,band,word_id,block,audio_path\n"
            "M04,M,2,very_low,,,\n"
            f"M04,,,,W0,B1,{bad}\n"
            f"M04,,,,W1,B1,{good}\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "preprocess", str(manifest)]) == 1
        assert "internal error" not in capsys.readouterr().err
        errors = (out / "errors.txt").read_text().splitlines()
        assert len(errors) == 1
        assert errors[0].startswith(f"M04/W0/B1\t{bad}: ")
        assert "unknown format: 3" in errors[0]
        assert list(json.loads((out / "index.json").read_text())) == ["M04/W1/B1"]

    def test_rerun_byte_identical(self, env, tmp_path):
        out2 = tmp_path / "again"
        assert main(["--config", str(env["ini"]), "--out", str(out2),
                     "preprocess", str(env["manifest"])]) == 0
        name = "features/M04_W0_B1.mcep"
        assert (out2 / name).read_bytes() == (env["feats"] / name).read_bytes()
        assert ((out2 / "index.json").read_text()
                == (env["feats"] / "index.json").read_text())

    @pytest.mark.parametrize("key", ["trim_threshold_db", "noise_gate_db"])
    def test_nan_dsp_setting_is_user_error(self, env, tmp_path, capsys, key):
        ini = tmp_path / "nan.ini"
        ini.write_text(f"[dsp]\n{key} = nan\n")
        out = tmp_path / "out"
        assert main(["--config", str(ini), "--out", str(out),
                     "preprocess", str(env["manifest"])]) == 1
        assert f"[dsp] {key}" in capsys.readouterr().err
        assert not (out / "index.json").exists()

    def test_path_separator_in_word_id_is_user_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "speaker_id,sex,intelligibility_score,band,word_id,block,audio_path\n"
            "M01,M,2,very_low,,,\n"
            f"M01,,,,a/b,B1,{tmp_path / 'a.wav'}\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "preprocess", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert "line 3: word_id 'a/b'" in err
        assert not (out / "features").exists()

    def test_colliding_feature_names_are_user_error(self, env, tmp_path, capsys):
        wav = env["root"] / "wavs" / "M04_W0_B1.wav"
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "speaker_id,sex,intelligibility_score,band,word_id,block,audio_path\n"
            "M0,M,2,very_low,,,\n"
            "M0_4,M,2,very_low,,,\n"
            f"M0,,,,4_W1,B1,{wav}\n"
            f"M0_4,,,,W1,B1,{wav}\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "preprocess", str(manifest)]) == 1
        assert (f"{manifest} line 5: utterance M0_4/W1/B1 and M0/4_W1/B1 would "
                "share the feature file M0_4_W1_B1.mcep, first on line 4"
                in capsys.readouterr().err)
        assert not (out / "features").exists()

    def test_out_dir_required(self, env, capsys):
        assert main(["preprocess", str(env["manifest"])]) == 1
        assert "--out" in capsys.readouterr().err


class TestTrain:
    def test_artifacts_written(self, env):
        assert env["ckpt"].is_file()
        lines = env["report"].read_text().strip().splitlines()
        assert lines[0].startswith("step,")
        assert len(lines) == 1 + 5

    def test_same_seed_bit_identical_checkpoint(self, env, tmp_path):
        out2 = tmp_path / "model2"
        assert main(["--config", str(env["ini"]), "--out", str(out2),
                     "train", str(env["manifest"]),
                     "--features", str(env["feats"])]) == 0
        assert (out2 / "model.hvqv").read_bytes() == env["ckpt"].read_bytes()
        assert ((out2 / "training_report.csv").read_bytes()
                == env["report"].read_bytes())

    def test_seed_flag_overrides_config(self, env, tmp_path):
        out2 = tmp_path / "model9"
        assert main(["--config", str(env["ini"]), "--seed", "9",
                     "--out", str(out2), "train", str(env["manifest"]),
                     "--features", str(env["feats"])]) == 0
        assert (out2 / "model.hvqv").read_bytes() != env["ckpt"].read_bytes()

    def test_seed_required(self, env, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "m"), "train",
                     str(env["manifest"]), "--features", str(env["feats"])]) == 1
        assert "seed" in capsys.readouterr().err

    def test_b2_in_train_list_refused(self, env, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_text("M04/W0/B2\nM04/W1/B1\n")
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "m"),
                     "train", str(env["manifest"]), "--features",
                     str(env["feats"]), "--train-list", str(listing)]) == 1
        err = capsys.readouterr().err
        assert "M04/W0/B2" in err and "refusing" in err

    def test_explicit_train_list_accepted(self, env, tmp_path):
        listing = tmp_path / "list.txt"
        listing.write_text("M04/W0/B1\nM12/W0/B3\n")
        out = tmp_path / "m"
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "train", str(env["manifest"]), "--features",
                     str(env["feats"]), "--train-list", str(listing)]) == 0
        assert (out / "model.hvqv").is_file()

    def test_unknown_train_list_key_refused(self, env, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_text("M04/W9/B1\n")
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "m"),
                     "train", str(env["manifest"]), "--features",
                     str(env["feats"]), "--train-list", str(listing)]) == 1
        assert "M04/W9/B1" in capsys.readouterr().err

    def test_duplicate_train_list_key_refused(self, env, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_text("M04/W0/B1\nM12/W0/B3\n\n M04/W0/B1\n")
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "m"),
                     "train", str(env["manifest"]), "--features",
                     str(env["feats"]), "--train-list", str(listing)]) == 1
        assert (f"{listing} line 4: duplicate utterance key M04/W0/B1, "
                "first on line 1" in capsys.readouterr().err)
        assert not (tmp_path / "m").exists()

    def test_non_utf8_train_list_is_user_error(self, env, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_bytes(b"M04/W0/B1\nM12/W\xff/B3\n")
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "m"),
                     "train", str(env["manifest"]), "--features",
                     str(env["feats"]), "--train-list", str(listing)]) == 1
        err = capsys.readouterr().err
        assert f"{listing} line 2: not UTF-8 text" in err
        assert "internal error" not in err

    def test_feature_width_mismatch_refused(self, env, tmp_path, capsys):
        # the first training file sets the input width; the second differs
        feats = tmp_path / "feats"
        shutil.copytree(env["feats"], feats)
        first, second = sorted((feats / "features").glob("M04_W0_B[13].mcep"))
        dsp.write_mcep(first, dsp.read_mcep(first)[:, :20])
        out = tmp_path / "m"
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "train", str(env["manifest"]),
                     "--features", str(feats)]) == 1
        err = capsys.readouterr().err
        assert f"{second} carries 40 coefficients but {first} carries 20" in err
        assert not out.exists()

    def test_input_width_read_from_features(self, env, tmp_path):
        ini = tmp_path / "narrow.ini"
        ini.write_text(RUN_INI + "[dsp]\ncepstral_order = 19\n")
        feats, out = tmp_path / "feats", tmp_path / "m"
        assert main(["--config", str(ini), "--out", str(feats),
                     "preprocess", str(env["manifest"])]) == 0
        assert main(["--config", str(ini), "--out", str(out), "train",
                     str(env["manifest"]), "--features", str(feats)]) == 0
        assert vqvae.load_checkpoint(out / "model.hvqv").cfg.in_channels == 20

    @staticmethod
    def _narrow_last_b1(env, tmp_path):
        feats = tmp_path / "feats"
        shutil.copytree(env["feats"], feats)
        bad = sorted((feats / "features").glob("*_B1.mcep"))[-1]
        dsp.write_mcep(bad, dsp.read_mcep(bad)[:, :20])
        return feats, bad

    def test_narrow_feature_file_named(self, env, tmp_path, capsys):
        feats, bad = self._narrow_last_b1(env, tmp_path)
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "m"),
                     "train", str(env["manifest"]),
                     "--features", str(feats)]) == 1
        err = capsys.readouterr().err
        assert bad.name in err and "M04_W0_B1.mcep carries 40" in err

    def test_narrow_feature_file_raises_user_error(self, env, tmp_path):
        feats, bad = self._narrow_last_b1(env, tmp_path)
        args = cli.build_parser().parse_args(
            ["--out", str(tmp_path / "m"), "train", str(env["manifest"]),
             "--features", str(feats)])
        cfg = load_run_config(env["ini"])
        with pytest.raises(cli.UserError, match=f"{bad.name} carries 20 coefficients"):
            cli.cmd_train(args, cfg)

    def test_non_finite_features_refused(self, env, tmp_path, capsys):
        feats = tmp_path / "feats"
        shutil.copytree(env["feats"], feats)
        bad = sorted((feats / "features").glob("*_B1.mcep"))[0]
        raw = bytearray(bad.read_bytes())
        raw[13:17] = np.float32(np.nan).tobytes()  # the first coefficient
        bad.write_bytes(bytes(raw))
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "m"),
                     "train", str(env["manifest"]),
                     "--features", str(feats)]) == 1
        assert bad.name in capsys.readouterr().err

    def test_zero_frame_features_refused(self, env, tmp_path, capsys):
        feats = tmp_path / "feats"
        shutil.copytree(env["feats"], feats)
        bad = sorted((feats / "features").glob("*_B1.mcep"))[0]
        dsp.write_mcep(bad, np.zeros((0, 40), dtype=np.float32))
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "m"),
                     "train", str(env["manifest"]),
                     "--features", str(feats)]) == 1
        assert f"{bad.name}: header declares zero frames" in capsys.readouterr().err

    def test_diverging_training_writes_no_checkpoint(self, env, tmp_path, capsys):
        ini = tmp_path / "hot.ini"
        ini.write_text(RUN_INI.replace("learning_rate = 0.002", "learning_rate = 1e30"))
        out = tmp_path / "m"
        assert main(["--config", str(ini), "--out", str(out), "train",
                     str(env["manifest"]), "--features", str(env["feats"])]) == 1
        err = capsys.readouterr().err
        assert "diverged at step" in err and "the batch held" in err
        assert not (out / "model.hvqv").exists()

    def test_diverging_last_step_writes_no_checkpoint(self, env, tmp_path, capsys):
        # one step, so no later forward pass sees the update overflow
        ini = tmp_path / "hot.ini"
        ini.write_text(RUN_INI.replace("steps = 5", "steps = 1")
                       .replace("learning_rate = 0.002", "learning_rate = 1e38"))
        out = tmp_path / "m"
        assert main(["--config", str(ini), "--out", str(out), "train",
                     str(env["manifest"]), "--features", str(env["feats"])]) == 1
        err = capsys.readouterr().err
        assert "training diverged at step 1: parameter " in err
        assert "holds NaN or Inf; try a lower learning_rate; the batch held" in err
        assert not (out / "model.hvqv").exists()

    def test_overflowing_features_named(self, env, tmp_path, capsys):
        # finite, but far beyond what preprocess produces: refused before
        # training, where it would overflow step 3's batch
        feats = tmp_path / "feats"
        shutil.copytree(env["feats"], feats)
        bad = feats / "features" / "M04_W2_B3.mcep"
        frames = dsp.read_mcep(bad)
        frames[:, 3] = 1e30
        dsp.write_mcep(bad, frames)
        out = tmp_path / "m"
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "train", str(env["manifest"]),
                     "--features", str(feats)]) == 1
        err = capsys.readouterr().err
        assert (f"{bad}: a coefficient of magnitude 1e+30 exceeds the 291.3 "
                "that preprocess can produce with 80 mel bands") in err
        assert "diverged" not in err and not out.exists()

    def test_magnitude_bound_admits_preprocess_range(self, env, tmp_path):
        cfg = load_run_config(env["ini"])
        bound = dsp.cepstral_bound(cfg.dsp.n_mels)
        path = tmp_path / "x.mcep"
        frames = np.zeros((8, 40), dtype=np.float32)
        frames[0, 0] = np.nextafter(np.float32(bound), np.float32(0))
        dsp.write_mcep(path, frames)
        assert cli._read_features(path, cfg)[0, 0] == frames[0, 0]
        frames[0, 0] = -1.01 * bound
        dsp.write_mcep(path, frames)
        with pytest.raises(dsp.FeatureFormatError, match="re-run preprocess"):
            cli._read_features(path, cfg)

    def test_corrupt_index_is_user_error(self, env, tmp_path, capsys):
        feats = tmp_path / "feats"
        feats.mkdir()
        (feats / "index.json").write_text("{ not json")
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "m"),
                     "train", str(env["manifest"]),
                     "--features", str(feats)]) == 1
        err = capsys.readouterr().err
        assert f"{feats / 'index.json'} line 1 column 3" in err
        assert "internal error" not in err


class TestConvert:
    def test_b2_only_by_default(self, env, tmp_path):
        out = tmp_path / "conv"
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "convert", str(env["ckpt"]), "--features",
                     str(env["feats"]), "--source", "M04",
                     "--target", "M12", "--gl-iterations", "3"]) == 0
        mceps = sorted(p.name for p in out.glob("*.mcep"))
        assert mceps == ["M04_W0_B2_to_M12.mcep", "M04_W1_B2_to_M12.mcep",
                         "M04_W2_B2_to_M12.mcep"]
        wavs = list(out.glob("*.wav"))
        assert len(wavs) == 3
        w = dsp.read_wav(wavs[0])
        assert w.sample_rate == 24000 and len(w.samples) > 0
        frames = dsp.read_mcep(out / mceps[0])
        assert frames.shape[1] == 40

    def test_all_blocks_flag(self, env, tmp_path):
        out = tmp_path / "conv"
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "convert", str(env["ckpt"]), "--features",
                     str(env["feats"]), "--source", "M04", "--target", "M12",
                     "--all-blocks", "--no-wav"]) == 0
        assert len(list(out.glob("*.mcep"))) == 9
        assert list(out.glob("*.wav")) == []

    def test_unknown_target_is_lookup_error(self, env, tmp_path, capsys):
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "c"),
                     "convert", str(env["ckpt"]), "--features",
                     str(env["feats"]), "--source", "M04",
                     "--target", "M99"]) == 1
        assert "M99" in capsys.readouterr().err

    def test_source_equal_target_reconstructs(self, env, tmp_path):
        out = tmp_path / "recon"
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "convert", str(env["ckpt"]), "--features",
                     str(env["feats"]), "--source", "M04", "--target", "M04",
                     "--no-wav"]) == 0
        assert len(list(out.glob("*.mcep"))) == 3

    def test_missing_checkpoint(self, env, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "c"), "convert",
                     str(tmp_path / "nope.hvqv"), "--features",
                     str(env["feats"]), "--source", "M04",
                     "--target", "M12"]) == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_non_finite_checkpoint_is_user_error(self, env, tmp_path, capsys):
        model = vqvae.load_checkpoint(env["ckpt"])
        name = sorted(model.params)[0]
        model.params[name].data.flat[0] = np.nan
        ckpt = tmp_path / "nan.hvqv"
        vqvae.save_checkpoint(model, ckpt)
        out = tmp_path / "c"
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "convert", str(ckpt), "--features", str(env["feats"]),
                     "--source", "M04", "--target", "M12", "--no-wav"]) == 1
        err = capsys.readouterr().err
        assert "nan.hvqv" in err and name in err
        assert list(out.glob("*.mcep")) == []

    def test_version_1_checkpoint_is_user_error(self, env, tmp_path, capsys):
        # versions 1 and 2 are refused alike, with no second reader
        for version in (1, 2):
            raw = bytearray(env["ckpt"].read_bytes())
            raw[5:7] = version.to_bytes(2, "little")
            ckpt = tmp_path / f"old{version}.hvqv"
            ckpt.write_bytes(bytes(raw))
            assert main(["--out", str(tmp_path / "c"), "convert", str(ckpt),
                         "--features", str(env["feats"]), "--source", "M04",
                         "--target", "M12", "--no-wav"]) == 1
            err = capsys.readouterr().err
            assert f"{ckpt}: checkpoint version {version}, this build reads 3" in err

    def test_narrow_source_features_named(self, env, tmp_path, capsys):
        feats = tmp_path / "feats"
        shutil.copytree(env["feats"], feats)
        bad = feats / "features" / "M04_W1_B2.mcep"
        dsp.write_mcep(bad, dsp.read_mcep(bad)[:, :20])
        out = tmp_path / "c"
        assert main(["--out", str(out), "convert", str(env["ckpt"]),
                     "--features", str(feats), "--source", "M04",
                     "--target", "M12", "--no-wav"]) == 1
        err = capsys.readouterr().err
        assert (f"M04/W1/B2: {bad} carries 20 coefficients but {env['ckpt']} "
                "expects 40") in err
        assert len(list(out.glob("*.mcep"))) == 2

    def test_overflowing_conversion_writes_no_features(self, env, tmp_path, capsys):
        model = vqvae.load_checkpoint(env["ckpt"])
        # finite weights whose output overflows float32
        model.params["dec1.out.w"].data[:] = 3e38
        model.params["dec1.out.b"].data[:] = 3e38
        ckpt = tmp_path / "hot.hvqv"
        vqvae.save_checkpoint(model, ckpt)
        out = tmp_path / "c"
        assert main(["--out", str(out), "convert", str(ckpt), "--features",
                     str(env["feats"]), "--source", "M04", "--target", "M12",
                     "--no-wav"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == "3 utterance(s) failed:"
        assert all(f"{ckpt} cannot convert " in line
                   and line.endswith("the decoder's output holds NaN or Inf")
                   for line in lines[1:])
        assert len(lines) == 4
        assert list(out.glob("*.mcep")) == []

    def test_checkpoint_layout_mismatch_is_user_error(self, env, tmp_path, capsys):
        raw = env["ckpt"].read_bytes()
        n = int.from_bytes(raw[7:11], "little")
        header = json.loads(raw[11:11 + n])
        header["config"]["hidden"] += 1  # a layout the blobs do not fill
        blob = json.dumps(header).encode()
        ckpt = tmp_path / "bad.hvqv"
        ckpt.write_bytes(raw[:7] + len(blob).to_bytes(4, "little") + blob + raw[11 + n:])
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "c"),
                     "convert", str(ckpt), "--features", str(env["feats"]),
                     "--source", "M04", "--target", "M12", "--no-wav"]) == 1
        err = capsys.readouterr().err
        assert f"{ckpt}: truncated blob for " in err

    def test_overflowing_encoder_is_user_error(self, env, tmp_path, capsys):
        model = vqvae.load_checkpoint(env["ckpt"])
        # one finite weight whose products overflow float32
        model.params["enc1.conv1.w"].data.flat[0] = -3e38
        ckpt = tmp_path / "hot.hvqv"
        vqvae.save_checkpoint(model, ckpt)
        out = tmp_path / "c"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(env["ini"]), "--out", str(out),
                         "convert", str(ckpt), "--features", str(env["feats"]),
                         "--source", "M04", "--target", "M12", "--no-wav"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == "3 utterance(s) failed:"
        assert all(f"{ckpt} cannot convert " in line
                   and line.endswith("the encoder's latents hold NaN or Inf")
                   for line in lines[1:])
        assert len(lines) == 4
        assert list(out.glob("*.mcep")) == []

    def test_wavs_byte_identical_run_to_run(self, env, tmp_path):
        blobs = []
        for run in ("one", "two"):
            out = tmp_path / run
            assert main(["--config", str(env["ini"]), "--out", str(out),
                         "convert", str(env["ckpt"]), "--features",
                         str(env["feats"]), "--source", "M04",
                         "--target", "M12"]) == 0
            blobs.append([p.read_bytes() for p in sorted(out.glob("*.wav"))])
        assert len(blobs[0]) == 3 and blobs[0] == blobs[1]

    def _convert_all(self, env, feats, out):
        return main(["--config", str(env["ini"]), "--out", str(out),
                     "convert", str(env["ckpt"]), "--features", str(feats),
                     "--source", "M04", "--target", "M12", "--all-blocks",
                     "--gl-iterations", "3"])

    def test_outputs_independent_of_worker_count(self, env, tmp_path, monkeypatch):
        pools = []

        class Pool(cli.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Pool)
        blobs = []
        for cpus in ({0}, {0, 1}, {0, 1, 2}, None):
            if cpus is None:  # no affinity call: the CPU count decides
                monkeypatch.delattr(cli.os, "sched_getaffinity")
                monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
            else:
                monkeypatch.setattr(cli.os, "sched_getaffinity",
                                    lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"run{len(blobs)}"
            assert self._convert_all(env, env["feats"], out) == 0
            blobs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert pools == [1, 2, 3, 4]
        assert len(blobs[0]) == 18
        assert all(b == blobs[0] for b in blobs[1:])

    def test_failure_lines_keep_selection_order(self, env, tmp_path, capsys,
                                                monkeypatch):
        # W0/B3 fails in the waveform pool, the later W1/B1 on the calling
        # thread before it; the report follows the selection, not the phase
        feats = tmp_path / "feats"
        shutil.copytree(env["feats"], feats)
        narrow = feats / "features" / "M04_W1_B1.mcep"
        dsp.write_mcep(narrow, dsp.read_mcep(narrow)[:, :20])
        write_wav = dsp.write_wav

        def failing_write(path, w):
            if path.name == "M04_W0_B3_to_M12.wav":
                raise OSError(f"{path}: disk full")
            write_wav(path, w)

        monkeypatch.setattr(dsp, "write_wav", failing_write)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "c"
        assert self._convert_all(env, feats, out) == 1
        captured = capsys.readouterr()
        assert "converted 7 utterance(s) of M04" in captured.out
        lines = captured.err.splitlines()
        assert lines[0] == "2 utterance(s) failed:"
        assert lines[1].startswith("  M04/W0/B3: ") and "disk full" in lines[1]
        assert lines[2].startswith("  M04/W1/B1: ") and "20 coefficients" in lines[2]
        assert len(lines) == 3
        assert len(list(out.glob("*.wav"))) == 7
        assert (out / "M04_W0_B3_to_M12.mcep").exists()
        assert not (out / "M04_W1_B1_to_M12.mcep").exists()

    def test_internal_error_in_synthesis_cancels_queued_words(
            self, env, tmp_path, capsys, monkeypatch):
        calls = []

        def synthesize(frames, cfg, iterations, path):
            calls.append(path.name)
            if len(calls) == 1:
                raise RuntimeError("synthesis bug")
            time.sleep(0.2)  # leaves the queue to the calling thread

        monkeypatch.setattr(cli, "_synthesize", synthesize)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
        assert self._convert_all(env, env["feats"], tmp_path / "c") == 2
        err = capsys.readouterr().err
        assert "internal error" in err and "synthesis bug" in err
        assert calls[0] == "M04_W0_B1_to_M12.wav"
        assert len(calls) <= 2  # of 9 words queued

    def test_oversized_source_features_named(self, env, tmp_path, capsys):
        # the quantizer would snap this to finite output with exit 0
        feats = tmp_path / "feats"
        shutil.copytree(env["feats"], feats)
        bad = feats / "features" / "M04_W1_B2.mcep"
        frames = dsp.read_mcep(bad)
        frames[2, 5] = 3e38
        dsp.write_mcep(bad, frames)
        out = tmp_path / "c"
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "convert", str(env["ckpt"]), "--features", str(feats),
                     "--source", "M04", "--target", "M12", "--no-wav"]) == 1
        err = capsys.readouterr().err
        assert (f"M04/W1/B2: {bad}: a coefficient of magnitude 3e+38 exceeds "
                "the 291.3") in err
        assert sorted(p.name for p in out.glob("*.mcep")) == [
            "M04_W0_B2_to_M12.mcep", "M04_W2_B2_to_M12.mcep"]

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_bad_gl_iterations_is_user_error(self, env, tmp_path, capsys, n):
        out = tmp_path / "c"
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "convert", str(env["ckpt"]), "--features",
                     str(env["feats"]), "--source", "M04", "--target", "M12",
                     "--gl-iterations", n]) == 1
        err = capsys.readouterr().err
        assert f"--gl-iterations must be >= 1, got {n}" in err
        assert not out.exists()

    def _store_copy(self, env, tmp_path, index_text):
        feats = tmp_path / "feats"
        shutil.copytree(env["feats"], feats)
        (feats / "index.json").write_text(index_text)
        return feats

    def test_truncated_index_is_user_error(self, env, tmp_path, capsys):
        text = (env["feats"] / "index.json").read_text()
        feats = self._store_copy(env, tmp_path, text[:len(text) // 2])
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "c"),
                     "convert", str(env["ckpt"]), "--features", str(feats),
                     "--source", "M04", "--target", "M12", "--no-wav"]) == 1
        err = capsys.readouterr().err
        assert f"error: {feats / 'index.json'} line " in err
        assert "internal error" not in err

    def test_index_entry_without_speaker_is_user_error(self, env, tmp_path, capsys):
        index = json.loads((env["feats"] / "index.json").read_text())
        del index["M04/W1/B2"]["speaker_id"]
        feats = self._store_copy(env, tmp_path, json.dumps(index))
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "c"),
                     "convert", str(env["ckpt"]), "--features", str(feats),
                     "--source", "M04", "--target", "M12", "--no-wav"]) == 1
        err = capsys.readouterr().err
        assert (f"{feats / 'index.json'}: entry 'M04/W1/B2' lacks 'speaker_id'"
                in err)

    def test_unknown_source_reported(self, env, tmp_path, capsys):
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "c"),
                     "convert", str(env["ckpt"]), "--features",
                     str(env["feats"]), "--source", "M77",
                     "--target", "M12"]) == 1
        assert "M77" in capsys.readouterr().err


class TestPair:
    def test_prints_pairs_and_writes_csv(self, env, tmp_path, capsys):
        out = tmp_path / "pairs"
        assert main(["--out", str(out), "pair", str(env["manifest"])]) == 0
        assert "M04,M12,5.4" in capsys.readouterr().out
        assert (out / "pairs.csv").read_text().splitlines()[1] == "M04,M12,5.4"

    def test_non_numeric_utterance_score_is_user_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "speaker_id,sex,intelligibility_score,band,word_id,block,audio_path\n"
            "M01,M,2,very_low,,,\n"
            "M01,,abc,,W1,B1,a.wav\n")
        assert main(["pair", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err and "not a number" in err

    def test_non_utf8_manifest_is_user_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_bytes(
            b"speaker_id,sex,intelligibility_score,band,word_id,block,audio_path\n"
            b"M01,M,2,very_low,,,\n"
            b"M\xff2,M,7,very_low,,,\n")
        assert main(["pair", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert f"{manifest} line 3: not UTF-8 text" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_bad_max_delta_is_user_error(self, env, capsys, value):
        assert main(["pair", str(env["manifest"]), "--max-delta", value]) == 1
        assert "--max-delta must be a non-negative number" in capsys.readouterr().err

    def test_decreasing_band_cuts_is_user_error(self, env, tmp_path, capsys):
        ini = tmp_path / "cuts.ini"
        ini.write_text("[corpus]\nband_cuts = 60, 40, 20\n")
        assert main(["--config", str(ini), "pair", str(env["manifest"])]) == 1
        assert f"{ini} [corpus] band_cuts" in capsys.readouterr().err

    def test_unmatched_reported(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "speaker_id,sex,intelligibility_score,band,word_id,block,audio_path\n"
            "M04,M,2,very_low,,,\n")
        assert main(["pair", str(manifest)]) == 0
        assert "M04" in capsys.readouterr().err

    def test_unpaired_speaker_reported_once(self, tmp_path, capsys, caplog):
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "speaker_id,sex,intelligibility_score,band,word_id,block,audio_path\n"
            "M04,M,2,very_low,,,\n"
            "M12,M,7.4,very_low,,,\n")
        with caplog.at_level(logging.INFO):
            assert main(["pair", str(manifest), "--max-delta", "1"]) == 0
        assert capsys.readouterr().err == "unpaired: M04, M12\n"
        assert not caplog.records


def write_ratings(path: Path, rows):
    path.write_text("listener_id,kind,group_key,value\n"
                    + "\n".join(",".join(r) for r in rows) + "\n")


class TestStats:
    def test_mos_seven_conditions(self, tmp_path, capsys):
        rows = []
        for cond in ("healthy_natural", "gt_high", "gt_mid", "gt_low",
                     "vc_high", "vc_mid", "vc_low"):
            for i in range(4):
                rows.append((f"L{i:02d}", "mos", cond, str(2 + (i % 3))))
        ratings = tmp_path / "r.csv"
        write_ratings(ratings, rows)
        assert main(["--out", str(tmp_path / "out"), "stats", str(ratings),
                     "--mode", "mos"]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert len(out_lines) == 8
        assert (tmp_path / "out" / "mos_summary.csv").is_file()

    def test_ab_prints_paper_percentage(self, tmp_path, capsys):
        rows = [(f"L{i:02d}", "ab", "M04-M12:a_to_b:VC_vs_T",
                 "same_sure" if i < 22 else "different_sure")
                for i in range(30)]
        ratings = tmp_path / "r.csv"
        write_ratings(ratings, rows)
        assert main(["stats", str(ratings), "--mode", "ab"]) == 0
        assert "73.33%" in capsys.readouterr().out

    def test_wilcoxon_no_test_reported(self, tmp_path, capsys):
        rows = []
        for i in range(5):
            rows.append((f"L{i:02d}", "mos", "gt_high", "3"))
            rows.append((f"L{i:02d}", "mos", "vc_high", "3"))
        ratings = tmp_path / "r.csv"
        write_ratings(ratings, rows)
        assert main(["stats", str(ratings), "--mode", "wilcoxon"]) == 0
        assert "no_test" in capsys.readouterr().out

    def test_wilcoxon_explicit_conditions(self, tmp_path, capsys):
        rows = []
        for i in range(6):
            rows.append((f"L{i:02d}", "mos", "gt_low", str(5 - (i % 3))))
            rows.append((f"L{i:02d}", "mos", "healthy_natural", "5"))
        ratings = tmp_path / "r.csv"
        write_ratings(ratings, rows)
        assert main(["stats", str(ratings), "--mode", "wilcoxon",
                     "--conditions", "healthy_natural:gt_low"]) == 0
        out = capsys.readouterr().out
        assert "healthy_natural,gt_low" in out

    @pytest.mark.parametrize("pair", ["gt_mid:vc_mid", "gt_hgih:vc_hgih"])
    def test_wilcoxon_unrated_conditions_is_user_error(self, tmp_path, capsys,
                                                       pair):
        rows = [(f"L{i:02d}", "mos", cond, str(2 + i))
                for i in range(3) for cond in ("gt_high", "vc_high")]
        ratings = tmp_path / "r.csv"
        write_ratings(ratings, rows)
        assert main(["stats", str(ratings), "--mode", "wilcoxon",
                     "--conditions", pair]) == 1
        a, b = pair.split(":")
        assert (f"{ratings}: no mos ratings for condition {a!r} or {b!r}"
                in capsys.readouterr().err)

    def test_modes_share_one_out_dir(self, tmp_path):
        rows = [(f"L{i:02d}", "mos", cond, str(1 + (i * 7 + j) % 5))
                for i in range(6)
                for j, cond in enumerate(("gt_high", "vc_high", "gt_low",
                                          "vc_low", "healthy_natural"))]
        rows += [(f"L{i:02d}", "ab", f"M04-M12:a_to_b:{kind}",
                  "same_sure" if i % 3 else "different_not_sure")
                 for i in range(6) for kind in ("VC_vs_T", "T_vs_T", "VC_vs_S")]
        ratings = tmp_path / "r.csv"
        write_ratings(ratings, rows)
        tables = {"mos": "mos_summary.csv", "wilcoxon": "wilcoxon.csv",
                  "ab": "similarity_grid.csv"}
        shared = tmp_path / "shared"
        for mode, name in tables.items():
            alone = tmp_path / mode
            for out in (alone, shared):
                assert main(["--out", str(out), "stats", str(ratings),
                             "--mode", mode]) == 0
            assert [p.name for p in alone.iterdir()] == [name]
        for mode, name in tables.items():
            assert ((shared / name).read_bytes()
                    == (tmp_path / mode / name).read_bytes())
        assert sorted(p.name for p in shared.iterdir()) == sorted(tables.values())

    def test_malformed_ratings_rejected(self, tmp_path, capsys):
        ratings = tmp_path / "r.csv"
        ratings.write_text("listener_id,kind,group_key,value\nL0,mos,gt_high,9\n")
        assert main(["stats", str(ratings), "--mode", "mos"]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_utf8_ratings_is_user_error(self, tmp_path, capsys):
        ratings = tmp_path / "r.csv"
        ratings.write_bytes(b"listener_id,kind,group_key,value\n"
                            b"L0,mos,gt_high,3\nL\xff1,mos,gt_high,4\n")
        assert main(["stats", str(ratings), "--mode", "mos"]) == 1
        err = capsys.readouterr().err
        assert f"{ratings} line 3: not UTF-8 text" in err
        assert "internal error" not in err

    def test_similarity_grid_written(self, tmp_path):
        rows = [(f"L{i:02d}", "ab", "M04-M12:a_to_b:VC_vs_T", "same_sure")
                for i in range(5)]
        ratings = tmp_path / "r.csv"
        write_ratings(ratings, rows)
        assert main(["--out", str(tmp_path / "out"), "stats", str(ratings),
                     "--mode", "ab"]) == 0
        grid = (tmp_path / "out" / "similarity_grid.csv").read_text()
        assert grid.splitlines()[0].startswith("pair,direction,reference")
