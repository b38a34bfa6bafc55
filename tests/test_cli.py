import codecs
import configparser
import csv
import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys
import time
import warnings
import wave
from pathlib import Path

import numpy as np
import pytest

from pathovc import cli, dsp, vqvae, workers
from pathovc.cli import main
from pathovc.config import SECTIONS, load_run_config

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


def store_copy(env, tmp_path, index_text):
    """A copy of the test feature store under ``index_text``."""
    feats = tmp_path / "feats"
    shutil.copytree(env["feats"], feats)
    (feats / "index.json").write_text(index_text)
    return feats


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


class TestByteOrderMark:
    """Excel and many editors start UTF-8 text with a byte-order mark."""

    @pytest.mark.parametrize("reader", ["manifest", "ratings", "train-list",
                                        "config"])
    def test_marked_file_reads_like_unmarked(self, env, tmp_path, capsys,
                                             reader):
        text, argv = {
            "manifest": (env["manifest"].read_bytes(), ["pair", "{}"]),
            "ratings": (b"listener_id,kind,group_key,value\n"
                        b"L0,mos,gt_high,3\nL1,mos,gt_high,4\n",
                        ["stats", "{}", "--mode", "mos"]),
            "train-list": (b"M04/W0/B1\nM12/W0/B3\n",
                           ["--config", str(env["ini"]), "--out",
                            str(tmp_path / "m"), "train", str(env["manifest"]),
                            "--features", str(env["feats"]), "--train-list", "{}"]),
            "config": (env["ini"].read_bytes(), ["--config", "{}", "--dump-config"]),
        }[reader]
        printed = []
        for name, raw in (("plain", text), ("marked", codecs.BOM_UTF8 + text)):
            path = tmp_path / name
            path.write_bytes(raw)
            assert main([a.format(path) for a in argv]) == 0, capsys.readouterr().err
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]


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

    def test_reflects_flags(self, env, capsys):
        assert main(["--config", str(env["ini"]), "--seed", "9", "--out", "d",
                     "--dump-config"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "seed = 9" in lines and "out = d" in lines
        assert "steps = 5" in lines

    @pytest.mark.parametrize("in_file", ["false", "true"])
    def test_store_true_flag_only_turns_its_key_on(self, tmp_path, capsys, in_file):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[pairing]\ninclude_female = {in_file}\n")
        assert main(["--config", str(ini), "--dump-config", "pair"]) == 0
        assert f"include_female = {in_file}" in capsys.readouterr().out.splitlines()
        assert main(["--config", str(ini), "--dump-config", "pair",
                     "--include-female"]) == 0
        assert "include_female = true" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("flags,default,given", [
        (["--train-list", "keys.txt"], "train_list = ", "train_list = keys.txt"),
        (["--all-blocks"], "all_blocks = false", "all_blocks = true"),
        (["--gl-iterations", "5"], "gl_iterations = 10", "gl_iterations = 5"),
        (["--no-wav"], "wav = true", "wav = false"),
    ], ids=["train-list", "all-blocks", "gl-iterations", "no-wav"])
    def test_command_flag_shows_in_dump(self, capsys, flags, default, given):
        command = (["train"] if flags[0] == "--train-list" else
                   ["convert", "m.hvqv", "--source", "a", "--target", "b"])
        assert main(["--dump-config", *command]) == 0
        assert default in capsys.readouterr().out.splitlines()
        assert main(["--dump-config", *command, *flags]) == 0
        assert given in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("in_file", ["false", "true"])
    def test_no_wav_flag_only_turns_wavs_off(self, tmp_path, capsys, in_file):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[convert]\nwav = {in_file}\n")
        convert = ["convert", "m.hvqv", "--source", "a", "--target", "b"]
        assert main(["--config", str(ini), "--dump-config", *convert]) == 0
        assert f"wav = {in_file}" in capsys.readouterr().out.splitlines()
        assert main(["--config", str(ini), "--dump-config", *convert, "--no-wav"]) == 0
        assert "wav = false" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("flags,named", [
        (["--seed", "-1"], "--seed: seed must be non-negative, got -1"),
        (["--seed", "abc"], "--seed: expected int, got 'abc'"),
        (["--seed", "1.5"], "--seed: expected int, got '1.5'"),
        (["pair", "--max-delta", "x"], "--max-delta: expected float, got 'x'"),
        # a dump would write these back as 'spaced' and as two lines
        (["--out", " spaced"], "--out: expected a value on one line without "
                               "surrounding whitespace, got ' spaced'"),
        (["train", "--features", "a\nb"], "--features: expected a value on one "
                                          "line without surrounding whitespace, "
                                          "got 'a\\nb'"),
    ], ids=["seed-negative", "seed-abc", "seed-fraction", "max-delta-x",
            "out-spaced", "features-line-break"])
    def test_bad_flag_value_names_the_flag(self, capsys, flags, named):
        assert main(["--dump-config", *flags]) == 1
        err = capsys.readouterr().err
        assert f"error: {named}" in err and "internal error" not in err


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

    def test_internal_error_in_a_clip_cancels_queued_clips(
            self, env, tmp_path, capsys, monkeypatch):
        # the first clip is longer than the rest, so it is known by its size
        first = tmp_path / "first.wav"
        dsp.write_wav(first, dsp.Waveform(np.full(9000, 0.25), 16000))
        lines = env["manifest"].read_text().splitlines()
        lines.insert(3, f"M04,,,,W9,B1,{first}")
        manifest = tmp_path / "m.csv"
        manifest.write_text("\n".join(lines) + "\n")
        reduce_noise = dsp.reduce_noise
        calls = []

        def failing(w, cfg):
            calls.append(w.samples.size)
            if w.samples.size == 9000:
                raise RuntimeError("front-end bug")
            time.sleep(0.2)  # leaves the queue to the calling thread
            return reduce_noise(w, cfg)

        monkeypatch.setattr(dsp, "reduce_noise", failing)
        monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "out"
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "preprocess", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "internal error" in err and "front-end bug" in err
        assert 9000 in calls
        assert len(calls) <= 3  # of 19 clips queued, on 2 workers
        for name in ("index.json", "skipped.txt", "errors.txt"):
            assert not (out / name).exists()

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

    @pytest.mark.parametrize("row,message", [
        ("M04,,3,,W1,B1", "line 4: score 3 contradicts declared 2.0 for M04"),
        ("M04,,,low,W1,B1",
         "line 4: band 'low' contradicts declared 'very_low' for M04"),
    ], ids=["score", "band"])
    def test_utterance_contradicting_its_speaker_is_user_error(
            self, env, tmp_path, capsys, row, message):
        wav = env["root"] / "wavs" / "M04_W0_B1.wav"
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "speaker_id,sex,intelligibility_score,band,word_id,block,audio_path\n"
            "M04,M,2,very_low,,,\n"
            f"M04,,,,W0,B1,{wav}\n"
            f"{row},{wav}\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "preprocess", str(manifest)]) == 1
        assert f"error: {manifest} {message}\n" == capsys.readouterr().err
        assert not out.exists()

    def test_wav_rate_outside_range_is_one_error_line(self, env, tmp_path):
        good = env["root"] / "wavs" / "M04_W0_B1.wav"
        fast = tmp_path / "fast.wav"
        with wave.open(str(fast), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(1000000)
            f.writeframes(bytes(4000))
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "speaker_id,sex,intelligibility_score,band,word_id,block,audio_path\n"
            "M04,M,2,very_low,,,\n"
            f"M04,,,,W0,B1,{fast}\n"
            f"M04,,,,W1,B1,{good}\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "preprocess", str(manifest)]) == 1
        assert (out / "errors.txt").read_text().splitlines() == [
            f"M04/W0/B1\t{fast}: sample rate 1000000 Hz outside 1-384000"]
        assert list(json.loads((out / "index.json").read_text())) == ["M04/W1/B1"]

    def test_out_of_memory_clip_fails_alone(self, env, tmp_path, capsys, monkeypatch):
        # the extra clip is longer than the rest, so it is known by its size
        big = tmp_path / "big.wav"
        dsp.write_wav(big, dsp.Waveform(np.full(9000, 0.25), 16000))
        lines = env["manifest"].read_text().splitlines()
        lines.insert(3, f"M04,,,,W9,B1,{big}")
        manifest = tmp_path / "m.csv"
        manifest.write_text("\n".join(lines) + "\n")
        reduce_noise = dsp.reduce_noise

        def failing(w, cfg):
            if w.samples.size == 9000:
                raise MemoryError("Unable to allocate 9.00 GiB")
            return reduce_noise(w, cfg)

        monkeypatch.setattr(dsp, "reduce_noise", failing)
        monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "out"
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "preprocess", str(manifest)]) == 1
        line = f"M04/W9/B1\t{big}: out of memory (Unable to allocate 9.00 GiB)"
        assert (out / "errors.txt").read_text().splitlines() == [line]
        err = capsys.readouterr().err
        assert err == "1 clip(s) failed:\n  " + line.replace("\t", ": ") + "\n"
        index = json.loads((out / "index.json").read_text())
        assert index == json.loads((env["feats"] / "index.json").read_text())
        for entry in index.values():
            name = entry["feature_path"]
            assert (out / name).read_bytes() == (env["feats"] / name).read_bytes()
        assert not (out / "features" / "M04_W9_B1.mcep").exists()

    def test_unwritable_feature_file_fails_alone(self, env, tmp_path, capsys):
        # a directory stands where one clip's feature file goes
        out = tmp_path / "out"
        (out / "features" / "M04_W1_B2.mcep").mkdir(parents=True)
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "preprocess", str(env["manifest"])]) == 1
        assert "internal error" not in capsys.readouterr().err
        errors = (out / "errors.txt").read_text().splitlines()
        assert len(errors) == 1 and errors[0].startswith("M04/W1/B2\t")
        assert "M04_W1_B2.mcep" in errors[0] and ".tmp" not in errors[0]
        index = json.loads((env["feats"] / "index.json").read_text())
        del index["M04/W1/B2"]
        assert json.loads((out / "index.json").read_text()) == index

    def test_out_of_memory_feature_write_fails_alone(self, env, tmp_path, capsys,
                                                     monkeypatch):
        write_mcep = dsp.write_mcep

        def failing(path, frames):
            if path.name == "M04_W1_B2.mcep":
                raise MemoryError()
            write_mcep(path, frames)

        monkeypatch.setattr(dsp, "write_mcep", failing)
        out = tmp_path / "out"
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "preprocess", str(env["manifest"])]) == 1
        line = f"M04/W1/B2\t{env['root'] / 'wavs' / 'M04_W1_B2.wav'}: out of memory"
        assert (out / "errors.txt").read_text().splitlines() == [line]
        err = capsys.readouterr().err
        assert err == "1 clip(s) failed:\n  " + line.replace("\t", ": ") + "\n"
        index = json.loads((out / "index.json").read_text())
        assert len(index) == 17 and "M04/W1/B2" not in index

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads VmSize from /proc and limits RLIMIT_AS")
    def test_clip_beyond_address_space_limit_fails_alone(self, tmp_path):
        # a child on two workers preprocesses two copies of a 1 s clip, then
        # limits its address space to its size plus 300 MB, about a third of
        # what the 240 s clip needs, and preprocesses a copy and that clip;
        # the limit is set in the child only
        rng = np.random.default_rng(3)
        clips = {}
        for name, seconds in (("short", 1), ("long", 240)):
            t = np.arange(16000 * seconds) / 16000
            x = 0.5 * np.sin(2 * np.pi * 220 * t) + 0.05 * rng.normal(size=t.size)
            clips[name] = tmp_path / f"{name}.wav"
            dsp.write_wav(clips[name], dsp.Waveform(x, 16000))
        head = ("speaker_id,sex,intelligibility_score,band,word_id,block,audio_path\n"
                "M04,M,2,very_low,,,\n")
        (tmp_path / "warm.csv").write_text(
            head + f"M04,,,,W0,B1,{clips['short']}\nM04,,,,W1,B1,{clips['short']}\n")
        (tmp_path / "run.csv").write_text(
            head + f"M04,,,,W0,B1,{clips['short']}\nM04,,,,W1,B1,{clips['long']}\n")
        child = (
            "import resource, sys\n"
            "from pathovc import cli, workers\n"
            "workers.cpu_count = lambda: 2\n"
            "if cli.main(['--out', 'warm', 'preprocess', 'warm.csv']) != 0:\n"
            "    sys.exit('warm-up failed')\n"
            "with open('/proc/self/status') as fh:\n"
            "    kib = next(int(line.split()[1]) for line in fh\n"
            "              if line.startswith('VmSize:'))\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, ((kib << 10) + (300 << 20), hard))\n"
            "sys.exit(cli.main(['--out', 'run', 'preprocess', 'run.csv']))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=child_env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 1, done.stderr
        line = f"M04/W1/B1\t{clips['long']}: out of memory ("
        errors = (tmp_path / "run" / "errors.txt").read_text().splitlines()
        assert len(errors) == 1 and errors[0].startswith(line)
        assert done.stderr.splitlines() == ["1 clip(s) failed:",
                                            "  " + errors[0].replace("\t", ": ")]
        assert list(json.loads((tmp_path / "run" / "index.json").read_text())) == [
            "M04/W0/B1"]
        name = "features/M04_W0_B1.mcep"
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()


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

    def test_seed_flag_equals_seed_in_file(self, env, tmp_path):
        one_step = RUN_INI.replace("steps = 5", "steps = 1")
        ini3, ini7 = tmp_path / "seed3.ini", tmp_path / "seed7.ini"
        ini3.write_text(one_step.replace("seed = 7", "seed = 3"))
        ini7.write_text(one_step)
        common = ["train", str(env["manifest"]), "--features", str(env["feats"])]
        assert main(["--config", str(ini3), "--seed", "7",
                     "--out", str(tmp_path / "flag"), *common]) == 0
        assert main(["--config", str(ini7), "--out", str(tmp_path / "file"),
                     *common]) == 0
        flag, file = (tmp_path / d / "model.hvqv" for d in ("flag", "file"))
        assert flag.read_bytes() == file.read_bytes()

    def test_negative_seed_is_user_error(self, env, tmp_path, capsys):
        out = tmp_path / "m"
        common = ["train", str(env["manifest"]), "--features", str(env["feats"])]
        assert main(["--config", str(env["ini"]), "--seed", "-1",
                     "--out", str(out), *common]) == 1
        err = capsys.readouterr().err
        assert "error: --seed: seed must be non-negative, got -1" in err
        ini = tmp_path / "neg.ini"
        ini.write_text(RUN_INI.replace("seed = 7", "seed = -3"))
        assert main(["--config", str(ini), "--out", str(out), *common]) == 1
        err = capsys.readouterr().err
        assert f"error: {ini}: seed must be non-negative, got -3" in err
        assert "internal error" not in err and not out.exists()

    def test_unseeded_train_matches_its_dump_and_seed_0(self, env, tmp_path,
                                                         capsys):
        # the dump of a config without a seed spells out the seed it trains with
        ini = tmp_path / "unseeded.ini"
        ini.write_text(RUN_INI.replace("seed = 7\n", ""))
        assert main(["--config", str(ini), "--dump-config"]) == 0
        dumped = tmp_path / "dumped.ini"
        dumped.write_text(capsys.readouterr().out)
        assert "\nseed = 0\n" in dumped.read_text()
        runs = {"unseeded": ["--config", str(ini)],
                "dumped": ["--config", str(dumped)],
                "seed0": ["--config", str(ini), "--seed", "0"]}
        outputs = []
        for name, argv in runs.items():
            out = tmp_path / name
            assert main([*argv, "--out", str(out), "train", str(env["manifest"]),
                         "--features", str(env["feats"])]) == 0
            assert "with seed 0" in capsys.readouterr().out
            outputs.append([(out / f).read_bytes()
                            for f in (cli.CHECKPOINT_NAME, cli.REPORT_NAME)])
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][0] != env["ckpt"].read_bytes()  # trained with seed 7

    def test_b2_in_train_list_refused(self, env, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_text("M04/W0/B2\nM04/W1/B1\n")
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "m"),
                     "train", str(env["manifest"]), "--features",
                     str(env["feats"]), "--train-list", str(listing)]) == 1
        err = capsys.readouterr().err
        assert "M04/W0/B2" in err and "refusing" in err

    def test_b2_in_configured_train_list_refused(self, env, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_text("M04/W1/B1\nM04/W0/B2\n")
        ini = tmp_path / "list.ini"
        ini.write_text(RUN_INI + f"[paths]\ntrain_list = {listing}\n")
        out = tmp_path / "m"
        assert main(["--config", str(ini), "--out", str(out), "train",
                     str(env["manifest"]), "--features", str(env["feats"])]) == 1
        err = capsys.readouterr().err
        assert (f"error: {listing} line 2: refusing to train on held-out B2 "
                "utterance M04/W0/B2") in err
        assert not out.exists()

    def test_dumped_train_list_reproduces_checkpoint(self, env, tmp_path, capsys):
        listing = tmp_path / "list.txt"
        listing.write_text("M04/W0/B1\nM12/W0/B3\n")
        out = tmp_path / "m"
        argv = ["--config", str(env["ini"]), "--out", str(out), "train",
                str(env["manifest"]), "--features", str(env["feats"]),
                "--train-list", str(listing)]
        assert main(["--dump-config", *argv]) == 0
        dumped = tmp_path / "dumped.ini"
        dumped.write_text(capsys.readouterr().out)
        assert main(argv) == 0
        by_flags = (out / "model.hvqv").read_bytes()
        assert by_flags != env["ckpt"].read_bytes()
        shutil.rmtree(out)
        assert main(["--config", str(dumped), "train"]) == 0
        assert (out / "model.hvqv").read_bytes() == by_flags

    @pytest.mark.parametrize("k", ["-1", "-3"])
    def test_negative_kernel_size_is_user_error(self, env, tmp_path, capsys, k):
        # -1 % 2 == 1, so an odd-only check let these through to numpy
        ini = tmp_path / "k.ini"
        ini.write_text(RUN_INI.replace("embed_dim = 4",
                                       f"embed_dim = 4\nkernel_size = {k}"))
        out = tmp_path / "m"
        assert main(["--config", str(ini), "--out", str(out), "train",
                     str(env["manifest"]), "--features", str(env["feats"])]) == 1
        err = capsys.readouterr().err
        assert f"error: {ini}: kernel_size must be positive and odd" in err
        assert "internal error" not in err and not out.exists()

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
            ["--config", str(env["ini"]), "--out", str(tmp_path / "m"),
             "train", str(env["manifest"]), "--features", str(feats)])
        cfg = cli.run_config(args)
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

    def _train_on_edited_index(self, env, tmp_path, capsys, key, field, value):
        index = json.loads((env["feats"] / "index.json").read_text())
        index[key][field] = value
        feats = store_copy(env, tmp_path, json.dumps(index))
        model = tmp_path / "m"
        assert main(["--config", str(env["ini"]), "--out", str(model),
                     "train", str(env["manifest"]), "--features", str(feats)]) == 1
        assert not (model / "model.hvqv").exists()
        err = capsys.readouterr().err
        assert f"error: {feats / 'index.json'}: entry {key!r} " in err
        return err

    def test_index_speaker_unlike_manifest_refused(self, env, tmp_path, capsys):
        err = self._train_on_edited_index(env, tmp_path, capsys,
                                          "M04/W0/B1", "speaker_id", "ZZZ")
        assert "has speaker_id 'ZZZ', but its key gives 'M04'" in err

    def test_index_block_unlike_manifest_refused(self, env, tmp_path, capsys):
        err = self._train_on_edited_index(env, tmp_path, capsys,
                                          "M04/W0/B1", "block", "B3")
        assert "has block 'B3', but its key gives 'B1'" in err

    def test_index_unknown_block_refused(self, env, tmp_path, capsys):
        err = self._train_on_edited_index(env, tmp_path, capsys,
                                          "M04/W0/B1", "block", "B9")
        assert "has block 'B9', but its key gives 'B1'" in err

    @pytest.mark.parametrize("frames,says", [
        (True, "has a non-int 'frames'"),
        (0, "has 0 frames; expected a positive count"),
    ])
    def test_index_bad_frame_count_refused(self, env, tmp_path, capsys,
                                           frames, says):
        err = self._train_on_edited_index(env, tmp_path, capsys,
                                          "M04/W0/B1", "frames", frames)
        assert says in err

    @pytest.mark.parametrize("outside", ["absolute", "parent"])
    def test_index_path_outside_store_refused(self, env, tmp_path, capsys,
                                              outside):
        # both name an existing feature file, by a path that could name any
        # file on the machine
        named = env["feats"] / "features" / "M04_W0_B1.mcep"
        path = (str(named) if outside == "absolute"
                else f"../{env['feats'].name}/features/M04_W0_B1.mcep")
        err = self._train_on_edited_index(env, tmp_path, capsys,
                                          "M04/W0/B1", "feature_path", path)
        assert (f"has feature_path {path!r}, but its key gives "
                "'features/M04_W0_B1.mcep'") in err


    def test_features_dir_without_index_is_user_error(self, env, tmp_path,
                                                       capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "m"),
                     "train", str(env["manifest"]), "--features", str(empty)]) == 1
        assert capsys.readouterr().err == (
            f"error: no feature index under {empty}; run preprocess first\n")

    @pytest.mark.parametrize("dropped", ["all", "one"])
    def test_training_words_without_features(self, env, tmp_path, capsys,
                                             caplog, dropped):
        # B2 words never train, so an index of B2 alone leaves none to train on
        index = json.loads((env["feats"] / "index.json").read_text())
        gone = ([k for k in index if not k.endswith("/B2")] if dropped == "all"
                else ["M04/W0/B1"])
        feats = store_copy(env, tmp_path, json.dumps(
            {k: v for k, v in index.items() if k not in gone}))
        ini = tmp_path / "one.ini"
        ini.write_text(RUN_INI.replace("steps = 5", "steps = 1"))
        model = tmp_path / "m"
        with caplog.at_level(logging.WARNING):
            code = main(["--config", str(ini), "--out", str(model), "train",
                         str(env["manifest"]), "--features", str(feats)])
        err = capsys.readouterr().err
        if dropped == "all":
            assert code == 1
            assert err == ("error: no training utterances have features; "
                           "nothing to do\n")
            assert not model.exists()
        else:
            assert code == 0 and (model / "model.hvqv").is_file()
            assert [r.getMessage() for r in caplog.records] == [
                "1 training utterance(s) have no features and are skipped"]


class TestConvert:
    def test_index_entry_without_its_file_is_user_error(self, env, tmp_path,
                                                        capsys):
        feats = store_copy(env, tmp_path,
                           (env["feats"] / "index.json").read_text())
        (feats / "features" / "M04_W0_B1.mcep").unlink()
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "c"),
                     "convert", str(env["ckpt"]), "--features", str(feats),
                     "--source", "M04", "--target", "M12", "--no-wav"]) == 1
        assert capsys.readouterr().err == (
            f"error: {feats / 'index.json'}: entry 'M04/W0/B1' names "
            "features/M04_W0_B1.mcep, which is not a file\n")

    def test_four_byte_checkpoint_is_user_error(self, env, tmp_path, capsys):
        ckpt = tmp_path / "short.hvqv"
        ckpt.write_bytes(b"HVQV")
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "c"),
                     "convert", str(ckpt), "--features", str(env["feats"]),
                     "--source", "M04", "--target", "M12", "--no-wav"]) == 1
        assert capsys.readouterr().err == (
            f"error: {ckpt}: file too short for a checkpoint header\n")

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

    @pytest.mark.parametrize("flags,files", [
        (["--all-blocks", "--gl-iterations", "3"], 18), (["--no-wav"], 3),
    ], ids=["all-blocks-gl-iterations", "no-wav"])
    def test_dumped_flags_reproduce_outputs(self, env, tmp_path, capsys,
                                            flags, files):
        out = tmp_path / "c"
        argv = ["--config", str(env["ini"]), "--out", str(out), "convert",
                str(env["ckpt"]), "--features", str(env["feats"]),
                "--source", "M04", "--target", "M12", *flags]
        assert main(["--dump-config", *argv]) == 0
        dumped = tmp_path / "dumped.ini"
        dumped.write_text(capsys.readouterr().out)
        assert main(argv) == 0
        by_flags = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(by_flags) == files
        shutil.rmtree(out)
        assert main(["--config", str(dumped), "convert",
                     "--source", "M04", "--target", "M12"]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == by_flags

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
        assert (f"M04/W1/B2: {env['ckpt']} cannot convert {bad}: input of 20 "
                "channels, but the model takes 40") in err
        assert len(list(out.glob("*.mcep"))) == 2

    def test_short_word_fails_alone(self, env, tmp_path, capsys):
        feats = tmp_path / "feats"
        shutil.copytree(env["feats"], feats)
        short = feats / "features" / "M04_W1_B2.mcep"
        dsp.write_mcep(short, dsp.read_mcep(short)[:5])
        out = tmp_path / "c"
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "convert", str(env["ckpt"]), "--features", str(feats),
                     "--source", "M04", "--target", "M12", "--no-wav"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "1 utterance(s) failed:",
            f"  M04/W1/B2: {env['ckpt']} cannot convert {short}: input of 5 "
            "frames is too short; three halvings need at least 8"]
        assert sorted(p.name for p in out.glob("*.mcep")) == [
            "M04_W0_B2_to_M12.mcep", "M04_W2_B2_to_M12.mcep"]

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

        class Pool(workers.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(workers, "ThreadPoolExecutor", Pool)
        blobs = []
        for cpus in ({0}, {0, 1}, {0, 1, 2}, None):
            if cpus is None:  # no affinity call: the CPU count decides
                monkeypatch.delattr(workers.os, "sched_getaffinity")
                monkeypatch.setattr(workers.os, "cpu_count", lambda: 4)
            else:
                monkeypatch.setattr(workers.os, "sched_getaffinity",
                                    lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"run{len(blobs)}"
            assert self._convert_all(env, env["feats"], out) == 0
            blobs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert pools == [1, 2, 3, 4]
        assert len(blobs[0]) == 18
        assert all(b == blobs[0] for b in blobs[1:])

    def test_outputs_independent_of_blas_threads_and_workers(self, env, tmp_path):
        # preprocess, train and convert with wavs, at 1 and 2 BLAS threads
        # and 1 and 2 pool workers, each command in a fresh interpreter that
        # sees only the first N CPUs; relative output paths keep the run
        # directory out of the files
        src = str(Path(cli.__file__).resolve().parents[1])
        launcher = ("import os, sys\n"
                    "from pathovc import cli\n"
                    "cpus = set(range(int(sys.argv.pop(1))))\n"
                    "os.sched_getaffinity = lambda pid: cpus\n"
                    "sys.exit(cli.main(sys.argv[1:]))\n")
        runs = []
        for threads in ("1", "2"):
            child_env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                             PYTHONPATH=os.pathsep.join(
                                 filter(None, [src, os.environ.get("PYTHONPATH")])))
            for cpus in ("1", "2"):
                run_dir = tmp_path / f"threads{threads}_cpus{cpus}"
                run_dir.mkdir()
                for argv in (
                        ["--out", "feats", "preprocess", str(env["manifest"])],
                        ["--out", "model", "--seed", "1", "train",
                         str(env["manifest"]), "--features", "feats"],
                        ["--out", "conv", "convert", "model/model.hvqv",
                         "--features", "feats", "--source", "M04",
                         "--target", "M12"]):
                    subprocess.run([sys.executable, "-c", launcher, cpus,
                                    "--config", str(env["ini"]), *argv],
                                   cwd=run_dir, env=child_env,
                                   capture_output=True, check=True, timeout=300)
                runs.append({str(p.relative_to(run_dir)):
                             hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in sorted(run_dir.rglob("*")) if p.is_file()})
        assert len([name for name in runs[0] if name.endswith(".wav")]) == 3
        assert len([name for name in runs[0] if name.endswith(".mcep")]) == 21
        assert all(run == runs[0] for run in runs[1:])

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
        monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "c"
        assert self._convert_all(env, feats, out) == 1
        captured = capsys.readouterr()
        assert "converted 7 utterance(s) of M04" in captured.out
        lines = captured.err.splitlines()
        assert lines[0] == "2 utterance(s) failed:"
        assert lines[1].startswith("  M04/W0/B3: ") and "disk full" in lines[1]
        assert lines[2] == (f"  M04/W1/B1: {env['ckpt']} cannot convert {narrow}: "
                            "input of 20 channels, but the model takes 40")
        assert len(lines) == 3
        assert len(list(out.glob("*.wav"))) == 7
        assert (out / "M04_W0_B3_to_M12.mcep").exists()
        assert not (out / "M04_W1_B1_to_M12.mcep").exists()

    def test_out_of_memory_word_fails_alone(self, env, tmp_path, capsys, monkeypatch):
        # on one worker: the one model call's pass of all nine words runs
        # out of memory, its words are then retried one per pass, and the
        # second word runs out again alone; Griffin-Lim on the first word
        model_convert, griffin_lim = vqvae.HVqVaeModel.convert, dsp.griffin_lim
        model_pass = vqvae.HVqVaeModel._convert_pass
        calls, passes, gl_calls = [], [], []

        def convert(model, words, target):
            calls.append(len(words))
            return model_convert(model, words, target)

        def convert_pass(model, words, starts, speaker):
            passes.append(len(words))
            if len(passes) in (1, 3):
                raise MemoryError()
            return model_pass(model, words, starts, speaker)

        def synthesize(*args, **kwargs):
            gl_calls.append(1)
            if len(gl_calls) == 1:
                raise MemoryError()
            return griffin_lim(*args, **kwargs)

        monkeypatch.setattr(vqvae.HVqVaeModel, "convert", convert)
        monkeypatch.setattr(vqvae.HVqVaeModel, "_convert_pass", convert_pass)
        monkeypatch.setattr(dsp, "griffin_lim", synthesize)
        monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0})
        out = tmp_path / "c"
        assert self._convert_all(env, env["feats"], out) == 1
        assert (calls, passes) == ([9], [9] + [1] * 9)
        captured = capsys.readouterr()
        assert "converted 7 utterance(s) of M04" in captured.out
        assert captured.err.splitlines() == [
            "2 utterance(s) failed:",
            f"  M04/W0/B1: {out / 'M04_W0_B1_to_M12.wav'}: out of memory",
            f"  M04/W0/B2: {env['feats'] / 'features' / 'M04_W0_B2.mcep'}: out of memory"]
        assert len(list(out.glob("*.mcep"))) == 8
        assert not (out / "M04_W0_B2_to_M12.mcep").exists()
        wavs = sorted(p.name for p in out.glob("*.wav"))
        assert len(wavs) == 7 and "M04_W0_B1_to_M12.wav" not in wavs
        # the retried words ran one per pass, as every word does in passes
        # too short for two
        whole = tmp_path / "whole"
        monkeypatch.undo()
        monkeypatch.setattr(vqvae.model, "PASS_FRAMES", 0)
        assert self._convert_all(env, env["feats"], whole) == 0
        for path in out.iterdir():
            assert path.read_bytes() == (whole / path.name).read_bytes()

    def test_overflowing_word_fails_alone(self, env, tmp_path, capsys, monkeypatch):
        # one word's frames overflow the encoder in a pass of nine; the
        # others keep every byte of a run in which nothing fails
        read = cli._read_features
        hot = env["feats"] / "features" / "M04_W1_B2.mcep"

        def overflowing(path, cfg):
            frames = read(path, cfg)
            return np.full_like(frames, 3e38) if path == hot else frames

        whole = tmp_path / "whole"
        assert self._convert_all(env, env["feats"], whole) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_read_features", overflowing)
        out = tmp_path / "c"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._convert_all(env, env["feats"], out) == 1
        captured = capsys.readouterr()
        assert "converted 8 utterance(s) of M04" in captured.out
        assert captured.err.splitlines() == [
            "1 utterance(s) failed:",
            f"  M04/W1/B2: {env['ckpt']} cannot convert {hot}: the encoder's "
            "latents hold NaN or Inf"]
        assert sorted(p.name for p in whole.iterdir()) == sorted(
            [p.name for p in out.iterdir()] + ["M04_W1_B2_to_M12.mcep",
                                               "M04_W1_B2_to_M12.wav"])
        for path in out.iterdir():
            assert path.read_bytes() == (whole / path.name).read_bytes()

    def test_internal_error_in_synthesis_cancels_queued_words(
            self, env, tmp_path, capsys, monkeypatch):
        calls = []

        def synthesize(frames, cfg, path):
            calls.append(path.name)
            if len(calls) == 1:
                raise RuntimeError("synthesis bug")
            time.sleep(0.2)  # leaves the queue to the calling thread

        monkeypatch.setattr(cli, "_synthesize", synthesize)
        monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0})
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
        # the flag follows the rules of [convert] gl_iterations in a file
        out = tmp_path / "c"
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "convert", str(env["ckpt"]), "--features",
                     str(env["feats"]), "--source", "M04", "--target", "M12",
                     "--gl-iterations", n]) == 1
        err = capsys.readouterr().err
        assert f"error: --gl-iterations: gl_iterations must be >= 1, got {n}" in err
        assert not out.exists()

    def test_bad_gl_iterations_in_file_names_the_file(self, env, tmp_path, capsys):
        ini = tmp_path / "gl.ini"
        ini.write_text(RUN_INI + "[convert]\ngl_iterations = 0\n")
        out = tmp_path / "c"
        assert main(["--config", str(ini), "--out", str(out), "convert",
                     str(env["ckpt"]), "--features", str(env["feats"]),
                     "--source", "M04", "--target", "M12"]) == 1
        err = capsys.readouterr().err
        assert f"error: {ini}: gl_iterations must be >= 1, got 0" in err
        assert "internal error" not in err and not out.exists()

    def test_truncated_index_is_user_error(self, env, tmp_path, capsys):
        text = (env["feats"] / "index.json").read_text()
        feats = store_copy(env, tmp_path, text[:len(text) // 2])
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "c"),
                     "convert", str(env["ckpt"]), "--features", str(feats),
                     "--source", "M04", "--target", "M12", "--no-wav"]) == 1
        err = capsys.readouterr().err
        assert f"error: {feats / 'index.json'} line " in err
        assert "internal error" not in err

    def test_index_entry_without_speaker_is_user_error(self, env, tmp_path, capsys):
        index = json.loads((env["feats"] / "index.json").read_text())
        del index["M04/W1/B2"]["speaker_id"]
        feats = store_copy(env, tmp_path, json.dumps(index))
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "c"),
                     "convert", str(env["ckpt"]), "--features", str(feats),
                     "--source", "M04", "--target", "M12", "--no-wav"]) == 1
        err = capsys.readouterr().err
        assert (f"{feats / 'index.json'}: entry 'M04/W1/B2' lacks 'speaker_id'"
                in err)

    def test_training_word_labelled_held_out_refused(self, env, tmp_path, capsys):
        # a B1 word whose entry claims B2 would be converted as held out
        index = json.loads((env["feats"] / "index.json").read_text())
        index["M04/W0/B1"]["block"] = "B2"
        feats = store_copy(env, tmp_path, json.dumps(index))
        out = tmp_path / "c"
        assert main(["--config", str(env["ini"]), "--out", str(out),
                     "convert", str(env["ckpt"]), "--features", str(feats),
                     "--source", "M04", "--target", "M12", "--no-wav"]) == 1
        err = capsys.readouterr().err
        assert (f"error: {feats / 'index.json'}: entry 'M04/W0/B1' has block "
                "'B2', but its key gives 'B1'") in err
        assert not list(out.glob("*.mcep"))
        assert main(["--config", str(env["ini"]), "--out", str(tmp_path / "m"),
                     "train", str(env["manifest"]), "--features", str(feats)]) == 1
        assert "entry 'M04/W0/B1' has block 'B2'" in capsys.readouterr().err

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

    def test_speaker_id_holding_a_comma_stays_one_cell(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "speaker_id,sex,intelligibility_score,band,word_id,block,audio_path\n"
            '"M,04",M,2,very_low,,,\n'
            "M12,M,7.4,very_low,,,\n")
        out = tmp_path / "pairs"
        assert main(["--out", str(out), "pair", str(manifest)]) == 0
        printed = capsys.readouterr().out
        assert printed == (out / "pairs.csv").read_text()
        assert list(csv.reader(printed.splitlines())) == [
            ["speaker_a", "speaker_b", "delta"], ["M,04", "M12", "5.4"]]

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

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_max_delta_is_user_error(self, env, capsys, value):
        # the flag follows the rules of [pairing] max_delta in a file
        rule = ("max_delta must be non-negative, got -1.0" if value == "-1"
                else f"expected a finite number, got {value!r}")
        assert main(["pair", str(env["manifest"]), "--max-delta", value]) == 1
        err = capsys.readouterr().err
        assert f"error: --max-delta: {rule}" in err and "internal error" not in err

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


# every float key of the sections that the DSP, model, training and
# pairing code read; the integer keys are left out, since a huge width or
# crop asks numpy for tens of GiB before any check could refuse it
FLOAT_KEYS = [(section, key) for section in ("dsp", "model", "training", "pairing")
              for key, default in SECTIONS[section][1].items()
              if type(default) is float]


class TestFloatKeys:
    @pytest.fixture(scope="class")
    def one_clip(self, env):
        manifest = env["root"] / "one_clip.csv"
        manifest.write_text(
            "speaker_id,sex,intelligibility_score,band,word_id,block,audio_path\n"
            "M04,M,2,very_low,,,\n"
            f"M04,,,,W0,B1,{env['root'] / 'wavs' / 'M04_W0_B1.wav'}\n")
        return manifest

    @staticmethod
    def _ini(path, section, key, value):
        """RUN_INI, one training step, and ``key = value`` in ``section``."""
        ini = configparser.ConfigParser(interpolation=None)
        ini.read_string(RUN_INI)
        ini["training"]["steps"] = "1"
        if not ini.has_section(section):
            ini.add_section(section)
        ini[section][key] = value
        with open(path, "w") as f:
            ini.write(f)
        return path

    @pytest.mark.parametrize("value", ["inf", "-inf", "1e308", "-1e308", "0", "-1"])
    @pytest.mark.parametrize("section,key", FLOAT_KEYS)
    def test_value_ends_in_exit_0_or_1(self, env, one_clip, tmp_path, capsys,
                                       section, key, value):
        ini = self._ini(tmp_path / "run.ini", section, key, value)
        out = tmp_path / "out"
        command = {
            "dsp": ["preprocess", str(one_clip)],
            "model": ["train", str(env["manifest"]), "--features", str(env["feats"])],
            "training": ["train", str(env["manifest"]), "--features", str(env["feats"])],
            "pairing": ["pair", str(env["manifest"])],
        }[section]
        code = main(["--config", str(ini), "--out", str(out), *command])
        err = capsys.readouterr().err
        assert code in (0, 1), err
        assert "internal error" not in err

    @pytest.mark.parametrize("section,key,value,rule", [
        ("dsp", "trim_frame_ms", "inf", "expected a finite number"),
        ("dsp", "trim_frame_ms", "0", "trim_frame_ms must be positive"),
        ("dsp", "noise_gate_db", "1e308", "noise_gate_db must be at most 200"),
        ("dsp", "noise_attenuation_db", "10",
         "noise_attenuation_db must be at most 0"),
        ("model", "beta", "-1", "beta must be non-negative"),
        ("training", "learning_rate", "0", "learning_rate must be positive"),
        ("training", "learning_rate", "-1", "learning_rate must be positive"),
        ("pairing", "max_delta", "inf", "expected a finite number"),
    ])
    def test_refused_value_names_file_and_key(self, env, tmp_path, capsys,
                                              section, key, value, rule):
        ini = self._ini(tmp_path / "run.ini", section, key, value)
        assert main(["--config", str(ini), "pair", str(env["manifest"])]) == 1
        err = capsys.readouterr().err
        assert str(ini) in err and rule in err

    def test_huge_trim_frame_keeps_the_whole_clip(self, env, one_clip, tmp_path):
        # the frame is clamped to the clip, so the whole clip is one frame
        ini = self._ini(tmp_path / "run.ini", "dsp", "trim_frame_ms", "1e308")
        out = tmp_path / "out"
        assert main(["--config", str(ini), "--out", str(out),
                     "preprocess", str(one_clip)]) == 0
        entry = json.loads((out / "index.json").read_text())["M04/W0/B1"]
        ref = json.loads((env["feats"] / "index.json").read_text())["M04/W0/B1"]
        assert entry["frames"] >= ref["frames"]


def write_ratings(path: Path, rows):
    path.write_text("listener_id,kind,group_key,value\n"
                    + "\n".join(",".join(r) for r in rows) + "\n")


def golden_ratings(path: Path):
    """Ratings holding all seven MOS conditions, a gt/vc pair whose
    differences are all zero, every AB comparison kind, and a pair id
    holding a comma."""
    mos = {"healthy_natural": (5,),
           "gt_high": (4, 3, 4, 5, 3), "vc_high": (4, 3, 4, 5, 3),
           "gt_mid": (4, 4, 3, 5, 4), "vc_mid": (2, 3, 3, 4, 1),
           "gt_low": (3, 2, 4, 3, 2), "vc_low": (1, 2, 2, 4, 1)}
    every_kind = ("S_vs_S", "T_vs_T", "S_vs_T", "VC_vs_S", "VC_vs_T")
    ab = (("M,04-M12", "a_to_b", every_kind), ("M,04-M12", "b_to_a", every_kind),
          ("F02-F03", "a_to_b", ("S_vs_T", "VC_vs_T")))
    judgments = ("same_sure", "same_not_sure", "different_not_sure",
                 "different_sure")
    rows = [(f"L{i}", "mos", cond, str(score))
            for cond, scores in mos.items() for i, score in enumerate(scores)]
    groups = [f"{pair}:{direction}:{kind}"
              for pair, direction, kinds in ab for kind in kinds]
    rows += [(f"L{i}", "ab", group, judgments[(i * g + g // 2) % 4])
             for g, group in enumerate(groups, start=1) for i in range(6)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [("listener_id", "kind", "group_key", "value")] + rows)


# stdout and the written file of each mode on golden_ratings; the wilcoxon
# stdout was recorded when the no_test note still ended its row
GOLDEN_STATS = {
    "mos": (
        "condition,n,mean,ci_low,ci_high\n"
        "healthy_natural,1,5.0000,,\n"
        "gt_high,5,3.8000,2.7611,4.8389\n"
        "gt_mid,5,4.0000,3.1220,4.8780\n"
        "gt_low,5,2.8000,1.7611,3.8389\n"
        "vc_high,5,3.8000,2.7611,4.8389\n"
        "vc_mid,5,2.6000,1.1843,4.0157\n"
        "vc_low,5,2.0000,0.4793,3.5207\n",
        "mos_summary.csv",
        "condition,n,mean,ci_low,ci_high\r\n"
        "healthy_natural,1,5.0,,\r\n"
        "gt_high,5,3.8,2.761149366316432,4.838850633683568\r\n"
        "gt_mid,5,4.0,3.1220109669149174,4.877989033085083\r\n"
        "gt_low,5,2.8,1.7611493663164322,3.8388506336835677\r\n"
        "vc_high,5,3.8,2.761149366316432,4.838850633683568\r\n"
        "vc_mid,5,2.6,1.184285223017728,4.015714776982272\r\n"
        "vc_low,5,2.0,0.4792783862083647,3.5207216137916353\r\n"),
    "wilcoxon": (
        "condition_a,condition_b,n,statistic,p_value,method\n"
        "gt_high,vc_high,0,,,no_test (all differences zero)\n"
        "gt_mid,vc_mid,4,0.0,0.125,exact\n"
        "gt_low,vc_low,4,1.5,0.375,exact\n",
        "wilcoxon.csv",
        "condition_a,condition_b,n,statistic,p_value,method\r\n"
        "gt_high,vc_high,0,,,no_test\r\n"
        "gt_mid,vc_mid,4,0.0,0.125,exact\r\n"
        "gt_low,vc_low,4,1.5,0.375,exact\r\n"),
    "ab": (
        "pair,direction,comparison,expectation,n,percent,percent_sure\n"
        "F02-F03,a_to_b,S_vs_T,different,6,33.33%,16.66%\n"
        "F02-F03,a_to_b,VC_vs_T,same,6,0.00%,0.00%\n"
        '"M,04-M12",a_to_b,S_vs_S,same,6,66.66%,33.33%\n'
        '"M,04-M12",a_to_b,S_vs_T,different,6,33.33%,16.66%\n'
        '"M,04-M12",a_to_b,T_vs_T,same,6,50.00%,0.00%\n'
        '"M,04-M12",a_to_b,VC_vs_S,different,6,100.00%,0.00%\n'
        '"M,04-M12",a_to_b,VC_vs_T,same,6,33.33%,16.66%\n'
        '"M,04-M12",b_to_a,S_vs_S,same,6,50.00%,0.00%\n'
        '"M,04-M12",b_to_a,S_vs_T,different,6,0.00%,0.00%\n'
        '"M,04-M12",b_to_a,T_vs_T,same,6,33.33%,16.66%\n'
        '"M,04-M12",b_to_a,VC_vs_S,different,6,33.33%,16.66%\n'
        '"M,04-M12",b_to_a,VC_vs_T,same,6,50.00%,0.00%\n',
        "similarity_grid.csv",
        "pair,direction,reference,vc_comparison,vc_n,vc_percent,"
        "vc_percent_sure,gt_comparison,gt_n,gt_percent,gt_percent_sure\r\n"
        "F02-F03,a_to_b,source,VC_vs_S,,,,S_vs_S,,,\r\n"
        "F02-F03,a_to_b,target,VC_vs_T,6,0.0,0.0,T_vs_T,,,\r\n"
        '"M,04-M12",a_to_b,source,VC_vs_S,6,100.0,0.0,S_vs_S,6,66.66,33.33\r\n'
        '"M,04-M12",a_to_b,target,VC_vs_T,6,33.33,16.66,T_vs_T,6,50.0,0.0\r\n'
        '"M,04-M12",b_to_a,source,VC_vs_S,6,33.33,16.66,S_vs_S,6,50.0,0.0\r\n'
        '"M,04-M12",b_to_a,target,VC_vs_T,6,50.0,0.0,T_vs_T,6,33.33,16.66\r\n'),
}
NO_TEST_NOTE = " (all differences zero)"


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

    def test_ab_pair_holding_a_comma_stays_one_cell(self, tmp_path, capsys):
        ratings = tmp_path / "r.csv"
        ratings.write_text("listener_id,kind,group_key,value\n"
                           'L00,ab,"P,1:a_to_b:VC_vs_T",same_sure\n')
        assert main(["stats", str(ratings), "--mode", "ab"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows == [
            ["pair", "direction", "comparison", "expectation", "n", "percent",
             "percent_sure"],
            ["P,1", "a_to_b", "VC_vs_T", "same", "1", "100.00%", "100.00%"]]

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

    def test_ratings_file_required(self, capsys):
        assert main(["stats", "--mode", "mos"]) == 1
        err = capsys.readouterr().err
        assert "the following arguments are required: ratings" in err
        assert "[paths]" not in err

    def test_malformed_ratings_rejected(self, tmp_path, capsys):
        ratings = tmp_path / "r.csv"
        ratings.write_text("listener_id,kind,group_key,value\nL0,mos,gt_high,9\n")
        assert main(["stats", str(ratings), "--mode", "mos"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["mos", "wilcoxon"])
    def test_empty_listener_is_user_error(self, tmp_path, capsys, mode):
        ratings = tmp_path / "r.csv"
        ratings.write_text("listener_id,kind,group_key,value\n"
                           ",mos,gt_high,3\n,mos,vc_high,4\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "stats", str(ratings),
                     "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {ratings} line 2: listener_id is empty\n"
        assert captured.out == "" and not out.exists()

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

    @pytest.mark.parametrize("mode", GOLDEN_STATS)
    def test_outputs_keep_their_bytes(self, tmp_path, capsys, mode):
        ratings = tmp_path / "r.csv"
        golden_ratings(ratings)
        out = tmp_path / "out"
        assert main(["--out", str(out), "stats", str(ratings),
                     "--mode", mode]) == 0
        stdout, name, written = GOLDEN_STATS[mode]
        # the note moved to stderr; every other byte stays
        assert capsys.readouterr().out == stdout.replace(NO_TEST_NOTE, "")
        assert [p.name for p in out.iterdir()] == [name]
        assert (out / name).read_bytes() == written.encode()

    def test_wilcoxon_prints_the_rows_it_writes(self, tmp_path):
        # the console script, so that the note takes the default log handler
        ratings = tmp_path / "r.csv"
        golden_ratings(ratings)
        out = tmp_path / "out"
        run = subprocess.run(
            [sys.executable, "-m", "pathovc.cli", "--out", str(out), "stats",
             str(ratings), "--mode", "wilcoxon"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ,
                     PYTHONPATH=str(Path(cli.__file__).resolve().parents[1])))
        assert run.returncode == 0
        with open(out / "wilcoxon.csv", newline="", encoding="utf-8") as fh:
            written = list(csv.reader(fh))
        assert list(csv.reader(run.stdout.splitlines())) == written
        assert run.stderr == ("WARNING gt_high:vc_high has all differences "
                              "zero; no_test\n")

    @pytest.mark.parametrize("conditions,message", [
        (["gt_low:vc_low", "gt_mid:vc_mid"],
         "no mos ratings for condition 'gt_mid' or 'vc_mid'"),
        (["gt_high"], "--conditions entries look like a:b, got 'gt_high'"),
        (["gt_low:vc_low", "gt_low:vc_low"],
         "--conditions gt_low:vc_low given twice"),
        (["gt_low:vc_low", "vc_low:gt_low"],
         "--conditions vc_low:gt_low repeats gt_low:vc_low, the same two-sided test"),
    ], ids=["unrated-second-pair", "no-colon", "repeated-pair", "reversed-pair"])
    def test_failing_wilcoxon_prints_no_table(self, tmp_path, capsys,
                                              conditions, message):
        rows = [(f"L{i:02d}", "mos", cond, str(2 + (i + j) % 3))
                for i in range(5)
                for j, cond in enumerate(("gt_high", "vc_high",
                                          "gt_low", "vc_low"))]
        ratings = tmp_path / "r.csv"
        write_ratings(ratings, rows)
        out = tmp_path / "out"
        argv = ["--out", str(out), "stats", str(ratings), "--mode", "wilcoxon"]
        for pair in conditions:
            argv += ["--conditions", pair]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ")
        assert captured.err.endswith(f"{message}\n")

    @pytest.mark.parametrize("mode,row", [
        ("mos", ("L1", "ab", "M01-M02:a_to_b:VC_vs_T", "same_sure")),
        ("ab", ("L1", "mos", "gt_high", "4")),
    ], ids=["mos", "ab"])
    def test_mode_without_its_rows_is_user_error(self, tmp_path, capsys, mode, row):
        ratings = tmp_path / "r.csv"
        write_ratings(ratings, [row])
        out = tmp_path / "out"
        assert main(["--out", str(out), "stats", str(ratings), "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {ratings}: no {mode} rows in the ratings file\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("mode", ["mos", "ab"])
    def test_conditions_outside_wilcoxon_refused(self, tmp_path, capsys, mode):
        ratings = tmp_path / "r.csv"
        golden_ratings(ratings)
        out = tmp_path / "out"
        assert main(["--out", str(out), "stats", str(ratings), "--mode", mode,
                     "--conditions", "gt_high:nope"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: --conditions applies to --mode "
                                f"wilcoxon only, not {mode}\n")
        assert captured.out == "" and not out.exists()

    def test_no_default_wilcoxon_pair_is_user_error(self, tmp_path, capsys):
        rows = [(f"L{i:02d}", "mos", cond, "3")
                for i in range(3) for cond in ("gt_high", "vc_low")]
        ratings = tmp_path / "r.csv"
        write_ratings(ratings, rows)
        assert main(["stats", str(ratings), "--mode", "wilcoxon"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {ratings}: no gt/vc condition pairs found in the ratings; "
            "name them with --conditions a:b\n")
        assert captured.out == ""
