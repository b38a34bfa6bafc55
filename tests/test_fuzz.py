"""Seeded byte-mutation fuzzing of every file the command line reads.

Each case corrupts one valid input with a few byte edits and runs it
through ``cli.main``: a ratings file under each ``stats`` mode, a
manifest under ``pair``, the INI under ``--dump-config``, a
``--train-list`` file under ``train``, a wav under ``preprocess``, a
feature file under ``train`` and ``convert --no-wav``, the feature
store's ``index.json`` under ``convert`` and a checkpoint under
``convert --no-wav``.  A case must end in exit 0, or in exit 1 with a
message that names the file; exit 2 is an internal error with a
traceback.  No case may write a feature file holding NaN or Inf.
"""

import shutil
from collections import Counter

import numpy as np
import pytest

from pathovc.cli import main

from test_cli import build_corpus

FILE = object()  # stands for the mutated file in a command

# bytes that carry meaning in a CSV file
STRUCTURAL = b',\n\r" :'


def mutate(data: bytes, rng) -> bytes:
    """``data`` after one to three random byte edits."""
    b = bytearray(data)
    for _ in range(rng.integers(1, 4)):
        i = int(rng.integers(len(b) + 1))
        j = min(len(b), i + int(rng.integers(1, 40)))
        op = rng.integers(6)
        if op == 0 and i < len(b):
            b[i] = int(rng.integers(256))
        elif op == 1 and i < len(b):
            b[i] ^= 1 << int(rng.integers(8))
        elif op == 2:
            b.insert(i, STRUCTURAL[rng.integers(len(STRUCTURAL))])
        elif op == 3:
            del b[i:j]
        elif op == 4:
            b[i:i] = b[i:j]
        elif op == 5:
            del b[i:]
    return bytes(b)


def ratings_file(rng) -> bytes:
    lines = ["listener_id,kind,group_key,value"]
    for listener in range(4):
        for condition in ("healthy_natural", "gt_high", "vc_high",
                          "gt_low", "vc_low"):
            lines.append(f"L{listener},mos,{condition},{rng.integers(1, 6)}")
    for direction in ("a_to_b", "b_to_a"):
        for comparison in ("S_vs_S", "T_vs_T", "S_vs_T", "VC_vs_S", "VC_vs_T"):
            for listener in range(2):
                judgment = ("same_sure", "same_not_sure", "different_not_sure",
                            "different_sure")[rng.integers(4)]
                lines.append(f"L{listener},ab,M04-M12:{direction}:{comparison},"
                             f"{judgment}")
    return ("\n".join(lines) + "\n").encode()


def manifest_file(rng) -> bytes:
    lines = ["speaker_id,sex,intelligibility_score,band,word_id,block,audio_path"]
    speakers = [("M04", "M", "2", "very_low"), ("M12", "M", "7.4", "very_low"),
                ("F02", "F", "29", "low"), ("M05", "M", "58", "mid"),
                ("M11", "M", "62", "mid"), ("M09", "M", "86", "high")]
    for sid, sex, score, band in speakers:
        lines.append(f"{sid},{sex},{score},{band},,,")
    for sid, *_ in speakers[:3]:
        for block in ("B1", "B2", "B3"):
            word = f"W{rng.integers(10)}"
            lines.append(f"{sid},,,,{word},{block},wavs/{sid}_{word}_{block}.wav")
    return ("\n".join(lines) + "\n").encode()


def run_mutants(tmp_path, capsys, data, path, commands, cases, seed) -> Counter:
    """Exit codes of each command over ``cases`` mutants of ``data``
    written to ``path``; FILE in a command stands for ``path``."""
    rng = np.random.default_rng(seed)
    out = tmp_path / "out"
    codes = Counter()
    for case in range(cases):
        path.write_bytes(mutate(data, rng))
        for command in commands:
            shutil.rmtree(out, ignore_errors=True)
            rc = main(["--out", str(out)]
                      + [str(path) if arg is FILE else arg for arg in command])
            err = capsys.readouterr().err
            assert rc in (0, 1), f"case {case} {command}: exit {rc}\n{err}"
            if rc == 1:
                assert str(path) in err, f"case {case} {command}: {err}"
            for written in out.rglob("*.mcep"):
                payload = np.frombuffer(written.read_bytes()[13:], dtype="<f4")
                assert np.all(np.isfinite(payload)), f"case {case}: {written}"
            codes[rc] += 1
    return codes


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_ratings_end_in_exit_0_or_1(tmp_path, capsys, seed):
    data = ratings_file(np.random.default_rng(seed))
    commands = [["stats", "--mode", mode] for mode in ("mos", "wilcoxon", "ab")]
    codes = run_mutants(tmp_path, capsys, data, tmp_path / "ratings.csv",
                        [c + [FILE] for c in commands], cases=160, seed=seed)
    assert codes[0] and codes[1]


@pytest.mark.parametrize("kind", ["mos", "ab"])
def test_repeated_rating_ends_in_exit_1_in_every_mode(tmp_path, capsys, kind):
    lines = ratings_file(np.random.default_rng(1)).decode().splitlines()
    row = next(i for i, line in enumerate(lines) if f",{kind}," in line)
    path = tmp_path / "ratings.csv"
    path.write_text("\n".join(lines + [lines[row]]) + "\n")
    for mode in ("mos", "wilcoxon", "ab"):
        assert main(["stats", "--mode", mode, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path} line {len(lines) + 1}: ")
        assert captured.err.rstrip().endswith(f"(first on line {row + 1})")


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_manifests_end_in_exit_0_or_1(tmp_path, capsys, seed):
    data = manifest_file(np.random.default_rng(seed))
    codes = run_mutants(tmp_path, capsys, data, tmp_path / "manifest.csv",
                        [["pair", FILE]], cases=200, seed=seed)
    assert codes[0] and codes[1]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A corpus, its feature store and a checkpoint trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    manifest, ini = build_corpus(root)
    feats, model = root / "feats", root / "model"
    assert main(["--config", str(ini), "--out", str(feats),
                 "preprocess", str(manifest)]) == 0
    assert main(["--config", str(ini), "--out", str(model),
                 "train", str(manifest), "--features", str(feats)]) == 0
    return {"root": root, "manifest": str(manifest), "ini": ini, "feats": feats,
            "ckpt": model / "model.hvqv"}


def store_copy(pipeline, tmp_path):
    feats = tmp_path / "feats"
    shutil.copytree(pipeline["feats"], feats)
    return feats


def train_argv(pipeline, feats):
    return ["--config", str(pipeline["ini"]), "train", pipeline["manifest"],
            "--features", str(feats)]


def convert_argv(pipeline, ckpt, feats):
    return ["--config", str(pipeline["ini"]), "convert", ckpt,
            "--features", str(feats), "--source", "M04", "--target", "M12",
            "--no-wav"]


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_configs_end_in_exit_0_or_1(tmp_path, capsys, pipeline, seed):
    codes = run_mutants(tmp_path, capsys, pipeline["ini"].read_bytes(),
                        tmp_path / "run.ini", [["--config", FILE, "--dump-config"]],
                        cases=150, seed=seed)
    assert codes[0] and codes[1]


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_train_lists_end_in_exit_0_or_1(tmp_path, capsys, pipeline, seed):
    keys = "".join(f"{s}/W{w}/{b}\n" for s in ("M04", "M12") for w in range(3)
                   for b in ("B1", "B3"))
    command = train_argv(pipeline, pipeline["feats"]) + ["--train-list", FILE]
    codes = run_mutants(tmp_path, capsys, keys.encode(), tmp_path / "list.txt",
                        [command], cases=100, seed=seed)
    assert codes[0] and codes[1]


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_wavs_end_in_exit_0_or_1(tmp_path, capsys, pipeline, seed):
    wav = tmp_path / "clip.wav"
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("speaker_id,sex,intelligibility_score,band,word_id,block,"
                        f"audio_path\nM04,M,2,very_low,,,\nM04,,,,W0,B1,{wav}\n")
    data = (pipeline["root"] / "wavs" / "M04_W0_B1.wav").read_bytes()
    command = ["--config", str(pipeline["ini"]), "preprocess", str(manifest)]
    codes = run_mutants(tmp_path, capsys, data, wav, [command], cases=100, seed=seed)
    assert codes[0] and codes[1]


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_features_end_in_exit_0_or_1(tmp_path, capsys, pipeline, seed):
    # train reads the B1 file and convert the B2 one
    feats = store_copy(pipeline, tmp_path)
    for name, command in (("M04_W0_B1.mcep", train_argv(pipeline, feats)),
                          ("M04_W1_B2.mcep",
                           convert_argv(pipeline, str(pipeline["ckpt"]), feats))):
        path = feats / "features" / name
        data = path.read_bytes()
        codes = run_mutants(tmp_path, capsys, data, path, [command], cases=80,
                            seed=seed)
        path.write_bytes(data)
        assert codes[0] and codes[1]


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_indexes_end_in_exit_0_or_1(tmp_path, capsys, pipeline, seed):
    feats = store_copy(pipeline, tmp_path)
    path = feats / "index.json"
    codes = run_mutants(tmp_path, capsys, path.read_bytes(), path,
                        [convert_argv(pipeline, str(pipeline["ckpt"]), feats)],
                        cases=100, seed=seed)
    assert codes[0] and codes[1]


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_checkpoints_end_in_exit_0_or_1(tmp_path, capsys, pipeline, seed):
    codes = run_mutants(tmp_path, capsys, pipeline["ckpt"].read_bytes(),
                        tmp_path / "model.hvqv",
                        [convert_argv(pipeline, FILE, pipeline["feats"])],
                        cases=150, seed=seed)
    assert codes[0] and codes[1]
