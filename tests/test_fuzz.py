"""Seeded byte-mutation fuzzing of the CSV files the command line reads.

Each case corrupts a valid ratings file or manifest with a few byte
edits and runs it through ``cli.main``: a ratings file under each
``stats`` mode, a manifest under ``pair``.  A case must end in exit 0,
or in exit 1 with a message that names the file; exit 2 is an internal
error with a traceback.
"""

from collections import Counter

import numpy as np
import pytest

from pathovc.cli import main

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


def run_mutants(tmp_path, capsys, data, name, commands, cases, seed) -> Counter:
    rng = np.random.default_rng(seed)
    path = tmp_path / name
    codes = Counter()
    for case in range(cases):
        path.write_bytes(mutate(data, rng))
        for command in commands:
            rc = main(["--out", str(tmp_path / "out")] + command + [str(path)])
            err = capsys.readouterr().err
            assert rc in (0, 1), f"case {case} {command}: exit {rc}\n{err}"
            if rc == 1:
                assert str(path) in err, f"case {case} {command}: {err}"
            codes[rc] += 1
    return codes


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_ratings_end_in_exit_0_or_1(tmp_path, capsys, seed):
    data = ratings_file(np.random.default_rng(seed))
    commands = [["stats", "--mode", mode] for mode in ("mos", "wilcoxon", "ab")]
    codes = run_mutants(tmp_path, capsys, data, "ratings.csv", commands,
                        cases=160, seed=seed)
    assert codes[0] and codes[1]


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_manifests_end_in_exit_0_or_1(tmp_path, capsys, seed):
    data = manifest_file(np.random.default_rng(seed))
    codes = run_mutants(tmp_path, capsys, data, "manifest.csv", [["pair"]],
                        cases=200, seed=seed)
    assert codes[0] and codes[1]
