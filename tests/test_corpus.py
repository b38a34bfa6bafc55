import codecs
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from pathovc import corpus, dsp, workers

from oracles import greedy_pairing_ref

HEADER = "speaker_id,sex,intelligibility_score,band,word_id,block,audio_path"

TABLE_SPEAKERS = [
    ("M04", "M", "2", "very_low"),
    ("M12", "M", "7.4", "very_low"),
    ("M05", "M", "58", "mid"),
    ("M11", "M", "62", "mid"),
    ("M08", "M", "93", "high"),
    ("M10", "M", "93", "high"),
]


def write_manifest(path, speaker_rows, utterance_rows):
    lines = [HEADER]
    for sid, sex, score, band in speaker_rows:
        lines.append(f"{sid},{sex},{score},{band},,,")
    for sid, word, block, audio in utterance_rows:
        lines.append(f"{sid},,,,{word},{block},{audio}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def dummy_wav(tmp_path):
    sr = 16000
    t = np.arange(sr // 2) / sr
    w = dsp.Waveform(0.6 * np.sin(2 * np.pi * 220.0 * t), sr)
    path = tmp_path / "clip.wav"
    dsp.write_wav(path, w)
    return path


class TestReadUtf8:
    def test_leading_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"speaker_id\n\xef\xbb\xbfM04\n")
        # only the first mark goes; one later in the text is kept
        assert corpus.read_utf8(path, ValueError) == "speaker_id\n\ufeffM04\n"

    @pytest.mark.parametrize("raw,line,at", [
        (codecs.BOM_UTF8 + b"\xffid\n", 1, 3),
        (codecs.BOM_UTF8 + b"ab\nc\xff\n", 2, 7),
        (b"ab\nc\xff\n", 2, 4),
    ], ids=["after-mark", "marked-line-2", "unmarked-line-2"])
    def test_bad_byte_counted_on_disk(self, tmp_path, raw, line, at):
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        with pytest.raises(ValueError) as exc:
            corpus.read_utf8(path, ValueError)
        assert str(exc.value) == (f"{path} line {line}: not UTF-8 text "
                                  f"(invalid start byte at byte {at})")


class TestBandForScore:
    def test_default_cut_points(self):
        assert corpus.band_for_score(0.0) == "very_low"
        assert corpus.band_for_score(24.99) == "very_low"
        assert corpus.band_for_score(25.0) == "low"
        assert corpus.band_for_score(49.9) == "low"
        assert corpus.band_for_score(50.0) == "mid"
        assert corpus.band_for_score(74.9) == "mid"
        assert corpus.band_for_score(75.0) == "high"
        assert corpus.band_for_score(100.0) == "high"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="100"):
            corpus.band_for_score(100.5)

    def test_custom_cuts(self):
        assert corpus.band_for_score(30.0, cuts=(40.0, 60.0, 80.0)) == "very_low"

    def test_bad_cuts_rejected(self):
        with pytest.raises(ValueError, match="cuts"):
            corpus.band_for_score(10.0, cuts=(50.0, 40.0, 80.0))

    @pytest.mark.parametrize("cuts", [(60.0, 40.0, 20.0), (25.0, 50.0),
                                      (0.0, 50.0, 75.0), (25.0, 50.0, 100.0)])
    def test_check_band_cuts_rejects(self, cuts):
        with pytest.raises(ValueError, match="three increasing values"):
            corpus.check_band_cuts(cuts)


class TestParseManifest:
    def test_six_speaker_fixture(self, tmp_path, dummy_wav):
        path = write_manifest(tmp_path / "m.csv", TABLE_SPEAKERS,
                              [("M04", "CW1", "B1", str(dummy_wav))])
        m = corpus.parse_manifest(path)
        assert m.speaker_ids == [s[0] for s in TABLE_SPEAKERS]
        scores = [s.intelligibility_score for s in m.speakers]
        assert scores == [2.0, 7.4, 58.0, 62.0, 93.0, 93.0]
        by_id = {s.speaker_id: s for s in m.speakers}
        assert by_id["M12"].intelligibility_band == "very_low"
        assert by_id["M08"].sex == "M"
        assert len(m.utterances) == 1
        assert m.utterances[0].key == "M04/CW1/B1"

    def test_empty_utterance_list_is_valid(self, tmp_path):
        path = write_manifest(tmp_path / "m.csv", TABLE_SPEAKERS, [])
        m = corpus.parse_manifest(path)
        assert m.utterances == []
        train, test = corpus.partition_blocks(m)
        assert train == [] and test == []

    def test_unknown_speaker_reference_names_line(self, tmp_path, dummy_wav):
        path = write_manifest(tmp_path / "m.csv", TABLE_SPEAKERS[:1],
                              [("M99", "CW1", "B1", str(dummy_wav))])
        with pytest.raises(corpus.ManifestError, match="line 3.*M99"):
            corpus.parse_manifest(path)

    def test_duplicate_speaker_rejected(self, tmp_path):
        path = write_manifest(tmp_path / "m.csv",
                              [TABLE_SPEAKERS[0], TABLE_SPEAKERS[0]], [])
        with pytest.raises(corpus.ManifestError, match="line 3.*duplicate"):
            corpus.parse_manifest(path)

    def test_duplicate_utterance_key_rejected(self, tmp_path, dummy_wav):
        utt = ("M04", "CW1", "B1", str(dummy_wav))
        path = write_manifest(tmp_path / "m.csv", TABLE_SPEAKERS[:1], [utt, utt])
        with pytest.raises(corpus.ManifestError, match="duplicate utterance"):
            corpus.parse_manifest(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(HEADER + "\nM04,M,2,very_low,,,\nonly,three,cols\n")
        with pytest.raises(corpus.ManifestError, match="line 3"):
            corpus.parse_manifest(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(corpus.ManifestError, match="header"):
            corpus.parse_manifest(path)

    def test_line_break_in_cell_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(HEADER + '\n"M0\r\n4",M,2,very_low,,,\nM05,M,999,mid,,,\n')
        with pytest.raises(corpus.ManifestError) as exc:
            corpus.parse_manifest(path)
        assert str(exc.value) == f"{path} line 3: a quoted cell holds a line break"

    def test_band_inconsistent_with_score(self, tmp_path):
        path = write_manifest(tmp_path / "m.csv", [("M04", "M", "2", "high")], [])
        with pytest.raises(corpus.ManifestError, match="band"):
            corpus.parse_manifest(path)

    def test_score_out_of_range(self, tmp_path):
        path = write_manifest(tmp_path / "m.csv", [("M04", "M", "105", "high")], [])
        with pytest.raises(corpus.ManifestError, match="105"):
            corpus.parse_manifest(path)

    @pytest.mark.parametrize("column,sid,word,line", [
        ("speaker_id", "M/04", "CW1", 2),
        ("speaker_id", "M\\04", "CW1", 2),
        ("word_id", "M04", "a/b", 3),
        ("word_id", "M04", "a\\b", 3),
    ])
    def test_path_separator_in_id_names_line(self, tmp_path, dummy_wav,
                                             column, sid, word, line):
        path = write_manifest(tmp_path / "m.csv", [(sid, "M", "2", "very_low")],
                              [(sid, word, "B1", str(dummy_wav))])
        with pytest.raises(corpus.ManifestError,
                           match=f"line {line}: {column} .* path separator"):
            corpus.parse_manifest(path)

    def test_bad_block_rejected(self, tmp_path, dummy_wav):
        path = write_manifest(tmp_path / "m.csv", TABLE_SPEAKERS[:1],
                              [("M04", "CW1", "B7", str(dummy_wav))])
        with pytest.raises(corpus.ManifestError, match="block"):
            corpus.parse_manifest(path)

    def test_missing_audio_left_to_feature_extraction(self, tmp_path):
        # build_feature_store reports the missing file as one errors.txt line
        audio = str(tmp_path / "no.wav")
        path = write_manifest(tmp_path / "m.csv", TABLE_SPEAKERS[:1],
                              [("M04", "CW1", "B1", audio)])
        m = corpus.parse_manifest(path)
        assert [u.audio_path for u in m.utterances] == [audio]

    def test_metadata_contradiction_on_utterance_row(self, tmp_path, dummy_wav):
        path = tmp_path / "m.csv"
        path.write_text(HEADER + "\nM04,M,2,very_low,,,\n"
                        f"M04,F,,,CW1,B1,{dummy_wav}\n")
        with pytest.raises(corpus.ManifestError, match="contradicts"):
            corpus.parse_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(corpus.ManifestError, match="not found"):
            corpus.parse_manifest(tmp_path / "ghost.csv")


def synthetic_full_manifest(tmp_path, dummy_wav, n_words=449):
    utts = [(sid, f"W{w:03d}", block, str(dummy_wav))
            for sid, _, _, _ in TABLE_SPEAKERS
            for w in range(n_words)
            for block in ("B1", "B2", "B3")]
    path = write_manifest(tmp_path / "full.csv", TABLE_SPEAKERS, utts)
    return corpus.parse_manifest(path)


class TestPartitionBlocks:
    def test_one_utterance_per_block(self, tmp_path, dummy_wav):
        utts = [("M04", "CW1", b, str(dummy_wav)) for b in ("B1", "B2", "B3")]
        m = corpus.parse_manifest(
            write_manifest(tmp_path / "m.csv", TABLE_SPEAKERS[:1], utts))
        train, test = corpus.partition_blocks(m)
        assert sorted(u.block for u in train) == ["B1", "B3"]
        assert [u.block for u in test] == ["B2"]

    def test_only_b2_warns_and_gives_empty_train(self, tmp_path, dummy_wav, caplog):
        m = corpus.parse_manifest(write_manifest(
            tmp_path / "m.csv", TABLE_SPEAKERS[:1],
            [("M04", "CW1", "B2", str(dummy_wav))]))
        with caplog.at_level(logging.WARNING, logger="pathovc.corpus"):
            train, test = corpus.partition_blocks(m)
        assert train == []
        assert len(test) == 1
        assert any("empty" in r.message for r in caplog.records)

    def test_full_synthetic_manifest_counts(self, tmp_path, dummy_wav):
        m = synthetic_full_manifest(tmp_path, dummy_wav)
        train, test = corpus.partition_blocks(m)
        # counting oracle: 6 speakers x 449 words x {2 train blocks, 1 test}
        assert len(m.utterances) == 6 * 449 * 3
        assert len(train) == 6 * 449 * 2
        assert len(test) == 6 * 449
        assert len(train) == 2 * len(test)

    def test_disjoint_and_exhaustive(self, tmp_path, dummy_wav):
        m = synthetic_full_manifest(tmp_path, dummy_wav, n_words=5)
        train, test = corpus.partition_blocks(m)
        train_keys = {u.key for u in train}
        test_keys = {u.key for u in test}
        assert not train_keys & test_keys
        assert train_keys | test_keys == {u.key for u in m.utterances}
        assert all(u.block != "B2" for u in train)


class TestPairSpeakers:
    def manifest(self, tmp_path, rows):
        return corpus.parse_manifest(write_manifest(tmp_path / "m.csv", rows, []))

    def test_reference_six_speakers(self, tmp_path):
        m = self.manifest(tmp_path, TABLE_SPEAKERS)
        pairs = corpus.pair_speakers(m, max_delta=10.0)
        assert [(p.a, p.b) for p in pairs] == [
            ("M08", "M10"), ("M05", "M11"), ("M04", "M12")]
        by_pair = {(p.a, p.b): p.delta for p in pairs}
        assert by_pair[("M04", "M12")] == 5.4
        assert by_pair[("M05", "M11")] == 4.0
        assert by_pair[("M08", "M10")] == 0.0

    def test_single_speaker_unmatched(self, tmp_path, caplog):
        m = self.manifest(tmp_path, TABLE_SPEAKERS[:1])
        with caplog.at_level(logging.INFO, logger="pathovc.corpus"):
            pairs = corpus.pair_speakers(m, max_delta=10.0)
        assert pairs == []
        # the caller reports unpaired speakers; pairing itself logs nothing
        assert not caplog.records

    def test_max_delta_excludes_distant_pairs(self, tmp_path):
        m = self.manifest(tmp_path, TABLE_SPEAKERS)
        pairs = corpus.pair_speakers(m, max_delta=4.5)
        assert [(p.a, p.b) for p in pairs] == [("M08", "M10"), ("M05", "M11")]

    def test_cross_band_never_paired(self, tmp_path):
        rows = [("M01", "M", "24", "very_low"), ("M02", "M", "26", "low")]
        m = self.manifest(tmp_path, rows)
        assert corpus.pair_speakers(m, max_delta=100.0) == []

    def test_female_excluded_by_default(self, tmp_path):
        rows = [("F02", "F", "10", "very_low"), ("F03", "F", "11", "very_low"),
                ("M04", "M", "2", "very_low"), ("M12", "M", "7.4", "very_low")]
        m = self.manifest(tmp_path, rows)
        pairs = corpus.pair_speakers(m, max_delta=10.0)
        assert [(p.a, p.b) for p in pairs] == [("M04", "M12")]
        pairs = corpus.pair_speakers(m, max_delta=10.0, include_female=True)
        assert [(p.a, p.b) for p in pairs] == [("F02", "F03"), ("M04", "M12")]

    def test_cross_sex_requires_flag(self, tmp_path):
        rows = [("F02", "F", "10", "very_low"), ("M04", "M", "11", "very_low")]
        m = self.manifest(tmp_path, rows)
        assert corpus.pair_speakers(m, 10.0, include_female=True) == []
        pairs = corpus.pair_speakers(m, 10.0, include_female=True,
                                     allow_cross_sex=True)
        assert [(p.a, p.b) for p in pairs] == [("F02", "M04")]

    def test_tie_resolves_by_speaker_id(self, tmp_path):
        rows = [("M01", "M", "10", "very_low"), ("M02", "M", "10", "very_low"),
                ("M03", "M", "10", "very_low"), ("M04", "M", "10", "very_low")]
        m = self.manifest(tmp_path, rows)
        pairs = corpus.pair_speakers(m, max_delta=1.0)
        assert [(p.a, p.b) for p in pairs] == [("M01", "M02"), ("M03", "M04")]

    def check_random_rosters(self, tmp_path, mixed_sex=False,
                             include_female=False, allow_cross_sex=False):
        rng = np.random.default_rng(42)
        for case in range(30):
            n = int(rng.integers(2, 9))
            rows = []
            for i in range(n):
                score = float(rng.integers(0, 1001)) / 10.0
                sex = "MF"[int(rng.integers(2))] if mixed_sex else "M"
                rows.append((f"{sex}{i:02d}", sex, repr(score),
                             corpus.band_for_score(score)))
            m = self.manifest(tmp_path, rows)
            max_delta = float(rng.integers(0, 300)) / 10.0
            got = corpus.pair_speakers(m, max_delta=max_delta,
                                       include_female=include_female,
                                       allow_cross_sex=allow_cross_sex)
            ref = greedy_pairing_ref(rows, max_delta, include_female,
                                     allow_cross_sex)
            assert [(p.a, p.b) for p in got] == [(a, b) for a, b, _ in ref]
            for p, (_, _, delta) in zip(got, ref):
                assert p.delta == float(delta)

    def test_matches_reference_matcher_on_random_rosters(self, tmp_path):
        self.check_random_rosters(tmp_path)

    @pytest.mark.parametrize("include_female,allow_cross_sex",
                             [(False, False), (True, False), (True, True)])
    def test_matches_reference_matcher_on_mixed_sex_rosters(
            self, tmp_path, include_female, allow_cross_sex):
        self.check_random_rosters(tmp_path, True, include_female, allow_cross_sex)

    def test_emitted_deltas_are_exact(self, tmp_path):
        rows = [("M01", "M", "7.4", "very_low"), ("M02", "M", "2", "very_low")]
        m = self.manifest(tmp_path, rows)
        (pair,) = corpus.pair_speakers(m, max_delta=10.0)
        assert pair.delta == 5.4

    def test_negative_max_delta_rejected(self, tmp_path):
        m = self.manifest(tmp_path, TABLE_SPEAKERS[:2])
        with pytest.raises(ValueError, match="max_delta"):
            corpus.pair_speakers(m, max_delta=-1.0)

    def test_nan_max_delta_rejected(self, tmp_path):
        m = self.manifest(tmp_path, TABLE_SPEAKERS[:2])
        with pytest.raises(ValueError, match="max_delta"):
            corpus.pair_speakers(m, max_delta=float("nan"))


class TestBuildFeatureStore:
    def small_cfg(self):
        return dsp.DspConfig()

    def test_tone_clip_produces_mcep_features(self, tmp_path, dummy_wav):
        m = corpus.parse_manifest(write_manifest(
            tmp_path / "m.csv", TABLE_SPEAKERS[:1],
            [("M04", "CW1", "B1", str(dummy_wav))]))
        store = corpus.build_feature_store(m, self.small_cfg(), tmp_path / "out")
        assert store.errors == [] and store.skipped == []
        entry = store.entries["M04/CW1/B1"]
        frames = dsp.read_mcep(store.feature_path("M04/CW1/B1"))
        assert frames.shape == (entry["frames"], 40)
        assert entry["frames"] > 0
        assert store.index_path.is_file()
        with open(store.index_path) as fh:
            assert json.load(fh) == store.entries

    def test_all_silent_clip_skipped_and_logged(self, tmp_path):
        silent = tmp_path / "silent.wav"
        dsp.write_wav(silent, dsp.Waveform(np.zeros(8000), 16000))
        m = corpus.parse_manifest(write_manifest(
            tmp_path / "m.csv", TABLE_SPEAKERS[:1],
            [("M04", "CW1", "B1", str(silent))]))
        store = corpus.build_feature_store(m, self.small_cfg(), tmp_path / "out")
        assert store.entries == {}
        assert store.skipped == ["M04/CW1/B1"]
        skip_log = (tmp_path / "out" / "skipped.txt").read_text()
        assert "M04/CW1/B1" in skip_log

    def test_unreadable_audio_recorded_and_run_continues(self, tmp_path, dummy_wav):
        m = corpus.parse_manifest(write_manifest(
            tmp_path / "m.csv", TABLE_SPEAKERS[:1],
            [("M04", "CW1", "B1", str(tmp_path / "ghost.wav")),
             ("M04", "CW2", "B1", str(dummy_wav))]))
        store = corpus.build_feature_store(m, self.small_cfg(), tmp_path / "out")
        assert len(store.errors) == 1
        assert store.errors[0][0] == "M04/CW1/B1"
        assert "M04/CW2/B1" in store.entries
        err_log = (tmp_path / "out" / "errors.txt").read_text()
        assert "M04/CW1/B1" in err_log

    def test_rerun_is_bit_identical(self, tmp_path, dummy_wav):
        m = corpus.parse_manifest(write_manifest(
            tmp_path / "m.csv", TABLE_SPEAKERS[:1],
            [("M04", "CW1", "B1", str(dummy_wav))]))
        cfg = self.small_cfg()
        store1 = corpus.build_feature_store(m, cfg, tmp_path / "out1")
        store2 = corpus.build_feature_store(m, cfg, tmp_path / "out2")
        f1 = store1.feature_path("M04/CW1/B1").read_bytes()
        f2 = store2.feature_path("M04/CW1/B1").read_bytes()
        assert f1 == f2
        assert store1.index_path.read_bytes() == store2.index_path.read_bytes()

    def test_outputs_independent_of_worker_count(self, tmp_path, monkeypatch):
        # the failures come first, each quicker than the one before it, so
        # in a pool they finish out of order; the report follows the manifest
        rng = np.random.default_rng(0)
        clips = [("W0", np.full(300, 0.5), 16000),  # too short for a frame
                 ("W1", None, 16000),  # missing
                 ("W2", np.zeros(32000), 16000),  # all silent
                 ("W3", np.zeros(4000), 22050)]
        for w in range(4, 10):
            sr = (16000, 22050)[w % 2]
            t = np.arange(int(0.3 * sr)) / sr
            clips.append((f"W{w}", 0.5 * np.sin(2 * np.pi * 70.0 * w * t)
                          + 0.01 * rng.standard_normal(t.size), sr))
        rows = []
        for word, samples, sr in clips:
            path = tmp_path / f"{word}.wav"
            if samples is not None:
                dsp.write_wav(path, dsp.Waveform(samples, sr))
            rows.append(("M04", word, "B1", str(path)))
        m = corpus.parse_manifest(write_manifest(
            tmp_path / "m.csv", TABLE_SPEAKERS[:1], rows))

        runs = []
        for cpus in ({0}, {0, 1}, {0, 1, 2}, None):
            if cpus is None:  # no affinity call: the CPU count decides
                monkeypatch.delattr(workers.os, "sched_getaffinity")
                monkeypatch.setattr(workers.os, "cpu_count", lambda: 4)
            else:
                monkeypatch.setattr(workers.os, "sched_getaffinity",
                                    lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"out{len(runs)}"
            store = corpus.build_feature_store(m, self.small_cfg(), out)
            assert [key for key, _ in store.errors] == ["M04/W0/B1", "M04/W1/B1"]
            assert "too short" in store.errors[0][1]
            assert store.skipped == ["M04/W2/B1", "M04/W3/B1"]
            assert len(store.entries) == 6
            runs.append({str(p.relative_to(out)): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(runs[0]) == 9  # six features, index, skipped, errors
        assert all(run == runs[0] for run in runs[1:])

    def test_load_feature_store_round_trip(self, tmp_path, dummy_wav):
        m = corpus.parse_manifest(write_manifest(
            tmp_path / "m.csv", TABLE_SPEAKERS[:1],
            [("M04", "CW1", "B1", str(dummy_wav))]))
        corpus.build_feature_store(m, self.small_cfg(), tmp_path / "out")
        back = corpus.load_feature_store(tmp_path / "out")
        assert "M04/CW1/B1" in back.entries
        assert back.feature_path("M04/CW1/B1").is_file()


GOOD_ENTRY = {"speaker_id": "M04", "block": "B1",
              "feature_path": "features/M04_CW1_B1.mcep", "frames": 9}


class TestLoadFeatureStore:
    @pytest.mark.parametrize("blob,message", [
        (b'{"M04/CW1/B1": {"speaker_id": "M0\xff"}}', "line 1: not UTF-8 text"),
        (b'{"M04/CW1/B1": {\n"speaker_id"', "line 2 column 13"),
        (b'["M04/CW1/B1"]', "expected an object of utterance entries"),
        (b'{"M04/CW1/B1": 3}', "entry 'M04/CW1/B1' is not an object"),
    ])
    def test_unreadable_index_named(self, tmp_path, blob, message):
        (tmp_path / "index.json").write_bytes(blob)
        with pytest.raises(corpus.FeatureIndexError) as exc:
            corpus.load_feature_store(tmp_path)
        assert str(exc.value).startswith(str(tmp_path / "index.json"))
        assert message in str(exc.value)

    @pytest.mark.parametrize("field", sorted(GOOD_ENTRY))
    def test_missing_or_mistyped_field_named(self, tmp_path, field):
        index = tmp_path / "index.json"
        entry = {k: v for k, v in GOOD_ENTRY.items() if k != field}
        index.write_text(json.dumps({"M04/CW1/B1": entry}))
        with pytest.raises(corpus.FeatureIndexError,
                           match=f"entry 'M04/CW1/B1' lacks '{field}'"):
            corpus.load_feature_store(tmp_path)
        entry[field] = [1]
        index.write_text(json.dumps({"M04/CW1/B1": entry}))
        wrong = ("has a non-int 'frames'" if field == "frames"
                 else f"has {field} [1], but its key gives {GOOD_ENTRY[field]!r}")
        with pytest.raises(corpus.FeatureIndexError,
                           match=re.escape(f"entry 'M04/CW1/B1' {wrong}")):
            corpus.load_feature_store(tmp_path)

    @pytest.mark.parametrize("original,key,says", [
        # byte mutations of a built index's keys, which once loaded
        ("M04/W2/B3", "M0:4/W2/B3",
         "entry 'M0:4/W2/B3' has speaker_id 'M04', but its key gives 'M0:4'"),
        ("M12/W1/B3", "M,12/W1/B3",
         "entry 'M,12/W1/B3' has speaker_id 'M12', but its key gives 'M,12'"),
        ("M04/W1/B2", "M04-W1/B2",
         "entry key 'M04-W1/B2' is not speaker/word/block"),
    ], ids=["colon", "comma", "dash"])
    def test_corrupt_key_refused(self, tmp_path, original, key, says):
        sid, word, block = original.split("/")
        entry = {"speaker_id": sid, "block": block,
                 "feature_path": f"features/{sid}_{word}_{block}.mcep", "frames": 9}
        (tmp_path / "features").mkdir()
        (tmp_path / entry["feature_path"]).write_bytes(b"")
        index = tmp_path / "index.json"
        index.write_text(json.dumps({original: entry}))
        assert corpus.load_feature_store(tmp_path).entries == {original: entry}
        index.write_text(json.dumps({key: entry}))
        with pytest.raises(corpus.FeatureIndexError) as exc:
            corpus.load_feature_store(tmp_path)
        assert str(exc.value) == f"{index}: {says}"

    @pytest.mark.parametrize("key", ["M04/CW1/B1/x", "M04//B1", "M\\04/CW1/B1",
                                     "M04/CW1/B9"])
    def test_key_outside_manifest_rules_refused(self, tmp_path, key):
        (tmp_path / "index.json").write_text(json.dumps({key: GOOD_ENTRY}))
        with pytest.raises(corpus.FeatureIndexError) as exc:
            corpus.load_feature_store(tmp_path)
        assert str(exc.value).endswith(f"entry key {key!r} is not speaker/word/block")


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize("workload", ["preprocess-corpus", "train-default",
                                      "convert-heldout"])
def test_benchmark_workload_store_loads_unchanged(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import bench
    written = bench.write_corpus(bench.WORKLOADS[workload], 1, tmp_path / "corpus")
    built = corpus.build_feature_store(corpus.parse_manifest(written.manifest),
                                       dsp.DspConfig(), tmp_path / "feats")
    assert built.entries and not built.errors
    assert corpus.load_feature_store(tmp_path / "feats").entries == built.entries
