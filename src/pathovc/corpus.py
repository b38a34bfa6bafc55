"""Corpus manifest handling, block partitioning, and speaker pairing.

The corpus is described by a UTF-8 CSV manifest with the header

    speaker_id,sex,intelligibility_score,band,word_id,block,audio_path

A row with empty ``word_id``, ``block``, and ``audio_path`` declares a
speaker; a row with all three filled records an utterance of a declared
speaker (its speaker metadata columns may be left empty or must repeat
the declared values).  Utterances are split into train and test sets by
block: B1 and B3 train, B2 is held out.  Speakers are paired greedily by
minimum intelligibility-score difference within the same band.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

from . import dsp
from .atomic import atomic_open

logger = logging.getLogger(__name__)

MANIFEST_COLUMNS = ("speaker_id", "sex", "intelligibility_score", "band",
                    "word_id", "block", "audio_path")
BLOCKS = ("B1", "B2", "B3")
TRAIN_BLOCKS = ("B1", "B3")
TEST_BLOCK = "B2"
BAND_NAMES = ("very_low", "low", "mid", "high")
DEFAULT_BAND_CUTS = (25.0, 50.0, 75.0)
SEXES = ("M", "F")


class ManifestError(ValueError):
    """Raised when a manifest file violates the format or its invariants."""


class FeatureIndexError(ValueError):
    """Raised when a feature store's ``index.json`` is not a valid index."""


# what `build_feature_store` writes for each utterance key
INDEX_FIELDS = {"speaker_id": str, "block": str, "feature_path": str,
                "frames": int}


def read_utf8(path, error) -> str:
    """The text of ``path``; a byte that is not UTF-8 raises ``error``
    naming the file and the line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path} line {line}: not UTF-8 text ({exc.reason} at "
                    f"byte {exc.start})") from None


def read_csv_table(path, columns, error, what):
    """Yield ``(line number, cells)`` for each non-blank row of the CSV
    file ``path``, its cells stripped.

    A missing file (named as ``what``), an empty one, a header other than
    ``columns``, a row of another width or a cell holding a line break
    raises ``error`` naming the file and the physical line.
    """
    path = Path(path)
    if not path.is_file():
        raise error(f"{what} not found: {path}")
    reader = csv.reader(io.StringIO(read_utf8(path, error), newline=""))
    header = next(reader, None)
    if header is None:
        raise error(f"{path} line 1: empty file, header required")
    if [h.strip() for h in header] != list(columns):
        raise error(f"{path} line 1: header must be {','.join(columns)}")
    for row in reader:
        lineno = reader.line_num  # where the row ends
        if any("\n" in c or "\r" in c for c in row):
            raise error(f"{path} line {lineno}: a quoted cell holds a line break")
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(columns):
            raise error(f"{path} line {lineno}: expected {len(columns)} "
                        f"columns, got {len(row)}")
        yield lineno, [c.strip() for c in row]


def check_band_cuts(cuts) -> None:
    """Raise ValueError unless ``cuts`` are three increasing values in (0, 100)."""
    if not (len(cuts) == 3 and 0.0 < cuts[0] < cuts[1] < cuts[2] < 100.0):
        raise ValueError(f"band cuts must be three increasing values in (0, 100), got {cuts}")


def band_for_score(score: float, cuts=DEFAULT_BAND_CUTS) -> str:
    """Map an intelligibility score to its band label.

    Bands are half-open below the top cut: [0, c0) -> very_low,
    [c0, c1) -> low, [c1, c2) -> mid, [c2, 100] -> high.
    """
    if not 0.0 <= score <= 100.0:
        raise ValueError(f"intelligibility score {score} outside [0, 100]")
    check_band_cuts(cuts)
    for cut, name in zip(cuts, BAND_NAMES):
        if score < cut:
            return name
    return BAND_NAMES[-1]


@dataclass(frozen=True)
class SpeakerRecord:
    speaker_id: str
    sex: str
    intelligibility_score: float
    intelligibility_band: str


@dataclass(frozen=True)
class UtteranceRecord:
    speaker_id: str
    word_id: str
    block: str
    audio_path: str

    @property
    def key(self) -> str:
        return f"{self.speaker_id}/{self.word_id}/{self.block}"

    @property
    def stem(self) -> str:
        """The name of the utterance's feature file, less its suffix."""
        return f"{self.speaker_id}_{self.word_id}_{self.block}"


@dataclass
class CorpusManifest:
    speakers: list = field(default_factory=list)
    utterances: list = field(default_factory=list)

    @property
    def speaker_ids(self):
        return [s.speaker_id for s in self.speakers]


@dataclass(frozen=True)
class SpeakerPair:
    a: str
    b: str
    delta: float


def _score_delta(score_a: float, score_b: float) -> float:
    # subtract in decimal so 7.4 - 2 comes out exactly 5.4, matching the
    # precision of the scores as written in the manifest
    d = Decimal(str(score_a)) - Decimal(str(score_b))
    return float(abs(d))


def parse_manifest(path, band_cuts=DEFAULT_BAND_CUTS) -> CorpusManifest:
    """Read and fully validate a manifest CSV.

    Raises ManifestError naming the offending line for malformed rows,
    ids holding a path separator, duplicate speakers or utterance keys,
    two utterances whose ids join to one feature-file name (naming both
    lines), unknown speaker references, and band labels inconsistent
    with ``band_cuts``.  Audio paths are checked where the audio is read.
    """
    path = Path(path)
    speakers: dict = {}
    utterances: list = []
    seen_stems: dict = {}  # stem -> (line, key) of its first utterance
    for lineno, row in read_csv_table(path, MANIFEST_COLUMNS, ManifestError,
                                      "manifest"):
        sid, sex, score_text, band, word, block, audio = row
        if not sid:
            raise ManifestError(f"{path} line {lineno}: speaker_id is empty")
        # the ids name the utterance's feature file
        for column, value in (("speaker_id", sid), ("word_id", word)):
            if "/" in value or "\\" in value:
                raise ManifestError(f"{path} line {lineno}: {column} {value!r} "
                                    "contains a path separator")

        utterance_fields = (word, block, audio)
        if not any(utterance_fields):
            _add_speaker(speakers, sid, sex, score_text, band,
                         band_cuts, path, lineno)
            continue
        if not all(utterance_fields):
            raise ManifestError(
                f"{path} line {lineno}: utterance rows need word_id, "
                "block, and audio_path; speaker rows leave all three empty")

        if sid not in speakers:
            raise ManifestError(
                f"{path} line {lineno}: utterance references unknown "
                f"speaker {sid!r}; declare the speaker in an earlier row")
        _check_metadata_consistency(speakers[sid], sex, score_text, band,
                                    path, lineno)
        if block not in BLOCKS:
            raise ManifestError(
                f"{path} line {lineno}: block must be one of "
                f"{'/'.join(BLOCKS)}, got {block!r}")
        utt = UtteranceRecord(sid, word, block, audio)
        # equal keys give equal stems; ids holding "_" can too
        first = seen_stems.setdefault(utt.stem, (lineno, utt.key))
        if first[0] != lineno:
            clash = (f"duplicate utterance key {utt.key}" if first[1] == utt.key
                     else f"utterance {utt.key} and {first[1]} would share the "
                          f"feature file {utt.stem}.mcep")
            raise ManifestError(f"{path} line {lineno}: {clash}, first on line {first[0]}")
        utterances.append(utt)

    return CorpusManifest(list(speakers.values()), utterances)


def _add_speaker(speakers, sid, sex, score_text, band, band_cuts, path, lineno):
    if sid in speakers:
        raise ManifestError(f"{path} line {lineno}: duplicate speaker {sid!r}")
    if sex not in SEXES:
        raise ManifestError(
            f"{path} line {lineno}: sex must be one of {'/'.join(SEXES)}, got {sex!r}")
    score = _parse_score(score_text, path, lineno)
    if not 0.0 <= score <= 100.0:
        raise ManifestError(
            f"{path} line {lineno}: intelligibility_score {score} outside [0, 100]")
    expected = band_for_score(score, band_cuts)
    if band != expected:
        raise ManifestError(
            f"{path} line {lineno}: band {band!r} inconsistent with score "
            f"{score} (expected {expected!r} for cuts {tuple(band_cuts)})")
    speakers[sid] = SpeakerRecord(sid, sex, score, band)


def _parse_score(score_text, path, lineno):
    try:
        return float(score_text)
    except ValueError:
        raise ManifestError(
            f"{path} line {lineno}: intelligibility_score {score_text!r} "
            "is not a number") from None


def _check_metadata_consistency(rec, sex, score_text, band, path, lineno):
    # utterance rows may repeat the speaker metadata; if they do it must match
    if sex and sex != rec.sex:
        raise ManifestError(
            f"{path} line {lineno}: sex {sex!r} contradicts declared "
            f"{rec.sex!r} for {rec.speaker_id}")
    if score_text and _parse_score(score_text, path, lineno) != rec.intelligibility_score:
        raise ManifestError(
            f"{path} line {lineno}: score {score_text} contradicts declared "
            f"{rec.intelligibility_score} for {rec.speaker_id}")
    if band and band != rec.intelligibility_band:
        raise ManifestError(
            f"{path} line {lineno}: band {band!r} contradicts declared "
            f"{rec.intelligibility_band!r} for {rec.speaker_id}")


def partition_blocks(m: CorpusManifest):
    """Split utterances into (train, test): B1 and B3 train, B2 test."""
    train = [u for u in m.utterances if u.block in TRAIN_BLOCKS]
    test = [u for u in m.utterances if u.block == TEST_BLOCK]
    assert len(train) + len(test) == len(m.utterances)
    assert not {u.key for u in train} & {u.key for u in test}
    if m.utterances and not train:
        logger.warning("manifest has no B1/B3 utterances; training set is empty")
    return train, test


def pair_speakers(m: CorpusManifest, max_delta: float,
                  include_female: bool = False,
                  allow_cross_sex: bool = False):
    """Greedily pair speakers by smallest score difference within a band.

    Candidates must share an intelligibility band and differ by at most
    ``max_delta`` points.  Female speakers join only when
    ``include_female``; mixed-sex pairs only when ``allow_cross_sex``.
    Each speaker lands in at most one pair.  Ties on delta resolve by
    speaker id order, so the result is deterministic.  Speakers left
    without a partner are in no pair; the caller reports them.
    """
    # written so that NaN fails too: it would pass every delta check
    if not max_delta >= 0:
        raise ValueError(f"max_delta must be non-negative, got {max_delta}")
    eligible = [s for s in m.speakers if include_female or s.sex == "M"]
    eligible.sort(key=lambda s: s.speaker_id)
    candidates = []
    for i, a in enumerate(eligible):
        for b in eligible[i + 1:]:
            if a.intelligibility_band != b.intelligibility_band:
                continue
            if not allow_cross_sex and a.sex != b.sex:
                continue
            delta = _score_delta(a.intelligibility_score, b.intelligibility_score)
            if delta <= max_delta:
                candidates.append((delta, a.speaker_id, b.speaker_id))
    # taking the smallest candidate whose speakers are both free, over and
    # over, is one sweep through the candidates in sorted order
    candidates.sort()
    taken = set()
    pairs = []
    for delta, a_id, b_id in candidates:
        if a_id not in taken and b_id not in taken:
            taken.update((a_id, b_id))
            pairs.append(SpeakerPair(a_id, b_id, delta))
    return pairs


@dataclass
class FeatureStore:
    """Outcome of a feature-extraction run over a manifest."""
    root: Path
    entries: dict = field(default_factory=dict)
    skipped: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    def feature_path(self, key: str) -> Path:
        return self.root / self.entries[key]["feature_path"]


def load_feature_store(root) -> FeatureStore:
    """Read ``root/index.json``; a malformed index raises FeatureIndexError
    naming the file and, where known, the line or the bad key."""
    root = Path(root)
    path = root / "index.json"
    try:
        entries = json.loads(read_utf8(path, FeatureIndexError))
    except json.JSONDecodeError as exc:
        raise FeatureIndexError(f"{path} line {exc.lineno} column {exc.colno}: "
                                f"{exc.msg}") from None
    if not isinstance(entries, dict):
        raise FeatureIndexError(f"{path}: expected an object of utterance entries")
    for key, entry in entries.items():
        if not isinstance(entry, dict):
            raise FeatureIndexError(f"{path}: entry {key!r} is not an object")
        for name, kind in INDEX_FIELDS.items():
            if name not in entry:
                raise FeatureIndexError(f"{path}: entry {key!r} lacks {name!r}")
            if not isinstance(entry[name], kind):
                raise FeatureIndexError(f"{path}: entry {key!r} has a "
                                        f"non-{kind.__name__} {name!r}")
        if not (root / entry["feature_path"]).is_file():
            raise FeatureIndexError(f"{path}: entry {key!r} names "
                                    f"{entry['feature_path']}, which is not a file")
    return FeatureStore(root=root, entries=entries)


def build_feature_store(m: CorpusManifest, dsp_cfg, out_dir) -> FeatureStore:
    """Extract and persist mel-cepstral features for every utterance.

    Per utterance: reduce_noise, trim_silence, resample to the configured
    rate, normalize, mel_spectrogram, mel_cepstrum, written as an MCEP1
    file under ``out_dir/features``.  All-silent clips are skipped and
    listed in ``skipped.txt``; unreadable or too-short clips are recorded
    in ``errors.txt`` and the run continues.  ``index.json`` maps each
    utterance key to its feature file and frame count.
    """
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    store = FeatureStore(root=out_dir)

    for utt in m.utterances:
        try:
            w = dsp.read_wav(utt.audio_path)  # its errors name the file
        except (OSError, ValueError) as exc:
            store.errors.append((utt.key, str(exc)))
            continue
        try:
            w = dsp.reduce_noise(w, dsp_cfg)
            w = dsp.trim_silence(w, threshold_db=dsp_cfg.trim_threshold_db,
                                 frame_ms=dsp_cfg.trim_frame_ms)
            w = dsp.resample(w, dsp_cfg.sample_rate)
            w = dsp.normalize(w)
            ms = dsp.mel_spectrogram(w, dsp_cfg)
            mc = dsp.mel_cepstrum(ms, dsp_cfg.cepstral_order)
        except dsp.AllSilentError:
            store.skipped.append(utt.key)
            continue
        except ValueError as exc:
            store.errors.append((utt.key, f"{utt.audio_path}: {exc}"))
            continue
        name = f"{utt.stem}.mcep"
        dsp.write_mcep(feat_dir / name, mc.frames)
        store.entries[utt.key] = {
            "speaker_id": utt.speaker_id,
            "block": utt.block,
            "feature_path": f"features/{name}",
            "frames": int(mc.frames.shape[0]),
        }

    with atomic_open(store.index_path, "w", encoding="utf-8") as fh:
        json.dump(store.entries, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with atomic_open(out_dir / "skipped.txt", "w", encoding="utf-8") as fh:
        for key in store.skipped:
            fh.write(key + "\n")
    with atomic_open(out_dir / "errors.txt", "w", encoding="utf-8") as fh:
        for key, msg in store.errors:
            fh.write(f"{key}\t{msg}\n")
    return store
