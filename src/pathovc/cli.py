"""Command line front end for the conversion pipeline.

Subcommands: preprocess (manifest to feature store), train (feature
store to checkpoint), convert (checkpoint plus features to converted
features and waveforms), pair (severity-matched speaker pairs), stats
(listening-test analysis).  Global flags --config, --seed, and --out
come before the subcommand.  --seed, --out and each subcommand's flags
and arguments, but --source, --target and those of stats, set the config
key of their name (--no-wav: [convert] wav) over the --config file, and
--dump-config prints the values in effect.  Exit codes: 0 success,
1 user error, 2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import logging
import sys
import traceback
from pathlib import Path

from . import corpus, dsp, stats, vqvae, workers
from .atomic import atomic_open
from .config import ConfigError, dump_run_config, load_run_config

logger = logging.getLogger(__name__)

CHECKPOINT_NAME = "model.hvqv"
REPORT_NAME = "training_report.csv"
# Fast Griffin-Lim momentum for convert's waveforms; at this alpha the
# default 10 iterations from griffin_lim's phase-gradient start end below
# 60 plain iterations and 19 fast ones from zero phase
GL_MOMENTUM = 0.99


class UserError(Exception):
    """Bad input or usage; reported without a traceback, exit code 1."""


USER_ERRORS = (UserError, ConfigError, corpus.ManifestError,
               corpus.FeatureIndexError, stats.RatingsFormatError,
               vqvae.CheckpointFormatError, vqvae.UnknownSpeakerError,
               vqvae.NonFiniteLossError, dsp.FeatureFormatError, OSError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UserError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pathovc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", metavar="FILE",
                        help="INI configuration file; see --dump-config")
    parser.add_argument("--seed", metavar="N",
                        help="random seed; overrides [training] seed")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory; overrides [paths] out")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the effective configuration and exit")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("preprocess", help="extract features for a manifest")
    p.add_argument("manifest", nargs="?", help="corpus manifest CSV")

    p = sub.add_parser("train", help="train a conversion model")
    p.add_argument("manifest", nargs="?", help="corpus manifest CSV")
    p.add_argument("--features", metavar="DIR",
                   help="feature store from the preprocess step")
    p.add_argument("--train-list", metavar="FILE",
                   help="file of utterance keys to train on instead of "
                        "the default B1/B3 split; overrides [paths] train_list")

    p = sub.add_parser("convert", help="convert utterances to a target voice")
    p.add_argument("checkpoint", nargs="?", help="trained model checkpoint")
    p.add_argument("--features", metavar="DIR",
                   help="feature store holding the source utterances")
    p.add_argument("--source", required=True, metavar="SPEAKER",
                   help="speaker whose utterances are converted")
    p.add_argument("--target", required=True, metavar="SPEAKER",
                   help="speaker whose voice the output should carry")
    p.add_argument("--all-blocks", action="store_const", const="true",
                   help="convert every block, not only the held-out B2 set")
    p.add_argument("--gl-iterations", metavar="N",
                   help="Fast Griffin-Lim iterations; overrides "
                        "[convert] gl_iterations")
    p.add_argument("--no-wav", dest="wav", action="store_const", const="false",
                   help="write converted features only, skip waveforms")

    p = sub.add_parser("pair", help="propose severity-matched speaker pairs")
    p.add_argument("manifest", nargs="?", help="corpus manifest CSV")
    p.add_argument("--max-delta", metavar="PCT",
                   help="largest allowed score difference")
    p.add_argument("--include-female", action="store_const", const="true")
    p.add_argument("--allow-cross-sex", action="store_const", const="true")

    p = sub.add_parser("stats", help="analyze listening-test ratings")
    p.add_argument("ratings", help="ratings CSV")
    p.add_argument("--mode", required=True, choices=("mos", "wilcoxon", "ab"))
    p.add_argument("--conditions", action="append", metavar="A:B",
                   help="condition pair for the wilcoxon mode; repeatable "
                        "(default: gt_X:vc_X per severity band present)")
    return parser


# the command-line values that set a config key: (section, key, flag), where
# the key is also the argparse dest, None when the flag was not given
OVERRIDES = (("training", "seed", "--seed"), ("paths", "out", "--out"),
             ("paths", "manifest", "manifest"), ("paths", "features", "--features"),
             ("paths", "checkpoint", "checkpoint"),
             ("paths", "train_list", "--train-list"),
             ("convert", "all_blocks", "--all-blocks"),
             ("convert", "gl_iterations", "--gl-iterations"),
             ("convert", "wav", "--no-wav"),
             ("pairing", "max_delta", "--max-delta"),
             ("pairing", "include_female", "--include-female"),
             ("pairing", "allow_cross_sex", "--allow-cross-sex"))


def run_config(args):
    """The --config file's settings, then those of the flags given."""
    return load_run_config(args.config, [
        (section, key, getattr(args, key), flag) for section, key, flag in OVERRIDES
        if getattr(args, key, None) is not None])


def _require(value, what: str):
    if not value:
        raise UserError(f"{what} required: pass it on the command line or "
                        "set it in the config [paths] section")
    return value


def _out_dir(cfg) -> Path:
    out = Path(_require(cfg.paths["out"], "--out directory"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_manifest(cfg):
    return corpus.parse_manifest(_require(cfg.paths["manifest"], "manifest path"),
                                 band_cuts=cfg.corpus["band_cuts"])


def _load_store(cfg) -> corpus.FeatureStore:
    root = Path(_require(cfg.paths["features"], "--features directory"))
    if not (root / "index.json").is_file():
        raise UserError(f"no feature index under {root}; run preprocess first")
    return corpus.load_feature_store(root)


def _csv_text(rows) -> str:
    """``rows`` as CSV lines; only a cell holding a comma or a quote is quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _report_failures(failures, what: str) -> int:
    """Print the ``(key, message)`` failures on stderr; 1 if any, else 0."""
    if not failures:
        return 0
    print(f"{len(failures)} {what}(s) failed:", file=sys.stderr)
    for key, msg in failures:
        print(f"  {key}: {msg}", file=sys.stderr)
    return 1


def cmd_preprocess(args, cfg) -> int:
    manifest = _load_manifest(cfg)
    out = _out_dir(cfg)
    store = corpus.build_feature_store(manifest, cfg.dsp, out)
    print(f"wrote {len(store.entries)} feature file(s) to {out}")
    if store.skipped:
        print(f"skipped {len(store.skipped)} all-silent clip(s), "
              f"see {out / 'skipped.txt'}")
    return _report_failures(store.errors, "clip")


def _read_features(path, cfg):
    """``read_mcep``, refusing coefficients larger than preprocess makes.

    Such a file would overflow training, or be snapped by the quantizer to
    finite but meaningless output in ``convert``.
    """
    frames = dsp.read_mcep(path)
    bound = dsp.cepstral_bound(cfg.dsp.n_mels)
    peak = float(abs(frames).max())
    if peak > bound:
        raise dsp.FeatureFormatError(
            f"{path}: a coefficient of magnitude {peak:.4g} exceeds the "
            f"{bound:.1f} that preprocess can produce with {cfg.dsp.n_mels} "
            "mel bands; re-run preprocess")
    return frames


def _train_keys(train_list: str, manifest) -> list:
    train, _ = corpus.partition_blocks(manifest)
    if not train_list:
        return sorted(u.key for u in train)
    known = {u.key: u for u in manifest.utterances}
    keys: dict = {}
    text = corpus.read_utf8(train_list, UserError)
    for lineno, line in enumerate(text.splitlines(), start=1):
        key = line.strip()
        if not key:
            continue
        where = f"{train_list} line {lineno}"
        if key in keys:
            raise UserError(f"{where}: duplicate utterance key {key}, first on "
                            f"line {keys[key]}")
        if key not in known:
            raise UserError(f"{where}: utterance {key} is missing from the manifest")
        if known[key].block == corpus.TEST_BLOCK:
            raise UserError(f"{where}: refusing to train on held-out B2 utterance {key}")
        keys[key] = lineno
    if not keys:
        raise UserError(f"{train_list}: no utterance keys")
    return sorted(keys)


def cmd_train(args, cfg) -> int:
    manifest = _load_manifest(cfg)
    store = _load_store(cfg)
    keys = _train_keys(cfg.paths["train_list"], manifest)

    present = [k for k in keys if k in store.entries]
    if len(present) < len(keys):
        logger.warning("%d training utterance(s) have no features and are "
                       "skipped", len(keys) - len(present))
    if not present:
        raise UserError("no training utterances have features; nothing to do")
    paths = [store.feature_path(k) for k in present]
    dataset = [(store.entries[k]["speaker_id"], _read_features(p, cfg))
               for k, p in zip(present, paths)]
    # the first file sets the model's input width
    width = dataset[0][1].shape[1]
    for path, (_, frames) in zip(paths, dataset):
        if frames.shape[1] != width:
            raise UserError(f"{path} carries {frames.shape[1]} coefficients but "
                            f"{paths[0]} carries {width}; re-run preprocess")

    model = vqvae.HVqVaeModel(dataclasses.replace(cfg.model, in_channels=width),
                              manifest.speaker_ids, seed=cfg.training.seed)
    try:
        model, report = vqvae.train(model, dataset, cfg.training)
    except vqvae.NonFiniteLossError as exc:
        raise UserError(f"{exc}; the batch held "
                        + ", ".join(str(paths[i]) for i in exc.batch)) from None

    out = _out_dir(cfg)
    ckpt = out / CHECKPOINT_NAME
    vqvae.save_checkpoint(model, ckpt)
    report.write_csv(out / REPORT_NAME)
    print(f"trained {cfg.training.steps} step(s) on {len(dataset)} utterance(s) "
          f"with seed {cfg.training.seed}")
    print(f"final reconstruction loss {report.reconstruction[-1]:.6f}")
    print(f"checkpoint {ckpt}")
    return 0


def _synthesize(frames, cfg, path) -> None:
    """Write the Fast Griffin-Lim waveform of cepstral ``frames`` to ``path``."""
    mc = dsp.MelCepstrogram(frames,
                            frame_shift=cfg.dsp.hop_size / cfg.dsp.sample_rate,
                            sample_rate=cfg.dsp.sample_rate)
    ms = dsp.invert_mel_cepstrum(mc, cfg.dsp.n_mels)
    w = dsp.griffin_lim(ms, cfg.dsp, cfg.convert.gl_iterations,
                        momentum=GL_MOMENTUM)
    dsp.write_wav(path, dsp.normalize(w))


def cmd_convert(args, cfg) -> int:
    ckpt = _require(cfg.paths["checkpoint"], "checkpoint path")
    if not Path(ckpt).is_file():
        raise UserError(f"checkpoint not found: {ckpt}")
    model = vqvae.load_checkpoint(ckpt)
    model.speaker_index(args.target)
    store = _load_store(cfg)
    out = _out_dir(cfg)

    selected = [
        (key, entry) for key, entry in sorted(store.entries.items())
        if entry["speaker_id"] == args.source
        and (cfg.convert.all_blocks or entry["block"] == corpus.TEST_BLOCK)]
    if not selected:
        blocks = "any block" if cfg.convert.all_blocks else corpus.TEST_BLOCK
        raise UserError(f"no utterances of speaker {args.source!r} in "
                        f"{blocks}; check --source or pass --all-blocks")

    # Phase 1, on this thread: the model, the only BLAS work of convert.
    # Each word is read and checked, then the model converts them all in
    # one call, planning its passes and retrying a pass that runs out of
    # memory one word per pass.
    errors = [None] * len(selected)  # failure message per selected word
    paths = [store.feature_path(key) for key, _ in selected]
    words = {}  # selection index -> frames of each word read and checked
    for i, path in enumerate(paths):
        try:
            frames = _read_features(path, cfg)
            if frames.shape[1] != model.cfg.in_channels:
                raise ValueError(f"{path} carries {frames.shape[1]} coefficients "
                                 f"but {ckpt} expects {model.cfg.in_channels}")
            words[i] = frames
        except (ValueError, OSError) as exc:
            errors[i] = str(exc)
        except MemoryError as exc:
            errors[i] = corpus.memory_failure(path, exc)

    jobs = []  # (selection index, converted frames, wav path)
    for i, frames in zip(words, model.convert(list(words.values()), args.target)):
        stem = Path(selected[i][1]["feature_path"]).stem + f"_to_{args.target}"
        if isinstance(frames, MemoryError):
            errors[i] = corpus.memory_failure(paths[i], frames)
            continue
        try:
            if isinstance(frames, ValueError):
                raise ValueError(f"{ckpt} cannot convert {paths[i]}: {frames}")
            dsp.write_mcep(out / f"{stem}.mcep", frames)
            jobs.append((i, frames, out / f"{stem}.wav"))
        except (ValueError, OSError) as exc:
            errors[i] = str(exc)
        except MemoryError as exc:
            errors[i] = corpus.memory_failure(paths[i], exc)

    # Phase 2: the waveforms, one word per CPU (see workers for why the
    # model runs first).
    def synthesize(job):
        _, frames, path = job
        try:
            _synthesize(frames, cfg, path)
        except (ValueError, OSError) as exc:
            return str(exc)
        except MemoryError as exc:
            return corpus.memory_failure(path, exc)

    if cfg.convert.wav:
        for (i, _, _), msg in zip(jobs, workers.ordered_map(synthesize, jobs)):
            if msg is not None:
                errors[i] = msg

    failures = [(key, msg) for (key, _), msg in zip(selected, errors)
                if msg is not None]
    print(f"converted {len(selected) - len(failures)} utterance(s) of "
          f"{args.source} to {args.target} in {out}")
    return _report_failures(failures, "utterance")


def cmd_pair(args, cfg) -> int:
    manifest = _load_manifest(cfg)
    pairs = corpus.pair_speakers(manifest, **dataclasses.asdict(cfg.pairing))
    table = _csv_text([("speaker_a", "speaker_b", "delta")]
                      + [(p.a, p.b, p.delta) for p in pairs])
    sys.stdout.write(table)
    paired = {p.a for p in pairs} | {p.b for p in pairs}
    unmatched = [s for s in manifest.speaker_ids if s not in paired]
    if unmatched:
        print("unpaired: " + ", ".join(unmatched), file=sys.stderr)
    if cfg.paths["out"]:
        with atomic_open(_out_dir(cfg) / "pairs.csv", "w", encoding="utf-8") as fh:
            fh.write(table)
    return 0


def _wilcoxon_pairs(args, rs) -> list:
    if args.conditions:
        pairs = []
        for entry in args.conditions:
            parts = tuple(entry.split(":"))
            if len(parts) != 2 or not all(parts):
                raise UserError(f"--conditions entries look like a:b, "
                                f"got {entry!r}")
            if parts in pairs:
                raise UserError(f"--conditions {entry} given twice")
            if parts[::-1] in pairs:
                raise UserError(f"--conditions {entry} repeats {parts[1]}:{parts[0]}, "
                                "the same two-sided test")
            pairs.append(parts)
        return pairs
    present = {condition for _, condition, _ in rs.mos}
    pairs = [(f"gt_{band}", f"vc_{band}") for band in ("high", "mid", "low")
             if {f"gt_{band}", f"vc_{band}"} <= present]
    if not pairs:
        raise UserError(f"{rs.path}: no gt/vc condition pairs found in the "
                        "ratings; name them with --conditions a:b")
    return pairs


def cmd_stats(args, cfg) -> int:
    if args.conditions and args.mode != "wilcoxon":
        raise UserError("--conditions applies to --mode wilcoxon only, "
                        f"not {args.mode}")
    rs = stats.RatingSet.from_csv(args.ratings)
    if args.mode != "wilcoxon" and not getattr(rs, args.mode):
        raise UserError(f"{rs.path}: no {args.mode} rows in the ratings file")

    if args.mode == "mos":
        summaries = stats.mos_summary(rs.mos_scores())
        columns = stats.MOS_TABLE_COLUMNS
        rows = stats.mos_table(summaries, "{:.4f}".format)
        table = {"mos": summaries}
    elif args.mode == "wilcoxon":
        columns = stats.WILCOXON_COLUMNS
        rows = stats.wilcoxon_table(rs, _wilcoxon_pairs(args, rs))
        table = {"wilcoxon": rows}
    else:
        columns, rows = stats.AB_COLUMNS, stats.ab_table(rs)
        table = {"similarity": stats.similarity_grid(rs)}
    if cfg.paths["out"]:
        stats.export_tables(table, _out_dir(cfg))
    sys.stdout.write(_csv_text([columns] + [row.values() for row in rows]))
    return 0


COMMANDS = {"preprocess": cmd_preprocess, "train": cmd_train,
            "convert": cmd_convert, "pair": cmd_pair, "stats": cmd_stats}


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = run_config(args)
        if args.dump_config:
            sys.stdout.write(dump_run_config(cfg))
            return 0
        if not args.command:
            raise UserError("no command given; see pathovc --help")
        return COMMANDS[args.command](args, cfg)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
