"""Command line front end for the conversion pipeline.

Subcommands: preprocess (manifest to feature store), train (feature
store to checkpoint), convert (checkpoint plus features to converted
features and waveforms), pair (severity-matched speaker pairs), stats
(listening-test analysis).  Global flags --config, --seed, and --out
come before the subcommand.  Exit codes: 0 success, 1 user error,
2 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
import traceback
from pathlib import Path

from . import corpus, dsp, stats, vqvae
from .atomic import atomic_open
from .config import ConfigError, dump_run_config, load_run_config

logger = logging.getLogger(__name__)

CHECKPOINT_NAME = "model.hvqv"
REPORT_NAME = "training_report.csv"
# Fast Griffin-Lim momentum for convert's waveforms; at this alpha
# GL_ITERATIONS reach the spectral convergence of 60 plain iterations
GL_MOMENTUM = 0.99
GL_ITERATIONS = 19


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
    parser.add_argument("--seed", type=int, metavar="N",
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
                        "the default B1/B3 split")

    p = sub.add_parser("convert", help="convert utterances to a target voice")
    p.add_argument("checkpoint", nargs="?", help="trained model checkpoint")
    p.add_argument("--features", metavar="DIR",
                   help="feature store holding the source utterances")
    p.add_argument("--source", required=True, metavar="SPEAKER",
                   help="speaker whose utterances are converted")
    p.add_argument("--target", required=True, metavar="SPEAKER",
                   help="speaker whose voice the output should carry")
    p.add_argument("--all-blocks", action="store_true",
                   help="convert every block, not only the held-out B2 set")
    p.add_argument("--gl-iterations", type=int, default=GL_ITERATIONS,
                   metavar="N", help="Fast Griffin-Lim iterations "
                   f"(default {GL_ITERATIONS})")
    p.add_argument("--no-wav", action="store_true",
                   help="write converted features only, skip waveforms")

    p = sub.add_parser("pair", help="propose severity-matched speaker pairs")
    p.add_argument("manifest", nargs="?", help="corpus manifest CSV")
    p.add_argument("--max-delta", type=float, metavar="PCT",
                   help="largest allowed score difference")
    p.add_argument("--include-female", action="store_true")
    p.add_argument("--allow-cross-sex", action="store_true")

    p = sub.add_parser("stats", help="analyze listening-test ratings")
    p.add_argument("ratings", nargs="?", help="ratings CSV")
    p.add_argument("--mode", required=True, choices=("mos", "wilcoxon", "ab"))
    p.add_argument("--conditions", action="append", metavar="A:B",
                   help="condition pair for the wilcoxon mode; repeatable "
                        "(default: gt_X:vc_X per severity band present)")
    return parser


def _require(value, what: str):
    if not value:
        raise UserError(f"{what} required: pass it on the command line or "
                        "set it in the config [paths] section")
    return value


def _resolve(arg_value, cfg_value, what: str):
    return _require(arg_value or cfg_value, what)


def _out_dir(args, cfg) -> Path:
    out = Path(_resolve(args.out, cfg.paths.get("out"), "--out directory"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_manifest(args, cfg):
    path = _resolve(getattr(args, "manifest", None),
                    cfg.paths.get("manifest"), "manifest path")
    return corpus.parse_manifest(path, band_cuts=cfg.corpus["band_cuts"])


def _load_store(args, cfg) -> corpus.FeatureStore:
    root = Path(_resolve(args.features, cfg.paths.get("features"),
                         "--features directory"))
    if not (root / "index.json").is_file():
        raise UserError(f"no feature index under {root}; run preprocess first")
    return corpus.load_feature_store(root)


def cmd_preprocess(args, cfg) -> int:
    manifest = _load_manifest(args, cfg)
    out = _out_dir(args, cfg)
    store = corpus.build_feature_store(manifest, cfg.dsp, out)
    print(f"wrote {len(store.entries)} feature file(s) to {out}")
    if store.skipped:
        print(f"skipped {len(store.skipped)} all-silent clip(s), "
              f"see {out / 'skipped.txt'}")
    if store.errors:
        print(f"{len(store.errors)} clip(s) failed:", file=sys.stderr)
        for key, msg in store.errors:
            print(f"  {key}: {msg}", file=sys.stderr)
        return 1
    return 0


def _training_seed(args, cfg) -> int:
    if args.seed is not None:
        return args.seed
    if cfg.has("training", "seed"):
        return cfg.training.seed
    raise UserError("train requires a seed: pass --seed or set "
                    "[training] seed in the config")


def _train_keys(args, manifest) -> list:
    train, _ = corpus.partition_blocks(manifest)
    if not args.train_list:
        return sorted(u.key for u in train)
    known = {u.key: u for u in manifest.utterances}
    keys: dict = {}
    text = corpus.read_utf8(args.train_list, UserError)
    for lineno, line in enumerate(text.splitlines(), start=1):
        key = line.strip()
        if not key:
            continue
        where = f"{args.train_list} line {lineno}"
        if key in keys:
            raise UserError(f"{where}: duplicate utterance key {key}, first on "
                            f"line {keys[key]}")
        if key not in known:
            raise UserError(f"{where}: utterance {key} is missing from the manifest")
        if known[key].block == corpus.TEST_BLOCK:
            raise UserError(f"{where}: refusing to train on held-out B2 utterance {key}")
        keys[key] = lineno
    if not keys:
        raise UserError(f"{args.train_list}: no utterance keys")
    return sorted(keys)


def cmd_train(args, cfg) -> int:
    seed = _training_seed(args, cfg)
    manifest = _load_manifest(args, cfg)
    store = _load_store(args, cfg)
    keys = _train_keys(args, manifest)

    present = [k for k in keys if k in store.entries]
    if len(present) < len(keys):
        logger.warning("%d training utterance(s) have no features and are "
                       "skipped", len(keys) - len(present))
    if not present:
        raise UserError("no training utterances have features; nothing to do")
    paths = [store.feature_path(k) for k in present]
    dataset = [(store.entries[k]["speaker_id"], dsp.read_mcep(p))
               for k, p in zip(present, paths)]
    # the first file sets the model's input width
    width = dataset[0][1].shape[1]
    for path, (_, frames) in zip(paths, dataset):
        if frames.shape[1] != width:
            raise UserError(f"{path} carries {frames.shape[1]} coefficients but "
                            f"{paths[0]} carries {width}; re-run preprocess")

    training = dataclasses.replace(cfg.training, seed=seed)
    model = vqvae.HVqVaeModel(dataclasses.replace(cfg.model, in_channels=width),
                              manifest.speaker_ids, seed=seed)
    try:
        model, report = vqvae.train(model, dataset, training)
    except vqvae.NonFiniteLossError as exc:
        raise UserError(f"{exc}; the batch held "
                        + ", ".join(str(paths[i]) for i in exc.batch)) from None

    out = _out_dir(args, cfg)
    ckpt = out / CHECKPOINT_NAME
    vqvae.save_checkpoint(model, ckpt)
    report.write_csv(out / REPORT_NAME)
    print(f"trained {training.steps} step(s) on {len(dataset)} utterance(s) "
          f"with seed {seed}")
    print(f"final reconstruction loss {report.reconstruction[-1]:.6f}")
    print(f"checkpoint {ckpt}")
    return 0


def _synthesize(frames, cfg, iterations: int) -> dsp.Waveform:
    mc = dsp.MelCepstrogram(frames,
                            frame_shift=cfg.dsp.hop_size / cfg.dsp.sample_rate,
                            sample_rate=cfg.dsp.sample_rate)
    ms = dsp.invert_mel_cepstrum(mc, cfg.dsp.n_mels)
    w = dsp.griffin_lim(ms, cfg.dsp, iterations, momentum=GL_MOMENTUM)
    return dsp.normalize(w)


def cmd_convert(args, cfg) -> int:
    if args.gl_iterations < 1:
        raise UserError(f"--gl-iterations must be >= 1, got {args.gl_iterations}")
    ckpt = _resolve(args.checkpoint, cfg.paths.get("checkpoint"),
                    "checkpoint path")
    if not Path(ckpt).is_file():
        raise UserError(f"checkpoint not found: {ckpt}")
    model = vqvae.load_checkpoint(ckpt)
    model.speaker_index(args.target)
    store = _load_store(args, cfg)
    out = _out_dir(args, cfg)

    selected = [
        (key, entry) for key, entry in sorted(store.entries.items())
        if entry["speaker_id"] == args.source
        and (args.all_blocks or entry["block"] == corpus.TEST_BLOCK)]
    if not selected:
        blocks = "any block" if args.all_blocks else corpus.TEST_BLOCK
        raise UserError(f"no utterances of speaker {args.source!r} in "
                        f"{blocks}; check --source or pass --all-blocks")

    failures = []
    written = 0
    for key, entry in selected:
        stem = Path(entry["feature_path"]).stem + f"_to_{args.target}"
        try:
            path = store.feature_path(key)
            frames = dsp.read_mcep(path)
            if frames.shape[1] != model.cfg.in_channels:
                raise ValueError(f"{path} carries {frames.shape[1]} coefficients "
                                 f"but {ckpt} expects {model.cfg.in_channels}")
            converted = model.convert(frames, args.target)
            dsp.write_mcep(out / f"{stem}.mcep", converted)
            if not args.no_wav:
                w = _synthesize(converted, cfg, args.gl_iterations)
                dsp.write_wav(out / f"{stem}.wav", w)
            written += 1
        except (ValueError, OSError) as exc:
            failures.append((key, str(exc)))
    print(f"converted {written} utterance(s) of {args.source} to "
          f"{args.target} in {out}")
    if failures:
        print(f"{len(failures)} utterance(s) failed:", file=sys.stderr)
        for key, msg in failures:
            print(f"  {key}: {msg}", file=sys.stderr)
        return 1
    return 0


def cmd_pair(args, cfg) -> int:
    manifest = _load_manifest(args, cfg)
    max_delta = (args.max_delta if args.max_delta is not None
                 else cfg.pairing.max_delta)
    if not max_delta >= 0:  # NaN fails this too
        raise UserError(f"--max-delta must be a non-negative number, got {max_delta}")
    pairs = corpus.pair_speakers(
        manifest, max_delta=max_delta,
        include_female=args.include_female or cfg.pairing.include_female,
        allow_cross_sex=args.allow_cross_sex or cfg.pairing.allow_cross_sex)
    table = "speaker_a,speaker_b,delta\n" + "".join(
        f"{p.a},{p.b},{p.delta}\n" for p in pairs)
    sys.stdout.write(table)
    paired = {p.a for p in pairs} | {p.b for p in pairs}
    unmatched = [s for s in manifest.speaker_ids if s not in paired]
    if unmatched:
        print("unpaired: " + ", ".join(unmatched), file=sys.stderr)
    if args.out or cfg.paths.get("out"):
        out = _out_dir(args, cfg)
        with atomic_open(out / "pairs.csv", "w", encoding="utf-8") as fh:
            fh.write(table)
    return 0


def _wilcoxon_pairs(args, rs) -> list:
    if args.conditions:
        pairs = []
        for entry in args.conditions:
            parts = entry.split(":")
            if len(parts) != 2 or not all(parts):
                raise UserError(f"--conditions entries look like a:b, "
                                f"got {entry!r}")
            pairs.append(tuple(parts))
        return pairs
    present = {condition for _, condition, _ in rs.mos}
    pairs = [(f"gt_{band}", f"vc_{band}") for band in ("high", "mid", "low")
             if {f"gt_{band}", f"vc_{band}"} <= present]
    if not pairs:
        raise UserError(f"{rs.path}: no gt/vc condition pairs found in the "
                        "ratings; name them with --conditions a:b")
    return pairs


def cmd_stats(args, cfg) -> int:
    ratings = _require(args.ratings, "ratings CSV path")
    rs = stats.RatingSet.from_csv(ratings)
    out = None
    if args.out or cfg.paths.get("out"):
        out = _out_dir(args, cfg)

    if args.mode == "mos":
        summaries = stats.mos_summary(rs.mos_scores())
        print("condition,n,mean,ci_low,ci_high")
        order = [c for c in stats.MOS_CONDITIONS if c in summaries]
        for cond in order:
            s = summaries[cond]
            lo = "" if s.ci_low is None else f"{s.ci_low:.4f}"
            hi = "" if s.ci_high is None else f"{s.ci_high:.4f}"
            print(f"{cond},{s.n},{s.mean:.4f},{lo},{hi}")
        table = {"mos": summaries}

    elif args.mode == "wilcoxon":
        rows = []
        print(",".join(stats.WILCOXON_COLUMNS))
        for cond_a, cond_b in _wilcoxon_pairs(args, rs):
            a, b = rs.mos_pairs(cond_a, cond_b)
            try:
                res = stats.wilcoxon_signed_rank(a, b)
                cells, note = (res.n, res.statistic, res.p_value, res.method), ""
            except stats.AllZeroDifferencesError:
                cells, note = (0, "", "", "no_test"), " (all differences zero)"
            row = dict(zip(stats.WILCOXON_COLUMNS, (cond_a, cond_b) + cells))
            print(",".join(str(v) for v in row.values()) + note)
            rows.append(row)
        table = {"wilcoxon": rows}

    else:
        groups = rs.ab_groups()
        if not groups:
            raise UserError(f"{rs.path}: no ab rows in the ratings file")
        print("pair,direction,comparison,expectation,n,percent,percent_sure")
        for (pair, direction, kind), judgments in sorted(groups.items()):
            expectation = stats.AB_EXPECTATIONS[kind]
            agg = stats.ab_agreement(judgments, expectation)
            print(f"{pair},{direction},{kind},{expectation},{agg.n},"
                  f"{agg.percent_matching:.2f}%,"
                  f"{agg.percent_matching_sure_only:.2f}%")
        table = {"similarity": stats.similarity_grid(rs)}
    if out:
        stats.export_tables(table, out)
    return 0


COMMANDS = {"preprocess": cmd_preprocess, "train": cmd_train,
            "convert": cmd_convert, "pair": cmd_pair, "stats": cmd_stats}


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_run_config(args.config)
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
