"""End-to-end benchmark of the pathovc pipeline: preprocess, train, convert.

Run from the repository root:

    python3 benchmarks/bench.py --workload train-default --seed 1 \\
        --seconds 30 --trace 0

Each run writes a seeded synthetic corpus (set-up), runs one untimed
warm-up cycle, then repeats timed cycles for ``--seconds``.
A cycle calls the real commands in-process through
``pathovc.cli.main(argv)``, one after another: ``preprocess`` on the
corpus, ``train`` on its features, ``convert --no-wav`` for every source
speaker's held-out B2 words, and ``convert`` with Griffin-Lim waveforms
for one source-target pair.  Every output is checked after each cycle.

``--trace 0`` reports the end-to-end metrics with tracing off, each the
median over the timed cycles.  Their times are wall times rescaled by the
speed probe of ``speed.py``, timed between commands.  ``--trace 1`` alternates untraced and
traced cycles and reports the per-layer table of ``spans.py`` plus the
tracing overhead.  The last line of standard output is the result
object; the line before it is the run header.  Both also go to
``benchmarks/out/results/``, with the spans of traced runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans
import speed
from inputs import Workload, write_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
STAGES = ("preprocess", "train", "convert_features", "convert_wav")

# Each workload runs the whole pipeline, so every end-to-end metric is
# measured on each; the inputs put the largest share of a cycle into one
# command.  Every workload converts 16 words of M01 to waveforms: the
# spectral-convergence guard varies by about a tenth from word to word,
# and its mean over fewer words drifts too far from seed to seed.
WORKLOADS = {
    # ~250 s of 16/22.05/24 kHz audio in 162 clips, with noisy lead-in
    # and tail and four all-zero clips: resampling, the noise gate and
    # trimming all get real work
    "preprocess-corpus": Workload(
        source_words=16, source_seconds=(0.3, 0.6),
        words=(13, 13, 12), word_seconds=(0.4, 2.5),
        rates=(16000, 16000, 16000, 16000, 22050, 24000),
        silent=4, steps=4),
    # words of 0.3-1.1 s straddle the 64-frame (0.68 s) crop, so the
    # random-crop and the pad-and-mask paths both run; the waveform
    # source's words are short, so `train` leads the cycle
    "train-default": Workload(
        source_words=16, source_seconds=(0.3, 0.6),
        words=(4, 4, 4), word_seconds=(0.3, 1.1), rates=(16000,),
        silent=0, steps=8),
    # long held-out words of variable, often odd frame counts, most of
    # the cycle in Griffin-Lim
    "convert-heldout": Workload(
        source_words=16, source_seconds=(0.4, 2.5),
        words=(6, 6, 6), word_seconds=(0.4, 2.5), rates=(16000,),
        silent=0, steps=4),
}
# `train` gets the same seed on every run, so model initialization and
# batch order are fixed and the workload seed varies only the audio; the
# loss guard then compares like with like across seeds
TRAIN_SEED = 1


def import_pathovc():
    """Import pathovc from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "pathovc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no pathovc sources under {src}")
    sys.path.insert(0, str(src))
    import pathovc.cli
    import pathovc.dsp
    import pathovc.vqvae
    if Path(pathovc.__file__).resolve().parent != src / "pathovc":
        raise SystemExit(f"bench: imported pathovc from {pathovc.__file__}")
    return pathovc


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas():
    import ctypes
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = int(fn())
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def run_header(argv, seed):
    import scipy
    return {"argv": argv, "seed": seed, "git_commit": _git_commit(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": _blas()}


class Pipeline:
    """One workload's corpus and the command cycle run over it."""

    def __init__(self, pathovc, spec: Workload, corpus, run_dir: Path):
        self.main = pathovc.cli.main
        self.load_checkpoint = pathovc.vqvae.load_checkpoint
        self.dsp_cfg = pathovc.dsp.DspConfig()
        self.width = pathovc.vqvae.VqVaeConfig().in_channels
        self.spec = spec
        self.corpus = corpus
        self.dir = run_dir
        self.reference = None   # output digests of the first cycle

    def _call(self, stage, argv, tracer):
        """Run one command of ``stage``; record its wall time and probes."""
        command = stage.split("_")[0]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            start = time.perf_counter()
            if tracer is None:
                rc = self.main(argv)
            else:
                rec = tracer.begin(f"cli.{command}")
                try:
                    rc = self.main(argv)
                finally:
                    tracer.end(rec)
            wall = time.perf_counter() - start
        if rc != 0:
            self.errors.append(f"{command} exited {rc}: {buf.getvalue()[-500:]}")
        # A user runs each command in a fresh process.  Collecting this
        # command's cyclic garbage (diffcore graphs) here keeps it out of
        # the next command's time, and keeps the heap from growing over the
        # cycles.
        gc.collect()
        after = speed.probe()
        self.calls.append((stage, wall, self.probe_s, after))
        self.probe_s = after

    def cycle(self, tracer=None) -> dict:
        """Run the four passes, check their outputs; returns the cycle record."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.errors, self.calls = [], []
        gc.collect()
        self.probe_s = speed.probe()
        c, d = self.corpus, self.dir
        base = ["--config", str(c.config)]
        feats, model = d / "features", d / "model"
        nowav, wav = d / "convert-features", d / "convert-wav"
        ckpt = str(model / "model.hvqv")
        pairs = [(s, c.speakers[(i + 1) % len(c.speakers)])
                 for i, s in enumerate(c.speakers)]

        if tracer is not None:
            tracer.install()
        try:
            self._call("preprocess", base + [
                "--out", str(feats), "preprocess", str(c.manifest)], tracer)
            self._call("train", base + [
                "--seed", str(TRAIN_SEED), "--out", str(model), "train",
                str(c.manifest), "--features", str(feats)], tracer)
            for s, t in pairs:
                self._call("convert_features", base + [
                    "--out", str(nowav), "convert", ckpt, "--features", str(feats),
                    "--source", s, "--target", t, "--no-wav"], tracer)
            self._call("convert_wav", base + [
                "--out", str(wav), "convert", ckpt, "--features", str(feats),
                "--source", pairs[0][0], "--target", pairs[0][1]], tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return self._check(pairs, feats, model, nowav, wav)

    def _check(self, pairs, feats, model, nowav, wav) -> dict:
        steps = self.spec.steps
        clips = len(checks.utterance_keys(self.corpus.manifest))
        sel_all = self._selection(feats, pairs)
        sel_wav = self._selection(feats, pairs[:1])
        n_feat, n_wav = len(sel_all), len(sel_wav)
        failed = 0
        convergence = []
        recon = math.nan
        try:
            failed += checks.check_preprocess(self.corpus, feats, self.width,
                                              self.errors)
        except (OSError, ValueError) as exc:
            self.errors.append(f"preprocess: {exc}")
            failed += clips
        failed += checks.check_train(model, steps, self.load_checkpoint,
                                     self.errors)
        try:
            recon = checks.recon_tail(model / "training_report.csv", steps)
        except (OSError, ValueError) as exc:
            self.errors.append(f"train: {exc}")
        failed += checks.check_convert(sel_all, nowav, self.dsp_cfg, False,
                                       self.errors, [])
        failed += checks.check_convert(sel_wav, wav, self.dsp_cfg, True,
                                       self.errors, convergence)
        if not n_feat or len(convergence) != n_wav:
            self.errors.append("convert: nothing selected or unscored")

        digests = self._digests()
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(k for k in digests.keys() | self.reference.keys()
                             if digests.get(k) != self.reference.get(k))
            self.errors.append(f"outputs differ from the first cycle: {changed[:5]}")

        wall = dict.fromkeys(STAGES, 0.0)
        ref = dict.fromkeys(STAGES, 0.0)
        for stage, t, before, after in self.calls:
            wall[stage] += t
            # rescaled by the mean of the probes on either side (speed.py)
            ref[stage] += t * 2.0 * speed.NOMINAL_S / (before + after)
        return {
            "attempted": clips + steps + n_feat + n_wav,
            "failed": failed,
            "errors": self.errors,
            "wall_s": sum(wall.values()),
            "ref_s": sum(ref.values()),
            "stage_s": wall,
            "calls": self.calls,
            "metrics": {
                "preprocess.audio_s_per_s": self.corpus.audio_seconds / ref["preprocess"],
                "train.step_ms": 1e3 * ref["train"] / steps,
                "train.recon_loss": recon,
                "convert.features_utt_ms": 1e3 * ref["convert_features"] / max(n_feat, 1),
                "convert.wav_utt_ms": 1e3 * ref["convert_wav"] / max(n_wav, 1),
                "convert.spectral_convergence": (
                    float(np.mean(convergence)) if convergence else math.nan),
            },
        }

    @staticmethod
    def _selection(feats: Path, pairs) -> dict:
        """Output stem -> source feature file, for the B2 words converted."""
        try:
            index = json.loads((feats / "index.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        out = {}
        for source, target in pairs:
            for key, entry in sorted(index.items()):
                if entry["speaker_id"] == source and entry["block"] == "B2":
                    stem = key.replace("/", "_") + f"_to_{target}"
                    out[stem] = feats / entry["feature_path"]
        return out

    def _digests(self) -> dict:
        return {str(p.relative_to(self.dir)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(self.dir.rglob("*")) if p.is_file()}


def end_to_end(setup_times, cycles) -> dict:
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    units = {"preprocess.audio_s_per_s": "s/s", "train.step_ms": "ms",
             "train.recon_loss": "L1", "convert.features_utt_ms": "ms",
             "convert.wav_utt_ms": "ms", "convert.spectral_convergence": "ratio"}
    for name, unit in units.items():
        metrics[name] = (statistics.median([c["metrics"][name] for c in cycles]), unit)
    return metrics


def per_layer(pipeline, untraced, traced_tables, traced_refs, errors) -> dict:
    """Median per-layer table over the traced cycles, plus tracing overhead.

    Counts are exact and must repeat from one traced cycle to the next.
    """
    table = {}
    for name, (_, unit) in traced_tables[0].items():
        values = [t[name][0] for t in traced_tables]
        if unit == "count":
            if len(set(values)) > 1:
                errors.append(f"{name} differs between traced cycles: {values}")
            table[name] = (values[0], unit)
        else:
            table[name] = (statistics.median(values), unit)
    for stage in STAGES:
        # from the untraced cycles: the wrappers slow diffcore-heavy
        # commands more than the others
        table[f"cycle.{stage}.share_pct"] = (statistics.median(
            [100.0 * c["stage_s"][stage] / c["wall_s"] for c in untraced]), "%")
    # in reference time, so that a drift of the machine between the
    # untraced and the traced cycles does not read as overhead
    base = statistics.median([c["ref_s"] for c in untraced])
    over = statistics.median(traced_refs) - base
    table["trace.overhead_ms"] = (1e3 * over, "ms")
    table["trace.overhead_pct"] = (100.0 * over / base, "%")
    ckpt = pipeline.dir / "model" / "model.hvqv"
    table["vqvae.checkpoint.bytes"] = (ckpt.stat().st_size if ckpt.is_file() else 0,
                                       "bytes")
    return table


def select(metrics: dict, declared: list) -> dict:
    """The metrics BENCHMARK.json declares, in its order, with their units."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"bench: metrics not computed: {missing}")
    out = {}
    for m in declared:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"bench: {m['name']} is in {unit}, declared {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def traced_cycle(pipeline):
    """One traced cycle plus the tracer self-checks; (cycle, table, spans)."""
    tracer = spans.Tracer()
    cyc = pipeline.cycle(tracer)
    left = spans.leftover_wrappers()
    if left:
        cyc["errors"].append(f"wrappers left installed: {left}")
    table = spans.layer_metrics(tracer.spans)
    silent = spans.never_fired(tracer)
    if silent:
        cyc["errors"].append(f"wrappers that never fired: {silent}")
    return cyc, table, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    raw_argv = sys.argv[1:] if argv is None else list(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pathovc = import_pathovc()
    # warnings such as the skipped-clip count are expected here, and what
    # they report is checked from the outputs instead
    logging.basicConfig(level=logging.ERROR)
    header = run_header(raw_argv, args.seed)

    spec = WORKLOADS[args.workload]
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setup_times, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work / "inputs", ignore_errors=True)
        probe_s = speed.probe()
        start = time.perf_counter()
        corpus = write_corpus(spec, args.seed, work / "inputs")
        setup_raw.append(time.perf_counter() - start)
        setup_times.append(setup_raw[-1] * speed.NOMINAL_S / probe_s)

    pipeline = Pipeline(pathovc, spec, corpus, work / "run")
    cycles = [pipeline.cycle()]            # warm-up, and the reference outputs
    untraced, tables, traced_refs, all_spans = [], [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        untraced.append(pipeline.cycle())
        if args.trace:
            cyc, table, recorded = traced_cycle(pipeline)
            cycles.append(cyc)
            tables.append(table)
            traced_refs.append(cyc["ref_s"])
            all_spans.append(recorded)
        # stop before another round would end past --seconds, so a slow
        # machine lengthens a run by no more than its set-up and warm-up
        now = time.perf_counter()
        if now - start + (now - began) > args.seconds:
            break
    cycles += untraced

    errors = [e for c in cycles for e in c["errors"]]
    if args.trace:
        metrics = select(per_layer(pipeline, untraced, tables, traced_refs, errors),
                         declared["per_layer"])
    else:
        metrics = select(end_to_end(setup_times, untraced), declared["end_to_end"])
    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    result = {"correct": not errors and failed == 0 and finite,
              "attempted": attempted, "failed": failed, "metrics": metrics}

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"header": header, "result": result, "errors": errors[:50],
              "cycles": [c["metrics"] | {"wall_s": c["wall_s"], "stage_s": c["stage_s"],
                                         "calls": c["calls"]}
                         for c in untraced],
              "setup_s": setup_times, "setup_raw_s": setup_raw}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if all_spans:
        (results / f"{stem}-spans.json").write_text(json.dumps(all_spans))
    for e in errors[:20]:
        print(f"bench: {e}", file=sys.stderr)
    print(json.dumps({"header": header}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
