"""Outside-in span tracer for the pathovc layers.

The tracer wraps public functions of each layer at the module attribute
its caller resolves.  `from x import y` binds a name per module, so the
binding matters: `stft` is wrapped in `pathovc.dsp.features`, where
`mel_spectrogram` and `griffin_lim` look it up, and not in
`pathovc.dsp.audio`, so the STFTs inside `reduce_noise` stay part of that
stage's own time.  Spans record name, start, end and parent and stay in
memory until the benchmark writes them out.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  The comment names the caller whose
# lookup the binding serves.
TARGETS = (
    # cli.py: corpus.*
    ("pathovc.corpus", "parse_manifest", "corpus.parse_manifest"),
    ("pathovc.corpus", "load_feature_store", "corpus.load_feature_store"),
    ("pathovc.corpus", "build_feature_store", "corpus.build_feature_store"),
    # corpus.build_feature_store and cli.py: dsp.*
    ("pathovc.dsp", "read_wav", "dsp.read_wav"),
    ("pathovc.dsp", "reduce_noise", "dsp.reduce_noise"),
    ("pathovc.dsp", "trim_silence", "dsp.trim_silence"),
    ("pathovc.dsp", "resample", "dsp.resample"),
    ("pathovc.dsp", "normalize", "dsp.normalize"),
    ("pathovc.dsp", "mel_spectrogram", "dsp.mel_spectrogram"),
    ("pathovc.dsp", "mel_cepstrum", "dsp.mel_cepstrum"),
    ("pathovc.dsp", "write_mcep", "dsp.write_mcep"),
    ("pathovc.dsp", "read_mcep", "dsp.read_mcep"),
    ("pathovc.dsp", "invert_mel_cepstrum", "dsp.invert_mel_cepstrum"),
    ("pathovc.dsp", "griffin_lim", "dsp.griffin_lim"),
    ("pathovc.dsp", "write_wav", "dsp.write_wav"),
    # dsp/features.py: mel_spectrogram, mel_to_linear, griffin_lim
    ("pathovc.dsp.features", "mel_filterbank", "dsp.mel_filterbank"),
    ("pathovc.dsp.features", "mel_to_linear", "dsp.mel_to_linear"),
    ("pathovc.dsp.features", "stft", "dsp.stft"),
    ("pathovc.dsp.features", "istft", "dsp.istft"),
    # vqvae/model.py and vqvae/training.py: dc.*
    ("pathovc.diffcore", "conv1d", "diffcore.conv1d"),
    ("pathovc.diffcore", "conv_transpose1d", "diffcore.conv_transpose1d"),
    ("pathovc.diffcore", "add", "diffcore.add"),
    ("pathovc.diffcore", "relu", "diffcore.relu"),
    ("pathovc.diffcore", "concat", "diffcore.concat"),
    ("pathovc.diffcore", "crop", "diffcore.crop"),
    ("pathovc.diffcore", "embedding", "diffcore.embedding"),
    ("pathovc.diffcore", "transpose", "diffcore.transpose"),
    ("pathovc.diffcore", "straight_through", "diffcore.straight_through"),
    ("pathovc.diffcore", "squared_error", "diffcore.squared_error"),
    ("pathovc.diffcore", "abs_error", "diffcore.abs_error"),
    # Tensor.__add__ and Tensor.__mul__ resolve the engine's own globals
    ("pathovc.diffcore.engine", "add", "diffcore.add"),
    ("pathovc.diffcore.engine", "mul", "diffcore.mul"),
    ("pathovc.diffcore.engine", "Tensor.backward", "diffcore.backward"),
    ("pathovc.diffcore.optim", "Adam.step", "diffcore.adam"),
    # vqvae/model.py, vqvae/training.py and cli.py
    ("pathovc.vqvae.model", "quantize", "vqvae.quantize"),
    ("pathovc.vqvae.model", "codebook_perplexity", "vqvae.codebook_perplexity"),
    ("pathovc.vqvae.training", "codebook_perplexity", "vqvae.codebook_perplexity"),
    ("pathovc.vqvae.model", "HVqVaeModel.encode", "vqvae.encode"),
    ("pathovc.vqvae.model", "HVqVaeModel.init_codebooks", "vqvae.init_codebooks"),
    ("pathovc.vqvae.model", "HVqVaeModel.convert", "vqvae.convert"),
    ("pathovc.vqvae", "train", "vqvae.train"),
    ("pathovc.vqvae", "save_checkpoint", "vqvae.save_checkpoint"),
    ("pathovc.vqvae", "load_checkpoint", "vqvae.load_checkpoint"),
)

MCEP_HEADER_BYTES = 13  # b"MCEP1" plus two little-endian u32


def _conv_cost(name, x, k, out):
    """Computed forward cost of one conv call: (flops, bytes).

    Bytes count each operand read once and the result written once,
    which is the least traffic the op can do; flops count a multiply and
    an add per kernel tap.
    """
    taps = k.data.size  # Cout * Cin * W for both layouts
    positions = out.data.shape[1] if name == "diffcore.conv1d" else x.data.shape[1]
    size = x.data.itemsize
    return 2 * taps * positions, size * (x.data.size + k.data.size + out.data.size)


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent index, attrs]
        self.fired = set()  # indices into TARGETS of the wrappers called
        self._open = []
        self._patches = []

    def begin(self, name, attrs=None):
        rec = [name, time.perf_counter_ns(), 0,
               self._open[-1] if self._open else -1, attrs]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec):
        rec[2] = time.perf_counter_ns()
        self._open.pop()

    def _wrap(self, fn, name, target):
        """Wrapper of ``fn`` recording span ``name``; ``target`` indexes TARGETS.

        Several bindings share a span name, so each wrapper also notes its
        own TARGETS entry in ``fired``.
        """
        begin, end, fired = self.begin, self.end, self.fired
        if name in ("diffcore.conv1d", "diffcore.conv_transpose1d"):
            return self._wrap_conv(fn, name, target)
        if name == "dsp.griffin_lim":
            def traced(ms, cfg, iterations, *args, **kwargs):
                fired.add(target)
                rec = begin(name, {"iterations": iterations})
                try:
                    return fn(ms, cfg, iterations, *args, **kwargs)
                finally:
                    end(rec)
            return traced
        if name == "dsp.read_mcep":
            def traced(*args, **kwargs):
                fired.add(target)
                rec = begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end(rec)
                rec[4] = {"bytes": MCEP_HEADER_BYTES + 4 * out.size}
                return out
            return traced

        def traced(*args, **kwargs):
            fired.add(target)
            rec = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(rec)
        return traced

    def _wrap_conv(self, fn, name, target):
        begin, end, fired = self.begin, self.end, self.fired
        bw_name = name + ".backward"

        def traced(x, k, *args, **kwargs):
            fired.add(target)
            rec = begin(name)
            try:
                out = fn(x, k, *args, **kwargs)
            finally:
                end(rec)
            flops, nbytes = _conv_cost(name, x, k, out)
            rec[4] = {"flops": flops, "bytes": nbytes}
            inner = out._backward
            if inner is not None:
                # the backward does the forward's taps once for dk and
                # once more for dx; conv1d skips dx for the network input
                dx = name == "diffcore.conv_transpose1d" or x.requires_grad
                size = x.data.itemsize
                attrs = {"flops": (2 if dx else 1) * flops,
                         "bytes": size * (out.data.size + x.data.size
                                          + 2 * k.data.size
                                          + (x.data.size if dx else 0))}

                def timed_backward():
                    brec = begin(bw_name, attrs)
                    try:
                        inner()
                    finally:
                        end(brec)
                out._backward = timed_backward
            return out
        return traced

    def install(self):
        for target, (module, attr, name) in enumerate(TARGETS):
            owner, leaf = _binding(module, attr)
            original = vars(owner)[leaf]
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, target))

    def uninstall(self):
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)


def _binding(module, attr):
    """(object holding the name, name) for a TARGETS entry."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def leftover_wrappers() -> list:
    """Targets still bound to a tracer wrapper.

    Independent of the tracer's own patch list: every wrapper is a
    closure defined in a Tracer method, which its qualified name shows.
    """
    left = []
    for module, attr, _ in TARGETS:
        owner, leaf = _binding(module, attr)
        if getattr(vars(owner)[leaf], "__qualname__", "").startswith("Tracer."):
            left.append(f"{module}.{attr}")
    return left


FRONT_END = ("read_wav", "reduce_noise", "trim_silence", "resample",
             "normalize", "mel_spectrogram", "mel_cepstrum", "write_mcep")
SYNTHESIS = ("stft", "istft", "mel_to_linear", "invert_mel_cepstrum",
             "write_wav")
DIFFCORE_OPS = ("conv1d", "conv_transpose1d", "add", "mul", "relu", "concat",
                "crop", "embedding", "transpose", "straight_through",
                "squared_error", "abs_error")
VQVAE = ("quantize", "codebook_perplexity", "encode", "init_codebooks",
         "train", "convert", "save_checkpoint", "load_checkpoint")
COMMANDS = ("preprocess", "train", "convert")
CONVS = ("conv1d", "conv_transpose1d")


def never_fired(tracer) -> list:
    """Wrapped bindings and derived spans a traced cycle did not record.

    Every workload runs every command, so a traced pipeline cycle calls
    each binding at least once.  Bindings are checked by their TARGETS
    entry, since several of them share a span name.
    """
    silent = [f"{module}.{attr}" for i, (module, attr, _) in enumerate(TARGETS)
              if i not in tracer.fired]
    recorded = {s[0] for s in tracer.spans}
    derived = [f"diffcore.{c}.backward" for c in CONVS] + [f"cli.{c}" for c in COMMANDS]
    return silent + [name for name in derived if name not in recorded]


def layer_metrics(spans) -> dict:
    """Per-layer table of one traced cycle: {metric: (value, unit)}.

    "self" is a span's duration minus that of its direct children.  Per
    step figures cover the training steps only: spans under `vqvae.train`
    and not under the `vqvae.encode` that seeds the codebooks.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    step = defaultdict(float)       # per-step sums: ops, flops, bytes, ms
    attr = defaultdict(float)
    dur = np.array([(s[2] - s[1]) / 1e6 for s in spans])
    child = np.zeros(len(spans))
    in_step = np.zeros(len(spans), dtype=bool)
    for i, (name, _, _, parent, attrs) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            in_step[i] = in_step[parent] and name != "vqvae.encode"
        if name == "vqvae.train":
            in_step[i] = True
        if attrs:
            for key, value in attrs.items():
                attr[f"{name}.{key}"] += value
        if in_step[i] and name.startswith("diffcore."):
            op = name.split(".")[1]
            if op in DIFFCORE_OPS and not name.endswith(".backward"):
                step["ops"] += 1
            if op in CONVS:
                step[f"{op}.flops"] += attrs["flops"]
                step[f"{op}.bytes"] += attrs["bytes"]
                step["conv.ms"] += dur[i]
    for i, (name, *_rest) in enumerate(spans):
        calls[name] += 1
        total[name] += dur[i]
        own[name] += dur[i] - child[i]

    m = {}
    for fn in FRONT_END:
        m[f"dsp.{fn}.calls"] = (calls[f"dsp.{fn}"], "count")
        m[f"dsp.{fn}.self_ms"] = (own[f"dsp.{fn}"], "ms")
    m["dsp.mel_filterbank.calls"] = (calls["dsp.mel_filterbank"], "count")
    m["dsp.griffin_lim.calls"] = (calls["dsp.griffin_lim"], "count")
    m["dsp.griffin_lim.ms"] = (total["dsp.griffin_lim"], "ms")
    m["dsp.griffin_lim.ms_per_iter"] = (
        total["dsp.griffin_lim"] / max(attr["dsp.griffin_lim.iterations"], 1), "ms")
    for fn in SYNTHESIS:
        m[f"dsp.{fn}.calls"] = (calls[f"dsp.{fn}"], "count")
        m[f"dsp.{fn}.self_ms"] = (own[f"dsp.{fn}"], "ms")

    steps = max(calls["diffcore.adam"], 1)
    for op in DIFFCORE_OPS:
        m[f"diffcore.{op}.calls"] = (calls[f"diffcore.{op}"], "count")
        m[f"diffcore.{op}.self_ms"] = (own[f"diffcore.{op}"], "ms")
    m["diffcore.ops_per_step"] = (step["ops"] / steps, "count")
    m["diffcore.backward.ms"] = (total["diffcore.backward"], "ms")
    m["diffcore.conv_backward.ms"] = (
        sum(total[f"diffcore.{c}.backward"] for c in CONVS), "ms")
    m["diffcore.adam.ms"] = (total["diffcore.adam"], "ms")
    for c in CONVS:
        m[f"diffcore.{c}.computed_gflop_per_step"] = (
            step[f"{c}.flops"] / steps / 1e9, "GFLOP")
        m[f"diffcore.{c}.computed_mb_per_step"] = (
            step[f"{c}.bytes"] / steps / 1e6, "MB")
    conv_flops = sum(step[f"{c}.flops"] for c in CONVS)
    m["diffcore.conv.computed_gflop_per_s"] = (
        conv_flops / 1e9 / max(step["conv.ms"] / 1e3, 1e-9), "GFLOP/s")

    for fn in VQVAE:
        m[f"vqvae.{fn}.calls"] = (calls[f"vqvae.{fn}"], "count")
        m[f"vqvae.{fn}.ms"] = (total[f"vqvae.{fn}"], "ms")
    m["corpus.parse_manifest.ms"] = (total["corpus.parse_manifest"], "ms")
    m["corpus.load_feature_store.ms"] = (total["corpus.load_feature_store"], "ms")
    m["corpus.build_feature_store.self_ms"] = (own["corpus.build_feature_store"], "ms")
    m["corpus.read_mcep.bytes"] = (attr["dsp.read_mcep.bytes"], "bytes")
    for c in COMMANDS:
        m[f"cli.{c}.self_ms"] = (own[f"cli.{c}"], "ms")
    m["trace.spans"] = (len(spans), "count")
    return m
