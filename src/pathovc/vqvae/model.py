"""3-stage hierarchical vector-quantized autoencoder with speaker conditioning.

Encoding runs x -> u1 -> u2 -> u3, each stage halving the frame count and
emitting a latent sequence z_n. Each z_n snaps to its stage codebook.
Decoding starts from q3 and walks back down, every stage consuming its
quantized latents, the previous decoder output, and the conditioning
speaker embedding. Conversion re-decodes a source utterance under the
target speaker's embedding.
One code path takes one time-major utterance (T, C) or a batch (B, T, C)
of equal-length crops; the graph inside is channel-major, (C, T) or
(B, C, T).  Each loss term is the mean over the batch of the
per-utterance means.  Conversion runs words of any lengths together, laid
out along time in one (C, T) sequence per pass (see _Layout), and builds
no graph: it views the parameters as tensors that need no gradient.
"""

from dataclasses import dataclass, field

import numpy as np

from .. import diffcore as dc

MIN_FRAMES = 8  # three halvings need 2**3 input frames
# each encoder stage halves the frame count; each decoder's transposed
# conv, kernel 2*STRIDE and padding STRIDE//2, doubles it back exactly
STRIDE = 2
# Frames that convert lays out in one pass, gaps included; a longer word
# runs in a pass of its own.  Over the 34 held-out words of the
# convert-heldout benchmark corpus (seed 3; 2-core VM, OpenBLAS 0.3.31),
# the model calls took a median 57.4, 45.1 and 49.2 ms in passes of 256,
# 512 and 1024 frames, against 66.8 ms one word per pass, and peaked at
# 1.4, 2.6 and 5.3 MB of numpy memory, against 12.9 MB in a single pass.
PASS_FRAMES = 512


class UnknownSpeakerError(LookupError):
    pass


class EmptyCodebookError(ValueError):
    pass


@dataclass
class VqVaeConfig:
    in_channels: int = 40
    hidden: int = 128
    latent_dim: int = 64
    codebook_size: int = 64
    embed_dim: int = 32
    beta: float = 0.25
    kernel_size: int = 5
    param_dtype: str = "float32"

    def __post_init__(self):
        if self.codebook_size < 2:
            raise ValueError("codebook_size must be at least 2")
        if min(self.in_channels, self.hidden, self.latent_dim, self.embed_dim) < 1:
            raise ValueError("channel widths must be positive")
        if self.kernel_size < 1 or self.kernel_size % 2 != 1:
            raise ValueError("kernel_size must be positive and odd")
        if not self.beta >= 0:
            raise ValueError("beta must be non-negative")

    @property
    def dtype(self):
        return np.dtype(self.param_dtype)


@dataclass
class LossBreakdown:
    reconstruction: float
    codebook: float
    commitment: float
    perplexities: tuple
    indices: list = field(repr=False, default_factory=list)  # (..., T_n) per stage
    # graph nodes of the three components, for gradient inspection
    nodes: dict = field(repr=False, default_factory=dict)


def _check_length(t):
    if t < MIN_FRAMES:
        raise ValueError(
            f"input of {t} frames is too short; three halvings need at least "
            f"{MIN_FRAMES}")


class _Layout:
    """Words laid out along time for one conversion pass.

    Word i, of lengths[i] frames, starts at frame starts[i] (see _plan);
    the last word ends the sequence.  At stage n (0: the input frames)
    word i holds the lengths[n][i] columns from starts[n][i] of the
    size[n] columns, valid[n] indexes every word's columns and gaps[n]
    the others (None if there are none).
    """

    def __init__(self, lengths, starts):
        self.lengths, self.starts, self.size, self.valid, self.gaps = [], [], [], [], []
        for n in range(4):
            scale = STRIDE ** n
            lens = [-(-t // scale) for t in lengths]  # ceil: a stage halves, rounding up
            firsts = [s // scale for s in starts]
            size = firsts[-1] + lens[-1]
            mask = np.zeros(size, dtype=bool)
            for s, t in zip(firsts, lens):
                mask[s:s + t] = True
            gaps = np.flatnonzero(~mask)
            self.lengths.append(lens)
            self.starts.append(firsts)
            self.size.append(size)
            self.valid.append(np.flatnonzero(mask) if gaps.size else slice(None))
            self.gaps.append(gaps if gaps.size else None)

    def word(self, a, n, i):
        """Word i's columns of a stage-n array (..., size[n])."""
        s = self.starts[n][i]
        return a[..., s:s + self.lengths[n][i]]

    def finite(self, a, n):
        """Per word, whether its columns of a stage-n array are all finite."""
        ok = np.isfinite(a).reshape(-1, a.shape[-1]).all(axis=0)
        return [bool(self.word(ok, n, i).all()) for i in range(len(self.starts[n]))]


def _zero_gaps(t, layout, n):
    """Re-zero, in place, Tensor t's stage-n columns outside every word of
    `layout` (None: no gaps).  Only for graph-free passes: a recorded op
    would route its gradient by the old values."""
    if layout is not None and layout.gaps[n] is not None:
        t.data[..., layout.gaps[n]] = 0


def _candidates(rows, codebook):
    """(N, K) mask of the codewords each row's nearest may be, by GEMM.

    Codewords are ranked by |c|^2 - 2 z.c, the expanded squared distance
    less its row constant |z|^2.  With unit roundoff u and
    gamma_n = n u / (1 - n u), that is within (gamma_D + 2u) s^2 of the
    exact value and the direct ((z - c)**2).sum(-1) within
    gamma_{D+2} s^2, s = |z| + max|c|; so the direct winner lies within
    2(gamma_D + gamma_{D+2} + 2u) s^2 of the expanded minimum.  The
    margin 8(D + 4)(u s^2 + smallest subnormal) covers that, gradual
    underflow and the rounding of s itself whenever (D + 8) u <= 1/4.
    The bound is derived for float32 and float64; any other dtype gets
    an empty mask.
    """
    work = np.result_type(rows.dtype, codebook.dtype)
    if work not in (np.float32, np.float64):
        return np.zeros((rows.shape[0], codebook.shape[0]), dtype=bool)
    r = rows.astype(work, copy=False)
    c = codebook.astype(work, copy=False)
    cc = np.einsum("ij,ij->i", c, c)
    d = r @ c.T
    d *= -2
    d += cc
    info = np.finfo(work)
    k = 8 * (rows.shape[1] + 4)
    margin = np.sqrt(np.einsum("ij,ij->i", r, r)) + np.sqrt(cc.max())
    margin *= margin
    margin *= k * float(info.eps) / 2
    margin += k * float(info.smallest_subnormal)
    margin += d.min(axis=1)
    return d <= margin[:, None]


def quantize(z: np.ndarray, codebook: np.ndarray):
    """Nearest codeword per row; ties go to the lowest index.

    z is (..., T, D), codebook (K, D). Returns (q, indices) with q rows
    taken verbatim from the codebook and indices shaped like z[..., 0].
    A row with one GEMM candidate (see _candidates) takes it; a row with
    several is re-ranked among them by the direct distance, and a row
    with none (NaN, overflow) over the whole codebook.  The indices
    therefore equal the exhaustive search's.
    """
    z = np.asarray(z)
    codebook = np.asarray(codebook)
    if codebook.ndim != 2 or codebook.shape[0] == 0:
        raise EmptyCodebookError("codebook has no codewords")
    if z.ndim < 2 or z.shape[-1] != codebook.shape[1]:
        raise dc.ShapeError(
            f"latents of width {z.shape[-1]} do not match codewords of width "
            f"{codebook.shape[1]}")
    rows = z.reshape(-1, z.shape[-1])
    # overflowing rows get no candidate and are re-ranked below, so their
    # overflow is not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        near = _candidates(rows, codebook)
        count = near.sum(axis=1)
        indices = near.argmax(axis=1)
        rerank = np.flatnonzero(count != 1)
        if rerank.size:
            direct = ((rows[rerank, None, :] - codebook) ** 2).sum(axis=-1)
            keep = near[rerank] | (count[rerank] == 0)[:, None]
            indices[rerank] = np.where(keep, direct, np.inf).argmin(axis=1)
    indices = indices.reshape(z.shape[:-1])
    return codebook[indices], indices


def codebook_perplexity(indices, k: int) -> float:
    """exp(entropy) of empirical codeword usage; 1 = collapse, k = uniform."""
    indices = np.asarray(indices, dtype=np.int64).ravel()
    if indices.size == 0:
        raise ValueError("perplexity needs at least one index")
    if indices.min() < 0 or indices.max() >= k:
        raise ValueError("index out of codebook range")
    p = np.bincount(indices, minlength=k) / indices.size
    p = p[p > 0]
    return float(np.exp(-np.sum(p * np.log(p))))


def _param_layout(cfg: VqVaeConfig, n_speakers: int):
    """[(name, shape, init std)] in draw order; std None means zeros."""
    def conv_std(cin, w):
        return np.sqrt(2.0 / (cin * w))

    k, uk, h, d, e, c = (cfg.kernel_size, 2 * STRIDE, cfg.hidden,
                         cfg.latent_dim, cfg.embed_dim, cfg.in_channels)
    layout = []
    for n in (1, 2, 3):
        cin = c if n == 1 else h
        layout += [(f"enc{n}.conv1.w", (h, cin, k), conv_std(cin, k)),
                   (f"enc{n}.conv1.b", (h, 1), None),
                   (f"enc{n}.conv2.w", (h, h, k), conv_std(h, k)),
                   (f"enc{n}.conv2.b", (h, 1), None),
                   (f"enc{n}.proj.w", (d, h, 1), conv_std(h, 1)),
                   (f"enc{n}.proj.b", (d, 1), None)]
    for n in (1, 2, 3):
        cin = d + e if n == 3 else d + h + e
        cout = c if n == 1 else h
        layout += [(f"dec{n}.up.w", (cin, h, uk), conv_std(cin, uk)),
                   (f"dec{n}.up.b", (h, 1), None),
                   (f"dec{n}.out.w", (cout, h, k), conv_std(h, k)),
                   (f"dec{n}.out.b", (cout, 1), None)]
    layout += [(f"codebook{n}", (cfg.codebook_size, d), 0.05) for n in (1, 2, 3)]
    layout.append(("speaker_table", (n_speakers, e), 0.01))
    return layout


class HVqVaeModel:
    def __init__(self, cfg: VqVaeConfig, speakers, seed: int = 0):
        self._bind(cfg, speakers)
        rng = np.random.default_rng(seed)
        dt = cfg.dtype
        self.params = {
            name: dc.Tensor(np.zeros(shape, dtype=dt) if std is None
                            else (std * rng.standard_normal(shape)).astype(dt),
                            requires_grad=True)
            for name, shape, std in _param_layout(cfg, len(self.speakers))}

    def _bind(self, cfg, speakers):
        self.cfg = cfg
        self.speakers = list(speakers)
        if len(set(self.speakers)) != len(self.speakers):
            raise ValueError("duplicate speaker ids")
        if not self.speakers:
            raise ValueError("at least one speaker required")
        self._speaker_index = {s: i for i, s in enumerate(self.speakers)}
        self.codebooks_initialized = False

    @classmethod
    def _from_arrays(cls, cfg: VqVaeConfig, speakers, arrays):
        """A model holding `arrays`, {name: array}, as its parameters, with no
        random draw.  The caller gives one array of the layout's shape per
        name of `_param_layout`; the arrays are held, not copied."""
        model = cls.__new__(cls)
        model._bind(cfg, speakers)
        model.params = {name: dc.Tensor(arrays[name], requires_grad=True)
                        for name, _, _ in _param_layout(cfg, len(model.speakers))}
        return model

    def parameters(self):
        return [self.params[k] for k in sorted(self.params)]

    def speaker_index(self, speaker_id) -> int:
        try:
            return self._speaker_index[speaker_id]
        except KeyError:
            raise UnknownSpeakerError(
                f"speaker {speaker_id!r} is not in the embedding table "
                f"(known: {', '.join(self.speakers)})") from None

    def _input(self, x):
        """Time-major x, (T, C) or (B, T, C), as a channel-major Tensor."""
        frames = np.asarray(x)
        if frames.ndim not in (2, 3):
            raise ValueError("input must be a T x C matrix or a B x T x C batch")
        _check_length(frames.shape[-2])
        return dc.Tensor(np.ascontiguousarray(np.swapaxes(frames, -1, -2),
                                              dtype=self.cfg.dtype))

    def _plain_params(self):
        """The parameters as tensors that need no gradient: ops on them
        build no graph."""
        return {name: dc.Tensor(t.data) for name, t in self.params.items()}

    def _encode_graph(self, x, p=None, layout=None):
        """x is channel-major (..., C, T). Returns the per-stage latent Tensors.

        p: the parameter Tensors, self.params by default; layout: the words
        of a conversion pass (_Layout), whose gaps are re-zeroed after each
        conv that feeds another."""
        p = self.params if p is None else p
        k = self.cfg.kernel_size
        pad = k // 2
        zs = []
        h = x
        for n in (1, 2, 3):
            h = dc.relu(dc.add(dc.conv1d(h, p[f"enc{n}.conv1.w"], STRIDE, pad),
                               p[f"enc{n}.conv1.b"]))
            _zero_gaps(h, layout, n)
            h = dc.relu(dc.add(dc.conv1d(h, p[f"enc{n}.conv2.w"], 1, pad),
                               p[f"enc{n}.conv2.b"]))
            _zero_gaps(h, layout, n)
            zs.append(dc.add(dc.conv1d(h, p[f"enc{n}.proj.w"], 1, 0),
                             p[f"enc{n}.proj.b"]))
        return zs

    def _embedding_frames(self, table, speakers, like):
        """Rows `speakers` of the speaker table repeated over like's (..., D, T) frames."""
        rows = dc.embedding(table, np.asarray(speakers)[..., None])
        zeros = dc.Tensor(np.zeros(like.shape[:-2] + (self.cfg.embed_dim, like.shape[-1]),
                                   dtype=self.cfg.dtype))
        return dc.add(dc.transpose(rows), zeros)

    def _decode_graph(self, qs, speakers, n_frames, p=None, layout=None):
        """qs: channel-major (..., D, T_n) Tensors, finest first; speakers:
        speaker-table rows, one or one per batch item.  p and layout as for
        _encode_graph; each stage's input and upsampled frames are
        re-zeroed outside the words."""
        p = self.params if p is None else p
        k = self.cfg.kernel_size
        pad = k // 2
        v = None
        for n in (3, 2, 1):
            parts = [qs[n - 1]] if v is None else [qs[n - 1], v]
            parts.append(self._embedding_frames(p["speaker_table"], speakers, qs[n - 1]))
            inp = dc.concat(parts, axis=-2)
            _zero_gaps(inp, layout, n)
            h = dc.relu(dc.add(
                dc.conv_transpose1d(inp, p[f"dec{n}.up.w"], STRIDE, STRIDE // 2),
                p[f"dec{n}.up.b"]))
            h = dc.crop(h, qs[n - 2].shape[-1] if n > 1 else n_frames, axis=-1)
            _zero_gaps(h, layout, n - 1)
            out = dc.add(dc.conv1d(h, p[f"dec{n}.out.w"], 1, pad), p[f"dec{n}.out.b"])
            v = dc.relu(out) if n > 1 else out
        return v

    def encode(self, x):
        """Returns the three per-stage latent sequences, time-major; an
        overflow raises ValueError, not a warning.  Builds no graph."""
        with np.errstate(over="ignore", invalid="ignore"):
            zs = [np.swapaxes(z.data, -1, -2)
                  for z in self._encode_graph(self._input(x), self._plain_params())]
        if not all(np.isfinite(z).all() for z in zs):
            raise ValueError("the encoder's latents hold NaN or Inf")
        return tuple(zs)

    def _forward_graph(self, frames, speakers, mask, quantize_bypass=False):
        """Builds the full training graph over time-major frames (..., T, C).

        speakers are speaker-table rows, one or one per batch item; mask,
        (..., T), is 1 on valid frames and 0 on padding (None: no padding).
        The reconstruction weights are mask / mask.sum(-1), so each term is
        the mean over the batch of the per-utterance means.
        quantize_bypass feeds the decoder the raw latents instead of the
        quantized ones; the losses are unchanged. In that mode the whole
        graph is smooth, so gradient checks against finite differences are
        exact; with the quantizer active the straight-through estimator is
        intentionally not the forward's derivative. Returns (total loss
        Tensor, LossBreakdown).
        """
        cfg = self.cfg
        x = self._input(frames)
        mask = np.asarray(np.ones(x.shape[:-2] + x.shape[-1:]) if mask is None else mask,
                          dtype=cfg.dtype)
        valid = mask.sum(axis=-1, keepdims=True)
        if np.any(valid <= 0):
            raise ValueError("every utterance needs at least one unmasked frame")
        zs = self._encode_graph(x)

        qs, cb_terms, commit_terms, index_lists = [], [], [], []
        for n, z in enumerate(zs, start=1):
            cb = self.params[f"codebook{n}"]
            z_rows = dc.transpose(z)
            _, indices = quantize(z_rows.data, cb.data)
            q_rows = dc.embedding(cb, indices)
            cb_terms.append(dc.squared_error(q_rows, dc.Tensor(z_rows.data)))
            commit_terms.append(dc.squared_error(z_rows, dc.Tensor(q_rows.data)))
            if quantize_bypass:
                qs.append(dc.transpose(z_rows))
            else:
                qs.append(dc.transpose(dc.straight_through(z_rows, q_rows)))
            index_lists.append(indices)

        xhat = self._decode_graph(qs, speakers, x.shape[-1])
        weight = np.broadcast_to((mask / valid)[..., None, :], x.shape)
        recon = dc.abs_error(xhat, x, weight=weight)
        cb_loss = dc.add(dc.add(cb_terms[0], cb_terms[1]), cb_terms[2])
        commit = dc.add(dc.add(commit_terms[0], commit_terms[1]), commit_terms[2])
        total = recon + (cb_loss + commit * cfg.beta)
        breakdown = LossBreakdown(
            reconstruction=float(recon.data),
            codebook=float(cb_loss.data),
            commitment=float(cfg.beta) * float(commit.data),
            perplexities=tuple(codebook_perplexity(ix, cfg.codebook_size)
                               for ix in index_lists),
            indices=index_lists,
            nodes={"reconstruction": recon, "codebook": cb_loss,
                   "commitment": commit})
        return total, breakdown

    def forward_loss(self, x, speaker_id, mask=None, quantize_bypass=False):
        return self._forward_graph(x, self.speaker_index(speaker_id), mask,
                                   quantize_bypass=quantize_bypass)

    def _plan(self, lengths):
        """Per pass of convert, the word indices and start frames of the
        (index, frame count) pairs `lengths`.  A start is a multiple of
        MIN_FRAMES, so a whole column at every stage; the gap leaves at
        stage 3 the kernel_size // 2 columns a conv reaches past a word's
        end and the one a transposed conv reaches."""
        gap = MIN_FRAMES * max(self.cfg.kernel_size // 2, 1)
        plan, end = [], 0
        for i, t in lengths:
            start = -(-(end + gap) // MIN_FRAMES) * MIN_FRAMES
            if not plan or start + t > PASS_FRAMES:
                plan.append(([], []))
                start = 0
            plan[-1][0].append(i)
            plan[-1][1].append(start)
            end = start + t
        return plan

    def convert(self, source, target_speaker):
        """Encode, quantize and decode under the target speaker's embedding.

        source is one time-major (T, C) array, or a sequence of them, one
        per word.  One array gives an output of its shape, odd frame counts
        included, and a word the model cannot convert raises ValueError
        (an overflow too, rather than warning).  A sequence gives a list
        with one entry per word: its output, the ValueError that the word
        raises alone, or the MemoryError of a word that runs out of memory
        alone.

        The valid words run with no graph in the passes of _plan; a pass
        that runs out of memory is retried one word per pass.  A pass
        re-zeroes every column outside its words after each conv, so each
        word meets the zero padding that it meets alone.  A word converted
        among others equals its conversion alone up to float32 rounding:
        BLAS may round a GEMM's column differently at another width.
        """
        speaker = self.speaker_index(target_speaker)
        if not self.codebooks_initialized:
            raise EmptyCodebookError(
                "codebooks have not been initialized; train the model first")
        if isinstance(source, np.ndarray):
            out, = self._convert_pass([self._word(source)], [0], speaker)
            if isinstance(out, ValueError):
                raise out
            return out
        outs = []
        for frames in source:
            try:
                outs.append(self._word(frames))
            except ValueError as exc:
                outs.append(exc)
        passes = self._plan((i, len(w)) for i, w in enumerate(outs)
                            if isinstance(w, np.ndarray))
        while passes:
            group, starts = passes.pop(0)
            try:
                done = self._convert_pass([outs[i] for i in group], starts, speaker)
            except MemoryError as exc:
                if len(group) > 1:
                    passes[:0] = [([i], [0]) for i in group]
                    continue
                # without its traceback, whose frames hold the pass's arrays
                done = [exc.with_traceback(None)]
            for i, out in zip(group, done):
                outs[i] = out
        return outs

    def _word(self, frames):
        """frames as one word for convert, (T, C); raises ValueError."""
        frames = np.asarray(frames)
        if frames.ndim != 2:
            raise ValueError("input must be a T x C matrix")
        _check_length(frames.shape[0])
        if frames.shape[1] != self.cfg.in_channels:
            raise dc.ShapeError(f"input of {frames.shape[1]} channels, but the "
                                f"model takes {self.cfg.in_channels}")
        return frames

    def _convert_pass(self, words, starts, speaker):
        """One pass of convert over checked words (_word) starting at frames
        `starts`: per word, its output or its ValueError."""
        cfg = self.cfg
        layout = _Layout([len(w) for w in words], starts)
        x = np.zeros((cfg.in_channels, layout.size[0]), dtype=cfg.dtype)
        for j, frames in enumerate(words):
            layout.word(x, 0, j)[...] = frames.T
        p = self._plain_params()
        with np.errstate(over="ignore", invalid="ignore"):
            zs = [z.data for z in self._encode_graph(dc.Tensor(x), p, layout)]
            qs = []
            for n, z in enumerate(zs, start=1):
                cols = layout.valid[n]
                q = np.zeros_like(z)
                q[:, cols] = quantize(z[:, cols].T, p[f"codebook{n}"].data)[0].T
                qs.append(dc.Tensor(q))
            out = self._decode_graph(qs, speaker, layout.size[0], p, layout).data
        latents_ok = np.all([layout.finite(z, n) for n, z in enumerate(zs, start=1)],
                            axis=0)
        out_ok = layout.finite(out, 0)
        outs = []
        for j in range(len(words)):
            if not latents_ok[j]:
                outs.append(ValueError("the encoder's latents hold NaN or Inf"))
            elif not out_ok[j]:
                outs.append(ValueError("the decoder's output holds NaN or Inf"))
            else:
                outs.append(layout.word(out, 0, j).T.copy())
        return outs

    def init_codebooks(self, z_samples, rng):
        """Seed each codebook from observed latents plus small jitter.

        z_samples: list of three (N_n, D) arrays, one per stage. Re-jitters
        until all codewords are distinct. No-op when already initialized.
        """
        if self.codebooks_initialized:
            return
        k = self.cfg.codebook_size
        for n in (1, 2, 3):
            pool = np.asarray(z_samples[n - 1], dtype=self.cfg.dtype)
            if pool.ndim != 2 or pool.shape[0] == 0:
                raise ValueError(f"stage {n} has no latent samples")
            # NaN or Inf rows never become distinct under the re-jitter
            if not np.all(np.isfinite(pool)):
                raise ValueError(f"stage {n} latent samples contain NaN or Inf")
            picks = rng.integers(0, pool.shape[0], size=k)
            rows = pool[picks] + 0.01 * rng.standard_normal(
                (k, pool.shape[1])).astype(self.cfg.dtype)
            # four ulps of the largest latent, where 0.01 would not move it
            scale = max(0.01, 4 * float(np.spacing(np.abs(rows).max())))
            while len({r.tobytes() for r in rows}) < k:
                rows += scale * rng.standard_normal(rows.shape).astype(self.cfg.dtype)
            self.params[f"codebook{n}"].data = rows.astype(self.cfg.dtype)
        self.codebooks_initialized = True
