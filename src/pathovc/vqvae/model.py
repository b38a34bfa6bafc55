"""3-stage hierarchical vector-quantized autoencoder with speaker conditioning.

Encoding runs x -> u1 -> u2 -> u3, each stage halving the frame count and
emitting a latent sequence z_n. Each z_n snaps to its stage codebook.
Decoding starts from q3 and walks back down, every stage consuming its
quantized latents, the previous decoder output, and the conditioning
speaker embedding. Conversion re-decodes a source utterance under the
target speaker's embedding.
"""

from dataclasses import dataclass, field

import numpy as np

from .. import diffcore as dc

MIN_FRAMES = 8  # three halvings need 2**3 input frames


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
    up_kernel_size: int = 4
    stride: int = 2
    n_stages: int = 3
    param_dtype: str = "float32"

    def __post_init__(self):
        if self.codebook_size < 2:
            raise ValueError("codebook_size must be at least 2")
        if min(self.in_channels, self.hidden, self.latent_dim, self.embed_dim) < 1:
            raise ValueError("channel widths must be positive")
        if self.kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd")
        if self.up_kernel_size != 2 * self.stride:
            # transposed conv doubles the frame count exactly only when
            # W = 2*stride with padding stride//2
            raise ValueError("up_kernel_size must equal 2*stride")
        if self.n_stages != 3:
            raise ValueError("the stage wiring is fixed at 3")

    @property
    def dtype(self):
        return np.dtype(self.param_dtype)


@dataclass
class LossBreakdown:
    reconstruction: float
    codebook: float
    commitment: float
    perplexities: tuple
    indices: list = field(repr=False, default_factory=list)
    # graph nodes of the three components, for gradient inspection
    nodes: dict = field(repr=False, default_factory=dict)

    @property
    def total(self):
        return self.reconstruction + self.codebook + self.commitment


def quantize(z: np.ndarray, codebook: np.ndarray):
    """Nearest codeword per row; ties go to the lowest index.

    z is (T, D), codebook (K, D). Returns (q, indices) with q rows taken
    verbatim from the codebook.
    """
    z = np.asarray(z)
    codebook = np.asarray(codebook)
    if codebook.ndim != 2 or codebook.shape[0] == 0:
        raise EmptyCodebookError("codebook has no codewords")
    if z.ndim != 2 or z.shape[1] != codebook.shape[1]:
        raise dc.ShapeError(
            f"latents of width {z.shape[-1]} do not match codewords of width "
            f"{codebook.shape[1]}")
    d = ((z[:, None, :] - codebook[None, :, :]) ** 2).sum(axis=2)
    indices = np.argmin(d, axis=1)
    return codebook[indices].copy(), indices


def codebook_perplexity(indices, k: int) -> float:
    """exp(entropy) of empirical codeword usage; 1 = collapse, k = uniform."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("perplexity needs at least one index")
    if indices.min() < 0 or indices.max() >= k:
        raise ValueError("index out of codebook range")
    p = np.bincount(indices, minlength=k) / indices.size
    p = p[p > 0]
    return float(np.exp(-np.sum(p * np.log(p))))


class HVqVaeModel:
    def __init__(self, cfg: VqVaeConfig, speakers, seed: int = 0):
        self.cfg = cfg
        self.speakers = list(speakers)
        if len(set(self.speakers)) != len(self.speakers):
            raise ValueError("duplicate speaker ids")
        if not self.speakers:
            raise ValueError("at least one speaker required")
        self._speaker_index = {s: i for i, s in enumerate(self.speakers)}
        self.codebooks_initialized = False
        self.params = {}
        self._init_params(np.random.default_rng(seed))

    def _init_params(self, rng):
        cfg = self.cfg
        dt = cfg.dtype

        def par(name, shape, std=None):
            if std is None:
                data = np.zeros(shape, dtype=dt)
            else:
                data = (std * rng.standard_normal(shape)).astype(dt)
            self.params[name] = dc.Tensor(data, requires_grad=True)

        def conv_std(cin, w):
            return np.sqrt(2.0 / (cin * w))

        k, uk, h, d, e, c = (cfg.kernel_size, cfg.up_kernel_size, cfg.hidden,
                             cfg.latent_dim, cfg.embed_dim, cfg.in_channels)
        for n in (1, 2, 3):
            cin = c if n == 1 else h
            par(f"enc{n}.conv1.w", (h, cin, k), conv_std(cin, k))
            par(f"enc{n}.conv1.b", (h, 1))
            par(f"enc{n}.conv2.w", (h, h, k), conv_std(h, k))
            par(f"enc{n}.conv2.b", (h, 1))
            par(f"enc{n}.proj.w", (d, h, 1), conv_std(h, 1))
            par(f"enc{n}.proj.b", (d, 1))

        for n in (1, 2, 3):
            cin = d + e if n == 3 else d + h + e
            cout = c if n == 1 else h
            par(f"dec{n}.up.w", (cin, h, uk), conv_std(cin, uk))
            par(f"dec{n}.up.b", (h, 1))
            par(f"dec{n}.out.w", (cout, h, k), conv_std(h, k))
            par(f"dec{n}.out.b", (cout, 1))

        for n in (1, 2, 3):
            par(f"codebook{n}", (cfg.codebook_size, d), 0.05)
        par("speaker_table", (len(self.speakers), e), 0.01)

    def parameters(self):
        return [self.params[k] for k in sorted(self.params)]

    def speaker_index(self, speaker_id) -> int:
        try:
            return self._speaker_index[speaker_id]
        except KeyError:
            raise UnknownSpeakerError(
                f"speaker {speaker_id!r} is not in the embedding table "
                f"(known: {', '.join(self.speakers)})") from None

    @staticmethod
    def _frames_of(x):
        frames = x.frames if hasattr(x, "frames") else np.asarray(x)
        if frames.ndim != 2:
            raise ValueError("input must be a T x C matrix")
        return frames

    def _check_length(self, t):
        if t < MIN_FRAMES:
            raise ValueError(
                f"input of {t} frames is too short; three halvings need at "
                f"least {MIN_FRAMES}")

    def _x_tensor(self, frames):
        return dc.Tensor(np.ascontiguousarray(frames.T, dtype=self.cfg.dtype))

    def _encode_graph(self, x):
        """x is channel-major (C, T). Returns per-stage (u, z) Tensors."""
        p = self.params
        k = self.cfg.kernel_size
        pad = k // 2
        stages = []
        h = x
        for n in (1, 2, 3):
            h = dc.relu(dc.add(dc.conv1d(h, p[f"enc{n}.conv1.w"], self.cfg.stride, pad),
                               p[f"enc{n}.conv1.b"]))
            h = dc.relu(dc.add(dc.conv1d(h, p[f"enc{n}.conv2.w"], 1, pad),
                               p[f"enc{n}.conv2.b"]))
            z = dc.add(dc.conv1d(h, p[f"enc{n}.proj.w"], 1, 0), p[f"enc{n}.proj.b"])
            stages.append((h, z))
        return stages

    def _embedding_frames(self, speaker_id, t):
        idx = self.speaker_index(speaker_id)
        row = dc.embedding(self.params["speaker_table"], np.array([idx]))
        zeros = dc.Tensor(np.zeros((self.cfg.embed_dim, t), dtype=self.cfg.dtype))
        return dc.add(dc.transpose(row), zeros)

    def _decode_graph(self, qs, speaker_id, lengths):
        """qs are channel-major (D, T_n) Tensors; lengths = [T, T1, T2, T3]."""
        p = self.params
        k = self.cfg.kernel_size
        pad = k // 2
        v = None
        for n in (3, 2, 1):
            parts = [qs[n - 1]]
            if v is not None:
                parts.append(v)
            parts.append(self._embedding_frames(speaker_id, lengths[n]))
            inp = dc.concat(parts, axis=0)
            h = dc.relu(dc.add(
                dc.conv_transpose1d(inp, p[f"dec{n}.up.w"], self.cfg.stride,
                                    self.cfg.stride // 2),
                p[f"dec{n}.up.b"]))
            h = dc.crop(h, lengths[n - 1], axis=-1)
            out = dc.add(dc.conv1d(h, p[f"dec{n}.out.w"], 1, pad), p[f"dec{n}.out.b"])
            v = dc.relu(out) if n > 1 else out
        return v

    def encode(self, x):
        """Returns (us, zs): per-stage hidden and latent sequences, time-major."""
        frames = self._frames_of(x)
        self._check_length(frames.shape[0])
        stages = self._encode_graph(self._x_tensor(frames))
        us = tuple(u.data.T.copy() for u, _ in stages)
        zs = tuple(z.data.T.copy() for _, z in stages)
        return us, zs

    def quantize_stage(self, z, stage: int):
        return quantize(z, self.params[f"codebook{stage}"].data)

    def decode(self, qs, speaker_id, n_frames: int | None = None):
        """qs: three time-major (T_n, D) arrays, finest first. Returns (T, C).

        n_frames restores the original frame count when it was odd; the
        default assumes an exact halving chain.
        """
        self.speaker_index(speaker_id)
        q_tensors = [dc.Tensor(np.ascontiguousarray(np.asarray(q).T, dtype=self.cfg.dtype))
                     for q in qs]
        t1 = q_tensors[0].data.shape[1]
        if n_frames is None:
            n_frames = t1 * self.cfg.stride
        if not t1 * self.cfg.stride - self.cfg.stride < n_frames <= t1 * self.cfg.stride:
            raise ValueError(f"n_frames {n_frames} inconsistent with {t1} stage-1 latents")
        lengths = [n_frames, t1,
                   q_tensors[1].data.shape[1], q_tensors[2].data.shape[1]]
        out = self._decode_graph(q_tensors, speaker_id, lengths)
        return out.data.T.copy()

    def _forward_graph(self, frames, speaker_id, mask=None,
                       quantize_bypass=False):
        """Builds the full training graph. frames is (T, C) time-major.

        mask, if given, is a (T,) 0/1 validity vector for padded frames.
        quantize_bypass feeds the decoder the raw latents instead of the
        quantized ones; the losses are unchanged. In that mode the whole
        graph is smooth, so gradient checks against finite differences are
        exact; with the quantizer active the straight-through estimator is
        intentionally not the forward's derivative. Returns (total loss
        Tensor, LossBreakdown).
        """
        cfg = self.cfg
        self._check_length(frames.shape[0])
        x = self._x_tensor(frames)
        t = x.data.shape[1]
        stages = self._encode_graph(x)
        lengths = [t] + [z.data.shape[1] for _, z in stages]

        qs = []
        cb_terms = []
        commit_terms = []
        perplexities = []
        index_lists = []
        for n, (_, z) in enumerate(stages, start=1):
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
            perplexities.append(codebook_perplexity(indices, cfg.codebook_size))
            index_lists.append(indices)

        xhat = self._decode_graph(qs, speaker_id, lengths)
        weight = None
        if mask is not None:
            weight = np.broadcast_to(
                np.asarray(mask, dtype=cfg.dtype)[None, :], x.data.shape)
        recon = dc.abs_error(xhat, x, weight=weight)
        cb_loss = dc.add(dc.add(cb_terms[0], cb_terms[1]), cb_terms[2])
        commit = dc.add(dc.add(commit_terms[0], commit_terms[1]), commit_terms[2])
        total = recon + (cb_loss + commit * cfg.beta)
        breakdown = LossBreakdown(
            reconstruction=float(recon.data),
            codebook=float(cb_loss.data),
            commitment=float(cfg.beta) * float(commit.data),
            perplexities=tuple(perplexities),
            indices=index_lists,
            nodes={"reconstruction": recon, "codebook": cb_loss,
                   "commitment": commit, "output": xhat})
        return total, breakdown

    def forward_loss(self, x, speaker_id, mask=None, quantize_bypass=False):
        return self._forward_graph(self._frames_of(x), speaker_id, mask,
                                   quantize_bypass=quantize_bypass)

    def convert(self, source, target_speaker):
        """Encode source, quantize, decode under the target embedding."""
        frames = self._frames_of(source)
        self._check_length(frames.shape[0])
        self.speaker_index(target_speaker)
        if not self.codebooks_initialized:
            raise EmptyCodebookError(
                "codebooks have not been initialized; train the model first")
        _, zs = self.encode(frames)
        qs = [self.quantize_stage(z, n)[0] for n, z in enumerate(zs, start=1)]
        return self.decode(qs, target_speaker, n_frames=frames.shape[0])

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
            while len({r.tobytes() for r in rows}) < k:
                rows += 0.01 * rng.standard_normal(rows.shape).astype(self.cfg.dtype)
            self.params[f"codebook{n}"].data = rows.astype(self.cfg.dtype)
        self.codebooks_initialized = True
