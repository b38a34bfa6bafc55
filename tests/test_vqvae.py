import json
import os
import signal
import struct
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from pathovc import diffcore as dc
from pathovc import vqvae
from pathovc.diffcore import engine

from oracles import (finite_difference_grad, init_params_ref, max_relative_error,
                     nearest_codeword_ref)
from synthdata import (MODEL_SEED, TOY_MODEL, TOY_TRAINING,
                       make_two_speaker_dataset, train_toy_model)


def tiny_model(seed=0, dtype="float64", speakers=("A", "B")):
    cfg = vqvae.VqVaeConfig(in_channels=3, hidden=4, latent_dim=2,
                            codebook_size=3, embed_dim=2, param_dtype=dtype)
    m = vqvae.HVqVaeModel(cfg, list(speakers), seed=seed)
    # spread the codebooks out so nearest-neighbour indices are stable
    # under the small perturbations the gradient checks apply
    rng = np.random.default_rng(seed + 100)
    for n in (1, 2, 3):
        m.params[f"codebook{n}"].data = (
            5.0 * rng.normal(size=(3, 2)).astype(m.cfg.dtype))
    m.codebooks_initialized = True
    return m


@pytest.fixture(scope="module")
def trained():
    model, report, data, off_a, off_b = train_toy_model()
    return model, report, data, off_a, off_b


@pytest.fixture(scope="module")
def default_model():
    """The default configuration, its codebooks seeded from its own latents."""
    m = vqvae.HVqVaeModel(vqvae.VqVaeConfig(), ["A", "B"], seed=0)
    zs = m.encode(np.random.default_rng(0).normal(size=(256, 40)).astype(np.float32))
    m.init_codebooks([z.reshape(-1, z.shape[-1]) for z in zs], np.random.default_rng(1))
    return m


class TestQuantize:
    def test_hand_distance_check(self):
        cb = np.array([[0.0, 0.0], [1.0, 1.0]])
        q, idx = vqvae.quantize(np.array([[0.9, 0.8]]), cb)
        assert idx.tolist() == [1]
        np.testing.assert_array_equal(q, [[1.0, 1.0]])

    def test_tie_goes_to_lowest_index(self):
        cb = np.array([[0.0, 0.0], [1.0, 1.0]])
        _, idx = vqvae.quantize(np.array([[0.5, 0.5]]), cb)
        assert idx.tolist() == [0]

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(0)
        cb = rng.normal(size=(64, 8))
        z = rng.normal(size=(200, 8))
        _, idx = vqvae.quantize(z, cb)
        for t in range(200):
            assert idx[t] == nearest_codeword_ref(z[t], cb)

    def test_rows_are_codebook_members_bit_exact(self):
        rng = np.random.default_rng(1)
        cb = rng.normal(size=(16, 4)).astype(np.float32)
        q, idx = vqvae.quantize(rng.normal(size=(50, 4)).astype(np.float32), cb)
        for t in range(50):
            assert q[t].tobytes() == cb[idx[t]].tobytes()

    @staticmethod
    def _check_against_oracle(z, cb):
        q, idx = vqvae.quantize(z, cb)
        assert idx.shape == z.shape[:-1] and q.shape == z.shape
        for pos in np.ndindex(*z.shape[:-1]):
            want = nearest_codeword_ref(z[pos], cb)
            assert idx[pos] == want, pos
            assert q[pos].tobytes() == cb[want].tobytes(), pos

    @pytest.mark.parametrize("t", [32, 16, 8])
    def test_stage_shaped_float32_batches_match_exhaustive_search(self, t):
        rng = np.random.default_rng(t)
        z = rng.normal(size=(8, t, 64)).astype(np.float32)
        # codewords seeded from latents plus jitter, as init_codebooks does
        picks = z.reshape(-1, 64)[rng.integers(0, 8 * t, size=64)]
        cb = (picks + 0.01 * rng.normal(size=(64, 64))).astype(np.float32)
        self._check_against_oracle(z, cb)

    @pytest.mark.parametrize("shape", [(1, 64), (1, 1, 64), (3, 1, 64)])
    def test_single_rows_match_exhaustive_search(self, shape):
        rng = np.random.default_rng(len(shape))
        cb = rng.normal(size=(64, 64)).astype(np.float32)
        self._check_against_oracle(rng.normal(size=shape).astype(np.float32), cb)

    def test_duplicate_codewords_resolve_to_lowest_index(self):
        rng = np.random.default_rng(9)
        cb = rng.normal(size=(64, 64)).astype(np.float32)
        cb[[40, 41, 63]] = cb[7]
        cb[50] = cb[45]
        z = np.concatenate([cb[[7, 45, 40, 50]],
                            rng.normal(size=(60, 64)).astype(np.float32)])
        self._check_against_oracle(z[None], cb)
        assert vqvae.quantize(z, cb)[1][:4].tolist() == [7, 45, 7, 45]

    def test_near_ties_one_ulp_apart(self):
        """Codewords whose distances to a row differ by one ulp, or tie.

        Every value is near 1024 and a multiple of 2**-6, so the direct
        distances, sums of squares of multiples of 2**-6 in [2048, 4096),
        are exact in float32 in any summation order, and 2**-12 is one ulp
        there.  The expansion |z|^2 - 2 z.c + |c|^2 of the same rows
        rounds at about 2**26 and cannot tell them apart.
        """
        rng = np.random.default_rng(11)
        step = 2.0 ** -6
        n_rows, k, dim = 20, 64, 64
        slots = rng.permutation(k)[:3 * n_rows].reshape(n_rows, 3)
        # rows and free codewords far apart: only the planted ones compete
        z = 1024.0 + step * rng.integers(-3000, 3000, size=(n_rows, dim))
        cb = 1024.0 + step * rng.integers(-3000, 3000, size=(k, dim))
        want = []
        for row in range(n_rows):
            delta = step * rng.integers(-600, 600, size=dim)
            delta[0] = 0.0
            while not 2048 <= np.sum(delta ** 2) < 4095:
                delta[1:] *= 0.9 if np.sum(delta ** 2) >= 4095 else 1.1
                delta = step * np.round(delta / step)
                delta[0] = 0.0
            one_up = delta.copy()
            one_up[0] = step  # distance + 2**-12, one ulp above
            tie = delta[::-1].copy()  # the same distance
            a, b, c = slots[row]
            cb[a], cb[b], cb[c] = z[row] + one_up, z[row] + delta, z[row] + tie
            want.append(min(b, c))
        z, cb = z.astype(np.float32), cb.astype(np.float32)
        for row in range(n_rows):
            d = ((z[row] - cb) ** 2).sum(axis=-1)
            assert np.sort(d)[1] == d.min()  # tie kept exact
        self._check_against_oracle(z, cb)
        assert vqvae.quantize(z, cb)[1].tolist() == want

    def test_empty_codebook_rejected(self):
        with pytest.raises(vqvae.EmptyCodebookError):
            vqvae.quantize(np.ones((3, 2)), np.empty((0, 2)))

    def test_width_mismatch_rejected(self):
        with pytest.raises(dc.ShapeError):
            vqvae.quantize(np.ones((3, 2)), np.ones((4, 5)))


class TestEncode:
    def test_stride_halving_lengths(self):
        m = tiny_model()
        x = np.random.default_rng(2).normal(size=(64, 3))
        zs = m.encode(x)
        assert [z.shape for z in zs] == [(32, 2), (16, 2), (8, 2)]

    def test_zero_model_zero_activations(self):
        m = tiny_model()
        for name, p in m.params.items():
            if name.startswith("enc"):
                p.data = np.zeros_like(p.data)
        for z in m.encode(np.zeros((16, 3))):
            np.testing.assert_array_equal(z, 0.0)

    def test_repeated_calls_bit_identical(self):
        m = tiny_model(seed=3)
        x = np.random.default_rng(4).normal(size=(40, 3))
        for a, b in zip(m.encode(x), m.encode(x)):
            np.testing.assert_array_equal(a, b)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            tiny_model().encode(np.ones((7, 3)))

    def test_overflowing_latents_raise_not_warn(self):
        m = tiny_model(dtype="float32")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the encoder's latents hold NaN or Inf"):
                m.encode(np.full((16, 3), 3e38, dtype=np.float32))


class TestDecode:
    def test_zero_decoders_zero_output(self):
        m = tiny_model()
        for name, p in m.params.items():
            if name.startswith("dec"):
                p.data = np.zeros_like(p.data)
        out = m.convert(np.ones((16, 3)), "A")
        assert out.shape == (16, 3)
        np.testing.assert_array_equal(out, 0.0)

    def test_frame_count_round_trip(self):
        m = tiny_model(seed=5)
        for t in (64, 37, 8):
            x = np.random.default_rng(t).normal(size=(t, 3))
            assert m.convert(x, "B").shape == (t, 3)

    def test_unknown_speaker_rejected(self):
        with pytest.raises(vqvae.UnknownSpeakerError, match="M99"):
            tiny_model().convert(np.ones((16, 3)), "M99")

    def test_conditioning_is_live_after_training(self, trained):
        model, _, data, _, _ = trained
        frames = data[0][1]
        out_a = model.convert(frames, "A")
        out_b = model.convert(frames, "B")
        assert np.linalg.norm(out_a - out_b) > 0


class TestConvertGuards:
    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="T x C matrix"):
            tiny_model().convert(np.ones(16), "A")

    def test_seven_frames_rejected(self):
        with pytest.raises(ValueError, match="7 frames is too short"):
            tiny_model().convert(np.ones((7, 3)), "A")

    def test_unknown_target_checked_before_codebooks(self):
        m = vqvae.HVqVaeModel(tiny_model().cfg, ["A", "B"])
        with pytest.raises(vqvae.UnknownSpeakerError, match="M99"):
            m.convert(np.ones((16, 3)), "M99")

    def test_uninitialized_codebooks_rejected(self):
        m = vqvae.HVqVaeModel(tiny_model().cfg, ["A", "B"])
        with pytest.raises(vqvae.EmptyCodebookError, match="train the model first"):
            m.convert(np.ones((16, 3)), "A")

    def test_overflowing_decoder_raises_not_warns(self):
        m = tiny_model(dtype="float32")
        m.params["dec1.out.w"].data[:] = 3e38
        m.params["dec1.out.b"].data[:] = 3e38
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the decoder's output holds NaN or Inf"):
                m.convert(np.ones((16, 3), dtype=np.float32), "A")


def cepstra(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(t, 40)).astype(np.float32) for t in lengths]


class TestBatchedConvert:
    P = vqvae.PASS_FRAMES
    # every remainder of a word's length at the three stages, the pass size
    # and its neighbours, and a word longer than a pass
    LENGTHS = [8, 9, 15, 16, 17, 43, 50, 64, P - 1, P, P + 1, 2 * P + 37]

    def test_each_word_equals_its_conversion_alone(self, default_model):
        # BLAS may round a GEMM's column differently at another width, so
        # the match is to float32 rounding (measured: within 6.0e-7 of the
        # word's peak)
        words = cepstra(self.LENGTHS)
        together = default_model.convert(words, "B")
        assert len(together) == len(words)
        for w, got in zip(words, together):
            want = default_model.convert(w, "B")
            assert (got.shape, got.dtype) == (w.shape, np.float32)
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-5 * np.abs(want).max())

    def test_repeated_calls_byte_identical(self, default_model):
        words = cepstra(self.LENGTHS[:8] + [93, 130], seed=1)
        first, second = (default_model.convert(words, "A") for _ in range(2))
        assert [a.tobytes() for a in first] == [b.tobytes() for b in second]

    def test_one_word_sequence_is_the_one_word_call(self, default_model):
        for w in cepstra([8, 43, 93]):
            got, = default_model.convert([w], "A")
            assert got.tobytes() == default_model.convert(w, "A").tobytes()

    def test_passes_fill_pass_frames(self, default_model):
        # 16-frame gaps at kernel 5; each word starts at a multiple of 8
        def passes(lengths):
            return [group for group, _ in default_model._plan(enumerate(lengths))]

        assert passes([]) == []
        assert passes([200, 296, 8]) == [[0, 1], [2]]  # 216 + 296 = 512
        assert passes([200, 297]) == [[0], [1]]
        assert passes([201, 288]) == [[0, 1]]  # 201 + 16 rounds up to 224
        assert passes([201, 289]) == [[0], [1]]
        assert passes([self.P + 1, 8, 8, self.P]) == [[0], [1, 2], [3]]
        assert default_model._plan([(4, 201), (7, 288), (9, 8)]) == [
            ([4, 7], [0, 224]), ([9], [0])]

    def test_out_of_memory_pass_retried_word_by_word(self, default_model, monkeypatch):
        # every pass of more than one word runs out of memory, and so does
        # the 50-frame word alone
        words = cepstra([43, 64, 50, 93, 8])
        run, sizes = vqvae.HVqVaeModel._convert_pass, []

        def starved(model, pass_words, starts, speaker):
            sizes.append(len(pass_words))
            if len(pass_words) > 1 or len(pass_words[0]) == 50:
                raise MemoryError()
            return run(model, pass_words, starts, speaker)

        monkeypatch.setattr(vqvae.HVqVaeModel, "_convert_pass", starved)
        got = default_model.convert(words, "B")
        assert sizes == [5, 1, 1, 1, 1, 1]
        assert isinstance(got[2], MemoryError) and got[2].__traceback__ is None
        monkeypatch.undo()
        for i in (0, 1, 3, 4):
            assert got[i].tobytes() == default_model.convert(words[i], "B").tobytes()

    @pytest.mark.parametrize("bad", [np.ones((7, 40)), np.ones((16, 20))],
                             ids=["7-frames", "20-channels"])
    def test_malformed_word_takes_no_room(self, default_model, bad):
        # 480 + 16 + 8 frames fill one pass only with no word between them
        a, b = cepstra([480, 8])
        got = default_model.convert([a, bad, b], "B")
        assert isinstance(got[1], ValueError)
        alone = default_model.convert([a, b], "B")
        assert [got[0].tobytes(), got[2].tobytes()] == [o.tobytes() for o in alone]

    def test_overflowing_word_fails_alone(self, default_model):
        # the re-zeroed gaps keep its Inf and NaN out of its neighbours'
        # columns, so they keep the bytes of a pass of the same layout
        a, benign, b = cepstra([43, 20, 64])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hot = default_model.convert([a, np.full_like(benign, 3e38), b], "B")
        cool = default_model.convert([a, benign, b], "B")
        assert isinstance(hot[1], ValueError)
        assert str(hot[1]) == "the encoder's latents hold NaN or Inf"
        for i in (0, 2):
            assert hot[i].tobytes() == cool[i].tobytes()

    def test_malformed_words_fail_alone(self, default_model):
        a, b = cepstra([43, 64])
        got = default_model.convert(
            [a, np.ones((7, 40)), np.ones(16), np.ones((16, 20)), b], "B")
        messages = [str(e) for e in got[1:4]]
        assert messages == [
            "input of 7 frames is too short; three halvings need at least 8",
            "input must be a T x C matrix",
            "input of 20 channels, but the model takes 40"]
        alone = default_model.convert([a, b], "B")
        assert [got[0].tobytes(), got[4].tobytes()] == [o.tobytes() for o in alone]

    def test_convert_builds_no_graph(self, default_model, monkeypatch):
        made, make = [], engine._make

        def recording(data, parents, backward):
            made.append(make(data, parents, backward))
            return made[-1]

        monkeypatch.setattr(engine, "_make", recording)
        default_model.convert(cepstra([43, 64]), "B")
        default_model.convert(cepstra([50])[0], "A")
        assert made
        assert all(t._backward is None and t._parents == () for t in made)
        assert all(p.grad is None for p in default_model.params.values())


class TestForwardLoss:
    def test_zero_fixed_point_gives_zero_loss(self):
        m = tiny_model()
        for p in m.params.values():
            p.data = np.zeros_like(p.data)
        # make codeword 0 the unique zero row so q = z = 0 exactly
        for n in (1, 2, 3):
            cb = np.array([[0.0, 0.0], [3.0, 3.0], [-3.0, 4.0]])
            m.params[f"codebook{n}"].data = cb
        loss, parts = m.forward_loss(np.zeros((16, 3)), "A")
        assert loss.item() == 0.0
        assert parts.reconstruction == 0.0
        assert parts.codebook == 0.0
        assert parts.commitment == 0.0

    def test_components_nonnegative(self):
        m = tiny_model(seed=6)
        x = np.random.default_rng(7).normal(size=(24, 3))
        loss, parts = m.forward_loss(x, "B")
        assert parts.reconstruction >= 0
        assert parts.codebook >= 0
        assert parts.commitment >= 0

    def test_total_is_recon_plus_vq_terms(self):
        m = tiny_model(seed=8)
        x = np.random.default_rng(9).normal(size=(16, 3))
        loss, parts = m.forward_loss(x, "A")
        assert loss.item() == pytest.approx(
            parts.reconstruction + parts.codebook + parts.commitment, rel=1e-12)

    def test_straight_through_keeps_encoder_gradients_live(self):
        m = tiny_model(seed=10)
        x = np.random.default_rng(11).normal(size=(16, 3))
        loss, parts = m.forward_loss(x, "A")
        assert parts.reconstruction > 0
        loss.backward()
        g = m.params["enc1.conv1.w"].grad
        assert g is not None and np.any(g != 0)

    def test_codebook_gradient_matches_closed_form(self):
        m = tiny_model(seed=12)
        x = np.random.default_rng(13).normal(size=(16, 3))
        _, parts = m.forward_loss(x, "A")
        parts.nodes["codebook"].backward()
        zs = m.encode(x)
        for n in (1, 2, 3):
            cb = m.params[f"codebook{n}"]
            z = zs[n - 1]
            _, idx = vqvae.quantize(z, cb.data)
            want = np.zeros_like(cb.data)
            t, d = z.shape
            for row in range(t):
                j = idx[row]
                want[j] += 2.0 * (cb.data[j] - z[row]) / (t * d)
            np.testing.assert_allclose(cb.grad, want, rtol=1e-9, atol=1e-12)

    def test_commitment_gradient_reaches_encoder_not_codebook(self):
        m = tiny_model(seed=14)
        x = np.random.default_rng(15).normal(size=(16, 3))
        _, parts = m.forward_loss(x, "A")
        parts.nodes["commitment"].backward()
        assert m.params["codebook1"].grad is None
        g = m.params["enc1.conv1.w"].grad
        assert g is not None and np.any(g != 0)

    @pytest.mark.parametrize("seed", [0, 3, 4, 5])
    def test_reconstruction_gradient_matches_finite_differences(self, seed):
        # quantizer bypassed: the straight-through estimator is by design
        # not the forward's derivative, so the finite-difference comparison
        # runs on the smooth surrogate the estimator's backward defines
        m = tiny_model(seed=seed)
        rng = np.random.default_rng(seed + 100)
        rng.normal(size=(3, 2))
        rng.normal(size=(3, 2))
        rng.normal(size=(3, 2))
        x = rng.normal(size=(8, 3))
        _, parts = m.forward_loss(x, "A", quantize_bypass=True)
        parts.nodes["reconstruction"].backward()
        worst = 0.0
        for name in sorted(m.params):
            if name.startswith("codebook"):
                continue
            p = m.params[name]
            got = p.grad if p.grad is not None else np.zeros_like(p.data)
            keep = p.data.copy()

            def f(v, name=name, keep=keep):
                m.params[name].data = v
                _, pp = m.forward_loss(x, "A", quantize_bypass=True)
                m.params[name].data = keep
                return pp.reconstruction

            fd = finite_difference_grad(f, keep.copy())
            worst = max(worst, max_relative_error(got, fd))
        assert worst <= 1e-4

    def test_mask_excludes_padded_frames(self):
        m = tiny_model(seed=16)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(16, 3))
        padded = np.zeros((24, 3))
        padded[:16] = x
        mask = np.zeros(24)
        mask[:16] = 1.0
        # masked loss on padded input must not see the padding region
        _, parts_plain = m.forward_loss(x, "A")
        _, parts_masked = m.forward_loss(padded, "A", mask=mask)
        # encoder halvings mix frames near the boundary, so reconstruction
        # is not bit-equal; the masked loss must still ignore pad frames
        assert parts_masked.reconstruction == pytest.approx(
            parts_plain.reconstruction, rel=0.35)
        full = m.forward_loss(padded, "A")[1].reconstruction
        assert parts_masked.reconstruction != pytest.approx(full, rel=1e-6)

    def test_all_padding_mask_rejected(self):
        with pytest.raises(ValueError, match="at least one unmasked frame"):
            tiny_model().forward_loss(np.ones((16, 3)), "A", mask=np.zeros(16))


def take_grads(model):
    """Each parameter's gradient by name, leaving every gradient cleared."""
    grads = {k: p.grad for k, p in model.params.items()}
    for p in model.params.values():
        p.grad = None
    return grads


class TestBatchedGraph:
    def test_batch_is_mean_of_single_utterance_graphs(self):
        # one graph over a (B, T, C) batch against B graphs over (T, C):
        # loss terms and every parameter gradient are the mean of the
        # single-utterance ones, the padded utterance included
        m = tiny_model(seed=23)
        frames = np.random.default_rng(24).normal(size=(3, 16, 3))
        frames[0, 10:] = 0.0
        mask = np.ones((3, 16))
        mask[0, 10:] = 0.0
        speakers = ["B", "A", "B"]

        want_terms = np.zeros(3)
        for b in range(3):
            loss, parts = m.forward_loss(frames[b], speakers[b], mask=mask[b])
            (loss * (1 / 3)).backward()
            want_terms += [parts.reconstruction, parts.codebook, parts.commitment]
        want = take_grads(m)
        loss, parts = m._forward_graph(
            frames, np.array([m.speaker_index(s) for s in speakers]), mask)
        loss.backward()
        got = take_grads(m)
        np.testing.assert_allclose(
            [parts.reconstruction, parts.codebook, parts.commitment],
            want_terms / 3, rtol=1e-12)
        for name in sorted(m.params):
            assert (got[name] is None) == (want[name] is None), name
            if want[name] is not None:
                np.testing.assert_allclose(got[name], want[name], rtol=1e-12,
                                           err_msg=name)

    def test_training_batch_at_the_default_config(self):
        # the shape every training step has: the default float32 model and
        # B = 8 crops of T = 64 frames, one padded.  Each item quantizes to
        # the codewords its own graph picks, and each parameter gradient is
        # the mean of the single-utterance ones to float32 rounding, though
        # the batched GEMMs sum in another order.
        m = vqvae.HVqVaeModel(vqvae.VqVaeConfig(), ["A", "B", "C"], seed=31)
        rng = np.random.default_rng(32)
        frames = rng.normal(size=(8, 64, 40)).astype(np.float32)
        frames[5, 37:] = 0.0
        mask = np.ones((8, 64), dtype=np.float32)
        mask[5, 37:] = 0.0
        speakers = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        m.init_codebooks([z.reshape(-1, z.shape[-1]) for z in m.encode(frames)], rng)

        loss, parts = m._forward_graph(frames, speakers, mask)
        loss.backward()
        got = take_grads(m)
        singles = [m._forward_graph(frames[b], speakers[b], mask[b]) for b in range(8)]
        for b, (_, single) in enumerate(singles):
            for stage, (batched, alone) in enumerate(zip(parts.indices, single.indices)):
                assert np.array_equal(batched[b], alone), (b, stage)
        want = {}
        for single_loss, _ in singles:
            single_loss.backward()
            for name, g in take_grads(m).items():
                want[name] = want.get(name, 0.0) + g.astype(np.float64) / 8
        for name in sorted(m.params):
            assert got[name].dtype == np.float32, name
            err = np.linalg.norm(got[name] - want[name]) / np.linalg.norm(want[name])
            assert err <= 1e-5, f"{name}: normwise relative error {err:.2e}"


class TestPerplexity:
    def test_collapse_is_one(self):
        assert vqvae.codebook_perplexity([3] * 50, 8) == pytest.approx(1.0)

    def test_uniform_is_k(self):
        assert vqvae.codebook_perplexity(list(range(8)) * 4, 8) == pytest.approx(8.0)

    def test_half_quarter_quarter(self):
        idx = [0] * 8 + [1] * 4 + [2] * 4
        want = np.exp(1.5 * np.log(2.0))
        assert vqvae.codebook_perplexity(idx, 8) == pytest.approx(want, rel=1e-12)

    def test_bounds_on_random_usage(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            k = int(rng.integers(2, 30))
            idx = rng.integers(0, k, size=int(rng.integers(1, 200)))
            p = vqvae.codebook_perplexity(idx, k)
            assert 1.0 - 1e-12 <= p <= k + 1e-12


class TestTraining:
    def test_report_shape_and_bounds(self, trained):
        model, report, _, _, _ = trained
        assert len(report) == 200
        k = model.cfg.codebook_size
        for i in range(200):
            assert report.reconstruction[i] >= 0
            assert report.codebook[i] >= 0
            assert report.commitment[i] >= 0
            for p in report.perplexities[i]:
                assert 1.0 - 1e-9 <= p <= k + 1e-9

    def test_reconstruction_loss_halves(self, trained):
        _, report, _, _, _ = trained
        assert report.reconstruction[-1] <= 0.5 * report.reconstruction[0]

    def test_converted_outputs_cross_to_target(self, trained):
        model, _, data, off_a, off_b = trained
        for i in range(8):
            mean = model.convert(data[i][1], "B").mean(axis=0)
            assert ((mean - off_b) ** 2).mean() < ((mean - off_a) ** 2).mean()
        for i in range(8, 16):
            mean = model.convert(data[i][1], "A").mean(axis=0)
            assert ((mean - off_a) ** 2).mean() < ((mean - off_b) ** 2).mean()

    def test_convert_to_own_id_is_reconstruction(self, trained):
        model, _, data, _, _ = trained
        frames = data[0][1]
        got = model.convert(frames, "A")
        qs = [dc.Tensor(np.swapaxes(vqvae.quantize(z, model.params[f"codebook{n}"].data)[0],
                                    -1, -2))
              for n, z in enumerate(model.encode(frames), start=1)]
        want = np.swapaxes(model._decode_graph(qs, model.speaker_index("A"),
                                               frames.shape[0]).data, -1, -2)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()

    def test_convert_deterministic(self, trained):
        model, _, data, _, _ = trained
        a = model.convert(data[3][1], "B")
        b = model.convert(data[3][1], "B")
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("beta", [0.25, 0.3])
    def test_commitment_is_beta_times_codebook(self, beta):
        # both terms are one squared distance, with the gradient stopped on
        # opposite sides (van den Oord et al., 2017), so they differ only
        # by the factor beta, bit for bit at every step
        data, _, _ = make_two_speaker_dataset()
        model = vqvae.HVqVaeModel(vqvae.VqVaeConfig(**TOY_MODEL, beta=beta),
                                  ["A", "B"], seed=MODEL_SEED)
        _, report = vqvae.train(model, data, vqvae.TrainingConfig(
            **{**TOY_TRAINING, "steps": 30}))
        assert len(report) == 30 and all(c > 0 for c in report.codebook)
        for step, (codebook, commitment) in enumerate(
                zip(report.codebook, report.commitment)):
            assert commitment == beta * codebook, step

    def test_same_seed_bit_identical_reports(self):
        data, _, _ = make_two_speaker_dataset()
        cfg = vqvae.VqVaeConfig(in_channels=16, hidden=8, latent_dim=4,
                                codebook_size=4, embed_dim=2)
        runs = []
        for _ in range(2):
            m = vqvae.HVqVaeModel(cfg, ["A", "B"], seed=2)
            _, rep = vqvae.train(m, data, vqvae.TrainingConfig(
                steps=5, batch_size=4, crop_frames=16, learning_rate=1e-3, seed=9))
            runs.append(rep)
        assert runs[0].reconstruction == runs[1].reconstruction
        assert runs[0].codebook == runs[1].codebook
        assert runs[0].commitment == runs[1].commitment
        assert runs[0].perplexities == runs[1].perplexities

    def test_zero_learning_rate_freezes_parameters(self):
        # single full-length utterance: every step sees the same batch, so
        # the loss trace must be flat and parameters must not move
        rng = np.random.default_rng(19)
        data = [("A", rng.normal(size=(16, 16)).astype(np.float32))]
        cfg = vqvae.VqVaeConfig(in_channels=16, hidden=8, latent_dim=4,
                                codebook_size=4, embed_dim=2)
        m = vqvae.HVqVaeModel(cfg, ["A"], seed=4)

        def frozen(**kwargs):
            # TrainingConfig refuses a zero rate, which trains nothing; set
            # it on the instance so that only the optimizer's step is zero
            tc = vqvae.TrainingConfig(batch_size=2, crop_frames=16, **kwargs)
            tc.learning_rate = 0.0
            return tc

        _, rep = vqvae.train(m, data, frozen(steps=4, seed=11))
        snapshot = {k: p.data.copy() for k, p in m.params.items()}
        assert len(set(rep.reconstruction)) == 1
        _, rep2 = vqvae.train(m, data, frozen(steps=3, seed=12))
        for k, p in m.params.items():
            np.testing.assert_array_equal(p.data, snapshot[k])
        assert len(set(rep2.reconstruction)) == 1

    def test_failed_report_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "report.csv"
        old = vqvae.TrainingReport()
        old.append(1.0, 0.5, 0.25, (2.0, 3.0, 4.0))
        old.write_csv(path)
        before = path.read_bytes()
        new = vqvae.TrainingReport()
        new.append(0.9, 0.4, 0.2, (2.0, 3.0, 4.0))
        new.append(0.8, 0.3, 0.1, (2.0, 3.0, 4.0))
        new.perplexities.pop()  # row 2 fails after row 1 is written
        with pytest.raises(IndexError):
            new.write_csv(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_checkpoint_independent_of_blas_threads(self, tmp_path):
        # two steps at the default model and training configs, once per
        # BLAS thread count, each in a fresh interpreter
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from pathovc import vqvae\n"
            "rng = np.random.default_rng(5)\n"
            "speakers = ['A', 'B', 'C']\n"
            "data = [(s, rng.normal(size=(int(rng.integers(40, 100)), 40))"
            ".astype(np.float32)) for s in speakers for _ in range(4)]\n"
            "model = vqvae.HVqVaeModel(vqvae.VqVaeConfig(), speakers, seed=0)\n"
            "vqvae.train(model, data, vqvae.TrainingConfig(steps=2))\n"
            "vqvae.save_checkpoint(model, sys.argv[1])\n")
        src = str(Path(vqvae.__file__).resolve().parents[2])
        blobs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            path = tmp_path / f"threads{threads}.hvqv"
            subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                           check=True, timeout=300)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_unknown_speaker_rejected_at_load(self):
        m = vqvae.HVqVaeModel(vqvae.VqVaeConfig(
            in_channels=4, hidden=4, latent_dim=2, codebook_size=2,
            embed_dim=2), ["A"], seed=0)
        data = [("A", np.zeros((16, 4), dtype=np.float32)),
                ("GHOST", np.zeros((16, 4), dtype=np.float32))]
        with pytest.raises(vqvae.UnknownSpeakerError, match="utterance 1.*GHOST"):
            vqvae.train(m, data, vqvae.TrainingConfig(steps=1))

    def test_empty_dataset_rejected(self):
        m = tiny_model(dtype="float32")
        with pytest.raises(ValueError, match="empty"):
            vqvae.train(m, [], vqvae.TrainingConfig(steps=1))


@contextmanager
def time_limit(seconds):
    """Turn a hang into a failure: raise TimeoutError after `seconds`."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestNonFiniteInput:
    def test_init_codebooks_rejects_nan_latents(self):
        m = tiny_model()
        m.codebooks_initialized = False
        pools = [np.ones((4, 2)), np.full((4, 2), np.nan), np.ones((4, 2))]
        with time_limit(10), pytest.raises(ValueError, match="stage 2"):
            m.init_codebooks(pools, np.random.default_rng(0))

    def test_init_codebooks_separates_huge_latents(self):
        # a 0.01 jitter does not change 1e30, so repeated picks of one
        # row would stay equal
        m = tiny_model()
        m.codebooks_initialized = False
        pools = [np.full((1, 2), 1e30)] * 3
        with time_limit(10):
            m.init_codebooks(pools, np.random.default_rng(0))
        for n in (1, 2, 3):
            rows = m.params[f"codebook{n}"].data
            assert len({r.tobytes() for r in rows}) == 3

    def test_overflowing_latents_stop_before_step_1(self):
        m = tiny_model(dtype="float32")
        m.codebooks_initialized = False
        data = [("A", np.full((16, 3), 3e38, dtype=np.float32)),
                ("B", np.full((16, 3), -3e38, dtype=np.float32))]
        with time_limit(10), pytest.raises(
                vqvae.NonFiniteLossError, match="before step 1") as exc:
            vqvae.train(m, data, vqvae.TrainingConfig(steps=1, batch_size=4))
        assert exc.value.batch == [0, 1]

    def test_overflowing_last_update_names_the_parameter(self):
        # one step, so no later forward pass sees the update overflow
        m = tiny_model(dtype="float32")
        m.codebooks_initialized = False
        rng = np.random.default_rng(3)
        data = [(s, 10 * rng.normal(size=(16, 3)).astype(np.float32)) for s in ("A", "B")]
        with time_limit(10), pytest.raises(
                vqvae.NonFiniteLossError,
                match=r"step 1: parameter \S+ holds NaN or Inf; try a lower") as exc:
            vqvae.train(m, data, vqvae.TrainingConfig(steps=1, batch_size=4,
                                                      learning_rate=1e38))
        assert exc.value.batch == [0, 1]

    def test_train_rejects_zero_frame_utterance(self):
        m = tiny_model(dtype="float32")
        m.codebooks_initialized = False
        data = [("A", np.ones((16, 3), dtype=np.float32)),
                ("B", np.zeros((0, 3), dtype=np.float32))]
        with time_limit(10), pytest.raises(
                ValueError, match="utterance 1 of speaker 'B' has no frames"):
            vqvae.train(m, data, vqvae.TrainingConfig(steps=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_train_rejects_non_finite_frames(self, bad):
        m = tiny_model(dtype="float32")
        m.codebooks_initialized = False
        frames = np.zeros((16, 3), dtype=np.float32)
        frames[5, 1] = bad
        data = [("A", np.ones((16, 3), dtype=np.float32)), ("B", frames)]
        with time_limit(10), pytest.raises(ValueError, match="utterance 1 of speaker 'B'"):
            vqvae.train(m, data, vqvae.TrainingConfig(steps=1))

    def test_diverging_loss_names_the_step(self):
        # finite frames, but a learning rate that blows the first update up
        m = tiny_model(dtype="float32")
        m.codebooks_initialized = False
        rng = np.random.default_rng(3)
        data = [(s, rng.normal(size=(16, 3)).astype(np.float32)) for s in ("A", "B")]
        with time_limit(10), pytest.raises(
                vqvae.NonFiniteLossError, match="step 2: reconstruction loss is nan") as exc:
            vqvae.train(m, data, vqvae.TrainingConfig(steps=5, learning_rate=1e30))
        assert set(exc.value.batch) <= {0, 1}


class TestCheckpoint:
    def _small_model(self):
        cfg = vqvae.VqVaeConfig(in_channels=4, hidden=6, latent_dim=3,
                                codebook_size=4, embed_dim=2)
        m = vqvae.HVqVaeModel(cfg, ["M04", "M12"], seed=21)
        m.codebooks_initialized = True
        return m

    def test_round_trip_bit_exact(self, tmp_path):
        m = self._small_model()
        path = tmp_path / "m.hvqv"
        vqvae.save_checkpoint(m, path)
        back = vqvae.load_checkpoint(path)
        assert back.cfg == m.cfg
        assert back.speakers == m.speakers
        assert back.codebooks_initialized is True
        assert sorted(back.params) == sorted(m.params)
        for k in m.params:
            assert back.params[k].data.tobytes() == m.params[k].data.tobytes()

    def test_save_load_save_identical_bytes(self, tmp_path):
        m = self._small_model()
        p1, p2 = tmp_path / "a.hvqv", tmp_path / "b.hvqv"
        vqvae.save_checkpoint(m, p1)
        vqvae.save_checkpoint(vqvae.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        m = self._small_model()
        path = tmp_path / "t.hvqv"
        vqvae.save_checkpoint(m, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(vqvae.CheckpointFormatError, match="truncated"):
            vqvae.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.hvqv"
        path.write_bytes(b"NOTIT" + b"\x00" * 40)
        with pytest.raises(vqvae.CheckpointFormatError, match="magic"):
            vqvae.load_checkpoint(path)

    def test_version_mismatch_explicit_error(self, tmp_path):
        m = self._small_model()
        path = tmp_path / "v.hvqv"
        vqvae.save_checkpoint(m, path)
        raw = bytearray(path.read_bytes())
        raw[5:7] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(vqvae.CheckpointVersionError, match="99"):
            vqvae.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        m = self._small_model()
        path = tmp_path / "g.hvqv"
        vqvae.save_checkpoint(m, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(vqvae.CheckpointFormatError, match="trailing"):
            vqvae.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        m = self._small_model()
        name = sorted(m.params)[1]
        m.params[name].data.flat[2] = bad
        path = tmp_path / "n.hvqv"
        vqvae.save_checkpoint(m, path)
        with pytest.raises(vqvae.CheckpointFormatError,
                           match=f"n.hvqv: parameter {name} holds NaN or Inf"):
            vqvae.load_checkpoint(path)

    @staticmethod
    def _edit_header(path, edit):
        """Rewrites the checkpoint at path with edit(header dict) applied."""
        raw = path.read_bytes()
        (n,) = struct.unpack_from("<I", raw, 7)
        header = json.loads(raw[11:11 + n])
        edit(header)
        blob = json.dumps(header).encode()
        path.write_bytes(raw[:7] + struct.pack("<I", len(blob)) + blob + raw[11 + n:])

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["config"].__setitem__("hidden", 7),
         r"truncated blob for enc2\.conv2\.w"),
        (lambda h: h["config"].__setitem__("hidden", 5), "2372 trailing bytes"),
        (lambda h: h["config"].__setitem__("codebook_size", 5),
         r"truncated blob for enc3\.proj\.w"),
        (lambda h: h["speakers"].append("F02"), "truncated blob for speaker_table"),
        (lambda h: h["speakers"].pop(), "8 trailing bytes"),
    ], ids=["hidden-wider", "hidden-narrower", "codebook-larger", "speaker-more",
            "speaker-fewer"])
    def test_layout_change_is_format_error(self, tmp_path, edit, message):
        # the config and speaker count fix the layout, so a header edit
        # that changes it no longer fits the blobs
        path = tmp_path / "l.hvqv"
        vqvae.save_checkpoint(self._small_model(), path)
        self._edit_header(path, edit)
        with pytest.raises(vqvae.CheckpointFormatError, match=f"l.hvqv: {message}"):
            vqvae.load_checkpoint(path)

    def test_blobs_follow_header_in_name_order(self, tmp_path):
        m = self._small_model()
        for i, name in enumerate(sorted(m.params, reverse=True)):
            m.params[name].data[...] = i + 1
        path = tmp_path / "c.hvqv"
        vqvae.save_checkpoint(m, path)
        raw = path.read_bytes()
        offset = 11 + struct.unpack_from("<I", raw, 7)[0]
        for name in sorted(m.params):
            n = m.params[name].data.size
            blob = np.frombuffer(raw, dtype="<f4", count=n, offset=offset)
            assert np.array_equal(blob, m.params[name].data.ravel()), name
            offset += 4 * n
        assert offset == len(raw)
        back = vqvae.load_checkpoint(path)
        assert sorted(back.params) == sorted(m.params)
        for name, p in m.params.items():  # codebooks included
            assert np.array_equal(back.params[name].data, p.data), name

    @pytest.mark.parametrize("field, value", [
        ("speakers", ["M04", "M04"]), ("speakers", []), ("speakers", 3),
        ("speakers", [["M04"], ["M12"]]),
        ("config", {"in_channels": 4, "hidden": 6.0, "latent_dim": 3,
                    "codebook_size": 4, "embed_dim": 2, "beta": 0.25,
                    "kernel_size": 5, "param_dtype": "float32"}),
        # two characters for two speakers, and speakers that are not strings
        ("speakers", "AB"), ("speakers", [1, 2]), ("speakers", ["M04", ""]),
        ("codebooks_initialized", "no"), ("codebooks_initialized", 1),
        ("codebooks_initialized", None)])  # None: the key is left out
    def test_malformed_header_is_format_error(self, tmp_path, field, value):
        path = tmp_path / "h.hvqv"
        vqvae.save_checkpoint(self._small_model(), path)
        self._edit_header(path, lambda header: header.pop(field) if value is None
                          else header.__setitem__(field, value))
        with pytest.raises(vqvae.CheckpointFormatError, match="h.hvqv: "):
            vqvae.load_checkpoint(path)

    @pytest.mark.parametrize("k", [-1, -3])
    def test_negative_kernel_size_is_format_error(self, tmp_path, k):
        # refused by the config, before the layout takes sqrt of a negative
        path = tmp_path / "k.hvqv"
        vqvae.save_checkpoint(self._small_model(), path)
        self._edit_header(path, lambda h: h["config"].__setitem__("kernel_size", k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(vqvae.CheckpointFormatError,
                               match="k.hvqv: .*kernel_size must be positive and odd"):
                vqvae.load_checkpoint(path)

    @pytest.mark.parametrize("dtype", ["float64", "no-such-type"])
    def test_non_float32_param_dtype_is_format_error(self, tmp_path, dtype):
        path = tmp_path / "d.hvqv"
        vqvae.save_checkpoint(self._small_model(), path)
        self._edit_header(path, lambda h: h["config"].__setitem__("param_dtype", dtype))
        with pytest.raises(vqvae.CheckpointFormatError, match="unreadable config"):
            vqvae.load_checkpoint(path)

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        m = self._small_model()
        path = tmp_path / "r.hvqv"
        vqvae.save_checkpoint(m, path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        back = vqvae.load_checkpoint(path)
        for name, p in back.params.items():
            assert p.data.tobytes() == m.params[name].data.tobytes()
            assert p.data.flags.owndata and p.data.flags.writeable
            assert p.requires_grad

    @pytest.mark.parametrize("cfg, n_speakers", [
        (vqvae.VqVaeConfig(), 4),
        (vqvae.VqVaeConfig(in_channels=4, hidden=6, latent_dim=3, codebook_size=4,
                           embed_dim=2), 2),
        (vqvae.VqVaeConfig(in_channels=3, hidden=4, latent_dim=2, codebook_size=3,
                           embed_dim=2, param_dtype="float64"), 1),
    ])
    def test_seeded_init_matches_draw_loop(self, cfg, n_speakers):
        for seed in (0, 21):
            m = vqvae.HVqVaeModel(cfg, [f"S{i}" for i in range(n_speakers)], seed=seed)
            want = init_params_ref(cfg, n_speakers, seed)
            assert list(m.params) == list(want)
            for name, arr in want.items():
                got = m.params[name].data
                assert got.dtype == arr.dtype and got.tobytes() == arr.tobytes(), name

    def test_failed_save_keeps_previous_file(self, tmp_path):
        m = self._small_model()
        path = tmp_path / "m.hvqv"
        vqvae.save_checkpoint(m, path)
        before = path.read_bytes()
        # the last blob cannot be converted to floats, so the save fails
        # after the header and the other blobs are written
        last = m.params[sorted(m.params)[-1]]
        last.data = np.full(last.data.shape, "x", dtype=object)
        with pytest.raises(ValueError):
            vqvae.save_checkpoint(m, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.hvqv"]

    def test_float64_model_refused(self, tmp_path):
        m = tiny_model(dtype="float64")
        with pytest.raises(ValueError, match="32-bit"):
            vqvae.save_checkpoint(m, tmp_path / "x.hvqv")
