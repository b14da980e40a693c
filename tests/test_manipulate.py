"""Inferred-box cache and noisy-box splicing."""

import numpy as np
import pytest

from dentdet.diffusion import signal_encode
from dentdet.manipulate import (
    InferredBoxCache,
    inference_proposals,
    inferred_boxes,
    manipulate_boxes,
)


def _ib(*cx_scores):
    return inferred_boxes([(cx, 0.5, 0.1, 0.1, score) for cx, score in cx_scores])


NONE = inferred_boxes([])


class TestCache:
    def test_get_and_read_counter(self):
        cache = InferredBoxCache(0.5, {"img0": _ib((0.5, 0.9))})
        assert len(cache) == 1
        assert cache.reads == 0
        got = cache.get("img0")
        assert len(got) == 1 and got[0].score == 0.9
        np.testing.assert_array_equal(got[0].box, [0.5, 0.5, 0.1, 0.1])
        missing = cache.get("missing")
        assert len(missing) == 0 and missing.dtype == got.dtype
        assert cache.get("other") is missing  # one shared empty array
        assert not missing.flags.writeable
        assert cache.reads == 3

    def test_rejects_nan_score(self, tmp_path):
        path = tmp_path / "nan.tsv"
        path.write_text("x\t0.5\t0.5\t0.1\t0.1\t0.9\nx\t0.5\t0.5\t0.1\t0.1\tnan\n")
        with pytest.raises(ValueError, match=f"^{path}:2: inferred-box values must be finite$"):
            InferredBoxCache.load(path, 0.5)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        cache = InferredBoxCache(0.5, {
            f"img{i}": inferred_boxes(
                np.column_stack([rng.uniform(0.05, 0.95, (5, 4)), rng.uniform(0, 1, 5)])
            )
            for i in range(4)
        })
        path = tmp_path / "cache.tsv"
        cache.save(path)
        back = InferredBoxCache.load(path, 0.5)
        assert back.threshold == 0.5
        assert len(back) == len(cache)
        assert back.entries.keys() == cache.entries.keys()
        for image_id, entries in cache.entries.items():
            # bit-exact floats via repr
            np.testing.assert_array_equal(back.entries[image_id].box, entries.box)
            np.testing.assert_array_equal(back.entries[image_id].score, entries.score)

    def test_load_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("img0\t0.5\t0.5\n")
        with pytest.raises(ValueError, match=f"^{path}:1: expected 6 fields, got 3$"):
            InferredBoxCache.load(path, 0.5)


class TestManipulate:
    def test_empty_cache_is_identity(self):
        noisy = np.random.default_rng(0).normal(size=(8, 4))
        out = manipulate_boxes(noisy, NONE, 0.5)
        np.testing.assert_array_equal(out, noisy)
        assert out is not noisy  # caller may mutate freely

    def test_below_threshold_ignored(self):
        noisy = np.random.default_rng(1).normal(size=(8, 4))
        out = manipulate_boxes(noisy, _ib((0.3, 0.2), (0.6, 0.5)), 0.5)
        np.testing.assert_array_equal(out, noisy)  # 0.5 is not > 0.5

    def test_confident_boxes_fill_trailing_rows_clean(self):
        noisy = np.random.default_rng(2).normal(size=(8, 4))
        inferred = _ib((0.2, 0.8), (0.7, 0.9))
        out = manipulate_boxes(noisy, inferred, 0.5, scale=2.0)
        assert out.shape == (8, 4)
        np.testing.assert_array_equal(out[:6], noisy[:6])
        want = signal_encode(np.stack([e.box for e in inferred]), 2.0)
        np.testing.assert_array_equal(out[6:], want)

    def test_overflow_keeps_top_n_by_score_in_input_order(self):
        noisy = np.random.default_rng(3).normal(size=(3, 4))
        inferred = _ib((0.1, 0.6), (0.2, 0.95), (0.3, 0.7), (0.4, 0.9), (0.5, 0.8))
        out = manipulate_boxes(noisy, inferred, 0.5, scale=2.0)
        # Top 3 scores are 0.95, 0.9, 0.8 (inputs 1, 3, 4); order preserved.
        want = signal_encode(np.stack([inferred[i].box for i in (1, 3, 4)]), 2.0)
        np.testing.assert_array_equal(out, want)

    def test_score_tie_prefers_earlier_input(self):
        noisy = np.random.default_rng(4).normal(size=(1, 4))
        inferred = _ib((0.1, 0.8), (0.9, 0.8))
        out = manipulate_boxes(noisy, inferred, 0.5, scale=2.0)
        want = signal_encode(inferred[0].box[None], 2.0)
        np.testing.assert_array_equal(out, want)

    def test_threshold_validation(self):
        noisy = np.zeros((2, 4))
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                manipulate_boxes(noisy, NONE, score_threshold=bad)

    def test_threshold_has_no_default(self):
        # The caller passes its cache's gate; there is no hidden second one.
        with pytest.raises(TypeError):
            manipulate_boxes(np.zeros((2, 4)), NONE)

    def test_threshold_one_is_identity(self):
        # No score can exceed 1.0, so the gate admits nothing.
        noisy = np.random.default_rng(9).normal(size=(4, 4))
        out = manipulate_boxes(noisy, _ib((1.0, 0.1)), score_threshold=1.0)
        np.testing.assert_array_equal(out, noisy)

    def test_output_length_always_n(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            noisy = rng.normal(size=(n, 4))
            inferred = _ib(*[
                (float(rng.uniform(0.1, 0.9)), float(rng.uniform(0, 1)))
                for _ in range(int(rng.integers(0, 16)))
            ])
            assert manipulate_boxes(noisy, inferred, 0.5).shape == (n, 4)


class TestInferenceProposals:
    def test_standard_normal_statistics(self):
        z = inference_proposals(5000, np.random.default_rng(6))
        assert abs(z.mean()) < 0.05
        assert abs(z.std() - 1.0) < 0.05

    def test_deterministic_and_cache_free(self):
        a = inference_proposals(16, np.random.default_rng(7))
        b = inference_proposals(16, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            inference_proposals(0, np.random.default_rng(0))
