"""Flat-vector layout, trainable mask, and weight file round-trips."""

import copy
import pickle

import numpy as np
import pytest

from fedfall.errors import ShapeMismatchError
from fedfall.nn import (
    ModelParams,
    init_params,
    load_params,
    manifest_for,
    params_to_vector,
    save_params,
    vector_to_params,
)


def expected_dim(in_size, h):
    lstm1 = 4 * h * in_size + 4 * h * h + 4 * h
    lstm2 = 4 * h * h + 4 * h * h + 4 * h
    bn = 4 * h
    fc = h * h + h + h + 1
    return lstm1 + lstm2 + bn + fc


class TestManifest:
    @pytest.mark.parametrize("in_size,h", [(9, 128), (3, 4), (1, 1), (5, 16)])
    def test_dim_formula(self, in_size, h):
        assert manifest_for(in_size, h).dim == expected_dim(in_size, h)

    def test_offsets_are_contiguous(self):
        m = manifest_for(3, 4)
        pos = 0
        for name, shape in m.entries:
            lo, hi = m.offsets()[name]
            assert lo == pos
            assert hi - lo == int(np.prod(shape))
            pos = hi
        assert pos == m.dim

    def test_trainable_mask_excludes_running_stats(self):
        m = manifest_for(3, 4)
        mask = m.trainable_mask()
        off = m.offsets()
        for name in ("bn_running_mean", "bn_running_var"):
            lo, hi = off[name]
            assert not mask[lo:hi].any()
        lo, hi = off["bn_gamma"]
        assert mask[lo:hi].all()
        assert mask.sum() == m.dim - 8


    def test_layout_computed_once(self):
        m = manifest_for(3, 4)
        assert manifest_for(3, 4) is m
        runs = np.flatnonzero(np.diff(np.concatenate([[0], m.trainable_mask(), [0]])))
        assert m.trainable_slices == tuple(zip(runs[::2], runs[1::2]))
        m.offsets()["lstm1_wx"] = (0, 0)  # callers get a copy
        assert m.offsets()["lstm1_wx"] == (0, 48)


class TestFlatViews:
    def test_tensors_are_views_of_vec(self):
        params = init_params(3, 4, seed=0)
        for _, arr in params.tensors():
            assert np.shares_memory(arr, params.vec)
        params.vec[:] = 7.0
        assert np.all(params.lstm2.wh == 7.0) and np.all(params.fc2_b == 7.0)

    def test_attribute_assignment_writes_through(self):
        params = init_params(3, 4, seed=0)
        params.bn_running_var = np.full(4, 2.5)
        params.fc1_b *= 0.0
        lo, hi = manifest_for(3, 4).offsets()["bn_running_var"]
        np.testing.assert_array_equal(params.vec[lo:hi], 2.5)
        lo, hi = manifest_for(3, 4).offsets()["fc1_b"]
        np.testing.assert_array_equal(params.vec[lo:hi], 0.0)
        with pytest.raises(ShapeMismatchError):
            params.bn_gamma = np.ones(5)
        with pytest.raises(AttributeError):
            params.lstm1 = params.lstm2

    def test_float32_copy_keeps_the_layout(self):
        params = init_params(3, 4, seed=0)
        shadow = params.astype(np.float32)
        assert shadow.vec.dtype == np.float32 and shadow.vec.flags.c_contiguous
        assert shadow.lstm2.wh.dtype == np.float32
        np.testing.assert_array_equal(shadow.fc1_w, params.fc1_w.astype(np.float32))
        shadow.vec[:] = 0.0  # a copy: the master is untouched
        assert np.any(params.vec != 0.0)
        vec32 = np.zeros(manifest_for(3, 4).dim, dtype=np.float32)
        assert ModelParams(vec32, 3, 4).vec is vec32

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "clone",
        [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_clones_keep_views_of_their_own_vec(self, dtype, clone):
        params = init_params(9, 4, seed=0).astype(dtype)
        twin = clone(params)
        assert twin.vec.dtype == dtype and (twin.input_size, twin.hidden_size) == (9, 4)
        np.testing.assert_array_equal(twin.vec, params.vec)
        assert not np.shares_memory(twin.vec, params.vec)
        for _, arr in twin.tensors():
            assert np.shares_memory(arr, twin.vec)
        assert np.shares_memory(twin.lstm1.wx, twin.vec) and np.shares_memory(twin.fc2_b, twin.vec)
        twin.fc2_b = np.array([5.0])
        assert twin.vec[-1] == 5.0 and params.vec[-1] != 5.0

    def test_rejects_vectors_it_cannot_view(self):
        dim = manifest_for(3, 4).dim
        for bad in (
            np.zeros(dim, dtype=np.float16),
            np.zeros(dim, dtype=np.int64),
            np.zeros(2 * dim)[::2],
            np.zeros(2 * dim, dtype=np.float32)[::2],
            np.zeros(dim - 1),
        ):
            with pytest.raises(ShapeMismatchError):
                ModelParams(bad, 3, 4)


class TestAliasing:
    """Results handed out by the flat layout never share the live buffer."""

    def test_params_to_vector(self):
        params = init_params(3, 4, seed=0)
        before = params.vec.copy()
        vec = params_to_vector(params)
        vec *= 3.0
        np.testing.assert_array_equal(params.vec, before)

    def test_vector_to_params(self):
        vec = params_to_vector(init_params(3, 4, seed=0))
        before = vec.copy()
        params = vector_to_params(vec, 3, 4)
        params.vec[:] = 0.0
        params.lstm1.wx[:] = 1.0
        np.testing.assert_array_equal(vec, before)

    def test_copy(self):
        params = init_params(3, 4, seed=0)
        before = params.vec.copy()
        dup = params.copy()
        dup.vec *= 3.0
        dup.bn_running_mean = np.ones(4)
        np.testing.assert_array_equal(params.vec, before)


class TestVectorRoundtrip:
    def test_bit_exact(self):
        params = init_params(9, 12, seed=77)
        params.bn_running_mean = np.random.default_rng(1).normal(size=12)
        vec = params_to_vector(params)
        back = vector_to_params(vec, 9, 12)
        for (n1, a1), (n2, a2) in zip(params.tensors(), back.tensors()):
            assert n1 == n2
            np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(params_to_vector(back), vec)

    def test_vector_is_copy(self):
        params = init_params(2, 3, seed=0)
        vec = params_to_vector(params)
        vec[0] += 100.0
        assert params.lstm1.wx.ravel()[0] != vec[0]
        back = vector_to_params(vec, 2, 3)
        vec[0] -= 50.0
        assert back.lstm1.wx.ravel()[0] == vec[0] + 50.0
        # reshaped tensors must not alias the input vector
        assert not np.shares_memory(back.lstm1.wx, vec)

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeMismatchError):
            vector_to_params(np.zeros(10), 9, 128)


class TestFileRoundtrip:
    def test_save_load(self, tmp_path):
        params = init_params(9, 8, seed=5)
        path = tmp_path / "weights.bin"
        save_params(path, params)
        loaded = load_params(path)
        np.testing.assert_array_equal(params_to_vector(loaded), params_to_vector(params))
        assert loaded.hidden_size == 8
        assert loaded.input_size == 9

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAPARAMFILE....")
        with pytest.raises(ShapeMismatchError):
            load_params(path)

    def test_truncated_blob(self, tmp_path):
        params = init_params(3, 4, seed=1)
        path = tmp_path / "weights.bin"
        save_params(path, params)
        data = path.read_bytes()
        for cut in (16, 3):
            path.write_bytes(data[:-cut])
            with pytest.raises(ShapeMismatchError):
                load_params(path)
