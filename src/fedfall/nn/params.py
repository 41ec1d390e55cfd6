"""The parameter layout and the weights as views of one flat vector.

float64 master weights, float32 compute. Aggregation, the proximal penalty,
Adam, encrypted transport and weight files all operate on a single float64
vector; forward and backward passes run on a float32 copy of it
(``COMPUTE_DTYPE``). The manifest (tensor name, shape) is the one
declaration of the layout; it is derived from the model dimensions alone,
so two models built with the same sizes always agree on coordinate order.
``ModelParams`` exposes the tensors as named views into that vector, so the
model reads and writes the same memory that the optimizer updates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from fedfall.errors import ShapeMismatchError

_FILE_MAGIC = b"EPFLPV1\n"

# The dtype forward and backward passes run in; master weights stay float64.
COMPUTE_DTYPE = np.float32

# Tensors excluded from gradient updates (batch statistics).
NON_TRAINABLE = frozenset({"bn_running_mean", "bn_running_var"})


@dataclass(frozen=True)
class ParamManifest:
    """Ordered (name, shape) entries describing one flat layout.

    Offsets, the total length and the trainable slices are computed once,
    when the manifest is built.
    """

    entries: tuple[tuple[str, tuple[int, ...]], ...]
    dim: int = field(init=False, compare=False)
    # (lo, hi) of each maximal run of trainable coordinates
    trainable_slices: tuple[tuple[int, int], ...] = field(init=False, compare=False)
    _offsets: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        offsets, runs, pos = {}, [], 0
        for name, shape in self.entries:
            lo, pos = pos, pos + math.prod(shape)
            offsets[name] = (lo, pos)
            if name in NON_TRAINABLE:
                continue
            if runs and runs[-1][1] == lo:
                runs[-1] = (runs[-1][0], pos)
            else:
                runs.append((lo, pos))
        object.__setattr__(self, "dim", pos)
        object.__setattr__(self, "trainable_slices", tuple(runs))
        object.__setattr__(self, "_offsets", offsets)

    def offsets(self) -> dict[str, tuple[int, int]]:
        return dict(self._offsets)

    def trainable_mask(self) -> np.ndarray:
        mask = np.zeros(self.dim, dtype=bool)
        for lo, hi in self.trainable_slices:
            mask[lo:hi] = True
        return mask

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Each tensor as a reshaped view of ``vec`` (no copies)."""
        return {
            name: vec[lo:hi].reshape(shape)
            for (name, shape), (lo, hi) in zip(self.entries, self._offsets.values())
        }


@cache
def manifest_for(input_size: int, hidden_size: int) -> ParamManifest:
    h = hidden_size
    return ParamManifest(
        entries=(
            ("lstm1_wx", (4 * h, input_size)),
            ("lstm1_wh", (4 * h, h)),
            ("lstm1_b", (4 * h,)),
            ("lstm2_wx", (4 * h, h)),
            ("lstm2_wh", (4 * h, h)),
            ("lstm2_b", (4 * h,)),
            ("bn_gamma", (h,)),
            ("bn_beta", (h,)),
            ("bn_running_mean", (h,)),
            ("bn_running_var", (h,)),
            ("fc1_w", (h, h)),
            ("fc1_b", (h,)),
            ("fc2_w", (1, h)),
            ("fc2_b", (1,)),
        )
    )


@dataclass(frozen=True)
class LstmLayer:
    """Gate weights for one LSTM layer.

    wx: (4H, input_dim) input-to-gate weights
    wh: (4H, H) recurrent weights
    b:  (4H,) gate biases
    """

    wx: np.ndarray
    wh: np.ndarray
    b: np.ndarray


class ModelParams:
    """All weights of the classifier as named views into one flat vector.

    ``vec`` holds every coordinate in ``manifest_for(input_size,
    hidden_size)`` order, and ``lstm1``/``lstm2`` (``LstmLayer``),
    ``bn_gamma``, ``bn_beta``, ``bn_running_mean``, ``bn_running_var``,
    ``fc1_w``, ``fc1_b``, ``fc2_w`` and ``fc2_b`` are views of it. The
    object aliases ``vec`` rather than copying it. Assigning to a tensor
    attribute copies into its view, so ``vec`` stays the only copy. ``vec``
    is float64 (master weights, gradients of them) or float32 (a compute
    copy, see ``astype``).

    ``bn_running_mean`` / ``bn_running_var`` are data statistics rather than
    gradient-trained weights; they still travel with the parameter vector so
    aggregation shares them between clients.
    """

    def __init__(self, vec: np.ndarray, input_size: int, hidden_size: int):
        manifest = manifest_for(input_size, hidden_size)
        if not (
            isinstance(vec, np.ndarray)
            and vec.dtype in (np.float64, COMPUTE_DTYPE)
            and vec.shape == (manifest.dim,)
            and vec.flags.c_contiguous
        ):
            raise ShapeMismatchError(
                f"need a contiguous float64 or float32 vector of shape ({manifest.dim},) for "
                f"input={input_size} hidden={hidden_size}, got shape {np.shape(vec)} "
                f"dtype {getattr(vec, 'dtype', None)}"
            )
        views = manifest.views(vec)
        self.__dict__.update(
            vec=vec,
            input_size=input_size,
            hidden_size=hidden_size,
            lstm1=LstmLayer(views.pop("lstm1_wx"), views.pop("lstm1_wh"), views.pop("lstm1_b")),
            lstm2=LstmLayer(views.pop("lstm2_wx"), views.pop("lstm2_wh"), views.pop("lstm2_b")),
            **views,
        )

    def __setattr__(self, name, value):
        view = self.__dict__.get(name)
        if not isinstance(view, np.ndarray):
            raise AttributeError(f"ModelParams.{name} is fixed by the layout")
        if np.shape(value) != view.shape:
            raise ShapeMismatchError(f"{name}: shape {np.shape(value)} vs {view.shape}")
        view[...] = value

    def __reduce__(self):
        # rebuilt from the vector, so the views alias it again
        return ModelParams, (self.vec, self.input_size, self.hidden_size)

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """Named tensors in canonical serialization order."""
        return list(manifest_for(self.input_size, self.hidden_size).views(self.vec).items())

    def copy(self) -> "ModelParams":
        return ModelParams(self.vec.copy(), self.input_size, self.hidden_size)

    def astype(self, dtype) -> "ModelParams":
        """A copy of the weights in ``dtype`` (float64 or float32)."""
        return ModelParams(self.vec.astype(dtype), self.input_size, self.hidden_size)


def params_to_vector(params: ModelParams) -> np.ndarray:
    """A copy of the flat vector."""
    return params.vec.copy()


def vector_to_params(vec: np.ndarray, input_size: int, hidden_size: int) -> ModelParams:
    """Views over a float64 copy of ``vec``; the result never aliases it."""
    return ModelParams(np.array(vec, dtype=np.float64), input_size, hidden_size)


def save_params(path, params: ModelParams) -> None:
    """Write weights as a JSON header plus a little-endian float64 blob."""
    header = {
        "input_size": params.input_size,
        "hidden_size": params.hidden_size,
        "tensors": [[name, list(arr.shape)] for name, arr in params.tensors()],
    }
    with open(path, "wb") as fh:
        fh.write(_FILE_MAGIC)
        blob = json.dumps(header).encode("utf-8")
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        fh.write(params.vec.astype("<f8").tobytes())


def load_params(path) -> ModelParams:
    with open(path, "rb") as fh:
        magic = fh.read(len(_FILE_MAGIC))
        if magic != _FILE_MAGIC:
            raise ShapeMismatchError(f"{path}: not a parameter file")
        hlen = int.from_bytes(fh.read(4), "little")
        header = json.loads(fh.read(hlen).decode("utf-8"))
        blob = fh.read()
    if len(blob) % 8:
        raise ShapeMismatchError(f"{path}: weight blob of {len(blob)} bytes is not float64")
    vec = np.frombuffer(blob, dtype="<f8")
    expected = manifest_for(header["input_size"], header["hidden_size"])
    stored = tuple((name, tuple(shape)) for name, shape in header["tensors"])
    if stored != expected.entries:
        raise ShapeMismatchError(f"{path}: tensor table does not match declared sizes")
    return vector_to_params(vec, header["input_size"], header["hidden_size"])
