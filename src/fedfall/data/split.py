"""Train/test split at whole-sequence granularity."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from fedfall.data.ldpa import individual_of
from fedfall.data.windows import SequenceWindow, check_window_shapes
from fedfall.errors import ConfigError


@dataclass(frozen=True)
class DatasetSplit:
    """Each client's training and test windows, checked once when built.

    Both mappings are stored read-only (``MappingProxyType``) in sorted
    client order, each client's windows as a tuple. The constructor raises
    ``ConfigError`` naming the client and the window's ``origin`` unless:

    * both mappings name the same clients (a client with no windows of one
      kind holds an empty tuple there);
    * every window's ``origin[0]`` is the client it is filed under;
    * every window has one (T, F) shape, else ``ShapeMismatchError``;
    * every value is finite.

    ``train`` and ``test`` join the windows in sorted client order, the
    order the cache writes. ``dataclasses.replace``, ``pickle`` and
    ``copy.deepcopy`` rebuild through the constructor, so they check too.
    """

    train_by_client: Mapping[str, tuple[SequenceWindow, ...]]
    test_by_client: Mapping[str, tuple[SequenceWindow, ...]]
    window_shape: tuple[int, int] | None = field(init=False)

    def __post_init__(self):
        for name in ("train_by_client", "test_by_client"):
            given = getattr(self, name)
            by_client = {cid: tuple(given[cid]) for cid in sorted(given)}
            object.__setattr__(self, name, MappingProxyType(by_client))
        train, test = self.train_by_client, self.test_by_client
        for cid in sorted(train.keys() ^ test.keys()):
            has, lacks = ("test", "train") if cid in test else ("train", "test")
            windows = train.get(cid) or test.get(cid)
            first = f" (its first window is {windows[0].origin})" if windows else ""
            raise ConfigError(
                f"client {cid!r} is in {has}_by_client but not in {lacks}_by_client; "
                f"give it an empty tuple there{first}"
            )
        shapes, blocks = set(), {}
        for kind, by_client in (("train", train), ("test", test)):
            for cid, windows in by_client.items():
                for w in windows:
                    if w.origin[0] != cid:
                        raise ConfigError(f"{kind} window {w.origin} is filed under client {cid!r}")
                    values = w.values
                    shapes.add(values.shape)
                    # the array under the window: one per held sequence or cache block
                    block = values.base if isinstance(values.base, np.ndarray) else values
                    blocks[id(block)] = block
        if len(shapes) > 1:
            check_window_shapes(self.train + self.test)
        object.__setattr__(self, "window_shape", shapes.pop() if shapes else None)
        if all(np.isfinite(block).all() for block in blocks.values()):
            return
        # a block holds a NaN or an infinity, perhaps outside every window
        for kind, by_client in (("train", train), ("test", test)):
            for cid, windows in by_client.items():
                for w in windows:
                    if not np.isfinite(w.values).all():
                        raise ConfigError(
                            f"{kind} window {w.origin} of client {cid!r} holds a non-finite value"
                        )

    def __reduce__(self):
        # a mappingproxy does not pickle; plain dicts do
        return DatasetSplit, (dict(self.train_by_client), dict(self.test_by_client))

    @property
    def clients(self) -> list[str]:
        return list(self.train_by_client)

    @property
    def train(self) -> list[SequenceWindow]:
        return [w for windows in self.train_by_client.values() for w in windows]

    @property
    def test(self) -> list[SequenceWindow]:
        return [w for windows in self.test_by_client.values() for w in windows]


def split_train_test(windows_by_sequence: dict[str, list[SequenceWindow]]) -> DatasetSplit:
    """Hold out each individual's highest-numbered sequence for testing.

    Every individual needs at least two sequences. Because the split
    happens at sequence level, no window can straddle it.
    """
    by_individual: dict[str, list[str]] = {}
    for seq_name in windows_by_sequence:
        by_individual.setdefault(individual_of(seq_name), []).append(seq_name)

    train: dict[str, list[SequenceWindow]] = {}
    test: dict[str, list[SequenceWindow]] = {}
    for ind, seqs in sorted(by_individual.items()):
        if len(seqs) < 2:
            raise ValueError(f"individual {ind!r} has {len(seqs)} sequence(s); need at least 2")
        *trained, held_out = sorted(seqs)
        train[ind] = [w for seq in trained for w in windows_by_sequence[seq]]
        test[ind] = windows_by_sequence[held_out]
    return DatasetSplit(train, test)
