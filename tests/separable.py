"""A linearly separable dataset for tests where learning must not be the
bottleneck: aggregation robustness, round plumbing and acceptance gates."""

import numpy as np

from fedfall.data.split import DatasetSplit
from fedfall.data.synthetic import CLIENT_IDS
from fedfall.data.windows import SequenceWindow


def make_separable_dataset(
    seed: int = 0,
    n_clients: int = 5,
    train_per_client: int = 80,
    test_per_client: int = 40,
    window: int = 20,
    features: int = 9,
    margin: float = 2.0,
) -> DatasetSplit:
    """Linearly separable windows: the label shifts feature 0 by ``margin``.

    Labels are balanced. Client heterogeneity enters through a per-client
    offset on the remaining features.
    """
    root = np.random.SeedSequence(seed)
    train: dict[str, list[SequenceWindow]] = {}
    test: dict[str, list[SequenceWindow]] = {}
    for ci, cseed in enumerate(root.spawn(n_clients)):
        cid = CLIENT_IDS[ci % len(CLIENT_IDS)] + ("" if ci < len(CLIENT_IDS) else str(ci))
        rng = np.random.default_rng(cseed)
        offset = np.zeros(features)
        offset[1:] = rng.normal(0.0, 0.5, size=features - 1)
        for group, count, seq in ((train, train_per_client, "tr"), (test, test_per_client, "te")):
            windows = group[cid] = []
            for i in range(count):
                label = i % 2
                vals = rng.normal(0.0, 0.5, size=(window, features)) + offset
                vals[:, 0] += margin if label else -margin
                windows.append(
                    SequenceWindow(values=vals, label=label, origin=(cid, f"{cid}-{seq}", i))
                )
    return DatasetSplit(train, test)
