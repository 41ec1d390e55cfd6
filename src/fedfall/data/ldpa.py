"""Raw-record ingestion and multi-sensor alignment.

The source format is a comma-separated activity log: one row per sensor
reading with a sequence name (individual letter + sequence number, e.g.
"A01"), the sensor's hardware tag, a timestamp, a wall-clock date string,
three position coordinates, and an activity label.

Alignment merges the three body locations (one ankle, chest, belt) into
one (n, 9) array of positions and an (n,) array of fall labels. Streams of
unequal length are cut to the shortest by seeded random subsampling that
preserves temporal order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from fedfall.errors import MissingSensorError

logger = logging.getLogger(__name__)

SENSOR_LOCATIONS = {
    "010-000-024-033": "left_ankle",
    "010-000-030-096": "right_ankle",
    "020-000-033-111": "chest",
    "020-000-032-221": "belt",
}
ANKLE_TAGS = ("010-000-024-033", "010-000-030-096")
CHEST_TAG = "020-000-033-111"
BELT_TAG = "020-000-032-221"

ACTIVITIES = (
    "lying",
    "walking",
    "sitting",
    "standing up from lying",
    "sitting on the ground",
    "lying down",
    "on all fours",
    "falling",
    "standing up from sitting on the ground",
    "sitting down",
    "standing up from sitting",
)
FALL_ACTIVITY = "falling"


@dataclass(frozen=True)
class RawRecord:
    sequence_name: str
    sensor_tag: str
    timestamp: int
    date: str
    x: float
    y: float
    z: float
    activity: str


@dataclass
class ParseResult:
    records: list[RawRecord]
    malformed_count: int


def individual_of(sequence_name: str) -> str:
    """Sequence names are one letter plus a number, e.g. 'B03' -> 'B'."""
    return sequence_name[:1].upper()


def parse_ldpa_csv(path) -> ParseResult:
    """Read raw records in file order; malformed rows are counted, not fatal.

    Each row holds, in this order: sequence name, sensor tag, timestamp,
    date, x, y, z, activity; columns after the eighth are ignored. A first
    row that does not parse is treated as an optional header. Rows with
    unknown sensor tags or activity labels, or a coordinate that is NaN or
    infinite, count as malformed.
    """
    records: list[RawRecord] = []
    malformed = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            try:
                if len(parts) < 8:
                    raise ValueError(f"only {len(parts)} columns, need 8")
                seq, tag, ts, date, x, y, z, activity = parts[:8]
                if tag not in SENSOR_LOCATIONS:
                    raise ValueError(f"unknown sensor tag {tag!r}")
                if activity not in ACTIVITIES:
                    raise ValueError(f"unknown activity {activity!r}")
                rec = RawRecord(seq, tag, int(ts), date, float(x), float(y), float(z), activity)
                if not all(map(math.isfinite, (rec.x, rec.y, rec.z))):
                    raise ValueError(f"non-finite coordinate in {x!r}, {y!r}, {z!r}")
            except ValueError as err:
                if lineno == 0:
                    continue  # optional header row
                malformed += 1
                logger.debug("skipping malformed row %d: %s", lineno + 1, err)
                continue
            records.append(rec)
    if malformed:
        logger.warning("%s: skipped %d malformed rows", path, malformed)
    return ParseResult(records=records, malformed_count=malformed)


def _subsample_preserving_order(stream: list[RawRecord], length: int, rng: np.random.Generator) -> list[RawRecord]:
    if len(stream) <= length:
        return list(stream)
    keep = np.sort(rng.choice(len(stream), size=length, replace=False))
    return [stream[i] for i in keep]


def align_and_merge(
    records: list[RawRecord], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Merge one sequence's sensor streams into ``(values, labels)``.

    ``values`` is an (n, 9) float64 array of ankle, chest and belt xyz per
    time step; ``labels`` is the (n,) int64 array of fall labels.

    Uses whichever ankle stream has more records (ties go to the
    lexicographically smaller tag), requires chest and belt, cuts all three
    streams to the shortest length by order-preserving random subsampling,
    and pairs them up positionally. A time step is labeled 1 when any of
    its three source readings was a fall.
    """
    by_tag: dict[str, list[RawRecord]] = {}
    for rec in records:
        by_tag.setdefault(rec.sensor_tag, []).append(rec)
    for tag in by_tag:
        by_tag[tag].sort(key=lambda r: r.timestamp)

    ankles = [(tag, by_tag[tag]) for tag in ANKLE_TAGS if by_tag.get(tag)]
    if not ankles:
        raise MissingSensorError("no ankle stream present")
    ankles.sort(key=lambda kv: (-len(kv[1]), kv[0]))
    ankle = ankles[0][1]
    chest = by_tag.get(CHEST_TAG)
    belt = by_tag.get(BELT_TAG)
    if not chest:
        raise MissingSensorError("chest stream missing")
    if not belt:
        raise MissingSensorError("belt stream missing")

    length = min(len(ankle), len(chest), len(belt))
    streams = [_subsample_preserving_order(s, length, rng) for s in (ankle, chest, belt)]

    values = np.hstack([[(r.x, r.y, r.z) for r in s] for s in streams], dtype=np.float64)
    falls = np.array([[r.activity == FALL_ACTIVITY for r in s] for s in streams])
    return values, falls.any(axis=0).astype(np.int64)


def group_by_sequence(records: list[RawRecord]) -> dict[str, list[RawRecord]]:
    out: dict[str, list[RawRecord]] = {}
    for rec in records:
        out.setdefault(rec.sequence_name, []).append(rec)
    return out
