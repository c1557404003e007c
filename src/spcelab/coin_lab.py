"""Macroscopic coin experiments: flipping devices, urn draws, and box ensembles.

Six named experiments cover the spectrum from deterministic to mixed:

* E1 - device D1 flips a two-sided coin deterministically (constant series).
* E2 - device D2 alternates outcomes; only the first result is random.
* E3 - device D3 is a fair Bernoulli flipper (i.i.d., p = 0.5).
* E4 - draws without replacement from an urn of one-colored coins
  (hypergeometric step law, dependent trials).
* E5 - an arm picks a one-colored coin at random with replacement and its
  fixed color is revealed (mixed ensemble).
* E6 - the same arm feeds two-sided coins into D3 (pure ensemble;
  composition-independent).

Outcomes map to +1 for blue (B) and -1 for red (R) throughout.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FormatError
from .randkit import RngStream, substream


class CoinFace(enum.Enum):
    """A coin face; the enum value is the canonical numeric encoding."""

    B = 1
    R = -1

    @property
    def complement(self) -> "CoinFace":
        return CoinFace.R if self is CoinFace.B else CoinFace.B


class DeviceKind(enum.Enum):
    D1_FLIP = "D1"
    D2_ALTERNATING = "D2"
    D3_BERNOULLI = "D3"


class BoxKind(enum.Enum):
    MIXED_E5 = "E5"
    PURE_E6 = "E6"


@dataclass(frozen=True)
class UrnState:
    """Counts of one-colored coins in a box."""

    n_blue: int
    n_red: int

    def __post_init__(self):
        if self.n_blue < 0 or self.n_red < 0:
            raise DomainError(f"urn counts must be non-negative, got ({self.n_blue}, {self.n_red})")

    @property
    def total(self) -> int:
        return self.n_blue + self.n_red


@dataclass
class TimeSeries:
    """An ordered series of binary outcomes, +1 (B) or -1 (R).

    ``meta`` carries everything needed to regenerate the series bit-exactly:
    the generating stream key (``master_seed``, ``stream_id``), a
    ``generator_id`` naming the producing device or protocol, and the
    generator's parameters.
    """

    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int8)
        if values.ndim != 1:
            raise DomainError(f"series values must be one-dimensional, got shape {values.shape}")
        if values.size and not np.all(np.abs(values) == 1):
            raise DomainError("series values must be +1 or -1")
        self.values = values

    def __len__(self):
        return int(self.values.size)

    @property
    def fraction_b(self) -> float:
        """Fraction of +1 (blue) outcomes."""
        if not len(self):
            raise DomainError("empty series has no outcome fraction")
        return float(np.mean(self.values == 1))

    def as_string(self) -> str:
        """Render as a B/R character string, e.g. ``'RRRRRR'``."""
        return "".join("B" if v == 1 else "R" for v in self.values)


def _stream_meta(rng: RngStream) -> dict:
    return {"master_seed": rng.master_seed, "stream_id": rng.stream_id}


def run_device(kind: DeviceKind, initial_face: CoinFace, n: int, rng: RngStream) -> TimeSeries:
    """Flip one coin ``n`` times in the given device.

    D1 deterministically lands the opposite face, giving a constant series of
    ``initial_face.complement``.  D2 alternates strictly; its internal memory
    bit makes only the first outcome random (uniform), after which the series
    is fixed.  D3 produces i.i.d. fair outcomes regardless of the inserted
    face.
    """
    if n < 1:
        raise DomainError(f"trial count must be >= 1, got {n}")
    if kind is DeviceKind.D1_FLIP:
        values = np.full(n, initial_face.complement.value, dtype=np.int8)
    elif kind is DeviceKind.D2_ALTERNATING:
        first = 1 if rng.random() < 0.5 else -1
        values = np.where(np.arange(n) % 2 == 0, first, -first).astype(np.int8)
    elif kind is DeviceKind.D3_BERNOULLI:
        values = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    else:
        raise DomainError(f"unknown device kind: {kind!r}")
    meta = {
        **_stream_meta(rng),
        "generator_id": f"device:{kind.value}",
        "params": {"initial_face": initial_face.name, "n": int(n)},
    }
    return TimeSeries(values, meta)


def draw_urn(urn: UrnState, n: int, with_replacement: bool, rng: RngStream):
    """Draw ``n`` coins from the urn; returns ``(series, post_draw_urn)``.

    Without replacement the draw order is a uniform random permutation of the
    urn contents, so the chance of blue at step ``k + 1`` given ``m`` blues so
    far is ``(n_blue - m) / (total - k)``; the returned urn reflects the
    removed coins.  With replacement the trials are i.i.d. with
    ``p = n_blue / total`` and the urn comes back unchanged.
    """
    if n < 0:
        raise DomainError(f"draw count must be >= 0, got {n}")
    if urn.total == 0:
        raise DomainError("cannot draw from an empty urn")
    if with_replacement:
        p = urn.n_blue / urn.total
        values = np.where(rng.random(n) < p, 1, -1).astype(np.int8)
        post = urn
    else:
        if n > urn.total:
            raise DomainError(f"cannot draw {n} coins without replacement from {urn.total}")
        contents = np.repeat(np.array([1, -1], dtype=np.int8), [urn.n_blue, urn.n_red])
        values = rng.generator.permutation(contents)[:n]
        drawn_blue = int(np.sum(values == 1))
        post = UrnState(urn.n_blue - drawn_blue, urn.n_red - (n - drawn_blue))
    meta = {
        **_stream_meta(rng),
        "generator_id": "urn:replace" if with_replacement else "urn:noreplace",
        "params": {"n_blue": urn.n_blue, "n_red": urn.n_red, "n": int(n)},
    }
    return TimeSeries(values, meta), post


def urn_count_batch(urn: UrnState, n: int, runs: int, with_replacement: bool, master_seed, stream_id=0) -> np.ndarray:
    """Blue-coin counts for ``runs`` independent urn draws of length ``n``.

    Vectorized convenience for summary statistics over many runs; the urn is
    restored between runs.  Equivalent in distribution to repeated
    :func:`draw_urn` calls, but draws count-level variates in blocks.
    """
    if runs < 1:
        raise DomainError(f"run count must be >= 1, got {runs}")
    if urn.total == 0:
        raise DomainError("cannot draw from an empty urn")
    rng = substream(master_seed, stream_id)
    if with_replacement:
        return rng.generator.binomial(n, urn.n_blue / urn.total, size=runs).astype(np.int64)
    if n > urn.total:
        raise DomainError(f"cannot draw {n} coins without replacement from {urn.total}")
    contents = np.repeat(np.array([1, -1], dtype=np.int8), [urn.n_blue, urn.n_red])
    counts = np.empty(runs, dtype=np.int64)
    chunk = 32768
    for start in range(0, runs, chunk):
        m = min(chunk, runs - start)
        keys = rng.random((m, urn.total))
        order = np.argsort(keys, axis=1, kind="stable")
        drawn = contents[order[:, :n]]
        counts[start : start + m] = np.sum(drawn == 1, axis=1)
    return counts


def run_box_experiment(box: BoxKind, urn: UrnState, n: int, rng: RngStream) -> TimeSeries:
    """One run of the mixed (E5) or pure (E6) box experiment.

    E5 picks a one-colored coin uniformly with replacement and reveals its
    fixed color, so ``p(B) = n_blue / total`` per trial.  E6 feeds identical
    two-sided coins into the fair flipper, so ``p(B) = 0.5`` no matter what
    the box composition is.
    """
    if n < 1:
        raise DomainError(f"trial count must be >= 1, got {n}")
    if urn.total == 0:
        raise DomainError("box experiment requires a non-empty urn")
    if box is BoxKind.MIXED_E5:
        p = urn.n_blue / urn.total
    elif box is BoxKind.PURE_E6:
        p = 0.5
    else:
        raise DomainError(f"unknown box kind: {box!r}")
    values = np.where(rng.random(n) < p, 1, -1).astype(np.int8)
    meta = {
        **_stream_meta(rng),
        "generator_id": f"box:{box.value}",
        "params": {"n_blue": urn.n_blue, "n_red": urn.n_red, "n": int(n)},
    }
    return TimeSeries(values, meta)


def remove_coins(urn: UrnState, count: int, rng: RngStream) -> UrnState:
    """Remove ``count`` coins uniformly without replacement (hypergeometric split)."""
    if count < 0:
        raise DomainError(f"removal count must be >= 0, got {count}")
    if count > urn.total:
        raise DomainError(f"cannot remove {count} coins from {urn.total}")
    if count == 0:
        return urn
    blue_removed = int(rng.generator.hypergeometric(urn.n_blue, urn.n_red, count))
    return UrnState(urn.n_blue - blue_removed, urn.n_red - (count - blue_removed))


def regenerate_series(meta: dict) -> TimeSeries:
    """Rebuild a series bit-exactly from its generation metadata."""
    gid = meta.get("generator_id", "")
    params = meta.get("params", {})
    rng = substream(meta["master_seed"], meta["stream_id"])
    if gid.startswith("device:"):
        kind = DeviceKind(gid.split(":", 1)[1])
        return run_device(kind, CoinFace[params["initial_face"]], params["n"], rng)
    if gid.startswith("urn:"):
        urn = UrnState(params["n_blue"], params["n_red"])
        series, _ = draw_urn(urn, params["n"], gid == "urn:replace", rng)
        return series
    if gid.startswith("box:"):
        urn = UrnState(params["n_blue"], params["n_red"])
        return run_box_experiment(BoxKind(gid.split(":", 1)[1]), urn, params["n"], rng)
    raise DomainError(f"cannot regenerate series for generator_id {gid!r}")


# ---------------------------------------------------------------------------
# JSONL serialization: a header record followed by one record per trial.

def timeseries_to_jsonl_lines(series: TimeSeries):
    """Yield the JSONL lines for one series (header first)."""
    meta = series.meta
    header = {
        "kind": "header",
        "generator_id": meta.get("generator_id", ""),
        "master_seed": meta.get("master_seed"),
        "stream_id": meta.get("stream_id"),
        "n": len(series),
        "params": meta.get("params", {}),
    }
    yield json.dumps(header, sort_keys=True)
    gid = meta.get("generator_id", "")
    for i, v in enumerate(series.values):
        yield json.dumps({"index": i, "outcome": int(v), "generator_id": gid}, sort_keys=True)


def write_timeseries_jsonl(series_list, path):
    """Write one or more series to a JSONL file, one header per series."""
    if isinstance(series_list, TimeSeries):
        series_list = [series_list]
    with open(path, "w", encoding="utf-8") as fh:
        for series in series_list:
            for line in timeseries_to_jsonl_lines(series):
                fh.write(line + "\n")


def read_timeseries_jsonl(path):
    """Parse a JSONL series file back into a list of :class:`TimeSeries`.

    Raises :class:`FormatError` with the offending line number on malformed
    input: bad JSON or a record that is not an object, records before any
    header, outcomes other than the integers +1/-1, indices that are not
    consecutive integers, or a truncated final series.
    """
    out = []
    header = None
    values = []

    def finish(lineno):
        if header is None:
            return
        if len(values) != header["n"]:
            raise FormatError(
                f"series declared n={header['n']} but {len(values)} records found", lineno
            )
        meta = {
            "master_seed": header.get("master_seed"),
            "stream_id": header.get("stream_id"),
            "generator_id": header.get("generator_id", ""),
            "params": header.get("params", {}),
        }
        out.append(TimeSeries(np.asarray(values, dtype=np.int8), meta))

    with open(path, "r", encoding="utf-8") as fh:
        lineno = 0
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON ({exc.msg})", lineno) from exc
            if not isinstance(record, dict):
                raise FormatError("record must be a JSON object", lineno)
            if record.get("kind") == "header":
                finish(lineno)
                if type(record.get("n")) is not int or record["n"] < 0:
                    raise FormatError("header 'n' must be a non-negative integer", lineno)
                header = record
                values = []
                continue
            if header is None:
                raise FormatError("trial record before any header", lineno)
            if "outcome" not in record or "index" not in record:
                raise FormatError("trial record missing 'index' or 'outcome'", lineno)
            if type(record["outcome"]) is not int or record["outcome"] not in (1, -1):
                raise FormatError(f"outcome must be +1 or -1, got {record['outcome']}", lineno)
            if type(record["index"]) is not int or record["index"] != len(values):
                raise FormatError(
                    f"expected index {len(values)}, got {record['index']}", lineno
                )
            values.append(record["outcome"])
        finish(lineno + 1)
    if not out:
        raise FormatError("no series found in file", None)
    return out
