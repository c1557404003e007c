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

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FormatError, shorten
from .randkit import RngStream, stream_uniforms, substream


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
        # checked before the int8 cast, which would truncate 1.9 to 1 and turn True into 1
        values = np.asarray(self.values)
        if values.ndim != 1:
            raise DomainError(f"series values must be one-dimensional, got shape {values.shape}")
        if values.dtype.kind not in "iuf" or not np.all((values == 1) | (values == -1)):
            raise DomainError("series values must be +1 or -1")
        self.values = values.astype(np.int8, copy=False)

    def __len__(self):
        return int(self.values.size)


#: Uniforms per pass of :func:`sample_runs`; bounds its working set.
BATCH_UNIFORMS = 2**15


def _urn_step_law(u, n_blue, total):
    """Blue indicators of draws without replacement, one uniform per draw.

    Draw ``k`` is blue iff ``u_k < (n_blue - m_k) / (total - k)``, where
    ``m_k`` counts the blues before it: the sequential form of a uniform
    random permutation of the urn.  Works along the last axis, so 1-D input
    is one run and 2-D input one run per row.
    """
    blue = np.empty(u.shape, dtype=bool)
    m = np.zeros(u.shape[:-1], dtype=np.int64)
    for k in range(u.shape[-1]):
        step = u[..., k] < (n_blue - m) / (total - k)
        blue[..., k] = step
        m += step
    return blue


_DEVICE = ("initial_face", "n")
_URN = ("n_blue", "n_red", "n")

#: The params each generator's law reads, by the ``generator_id`` a series header records.
GENERATOR_PARAMS = {
    "device:D1": _DEVICE, "device:D2": _DEVICE, "device:D3": _DEVICE,
    "urn:replace": _URN, "urn:noreplace": _URN,
    "box:E5": _URN, "box:E6": _URN,
}

#: The generator each named experiment runs; E4 with replacement runs ``urn:replace``.
EXPERIMENTS = {"E1": "device:D1", "E2": "device:D2", "E3": "device:D3",
               "E4": "urn:noreplace", "E5": "box:E5", "E6": "box:E6"}


@dataclass(frozen=True)
class OutcomeLaw:
    """How one run of an experiment turns the uniforms of its stream into outcomes.

    ``generator_id`` and ``params`` are what a series header records, so a
    run is regenerable from its header and its ``(master_seed, stream_id)``.
    The law checks both and keeps only the params ``GENERATOR_PARAMS`` lists
    for its generator.  ``urn:noreplace`` draws by the step law: blue at step
    ``k + 1`` given ``m`` blues so far with chance ``(n_blue - m) / (total - k)``.
    """

    generator_id: str
    params: dict

    def __post_init__(self):
        gid = self.generator_id
        if not isinstance(gid, str) or gid not in GENERATOR_PARAMS:
            raise DomainError(f"unknown generator_id {gid!r}")
        try:
            params = {key: self.params[key] for key in GENERATOR_PARAMS[gid]}
        except (KeyError, TypeError) as exc:
            raise DomainError(f"{gid} needs params {', '.join(GENERATOR_PARAMS[gid])},"
                              f" got {self.params!r}") from exc
        for key, value in params.items():
            if key != "initial_face" and type(value) is not int:
                raise DomainError(f"param {key!r} must be an integer, got {value!r}")
        object.__setattr__(self, "params", params)
        n, urn = params["n"], gid.startswith("urn:")
        if urn and n < 0:
            raise DomainError(f"draw count must be >= 0, got {n}")
        if not urn and n < 1:
            raise DomainError(f"trial count must be >= 1, got {n}")
        if "initial_face" in params and params["initial_face"] not in ("B", "R"):
            raise DomainError("'initial_face' must be 'B' or 'R',"
                              f" got {shorten(repr(params['initial_face']))}")
        if "n_blue" in params:
            total = UrnState(params["n_blue"], params["n_red"]).total
            if total == 0:
                raise DomainError("cannot draw from an empty urn" if urn
                                  else "box experiment requires a non-empty urn")
            if gid == "urn:noreplace" and n > total:
                raise DomainError(f"cannot draw {n} coins without replacement from {total}")

    @property
    def uniforms(self) -> int:
        """Uniforms one run consumes: none for D1, one for D2, one per trial otherwise."""
        return {"device:D1": 0, "device:D2": 1}.get(self.generator_id, self.params["n"])

    def blue(self, u) -> np.ndarray:
        """Blue (+1) indicators from ``uniforms`` uniforms per run (last axis; 1-D or 2-D)."""
        gid, params, n = self.generator_id, self.params, self.params["n"]
        if gid == "device:D1":
            return np.full(u.shape[:-1] + (n,), params["initial_face"] == "R")
        if gid == "device:D2":
            return (np.arange(n) % 2 == 0) == (u[..., :1] < 0.5)
        if gid in ("device:D3", "box:E6"):
            return u < 0.5
        total = params["n_blue"] + params["n_red"]
        if gid == "urn:noreplace":
            return _urn_step_law(u, params["n_blue"], total)
        return u < params["n_blue"] / total

    def series(self, rng: RngStream) -> TimeSeries:
        """One run on ``rng``."""
        return self._series(self.blue(rng.random(self.uniforms)), rng.master_seed, rng.stream_id)

    def _series(self, blue, master_seed, stream_id) -> TimeSeries:
        meta = {"master_seed": master_seed, "stream_id": stream_id,
                "generator_id": self.generator_id, "params": dict(self.params)}
        return TimeSeries(np.where(blue, 1, -1).astype(np.int8), meta)


def sample_runs(law: OutcomeLaw, master_seed, stream_ids, keep=0):
    """Blue counts of one run per stream id, plus the series of the first ``keep`` runs.

    Run ``i`` equals ``law.series(substream(master_seed, stream_ids[i]))``
    bit for bit.  The uniforms of many runs come from one
    :func:`~spcelab.randkit.stream_uniforms` pass, about
    ``BATCH_UNIFORMS`` at a time, so no stream object is built per run and
    only the kept series are held.
    """
    stream_ids = np.asarray(stream_ids)
    rows = max(1, BATCH_UNIFORMS // max(law.params["n"], 1))
    counts = np.empty(len(stream_ids), dtype=np.int64)
    kept = []
    for start in range(0, len(stream_ids), rows):
        ids = stream_ids[start:start + rows]
        blue = law.blue(stream_uniforms(master_seed, ids, law.uniforms))
        counts[start:start + len(ids)] = blue.sum(axis=1)
        for sid, row in zip(ids[:max(keep - len(kept), 0)], blue):
            kept.append(law._series(row, int(master_seed), int(sid)))
    return counts, kept


def remove_coins(urn: UrnState, count: int, rng: RngStream) -> UrnState:
    """Remove ``count`` coins uniformly without replacement (hypergeometric split).

    The coins are drawn by the step law of ``urn:noreplace``, one uniform of
    ``rng`` per coin.
    """
    if count < 0:
        raise DomainError(f"removal count must be >= 0, got {count}")
    if count > urn.total:
        raise DomainError(f"cannot remove {count} coins from {urn.total}")
    drawn_blue = int(_urn_step_law(rng.random(count), urn.n_blue, urn.total).sum())
    return UrnState(urn.n_blue - drawn_blue, urn.n_red - (count - drawn_blue))


def regenerate_series(meta: dict) -> TimeSeries:
    """Rebuild a series bit-exactly from its generation metadata (a series header)."""
    law = OutcomeLaw(meta.get("generator_id", ""), meta.get("params", {}))
    return law.series(substream(meta["master_seed"], meta["stream_id"]))


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
    """Write a list of series to a JSONL file, one header per series."""
    with open(path, "w", encoding="utf-8") as fh:
        for series in series_list:
            for line in timeseries_to_jsonl_lines(series):
                fh.write(line + "\n")


def read_timeseries_jsonl(path):
    """Parse a JSONL series file back into a list of :class:`TimeSeries`.

    Raises :class:`FormatError` with the offending line number on malformed
    input: bad JSON or a record that is not an object, records before any
    header, outcomes other than the integers +1/-1, indices that are not
    consecutive integers, or a truncated final series.  A file that is not
    UTF-8 text raises it without a line number.
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

    try:
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
                except RecursionError as exc:
                    raise FormatError("invalid JSON (nested too deeply)", lineno) from exc
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
                    raise FormatError(f"outcome must be +1 or -1, got {shorten(repr(record['outcome']))}",
                                      lineno)
                if type(record["index"]) is not int or record["index"] != len(values):
                    raise FormatError(
                        f"expected index {len(values)}, got {shorten(repr(record['index']))}", lineno
                    )
                values.append(record["outcome"])
            finish(lineno + 1)
    except UnicodeDecodeError as exc:  # buffered decoding knows no reliable line
        raise FormatError(f"not UTF-8 text ({exc.reason})") from exc
    if not out:
        raise FormatError("no series found in file", None)
    return out
