"""Command-line front end: configured, reproducible experiment runs.

Subcommands: ``spce``, ``coins``, ``purity``, ``bertrand``, ``qkd``, plus
``replay`` to re-execute a recorded run.  Every run is driven by a single
JSON config document and a master seed, and every run goes through one
driver: the command's plan checks its config, samples, and writes its files
into a staging directory inside the output directory; the driver adds a
``manifest.json`` and moves every file into place, manifest last.  A run
that fails leaves the output directory as it was.  The manifest replays the
run byte-for-byte (only its own timestamp differs between replays).

Exit codes: 0 success (purity: verdict pure), 1 purity mixed, 2 purity
inconclusive, 3 invalid config or usage, 4 malformed input data, 5 I/O
failure or out of memory, 6 internal error (traceback on stderr).
"""

from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
import traceback
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import bertrand as bertrand_mod
from . import coin_lab, purity, qkd, spce
from .errors import ConfigError, DomainError, FormatError, shorten
from .randkit import CapSpec, Direction, substream

ENV_OUT_ROOT = "SPCELAB_OUT"

EXIT_OK = 0
EXIT_MIXED = 1
EXIT_INCONCLUSIVE = 2
EXIT_CONFIG = 3
EXIT_INPUT = 4
EXIT_IO = 5
EXIT_INTERNAL = 6

#: Runs below this many trials are flagged as statistically weak in reports.
LOW_N = 100

FORMATS = ("csv", "json")

_REQUIRED = object()  # a field the config must give
_ABSENT = object()  # a field the config may leave out; it is then absent from the values


# ---------------------------------------------------------------------------
# config plumbing

def _reject_constant(token):
    raise ConfigError(f"{token} is not valid JSON")


def _finite(parse):
    """A JSON number parser that rejects a literal beyond the float range, such as ``1e999``."""
    def number(token):
        if not math.isfinite(float(token)):
            raise ConfigError(f"number {shorten(token)} is beyond the float range")
        return parse(token)
    return number


def _load_object(path, what) -> dict:
    """Read a strict-JSON object (a config or a manifest) from ``path``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text ({exc.reason})") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant,
                         parse_float=_finite(float), parse_int=_finite(int))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    except ConfigError as exc:  # a NaN or out-of-range number: name the file
        raise ConfigError(f"{what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    return doc


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def _expect(condition, name, what, value):
    _require(condition, f"'{name}' must {what}, got {shorten(repr(value))}")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Readers: each takes ``(value, name)``, checks the value and returns what the plan uses.

def _int(minimum, bound=2**63):
    """An integer in ``[minimum, bound)``: counts live in int64 arrays; only a seed reaches 2^64."""
    def read(value, name):
        _expect(type(value) is int, name, "be an integer", value)
        _expect(value >= minimum, name, f"be >= {minimum}", value)
        _expect(value < bound, name, f"be below 2^{bound.bit_length() - 1}", value)
        return value
    return read


def _number(interval=None):
    """A number; with ``interval``, written as in ``"(0, 1]"``, one that lies in it."""
    def read(value, name):
        _expect(_is_number(value), name, "be a number", value)
        if interval:
            low, high = map(float, interval[1:-1].split(","))
            _expect((low < value or interval[0] == "[" and value == low)
                    and (value < high or interval[-1] == "]" and value == high),
                    name, f"lie in {interval}", value)
        return value
    return read


def _bool(value, name):
    _expect(isinstance(value, bool), name, "be true or false", value)
    return value


def _one_of(*choices):
    def read(value, name):
        _expect(isinstance(value, str) and value in choices, name,
                f"be one of {', '.join(choices)}", value)
        return value
    return read


def _urn(value, name):
    _expect(isinstance(value, list) and len(value) == 2
            and all(type(v) is int and 0 <= v < 2**63 for v in value),
            name, "be a [n_blue, n_red] pair of integers in [0, 2^63)", value)
    return coin_lab.UrnState(*value)


def _axis(value, name) -> Direction:
    """An axis is either a plane angle in degrees or an explicit 3-vector."""
    if _is_number(value):
        return Direction.from_plane_angle(float(value))
    if isinstance(value, list) and len(value) == 3 and all(_is_number(v) for v in value):
        try:
            return Direction.normalized(*[float(v) for v in value])
        except DomainError as exc:
            raise ConfigError(f"axis '{name}' is not a usable 3-vector: {exc}") from exc
    raise ConfigError(f"axis '{name}' must be a degree angle or a 3-vector,"
                      f" got {shorten(repr(value))}")


def _list(entry, nonempty=False):
    def read(value, name):
        _expect(isinstance(value, list) and (value or not nonempty), name,
                "be a non-empty list" if nonempty else "be a list", value)
        return [entry(v, name) for v in value]
    return read


def _object(where, table):
    return lambda value, name: _fields(value, where, table)


def _fields(obj, where, table):
    """Check the config object ``obj`` against ``table`` and return its values.

    ``table`` maps each field ``obj`` may hold to ``(reader, default)``; any
    other name is rejected.  A missing field takes its default: ``_REQUIRED``
    rejects it, ``_ABSENT`` leaves it out of the values.  A value goes through
    its reader, a default too, except a null where the default is None, and
    a reader of None takes the value as given.
    """
    _require(isinstance(obj, dict), f"{where} must be an object")
    unknown = ", ".join(shorten(repr(k)) for k in sorted(set(obj) - set(table)))
    _require(not unknown, f"unknown field(s) {unknown} in {where} (allowed: {', '.join(table)})")
    values = {}
    for name, (reader, default) in table.items():
        value = obj.get(name, default)
        _require(value is not _REQUIRED, f"{where} is missing required field '{name}'")
        if value is not _ABSENT:
            as_given = reader is None or value is None and default is None
            values[name] = value if as_given else reader(value, name)
    return values


# ---------------------------------------------------------------------------
# output writers (each streams into one file of the staging directory)

def _write_json(path: Path, obj):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _table_file(out: Path, basename: str, header, rows, fmt: str) -> str:
    """Write a tabular output as CSV or JSON records; returns the file name."""
    name = f"{basename}.{fmt}"
    if fmt == "json":
        _write_json(out / name, [dict(zip(header, row)) for row in rows])
    else:
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    return name


def _config_hash(cfg) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# plans: each takes (cfg, seed, stage, fmt), checks its whole config before
# it samples, writes its files into ``stage`` and returns
# (output names, exit code, one-line summary)

_AXIS_LABELS = {"A": "A", "A_prime": "A'", "B": "B", "B_prime": "B'"}

# Config tables: every field a config object may hold -> (reader, default).  A field
# read without a reader is checked where the plan uses it.
_SEED = _int(0, bound=2**64)
_EPSILON = _number("[0, 2]")
_AXES = {"A": (_axis, _REQUIRED), "A_prime": (_axis, _ABSENT),
         "B": (_axis, _REQUIRED), "B_prime": (_axis, _ABSENT)}
#: An object ``epsilon`` holds one smear per axis of ``axes`` (and no other).
_EPSILONS = dict.fromkeys(_AXES, (lambda v, k: _EPSILON(v, f"epsilon.{k}"), _ABSENT))
_SPCE = {"seed": (_SEED, 0), "axes": (_object("'axes'", _AXES), _REQUIRED),
         "epsilon": (None, 0.0), "n": (_int(1), _REQUIRED), "record_limit": (_int(0), None)}


def cmd_spce(cfg, seed, stage: Path, fmt):
    v = _fields(cfg, "config", _SPCE)
    axes, eps, n = v["axes"], v["epsilon"], v["n"]
    if isinstance(eps, dict):
        eps = _fields(eps, "'epsilon'", {key: _EPSILONS[key] for key in axes})
        for key in axes:
            _require(key in eps, f"epsilon missing for axis '{key}'")
    else:
        eps = dict.fromkeys(axes, _EPSILON(eps, "epsilon"))
    caps = {_AXIS_LABELS[key]: CapSpec(axis, eps[key]) for key, axis in axes.items()}
    pairs = [(x, y) for x, y in [("A", "B"), ("A", "B'"), ("A'", "B"), ("A'", "B'")]
             if x in caps and y in caps]

    runs = [(caps[x], caps[y], n, seed, stream_id) for stream_id, (x, y) in enumerate(pairs)]
    correlators = {x + y: spce.correlator(*run) for (x, y), run in zip(pairs, runs)}
    rows = [[key, r, spce.correlator_stderr(r, n), n] for key, r in correlators.items()]
    spce.write_run_jsonl(runs, stage / "runs.jsonl", record_limit=v["record_limit"])
    table = _table_file(stage, "correlators", ["setting_pair", "r", "stderr", "n"], rows, fmt)

    if len(pairs) == 4:
        s_value = spce.chsh(*(correlators[x + y] for x, y in pairs))
        stderr_s = math.sqrt(sum(spce.correlator_stderr(correlators[x + y], n) ** 2 for x, y in pairs))
    else:
        s_value, stderr_s = None, None
    _write_json(stage / "chsh.json", {
        "S": s_value,
        "stderr_S": stderr_s,
        "pairs": correlators,
        "n_per_pair": n,
        "low_n": n < LOW_N,
        "note": None if len(pairs) == 4 else "CHSH needs all four axes (A, A_prime, B, B_prime)",
    })
    return ["runs.jsonl", table, "chsh.json"], EXIT_OK, f"{len(pairs)} setting pair(s), n={n}"


_SUMMARY_HEADER = ["experiment", "runs", "n", "mean_count_b", "var_count_b",
                   "mean_fraction_b", "z", "p"]


def _summarize(experiment, counts, runs, n):
    counts = np.asarray(counts, dtype=float)
    return [experiment, runs, n, float(counts.mean()),
            float(counts.var(ddof=1)) if runs > 1 else None,
            float(counts.mean() / n), None, None]


def _stream_ids(first, count):
    """Stream ids ``first`` to ``first + count - 1``, as uint64: numpy raises ValueError, not
    MemoryError, for an array of 2^63 bytes or more, so 2^60 ids or more run out of memory here."""
    if count >= 2**60:
        raise MemoryError(f"cannot allocate {count} stream ids")
    return np.arange(first, first + count, dtype=np.uint64)


_URN_FIELDS = {"urn": (_urn, _REQUIRED), "remove": (_int(0), 0)}
#: The fields of a coins config, and those each experiment adds; any other field is rejected.
_COINS = {"seed": (_SEED, 0), "experiment": (None, _REQUIRED), "runs": (_int(1), 1),
          "n": (_int(1), _REQUIRED), "series_limit": (_int(0), 10)}
_COIN_EXPERIMENTS = {**dict.fromkeys(("E1", "E2", "E3"), {"initial_face": (None, "B")}),
                     "E4": {**_URN_FIELDS, "with_replacement": (_bool, False)},
                     **dict.fromkeys(("E5", "E6", "E5E6"), _URN_FIELDS)}


def cmd_coins(cfg, seed, stage: Path, fmt):
    experiment = _one_of(*_COIN_EXPERIMENTS)(cfg.get("experiment"), "experiment")
    v = _fields(cfg, f"a coins config for experiment {experiment}",
                {**_COINS, **_COIN_EXPERIMENTS[experiment]})
    runs, n = v["runs"], v["n"]
    # the law keeps the params its generator reads: initial_face or the urn, and n
    params = {"initial_face": v.get("initial_face"), "n": n}
    if "urn" in v:
        urn = v["urn"]
        if v["remove"]:
            urn = coin_lab.remove_coins(urn, v["remove"], substream(seed, 0))
        params.update(n_blue=urn.n_blue, n_red=urn.n_red)

    experiments = ["E5", "E6"] if experiment == "E5E6" else [experiment]
    laws = [coin_lab.OutcomeLaw("urn:replace" if v.get("with_replacement")
                                else coin_lab.EXPERIMENTS[exp], params) for exp in experiments]
    outputs, rows, pooled = [], [], {}
    for exp_index, (exp, law) in enumerate(zip(experiments, laws)):
        # stream 0 is reserved for the removal perturbation
        ids = _stream_ids(1 + exp_index * runs, runs)
        counts, serialized = coin_lab.sample_runs(law, seed, ids, keep=v["series_limit"])
        name = "series.jsonl" if len(experiments) == 1 else f"series_{exp.lower()}.jsonl"
        coin_lab.write_timeseries_jsonl(serialized, stage / name)
        outputs.append(name)
        rows.append(_summarize(exp, counts, runs, n))
        pooled[exp] = counts

    if experiment == "E5E6":
        p1 = pooled["E5"].sum() / (runs * n)
        p2 = pooled["E6"].sum() / (runs * n)
        p_bar = (pooled["E5"].sum() + pooled["E6"].sum()) / (2 * runs * n)
        se = math.sqrt(max(p_bar * (1 - p_bar) * 2 / (runs * n), 1e-300))
        z = (p1 - p2) / se
        rows.append(["E5_vs_E6", runs, n, None, None, None, z,
                     float(math.erfc(abs(z) / math.sqrt(2)))])

    outputs.append(_table_file(stage, "summary", _SUMMARY_HEADER, rows, fmt))
    return outputs, EXIT_OK, f"{experiment}, {runs} run(s) of n={n}"


def _paths(value, name):
    _expect(isinstance(value, list) and value and all(isinstance(p, str) for p in value),
            name, "be a non-empty list of paths", value)
    return value


_GENERATE_ENTRY = {"box": (_one_of("E5", "E6"), _REQUIRED), "urn": (_urn, _REQUIRED),
                   "n": (_int(1), _REQUIRED), "count": (_int(1), 1)}
_GENERATE = {"experiments": (_list(_object("a generate entry", _GENERATE_ENTRY)), _REQUIRED)}
_PROCEDURE = {"kind": (None, _REQUIRED), "param": (_number(), 1.0)}
_PURITY = {"seed": (_SEED, 0), "alpha": (_number("(0, 1)"), 0.05), "inputs": (_paths, _ABSENT),
           "generate": (_object("'generate'", _GENERATE), _ABSENT),
           "procedures": (_list(_object("a procedure", _PROCEDURE)), []),
           "subensemble_count": (_int(0), 0), "subensemble_fraction": (_number("(0, 1]"), 0.5),
           "power_floor": (_int(0), purity.DEFAULT_POWER_FLOOR)}


def _purity_samples(v, seed):
    samples = []
    for path in v.get("inputs", []):
        try:
            series_list = coin_lab.read_timeseries_jsonl(path)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        for i, series in enumerate(series_list):
            if not len(series):
                raise FormatError(f"{path}: series {i} is empty")
            samples.append(purity.Sample(series, f"{Path(path).stem}[{i}]"))
    if "generate" in v:
        entries = [(coin_lab.OutcomeLaw(coin_lab.EXPERIMENTS[e["box"]], {
            "n_blue": e["urn"].n_blue, "n_red": e["urn"].n_red, "n": e["n"]}), e["count"])
            for e in v["generate"]["experiments"]]
        stream_id = 1
        for law, count in entries:
            _, series = coin_lab.sample_runs(law, seed, _stream_ids(stream_id, count), keep=count)
            samples.extend(purity.Sample(s, f"S{s.meta['stream_id'] - 1}") for s in series)
            stream_id += count
    _require(len(samples) >= 2, f"purity needs at least 2 samples, found {len(samples)}")
    return samples


_VERDICT_EXIT = {"pure": EXIT_OK, "mixed": EXIT_MIXED, "inconclusive": EXIT_INCONCLUSIVE}


def cmd_purity(cfg, seed, stage: Path, fmt):
    cfg.setdefault("alpha", _PURITY["alpha"][1])  # the manifest records the alpha in effect
    v = _fields(cfg, "config", _PURITY)
    _require(("inputs" in v) != ("generate" in v),
             "purity config needs exactly one of 'inputs' or 'generate'")
    procedures = [purity.Reduction(p["kind"], p["param"]) for p in v["procedures"]]
    verdict = purity.purity_verdict(_purity_samples(v, seed), procedures, v["subensemble_count"],
                                    v["alpha"], master_seed=seed,
                                    subensemble_fraction=v["subensemble_fraction"],
                                    power_floor=v["power_floor"])
    _write_json(stage / "verdict.json", verdict.to_dict())
    value = verdict.verdict.value
    return ["verdict.json"], _VERDICT_EXIT[value], f"verdict {value}"


_MACHINES = ("M1", "M2", "M3")
_BERTRAND = {"seed": (_SEED, 0),
             "machines": (_list(_one_of(*_MACHINES), nonempty=True), list(_MACHINES)),
             "n": (_int(1), _REQUIRED)}


def cmd_bertrand(cfg, seed, stage: Path, fmt):
    v = _fields(cfg, "config", _BERTRAND)
    machines, n = v["machines"], v["n"]
    rows = []
    for name in machines:
        est = bertrand_mod.estimate_probability(bertrand_mod.Machine(name), n, seed)
        rows.append([name, est.n, est.p_hat, est.stderr, seed, est.n < LOW_N])
    table = _table_file(stage, "bertrand", ["machine", "n", "p_hat", "stderr", "seed", "low_n"],
                        rows, fmt)
    return [table], EXIT_OK, f"{len(machines)} machine(s), n={n}"


_TEST_AXES = dict.fromkeys(_AXES, (lambda v, k: _axis(v, f"test.axes.{k}"), _REQUIRED))
_TEST = {"axes": (_object("'test.axes'", _TEST_AXES), _REQUIRED), "n": (_int(1), _REQUIRED),
         "adversary": (_bool, False)}
_QKD = {"seed": (_SEED, 0), "axis": (_axis, 0.0), "epsilon": (None, 0.0), "n": (_int(1), _REQUIRED),
        "test": (_object("'test'", _TEST), None)}


def cmd_qkd(cfg, seed, stage: Path, fmt):
    v = _fields(cfg, "config", _QKD)
    n, test = v["n"], v["test"]
    eps = v["epsilon"] if isinstance(v["epsilon"], list) else [v["epsilon"]] * 2
    _require(len(eps) == 2, "'epsilon' list must be [eps_alice, eps_bob]")
    eps_a, eps_b = (float(_EPSILON(e, "epsilon")) for e in eps)

    keys = qkd.generate_keys(v["axis"], n, eps_a, eps_b, seed, stream_id=0)
    report = {
        "n": n,
        "eps_a": eps_a,
        "eps_b": eps_b,
        "mismatch": qkd.mismatch_rate(keys),
        "low_n": n < LOW_N,
        "chsh": None,
    }
    if test is not None:
        s_value = qkd.ekert_test_statistic(*test["axes"].values(), test["n"], eps_a, eps_b, seed,
                                           adversary=test["adversary"], stream_base=1)
        report["chsh"] = {"S": s_value, "n_test": test["n"], "adversary": test["adversary"],
                          "low_n": test["n"] < LOW_N}

    # each key's bits packed into bytes, zero-padded at the end, as hex
    _write_json(stage / "keys.json", {"header": keys.meta,
                                      "alice": np.packbits(keys.alice).tobytes().hex(),
                                      "bob": np.packbits(keys.bob).tobytes().hex()})
    _write_json(stage / "report.json", report)
    return ["keys.json", "report.json"], EXIT_OK, f"n={n}, mismatch={report['mismatch']:.6f}"


#: The subcommands that run an experiment, for both the parser and the driver.
COMMANDS = {
    "spce": cmd_spce,
    "coins": cmd_coins,
    "purity": cmd_purity,
    "bertrand": cmd_bertrand,
    "qkd": cmd_qkd,
}


# ---------------------------------------------------------------------------
# the driver: effective config -> seed -> plan in a staging directory -> commit

def _commit(command, cfg, seed, out: Path, fmt) -> int:
    """Run ``command``'s plan in a staging directory inside ``out``, then move its files into place.

    The manifest is written into the staging directory and moved last.  On any
    failure the staging directory is deleted, and so are the directories this
    call created, so ``out`` is left as it was.
    """
    created = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".spcelab-stage-", dir=out))
    committed = False
    try:
        outputs, code, summary = COMMANDS[command](cfg, seed, stage, fmt)
        names = sorted(outputs)
        _write_json(stage / "manifest.json", {
            "artifact_version": __version__,
            "command": command,
            "config": cfg,
            "config_hash": _config_hash(cfg),
            "master_seed": seed,
            "format": fmt,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "outputs": names,
        })
        names.append("manifest.json")
        for name in names:
            if (out / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, "output path is a directory", str(out / name))
        for name in names:
            os.replace(stage / name, out / name)
        committed = True
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        if not committed:
            for directory in created:
                try:
                    directory.rmdir()
                except OSError:
                    break
    print(f"{command}: {summary} -> {out}")
    return code


def _drive(command, cfg, base_dir: Path, seed, out: Path, fmt, alpha=None) -> int:
    """Fold overrides into the config, resolve the seed, and run the command.

    The manifest records the config the run actually used: ``--alpha`` is
    folded into ``alpha``, and relative purity ``inputs`` paths are made
    absolute against ``base_dir`` (the config file's directory).
    """
    _one_of(*FORMATS)(fmt, "format")
    if alpha is not None:
        cfg["alpha"] = alpha
    if command == "purity" and isinstance(cfg.get("inputs"), list):
        cfg["inputs"] = [str(base_dir / p) if isinstance(p, str) else p for p in cfg["inputs"]]
    seed = _SEED(cfg.get("seed", 0), "seed") if seed is None else _SEED(seed, "--seed")
    return _commit(command, cfg, seed, out, fmt)


def cmd_replay(args) -> int:
    manifest_path = Path(args.manifest)
    manifest = _load_object(manifest_path, "manifest")
    command = manifest.get("command")
    _require(isinstance(command, str) and command in COMMANDS,
             f"manifest names unknown command {shorten(repr(command))}")
    _require(isinstance(manifest.get("config"), dict), "manifest 'config' must be an object")
    out = Path(args.out) if args.out is not None else manifest_path.parent
    seed = _SEED(manifest.get("master_seed"), "master_seed")
    return _drive(command, manifest["config"], manifest_path.resolve().parent, seed, out,
                  manifest.get("format", "csv"))


def cmd_run(args) -> int:
    out = Path(args.out if args.out is not None else os.environ.get(ENV_OUT_ROOT, "spcelab-out"))
    return _drive(args.command, _load_object(args.config, "config"),
                  Path(args.config).resolve().parent, args.seed, out, args.format,
                  getattr(args, "alpha", None))


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_CONFIG, so no exit status reads as a purity verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spcelab",
        description="Reproducible Monte Carlo experiments: correlation pairs, coin devices, "
                    "purity tests, random chords, and raw key extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment from a config document")
        p.add_argument("--config", required=True, help="path to the JSON config document")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${ENV_OUT_ROOT} or ./spcelab-out)")
        p.add_argument("--format", choices=FORMATS, default="csv",
                       help="format for tabular outputs")
        if name == "purity":
            p.add_argument("--alpha", type=float, default=None,
                           help="significance level (overrides config)")
        p.set_defaults(func=cmd_run)

    replay = sub.add_parser("replay", help="re-execute a recorded run from its manifest")
    replay.add_argument("manifest", help="path to a manifest.json written by a previous run")
    replay.add_argument("--out", default=None,
                        help="output directory (default: the manifest's directory)")
    replay.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
