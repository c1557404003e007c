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

_REQUIRED = object()


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


def _check_fields(obj, where, *allowed):
    """Reject every key of the config object ``obj`` that is not in ``allowed``, naming it."""
    unknown = ", ".join(shorten(repr(k)) for k in sorted(set(obj) - set(allowed)))
    _require(not unknown, f"unknown field(s) {unknown} in {where} (allowed: {', '.join(allowed)})")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Counts and indices are held in int64 arrays, so every integer field but a seed stays below this.
_INT_BOUND = 2**63


def _get_int(cfg, key, minimum=None, default=_REQUIRED, bounded=True):
    """An integer field, below 2^63 unless ``bounded`` is false (a seed).

    With ``default=None`` a missing or null field reads as None.
    """
    value = cfg.get(key, default)
    _require(value is not _REQUIRED, f"config is missing required field '{key}'")
    if value is None and default is None:
        return None
    _require(_is_int(value), f"'{key}' must be an integer")
    if minimum is not None:
        _require(value >= minimum, f"'{key}' must be >= {minimum}, got {shorten(repr(value))}")
    _require(not bounded or value < _INT_BOUND,
             f"'{key}' must be below 2^63, got {shorten(repr(value))}")
    return value


def _get_number(cfg, key, default=None):
    value = cfg.get(key, default)
    _require(_is_number(value), f"'{key}' must be a number")
    return float(value)


def _get_bool(cfg, key, default):
    value = cfg.get(key, default)
    _require(isinstance(value, bool), f"'{key}' must be true or false, got {shorten(repr(value))}")
    return value


def _parse_urn(value) -> coin_lab.UrnState:
    _require(isinstance(value, list) and len(value) == 2
             and all(_is_int(v) and 0 <= v < _INT_BOUND for v in value),
             "'urn' must be a [n_blue, n_red] pair of integers in [0, 2^63),"
             f" got {shorten(repr(value))}")
    return coin_lab.UrnState(*value)


def _parse_axis(value, name) -> Direction:
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


def _parse_epsilon(value, name):
    _require(_is_number(value), f"'{name}' must be a number")
    _require(0.0 <= value <= 2.0, f"'{name}' must lie in [0, 2], got {shorten(repr(value))}")
    return float(value)


def _resolve_seed(cfg, override):
    seed = _get_int(cfg, "seed", default=0, bounded=False) if override is None else override
    _require(0 <= seed < 2**64,
             f"the master seed must be an unsigned 64-bit integer, got {shorten(repr(seed))}")
    return seed


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


def cmd_spce(cfg, seed, stage: Path, fmt):
    _check_fields(cfg, "config", "seed", "axes", "epsilon", "n", "record_limit")
    axes_cfg = cfg.get("axes")
    _require(isinstance(axes_cfg, dict), "spce config needs an 'axes' object")
    _require("A" in axes_cfg and "B" in axes_cfg, "'axes' must define at least 'A' and 'B'")
    axes = {}
    for key, value in axes_cfg.items():
        _require(key in _AXIS_LABELS, f"unknown axis '{key}' (expected A, A_prime, B, B_prime)")
        axes[_AXIS_LABELS[key]] = _parse_axis(value, key)
    eps_cfg = cfg.get("epsilon", 0.0)
    if isinstance(eps_cfg, dict):
        _check_fields(eps_cfg, "'epsilon'", *axes_cfg)
        epsilons = {_AXIS_LABELS[k]: _parse_epsilon(v, f"epsilon.{k}") for k, v in eps_cfg.items()}
        for label in axes:
            _require(label in epsilons, f"epsilon missing for axis '{label}'")
    else:
        eps = _parse_epsilon(eps_cfg, "epsilon")
        epsilons = {label: eps for label in axes}
    n = _get_int(cfg, "n", minimum=1)
    record_limit = _get_int(cfg, "record_limit", minimum=0, default=None)
    pairs = [(x, y) for x, y in [("A", "B"), ("A", "B'"), ("A'", "B"), ("A'", "B'")]
             if x in axes and y in axes]

    runs = [(CapSpec(axes[x], epsilons[x]), CapSpec(axes[y], epsilons[y]), n, seed, stream_id)
            for stream_id, (x, y) in enumerate(pairs)]
    correlators = {x + y: spce.correlator(*run) for (x, y), run in zip(pairs, runs)}
    rows = [[key, r, spce.correlator_stderr(r, n), n] for key, r in correlators.items()]
    spce.write_run_jsonl(runs, stage / "runs.jsonl", record_limit=record_limit)
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


_COIN_FIELDS = ("seed", "experiment", "runs", "n", "series_limit")
#: The fields each experiment uses besides ``_COIN_FIELDS``; any other field is rejected.
_EXPERIMENT_FIELDS = {**dict.fromkeys(("E1", "E2", "E3"), ("initial_face",)),
                      "E4": ("urn", "remove", "with_replacement"),
                      **dict.fromkeys(("E5", "E6", "E5E6"), ("urn", "remove"))}


def cmd_coins(cfg, seed, stage: Path, fmt):
    experiment = cfg.get("experiment")
    _require(isinstance(experiment, str) and experiment in _EXPERIMENT_FIELDS,
             f"'experiment' must be one of E1..E6 or E5E6, got {shorten(repr(experiment))}")
    _check_fields(cfg, f"a coins config for experiment {experiment}",
                  *_COIN_FIELDS, *_EXPERIMENT_FIELDS[experiment])
    runs = _get_int(cfg, "runs", minimum=1, default=1)
    n = _get_int(cfg, "n", minimum=1)
    series_limit = _get_int(cfg, "series_limit", minimum=0, default=10)
    params = {"initial_face": cfg.get("initial_face", "B"), "n": n}
    with_replacement = _get_bool(cfg, "with_replacement", False)
    if "urn" in _EXPERIMENT_FIELDS[experiment]:
        _require(cfg.get("urn") is not None, f"experiment {experiment} requires an 'urn'")
        urn = _parse_urn(cfg["urn"])
        remove = _get_int(cfg, "remove", minimum=0, default=0)
        if remove:
            urn = coin_lab.remove_coins(urn, remove, substream(seed, 0))
        params.update(n_blue=urn.n_blue, n_red=urn.n_red)

    experiments = ["E5", "E6"] if experiment == "E5E6" else [experiment]
    # with_replacement is a field of E4 only
    laws = [coin_lab.OutcomeLaw("urn:replace" if with_replacement else coin_lab.EXPERIMENTS[exp],
                                params) for exp in experiments]
    outputs = []
    rows = []
    pooled = {}
    for exp_index, (exp, law) in enumerate(zip(experiments, laws)):
        # stream 0 is reserved for the removal perturbation
        first = 1 + exp_index * runs
        counts, serialized = coin_lab.sample_runs(
            law, seed, np.arange(first, first + runs, dtype=np.uint64), keep=series_limit)
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


def _purity_samples(cfg, seed):
    if ("inputs" in cfg) == ("generate" in cfg):
        raise ConfigError("purity config needs exactly one of 'inputs' or 'generate'")
    samples = []
    if "inputs" in cfg:
        paths = cfg["inputs"]
        _require(isinstance(paths, list) and paths and all(isinstance(p, str) for p in paths),
                 "'inputs' must be a non-empty list of paths")
        for path in paths:
            try:
                series_list = coin_lab.read_timeseries_jsonl(path)
            except FormatError as exc:
                raise FormatError(f"{path}: {exc}") from exc
            for i, series in enumerate(series_list):
                if not len(series):
                    raise FormatError(f"{path}: series {i} is empty")
                samples.append(purity.Sample(series, f"{Path(path).stem}[{i}]"))
    else:
        gen = cfg["generate"]
        _require(isinstance(gen, dict) and isinstance(gen.get("experiments"), list),
                 "'generate' must hold an 'experiments' list")
        _check_fields(gen, "'generate'", "experiments")
        entries = []
        for entry in gen["experiments"]:
            _require(isinstance(entry, dict), "each generate entry must be an object")
            _check_fields(entry, "a generate entry", "box", "urn", "n", "count")
            box_name = entry.get("box")
            _require(box_name in ("E5", "E6"),
                     f"generate 'box' must be 'E5' or 'E6', got {shorten(repr(box_name))}")
            urn = _parse_urn(entry.get("urn"))
            law = coin_lab.OutcomeLaw(coin_lab.EXPERIMENTS[box_name], {
                "n_blue": urn.n_blue, "n_red": urn.n_red, "n": _get_int(entry, "n", minimum=1)})
            entries.append((law, _get_int(entry, "count", minimum=1, default=1)))
        stream_id = 1
        for law, count in entries:
            ids = np.arange(stream_id, stream_id + count, dtype=np.uint64)
            _, series = coin_lab.sample_runs(law, seed, ids, keep=count)
            samples.extend(purity.Sample(s, f"S{s.meta['stream_id'] - 1}") for s in series)
            stream_id += count
    _require(len(samples) >= 2, f"purity needs at least 2 samples, found {len(samples)}")
    return samples


def _purity_procedures(cfg):
    entries = cfg.get("procedures", [])
    _require(isinstance(entries, list), "'procedures' must be a list")
    procedures = []
    for entry in entries:
        _require(isinstance(entry, dict) and "kind" in entry, "each procedure needs a 'kind'")
        _check_fields(entry, "a procedure", "kind", "param")
        param = entry.get("param", 1.0)
        _require(_is_number(param),
                 f"procedure 'param' must be a number, got {shorten(repr(param))}")
        try:
            procedures.append(purity.Reduction(entry["kind"], param))
        except DomainError as exc:
            raise ConfigError(f"bad procedure: {exc}") from exc
    return procedures


_VERDICT_EXIT = {"pure": EXIT_OK, "mixed": EXIT_MIXED, "inconclusive": EXIT_INCONCLUSIVE}


def cmd_purity(cfg, seed, stage: Path, fmt):
    _check_fields(cfg, "config", "seed", "alpha", "inputs", "generate", "procedures",
                  "subensemble_count", "subensemble_fraction", "power_floor")
    cfg.setdefault("alpha", 0.05)  # the manifest records the alpha in effect
    alpha = _get_number(cfg, "alpha")
    _require(0.0 < alpha < 1.0, f"'alpha' must lie in (0, 1), got {alpha}")
    procedures = _purity_procedures(cfg)
    subensemble_count = _get_int(cfg, "subensemble_count", minimum=0, default=0)
    fraction = _get_number(cfg, "subensemble_fraction", default=0.5)
    _require(0.0 < fraction <= 1.0, f"'subensemble_fraction' must lie in (0, 1], got {fraction}")
    power_floor = _get_int(cfg, "power_floor", minimum=0, default=purity.DEFAULT_POWER_FLOOR)
    samples = _purity_samples(cfg, seed)
    verdict = purity.purity_verdict(samples, procedures, subensemble_count, alpha, master_seed=seed,
                                    subensemble_fraction=fraction, power_floor=power_floor)
    _write_json(stage / "verdict.json", verdict.to_dict())
    value = verdict.verdict.value
    return ["verdict.json"], _VERDICT_EXIT[value], f"verdict {value}"


def cmd_bertrand(cfg, seed, stage: Path, fmt):
    _check_fields(cfg, "config", "seed", "machines", "n")
    machines = cfg.get("machines", ["M1", "M2", "M3"])
    _require(isinstance(machines, list) and machines, "'machines' must be a non-empty list")
    for name in machines:
        _require(name in ("M1", "M2", "M3"), f"unknown machine {shorten(repr(name))} in 'machines'")
    n = _get_int(cfg, "n", minimum=1)

    rows = []
    for name in machines:
        est = bertrand_mod.estimate_probability(bertrand_mod.Machine(name), n, seed)
        rows.append([name, est.n, est.p_hat, est.stderr, seed, est.n < LOW_N])
    table = _table_file(stage, "bertrand", ["machine", "n", "p_hat", "stderr", "seed", "low_n"],
                        rows, fmt)
    return [table], EXIT_OK, f"{len(machines)} machine(s), n={n}"


def cmd_qkd(cfg, seed, stage: Path, fmt):
    _check_fields(cfg, "config", "seed", "axis", "epsilon", "n", "test")
    axis = _parse_axis(cfg.get("axis", 0.0), "axis")
    eps_cfg = cfg.get("epsilon", 0.0)
    if isinstance(eps_cfg, list):
        _require(len(eps_cfg) == 2, "'epsilon' list must be [eps_alice, eps_bob]")
        eps_a, eps_b = (_parse_epsilon(v, "epsilon") for v in eps_cfg)
    else:
        eps_a = eps_b = _parse_epsilon(eps_cfg, "epsilon")
    n = _get_int(cfg, "n", minimum=1)
    test_cfg = cfg.get("test")
    if test_cfg is not None:
        _require(isinstance(test_cfg, dict), "'test' must be an object")
        _check_fields(test_cfg, "'test'", "axes", "n", "adversary")
        axes_cfg = test_cfg.get("axes", {})
        required = ("A", "A_prime", "B", "B_prime")
        _require(isinstance(axes_cfg, dict) and all(k in axes_cfg for k in required),
                 "'test.axes' must define A, A_prime, B, B_prime")
        _check_fields(axes_cfg, "'test.axes'", *required)
        test_axes = [_parse_axis(axes_cfg[k], f"test.axes.{k}") for k in required]
        n_test = _get_int(test_cfg, "n", minimum=1)
        adversary = _get_bool(test_cfg, "adversary", False)

    keys = qkd.generate_keys(axis, n, eps_a, eps_b, seed, stream_id=0)
    report = {
        "n": n,
        "eps_a": eps_a,
        "eps_b": eps_b,
        "mismatch": qkd.mismatch_rate(keys),
        "low_n": n < LOW_N,
        "chsh": None,
    }
    if test_cfg is not None:
        s_value = qkd.ekert_test_statistic(*test_axes, n_test, eps_a, eps_b, seed,
                                           adversary=adversary, stream_base=1)
        report["chsh"] = {"S": s_value, "n_test": n_test, "adversary": adversary,
                          "low_n": n_test < LOW_N}

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
    _require(fmt in FORMATS, f"format must be one of {FORMATS}, got {shorten(repr(fmt))}")
    if alpha is not None:
        cfg["alpha"] = alpha
    if command == "purity" and isinstance(cfg.get("inputs"), list):
        cfg["inputs"] = [str(base_dir / p) if isinstance(p, str) else p for p in cfg["inputs"]]
    return _commit(command, cfg, _resolve_seed(cfg, seed), out, fmt)


def cmd_replay(args) -> int:
    manifest_path = Path(args.manifest)
    manifest = _load_object(manifest_path, "manifest")
    command = manifest.get("command")
    _require(isinstance(command, str) and command in COMMANDS,
             f"manifest names unknown command {shorten(repr(command))}")
    _require(isinstance(manifest.get("config"), dict), "manifest 'config' must be an object")
    out = Path(args.out) if args.out is not None else manifest_path.parent
    return _drive(command, manifest["config"], manifest_path.resolve().parent,
                  _get_int(manifest, "master_seed", bounded=False), out, manifest.get("format", "csv"))


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
