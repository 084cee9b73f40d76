"""Command-line front end: design, response, filter, simulate.

All file formats live here.  CSV files are comma-separated with a header
row, LF newlines, '#'-prefixed metadata comments, and full-precision floats
(shortest round-trip representation).  ``write_csv`` takes whole columns,
formats each by its dtype and writes 4096-row blocks, each joined into one
string.  ``read_csv_column`` reads the whole file in one pass and parses its
column a block of rows at a time; an error still names the physical line of
the first bad row.  Filter artifacts are JSON documents
carrying the complete design provenance, so reloading one reproduces the
in-memory values exactly; a file that is not a JSON object, whose taps are
not M finite numbers for an odd M, whose ts is not finite or whose label is
not a string free of path separators is rejected.

Configuration is a single JSON object with one section per concern
("design", "detector", "scenario", "output").  ``CONFIG_KEYS`` is the one
table of its keys: each key's JSON type, checked when the file is loaded
whatever the command, and its default.  Unknown keys are rejected.  Every
setting is read by ``_setting``: the command-line flag if given, else the
config value, else the table's default.

Exit codes: 0 success, 2 config or validation error, 3 numerical failure,
4 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from functools import cache, partial
from itertools import compress, count, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import filter_design as fd
from . import noise_models as nm
from . import sim_harness as sim
from .analysis_bank import SampleSequence, convolve
from .detector import (DB_FLOOR, DEFAULT_EPSILON, DEFAULT_GAMMA_DB, DEFAULT_MASKS,
                       HypothesisMask)
from .errors import NumericalError


class ConfigError(ValueError):
    """Bad or missing configuration value."""


class FileFormatError(Exception):
    """Malformed input file (CSV or filter artifact)."""


# Each JSON type of a config value, as a check of what ``json.load`` gives;
# ``type`` is compared exactly, so a boolean is not a number.
_IS_JSON = {
    "integer": lambda v: type(v) is int,
    "number": lambda v: type(v) in (int, float),
    "string": lambda v: type(v) is str,
    "boolean": lambda v: type(v) is bool,
    "array of numbers": lambda v: type(v) is list and all(type(x) in (int, float)
                                                          for x in v),
    "integer or array of integers": lambda v: type(v) is int or (
        type(v) is list and all(type(x) is int for x in v)),
    'string "csv" or "json"': lambda v: v in ("csv", "json"),
}

# Every config key: its JSON type, and the value a command uses when neither
# its flag nor the config gives one.  A type of None leaves the check to the
# library class that reads the value (NoiseModel.from_dict, HypothesisMask).
CONFIG_KEYS = {
    "design": {"preset": ("string", None), "M": ("integer", 17), "L": ("integer", 5),
               "d": ("integer", 0), "ts": ("number", 1.0), "noise": (None, None),
               "sigma_nb": ("number", None), "omega_list": ("array of numbers", None),
               "omega_c": ("number", None)},
    "detector": {"gamma_db": ("number", DEFAULT_GAMMA_DB),
                 "epsilon": ("number", DEFAULT_EPSILON),
                 "foreground_keep": (None, DEFAULT_MASKS.foreground_keep),
                 "background_zero": (None, DEFAULT_MASKS.background_zero)},
    "scenario": {"name": ("string", "all"),
                 "seeds": ("integer or array of integers", 1),
                 "amplitude": ("number", sim.DEFAULT_AMPLITUDE),
                 "gap": ("integer", None), "colored_white_noise": ("boolean", False)},
    "output": {"dir": ("string", "."), "format": ('string "csv" or "json"', "csv"),
               "grid": ("integer", 4096)},
}


def load_config(path: str | Path) -> dict:
    """The config file, every key known and of its JSON type; a JSON null
    counts as absent."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for section, keys in CONFIG_KEYS.items():
        block = raw.get(section, {})
        if not isinstance(block, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        bad = set(block) - set(keys)
        if bad:
            raise ConfigError(f"unknown keys in config section {section!r}: {sorted(bad)}")
        for key, value in block.items():
            kind = keys[key][0]
            if kind is not None and value is not None and not _IS_JSON[kind](value):
                raise ConfigError(f"config value {key!r} must be a JSON {kind}, "
                                  f"got {value!r}")
    return raw


def _setting(config: dict, name: str, flag=None, required=False):
    """The value of setting ``name`` ("section.key"): the flag if given, else
    the config value, else the table's default; a ``required`` setting has
    none, so its absence is a ConfigError."""
    if flag is not None:
        return flag
    section, key = name.split(".")
    value = config.get(section, {}).get(key)
    if value is not None:
        return value
    if required:
        raise ConfigError(f"missing required parameter {key!r}")
    return CONFIG_KEYS[section][key][1]


def _write_json(path: Path, doc, indent=2) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")


_FORMATS = {"b": lambda v: "1" if v else "0", "i": str, "u": str, "f": repr, "U": str}
_CHUNK_ROWS = 4096  # rows converted at a time, so memory does not grow with the file


def write_csv(path: Path, header, columns, comments=()) -> None:
    """Write equal-length ``columns`` under ``header``, each formatted by its
    dtype: bool as 1/0, integers with ``str``, floats with ``repr``."""
    columns = [np.asarray(col) for col in columns]
    lengths = {len(col) for col in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise ValueError(f"{path}: {len(header)} header fields but columns of "
                         f"lengths {[len(col) for col in columns]}")
    formats = [_FORMATS[col.dtype.kind] for col in columns]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, max(lengths, default=0), _CHUNK_ROWS):
            fields = [map(fmt, col[start:start + _CHUNK_ROWS].tolist())
                      for fmt, col in zip(formats, columns)]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def read_csv_column(path: Path, column: str):
    """Read one numeric column; malformed rows are reported with line numbers.

    The file is read in one pass.  Blank and '#' lines are dropped from its
    line list, one ``csv.reader`` parses the rest, and each block of
    ``_CHUNK_ROWS`` rows has its field counts checked and the column parsed
    with ``float`` by C-level ``map`` calls.  Only when a block fails are the
    rows read again one by one, to name the physical line of the first bad
    row: the last line the reader consumed for it.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    kept = [line != "\n" and line[0] != "#" for line in lines]
    data = list(compress(lines, kept))
    rows = csv.reader(data)
    header = next(rows, None)
    if header is None:
        raise FileFormatError(f"{path}: empty CSV")
    if column not in header:
        raise FileFormatError(f"{path}: missing required column {column!r}")
    width, field = len(header), itemgetter(header.index(column))
    values = []
    try:
        while block := list(islice(rows, _CHUNK_ROWS)):
            if list(map(len, block)).count(width) != len(block):
                raise ValueError("wrong field count")
            values += map(float, map(field, block))
    except (ValueError, csv.Error):
        _raise_first_bad_row(path, column, data, list(compress(count(1), kept)),
                             len(lines))
        raise  # not reached: the row-by-row read meets the same error
    return np.asarray(values)


def _raise_first_bad_row(path, column, data, line_numbers, last_line) -> None:
    """Read ``data`` row by row and raise the first error met: the
    ``FileFormatError`` of a row with the wrong field count or a bad value,
    or the reader's own ``csv.Error``.  ``line_numbers`` gives each line's
    physical number.  A row whose quote is still open at the end of the data
    ends on the file's last line, ``last_line``: the reader went through
    any blank and '#' lines after it looking for more."""
    ended = []

    def feed():
        yield from data
        ended.append(True)

    rows = csv.reader(feed())
    header = next(rows)
    width, idx = len(header), header.index(column)
    for fields in rows:
        line = last_line if ended else line_numbers[rows.line_num - 1]
        if len(fields) != width:
            raise FileFormatError(f"{path}: line {line}: expected {width} fields, "
                                  f"got {len(fields)}")
        try:
            float(fields[idx])
        except ValueError as exc:
            raise FileFormatError(
                f"{path}: line {line}: bad value for {column!r}: "
                f"{fields[idx]!r}") from exc


def write_filter_file(filt: fd.DesignedFilter, path: Path) -> None:
    """The design's provenance, taps and diagnostics as strict JSON: an
    infinite condition number is written as null."""
    spec = filt.spec
    _write_json(path, {
        "label": filt.label,
        "M": spec.m, "L": spec.l, "d": spec.d, "ts": spec.ts,
        "noise": spec.noise.to_dict(),
        "h": [float(v) for v in filt.h],
        "wng": filt.wng,
        "omega_delta": filt.omega_delta,
        "condition": filt.condition if math.isfinite(filt.condition) else None,
    })


def load_filter_file(path: str | Path) -> dict:
    """The artifact as a dict, ``h`` an array and a present ``noise`` a
    ``NoiseModel``; FileFormatError unless it is a JSON object whose taps,
    ``label`` and ``DesignSpec`` of M, L, d, ts and noise are valid.  A
    label names output files, so it is a string without a path separator."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"filter file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"filter file {path} is not a JSON object")
    for key in ("M", "L", "d", "h"):
        if key not in doc:
            raise FileFormatError(f"filter file {path} is missing key {key!r}")
    m = doc["M"]
    try:
        h = np.asarray(doc["h"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"filter file {path}: taps are not numbers") from exc
    for key in ("M", "L", "d"):
        if type(doc[key]) is not int:
            raise FileFormatError(f"filter file {path}: {key}={doc[key]!r} "
                                  "is not an integer")
    if "ts" in doc and not _IS_JSON["number"](doc["ts"]):
        raise FileFormatError(f"filter file {path}: ts={doc['ts']!r} is not a "
                              "number")
    label = doc.setdefault("label", "custom")
    if type(label) is not str or "/" in label or "\\" in label:
        raise FileFormatError(f"filter file {path}: label={label!r} is not a "
                              "string without path separators")
    try:
        if "noise" in doc:
            doc["noise"] = nm.NoiseModel.from_dict(doc["noise"])
        fd.DesignSpec(m=m, l=doc["L"], d=doc["d"], ts=doc.get("ts", 1.0),
                      noise=doc.get("noise", nm.NoiseModel.white()))
    except ValueError as exc:
        raise FileFormatError(f"filter file {path}: {exc}") from exc
    if h.shape != (m,):
        raise FileFormatError(f"filter file {path}: {h.size} taps for M={m}")
    if not np.all(np.isfinite(h)):
        raise FileFormatError(f"filter file {path}: taps are not all finite")
    doc["h"] = h
    return doc


def cmd_design(args, config) -> int:
    m = _setting(config, "design.M", args.M, required=True)
    l = _setting(config, "design.L", args.L, required=True)
    d = _setting(config, "design.d", args.d)
    ts = float(_setting(config, "design.ts", args.ts))
    preset = _setting(config, "design.preset", args.preset)

    if preset:
        filt = fd.design_preset(preset, m=m, l=l, d=d, ts=ts,
                                sigma_nb=_setting(config, "design.sigma_nb"),
                                omega_list=_setting(config, "design.omega_list"),
                                omega_c=_setting(config, "design.omega_c"))
    else:
        noise_doc = _setting(config, "design.noise")
        if noise_doc is None:
            raise ConfigError("either a preset label or a design.noise model is required")
        noise = nm.NoiseModel.from_dict(noise_doc)
        filt = fd.design(fd.DesignSpec(m=m, l=l, d=d, ts=ts, noise=noise))

    out = Path(_setting(config, "output.dir", args.out)) / f"filter_{filt.label}.json"
    write_filter_file(filt, out)
    null = "none" if filt.omega_delta is None else f"{filt.omega_delta:.6f}"
    print(f"filter {filt.label}: M={m} L={l} d={d} "
          f"WNG={filt.wng:.6f} omega_delta={null}")
    print(f"wrote {out}")
    return 0


def cmd_response(args, config) -> int:
    doc = load_filter_file(args.filter_file)
    grid = _setting(config, "output.grid", args.grid)
    fmt = _setting(config, "output.format", args.format)
    omega, resp = fd.frequency_response(doc["h"], grid)
    mag = np.abs(resp)
    power = mag ** 2
    with np.errstate(divide="ignore"):
        db = np.maximum(20.0 * np.log10(mag), DB_FLOOR)
    out_dir = Path(_setting(config, "output.dir", args.out))
    label = doc["label"]
    if fmt == "csv":
        out = out_dir / f"response_{label}.csv"
        write_csv(out, ("omega", "magnitude", "power", "db"),
                  (omega, mag, power, db),
                  comments=(f"label={label} M={doc['M']} L={doc['L']} d={doc['d']}",))
    else:
        out = out_dir / f"response_{label}.json"
        _write_json(out, {"label": label, "omega": omega.tolist(),
                          "magnitude": mag.tolist(), "power": power.tolist(),
                          "db": db.tolist()}, indent=None)
    print(f"wrote {out}")
    return 0


def cmd_filter(args, config) -> int:
    doc = load_filter_file(args.filter_file)
    taps = doc["h"]
    if args.d is not None and args.d != doc["d"]:
        if "noise" not in doc:
            raise FileFormatError(
                "filter file carries no noise model; cannot re-derive taps")
        filt = fd.design(fd.DesignSpec(m=doc["M"], l=doc["L"], d=args.d,
                                       ts=doc.get("ts", 1.0), noise=doc["noise"]),
                         label=doc["label"])
        taps = filt.h
    x = read_csv_column(Path(args.input), "x")
    filtered = convolve(SampleSequence(values=x), taps)
    k = (len(taps) - 1) // 2
    out = Path(_setting(config, "output.dir", args.out)) / "filtered.csv"
    n = np.arange(filtered.start, filtered.start + len(filtered))
    write_csv(out, ("n", "x", "y"), (n, x[n], filtered.values),
              comments=(f"label={doc['label']} "
                        f"M={doc['M']} d={args.d if args.d is not None else doc['d']}",
                        f"group_delay={k}; y[n] estimates the window centered "
                        f"on input sample n",))
    print(f"wrote {out}")
    return 0


def cmd_simulate(args, config) -> int:
    scenario = _setting(config, "scenario.name", args.scenario)
    if scenario != "all" and scenario not in sim.SCENARIOS:
        raise ConfigError(f"unknown scenario tag {scenario!r}; "
                          f"expected one of {sim.SCENARIOS} or 'all'")
    scenarios = sim.SCENARIOS if scenario == "all" else (scenario,)
    seeds = _setting(config, "scenario.seeds",
                     [int(s) for s in args.seed] if args.seed else args.seeds)
    if type(seeds) is int:
        seeds = range(seeds)
    m = _setting(config, "design.M", args.M)
    gamma_db = float(_setting(config, "detector.gamma_db", args.gamma_db))
    masks = HypothesisMask(
        foreground_keep=_setting(config, "detector.foreground_keep"),
        background_zero=_setting(config, "detector.background_zero"))
    out_dir = Path(_setting(config, "output.dir", args.out))

    result = sim.run_experiment(
        scenarios=scenarios, m=m, l=_setting(config, "design.L", args.L),
        gamma_db=gamma_db, seeds=seeds,
        amplitude=float(_setting(config, "scenario.amplitude")),
        gap=_setting(config, "scenario.gap"),
        epsilon=float(_setting(config, "detector.epsilon")), masks=masks,
        colored_white_noise=_setting(config, "scenario.colored_white_noise"),
        sink=partial(_write_seed_outputs, out_dir, gamma_db, m))
    _write_table(out_dir, result)
    for name in scenarios:
        cells = " ".join(f"{lab}={result.cells[(name, lab)].median_db:6.1f}"
                         for lab in result.labels)
        print(f"{name:20s} median medium-pulse peak dB: {cells}")
    return 0


def _write_seed_outputs(out_dir, gamma_db, m, trace, filters, reports) -> None:
    """``run_experiment`` sink: one trace's CSV and detection summary JSON."""
    k = (m - 1) // 2
    n_total = len(trace.x)
    interior = np.arange(k, n_total - k)
    header = ["n", "x"] + list(trace.components)
    columns = [interior, trace.x[interior]]
    columns += [comp[interior] for comp in trace.components.values()]
    summary = {"scenario": trace.name, "seed": trace.seed,
               "amplitude": trace.amplitude, "gamma_db": gamma_db,
               "pulses": [{"kind": p.kind, "start": p.start, "stop": p.stop,
                           "sign": p.sign} for p in trace.pulses],
               "filters": {}}
    for lab, filt in filters.items():
        smoothed = convolve(SampleSequence(values=trace.x), filt.h)
        report = reports[lab]
        z_db = np.maximum(report.z_db, DB_FLOOR)
        decision_db = np.maximum(report.decision_db, DB_FLOOR)
        detected = np.zeros(len(interior), dtype=bool)
        detected[report.events - report.offset] = True
        header += [f"y_{lab}", f"zdb_{lab}", f"ddb_{lab}", f"det_{lab}"]
        columns += [smoothed.values, z_db, decision_db, detected]
        summary["filters"][lab] = {
            "events": report.events.tolist(),
            "peak_snr_db": {p.kind: v for p, v in
                            zip(trace.pulses, report.peak_snr_db)},
        }
    stem = f"{trace.name}_seed{trace.seed}"
    write_csv(out_dir / f"trace_{stem}.csv", header, columns,
              comments=(f"scenario={trace.name} seed={trace.seed} "
                        f"amplitude={trace.amplitude} gamma_db={gamma_db}",
                        f"rows are window centers; group delay {k} compensated",))
    _write_json(out_dir / f"detections_{stem}.json", summary)


def _write_table(out_dir, result) -> None:
    table = result.table()
    columns = [result.scenarios] + [[table[name][lab] for name in result.scenarios]
                                    for lab in result.labels]
    write_csv(out_dir / "table.csv", ["scenario"] + list(result.labels), columns,
              comments=(f"median medium-pulse peak SNR (dB) across "
                        f"{len(result.seeds)} seeds, amplitude="
                        f"{result.amplitude}, gamma_db={result.gamma_db}",))
    doc = {"amplitude": result.amplitude, "gamma_db": result.gamma_db,
           "seeds": list(result.seeds), "M": result.m, "L": result.l,
           "median_peak_db": table,
           "cells": {f"{name}/{lab}": {
               "median_db": result.cells[(name, lab)].median_db,
               "iqr_db": result.cells[(name, lab)].iqr_db,
               "detect_medium": result.cells[(name, lab)].detect_medium,
               "any_event": result.cells[(name, lab)].any_event_fraction,
               "nonquad_event": result.cells[(name, lab)].nonquad_event,
           } for name in result.scenarios for lab in result.labels}}
    _write_json(out_dir / "table.json", doc)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it, and each ``parse_args`` call starts from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="sgwhiten",
        description="Whitened Savitzky-Golay filter design, response "
                    "evaluation, filtering, and detection experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output directory (default: current)")

    p_design = sub.add_parser("design", help="solve a filter design")
    common(p_design)
    p_design.add_argument("--preset", choices=fd.PRESET_LABELS)
    p_design.add_argument("--M", type=int, help="window length (odd)")
    p_design.add_argument("--L", type=int, help="number of monomial terms")
    p_design.add_argument("--d", type=int, help="derivative order (default 0)")
    p_design.add_argument("--ts", type=float, help="sampling period (default 1)")

    p_resp = sub.add_parser("response", help="tabulate a frequency response")
    common(p_resp)
    p_resp.add_argument("filter_file", help="filter artifact JSON")
    p_resp.add_argument("--grid", type=int, help="grid points on [0, pi] (default 4096)")
    p_resp.add_argument("--format", choices=("csv", "json"))

    p_filt = sub.add_parser("filter", help="run a filter over a CSV column")
    common(p_filt)
    p_filt.add_argument("filter_file", help="filter artifact JSON")
    p_filt.add_argument("--input", required=True, help="input CSV with an 'x' column")
    p_filt.add_argument("--d", type=int,
                        help="re-derive taps for this derivative order")

    p_sim = sub.add_parser("simulate", help="run detection scenarios")
    common(p_sim)
    p_sim.add_argument("--scenario", help="scenario tag or 'all'")
    p_sim.add_argument("--seed", action="append",
                       help="explicit seed (repeatable)")
    p_sim.add_argument("--seeds", type=int, help="use seeds 0..N-1")
    p_sim.add_argument("--gamma-db", dest="gamma_db", type=float,
                       help="detection threshold in dB (default 20)")
    p_sim.add_argument("--M", type=int, help="window length (default 17)")
    p_sim.add_argument("--L", type=int, help="monomial terms (default 5)")
    return parser


COMMANDS = {"design": cmd_design, "response": cmd_response,
            "filter": cmd_filter, "simulate": cmd_simulate}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {}
    try:
        if args.config:
            config = load_config(args.config)
        return COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except FileFormatError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
