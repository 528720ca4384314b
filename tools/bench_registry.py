"""The derived metrics and floors declared in bench/registry.json.

tools/benchrunner turns a run's rows into derived metrics with derive();
tools/bench_check.py gates them through ratios(). The registry's own
comment says what each field means.
"""

import json
import re
from pathlib import Path

DEFAULT_PATH = Path(__file__).resolve().parents[1] / "bench" / "registry.json"

# google-benchmark appends these by run shape, not by benchmark argument.
RUN_SUFFIX = r"(?:/iterations:\d+)?(?:/real_time)?$"


def load(path=DEFAULT_PATH):
    """Reads the registry; a ratio naming a key no row of its series can
    produce is refused here rather than silently never derived."""
    registry = json.loads(Path(path).read_text())
    for series in all_series(registry):
        for pattern, key_format in series["rows"].items():
            if re.compile(pattern).groups != ("%d" in key_format):
                raise ValueError("registry: row %r -> %r needs one number "
                                 "group exactly when its key has %%d" %
                                 (pattern, key_format))
        for ratio in series.get("ratios", []):
            for key in (ratio.get("den"),
                        None if ratio["num"] == "best" else ratio["num"]):
                if key is not None and not any(
                        re.fullmatch(re.escape(fmt).replace("%d", r"\d+"), key)
                        for fmt in series["rows"].values()):
                    raise ValueError("registry: ratio %s names key %r, which "
                                     "no row of its series produces" %
                                     (ratio["name"], key))
    return registry


def all_series(registry):
    return [series for entry in registry["benchmarks"]
            for series in entry.get("series", [])]


def ratios(registry, posix):
    """(entry, ratio) pairs checked under the posix or the default profile."""
    return [(entry, ratio) for entry in registry["benchmarks"]
            if entry.get("posix", False) == posix
            for series in entry.get("series", [])
            for ratio in series.get("ratios", [])]


def _value(rec, name):
    if name == "bytes_per_second":
        value = rec.get(name)
        return None if value is None else value / 1e6
    if name in ("items_per_second", "real_time"):
        return rec.get(name)
    return rec.get("counters", {}).get(name)


def series_values(series, benchmarks):
    values = {}
    for rec in benchmarks:
        value = _value(rec, series["value"])
        if value is None:
            continue
        for pattern, key_format in series["rows"].items():
            m = re.match(pattern + RUN_SUFFIX, rec["name"])
            if m:
                values[key_format % int(m.group(1)) if m.re.groups else
                       key_format] = value
    return values


def ratio_value(ratio, values):
    den = values.get(ratio["den"]) if "den" in ratio else 1.0
    if ratio["num"] == "best":
        num = max((v for k, v in values.items() if k != ratio.get("den")),
                  default=None)
    else:
        num = values.get(ratio["num"])
    if num is None or den is None or den <= 0:
        return None
    return round(num / den, ratio.get("digits", 3))


def derive(registry, benchmarks):
    derived = {}
    for series in all_series(registry):
        values = series_values(series, benchmarks)
        if values and "name" in series:
            digits = series.get("digits", 3)
            derived[series["name"]] = {k: round(v, digits)
                                       for k, v in values.items()}
        for ratio in series.get("ratios", []):
            value = ratio_value(ratio, values)
            if value is not None:
                derived[ratio["name"]] = value
    return derived
