"""Store metadata directory: persisted autotune measurements.

The hybrid dispatcher's :func:`~repro.backends.hybrid.autotune_crossover`
probe-sweeps the real sparse/bit ``mxm`` break-even at context creation
— tens of milliseconds that repeat on every process start.  The
measurement depends only on (backend, device, host), so a store root
keeps it in ``<root>/metadata/autotune.json`` and the sweep consults the
file before probing (opt-in via the ``REPRO_STORE`` environment
variable pointing at the store root, or a ``Context`` with a store
attached).

The file is versioned JSON, rewritten atomically on every update::

    {
      "format_version": 1,
      "entries": {
        "cubool@cpu-sim-0": {
          "crossover": 0.0132, "probe_n": 192,
          "four_russians_min_rows": 64, "fr_probe_k": 512
        }
      }
    }

Each entry may carry any subset of the measurement fields — every
probe writes its own (read-modify-write, so one never clobbers the
other).  There is one accessor pair, :func:`load_autotune` /
:func:`save_autotune`, keyed by field name; fields this version does not
know (written by an older or newer build) are never read but are carried
through every rewrite untouched.

Corrupt or stale files are treated as empty — autotune persistence is a
warm-start optimisation, never a correctness dependency.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import InvalidArgumentError

AUTOTUNE_FORMAT_VERSION = 1

#: Environment variable naming the store root whose metadata directory
#: persists autotune measurements across processes.
STORE_ENV = "REPRO_STORE"


def metadata_dir(store_root: str | Path) -> Path:
    return Path(store_root) / "metadata"


def autotune_path(store_root: str | Path) -> Path:
    return metadata_dir(store_root) / "autotune.json"


def _key(backend_name: str, device_name: str) -> str:
    return f"{backend_name}@{device_name}"


def _read(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    except (ValueError, OSError):
        return {}
    if payload.get("format_version") != AUTOTUNE_FORMAT_VERSION:
        return {}
    entries = payload.get("entries")
    return entries if isinstance(entries, dict) else {}


def _density(value) -> float | None:
    if isinstance(value, (int, float)) and 0.0 < value <= 1.0:
        return float(value)
    return None


def _count(value) -> int | None:
    return value if isinstance(value, int) and value >= 0 else None


#: Measurement field -> validator returning the typed value, or None for
#: anything a probe could not have written (hand-edited or damaged file).
_FIELDS = {
    "crossover": _density,
    "probe_n": _count,
    "four_russians_min_rows": _count,
    "fr_probe_k": _count,
}


def _validator(field: str):
    try:
        return _FIELDS[field]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown autotune field {field!r} (known: {sorted(_FIELDS)})"
        ) from None


def load_autotune(
    store_root: str | Path, backend_name: str, device_name: str, field: str
):
    """Persisted ``field`` measurement for (backend, device), or None
    when absent or malformed."""
    validate = _validator(field)
    entry = _read(autotune_path(store_root)).get(_key(backend_name, device_name))
    if not isinstance(entry, dict):
        return None
    return validate(entry.get(field))


def save_autotune(
    store_root: str | Path, backend_name: str, device_name: str, **fields
) -> None:
    """Record measurements, e.g. ``crossover=0.013, probe_n=192``
    (read-modify-write of the entry, atomic rename of the file)."""
    typed = {name: _validator(name)(value) for name, value in fields.items()}
    bad = sorted(name for name, value in typed.items() if value is None)
    if bad:
        raise InvalidArgumentError(
            "autotune fields out of range: "
            + ", ".join(f"{name}={fields[name]!r}" for name in bad)
        )
    _merge_entry(store_root, backend_name, device_name, typed)


def _merge_entry(
    store_root: str | Path,
    backend_name: str,
    device_name: str,
    fields: dict,
) -> None:
    """Merge measurement fields into one entry and rewrite atomically."""
    path = autotune_path(store_root)
    path.parent.mkdir(parents=True, exist_ok=True)
    entries = _read(path)
    key = _key(backend_name, device_name)
    entry = entries.get(key)
    entry = dict(entry) if isinstance(entry, dict) else {}
    entry.update(fields)
    entries[key] = entry
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(
            {"format_version": AUTOTUNE_FORMAT_VERSION, "entries": entries},
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def store_root_from_env(environ=None) -> Path | None:
    """The ``REPRO_STORE`` root, when configured and non-empty."""
    raw = (environ if environ is not None else os.environ).get(STORE_ENV, "")
    raw = raw.strip()
    return Path(raw) if raw else None
