"""``python -m repro store`` — operator CLI for the persistent store.

Subcommands::

    ls                      list graph volumes under the store root
    info NAME               one volume's generations, WAL state, labels
    compact NAME [--retain N]
                            fold the WAL into a new snapshot generation;
                            with --retain, prune all but the newest N
    verify [NAME ...]       full integrity sweep (all volumes by default)

The store root comes from ``--root`` or the ``REPRO_STORE`` environment
variable.  ``verify`` exits non-zero on the first corrupt container or
WAL record; CI runs it as a smoke step after the crash-recovery matrix.

``ls``/``info``/``verify`` are read-only and safe against a live
service.  ``compact`` takes the volume's advisory writer lock and fails
fast when a service (or another maintenance command) holds it — a WAL
reset under a live writer's append handle would silently drop deltas.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import StoreError
from repro.store.volume import (
    STORE_ENV,
    GraphVolume,
    list_volumes,
    store_root_from_env,
    volume_root,
)


def _resolve_root(args) -> str:
    root = args.root or store_root_from_env()
    if root is None:
        raise StoreError(
            f"no store root: pass --root or set {STORE_ENV}"
        )
    return str(root)


def _open(root: str, name: str, *, writer: bool = False) -> GraphVolume:
    return GraphVolume.open(volume_root(root) / name, writer=writer)


def _emit(payload, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return
    if isinstance(payload, list):
        for item in payload:
            _emit(item, False)
        return
    for key, value in payload.items():
        print(f"{key:18s} {value}")


def _ls(args) -> int:
    root = _resolve_root(args)
    volumes = list_volumes(root)
    if args.json:
        print(json.dumps([v.info() for v in volumes], indent=2, sort_keys=True))
        return 0
    if not volumes:
        print(f"(no volumes under {volume_root(root)})")
        return 0
    print(f"{'name':16s} {'gen':>4s} {'version':>8s} {'n':>8s} "
          f"{'wal':>10s} {'labels':>7s}")
    for vol in volumes:
        info = vol.info()
        print(
            f"{info['name']:16s} {info['generation'] or 0:4d} "
            f"{info.get('version', info['wal_version']):8d} "
            f"{info.get('n', 0):8d} "
            f"{info['wal_bytes']:9d}B {len(info.get('labels', {})):7d}"
        )
    return 0


def _info(args) -> int:
    vol = _open(_resolve_root(args), args.name)
    info = vol.info()
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    labels = info.pop("labels", {})
    generations = info.pop("generations", [])
    _emit(info, False)
    print(f"{'generations':18s} {', '.join(str(g) for g in generations) or '-'}")
    for label, meta in sorted(labels.items()):
        fmt = "csr+bit" if meta["bit"] else "csr"
        print(
            f"  label {label!r}: nnz={meta['nnz']} "
            f"density={meta['density']:.4g} [{fmt}]"
        )
    return 0


def _compact(args) -> int:
    # Writer open: folding the WAL resets it, which must never happen
    # under a live service's open append handle — the advisory volume
    # lock makes that a fast failure instead of silent delta loss.
    vol = _open(_resolve_root(args), args.name, writer=True)
    before = vol.info()
    generation = vol.compact(retain=args.retain)
    pruned = ""
    if args.retain is not None:
        kept = vol.generations()
        pruned = f"; retained {len(kept)} generation(s)"
    print(
        f"{vol.name}: folded {before['wal_deltas']} delta(s) "
        f"({before['wal_bytes']} WAL bytes) into generation "
        f"{generation}{pruned}"
    )
    return 0


def _verify(args) -> int:
    root = _resolve_root(args)
    if args.names:
        volumes = [_open(root, name) for name in args.names]
    else:
        volumes = list_volumes(root)
    failures = 0
    results = []
    for vol in volumes:
        try:
            summary = vol.verify()
        except StoreError as exc:
            failures += 1
            summary = {"name": vol.name, "ok": False, "error": str(exc)}
        results.append(summary)
        if not args.json:
            status = "ok" if summary.get("ok") else "CORRUPT"
            detail = (
                f"{summary.get('containers', 0)} container(s), "
                f"{summary.get('wal_deltas', 0)} WAL delta(s)"
                if summary.get("ok")
                else summary.get("error", "")
            )
            print(f"{vol.name:16s} {status:8s} {detail}")
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    if not volumes and not args.json:
        print(f"(no volumes under {volume_root(root)})")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro store",
        description="Inspect and maintain the on-disk graph store.",
    )
    parser.add_argument(
        "--root",
        default=None,
        help=f"store root directory (default: ${STORE_ENV})",
    )
    parser.add_argument("--json", action="store_true", help="JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ls", help="list graph volumes")
    p_info = sub.add_parser("info", help="show one volume")
    p_info.add_argument("name")
    p_compact = sub.add_parser("compact", help="fold the WAL into a snapshot")
    p_compact.add_argument("name")
    p_compact.add_argument(
        "--retain",
        type=int,
        default=None,
        metavar="N",
        help="prune generations older than the newest N (default: keep all)",
    )
    p_verify = sub.add_parser("verify", help="integrity-check volumes")
    p_verify.add_argument("names", nargs="*")

    args = parser.parse_args(argv)
    handler = {
        "ls": _ls,
        "info": _info,
        "compact": _compact,
        "verify": _verify,
    }[args.command]
    try:
        return handler(args)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
