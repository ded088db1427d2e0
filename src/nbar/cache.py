"""On-disk cache of computed count polynomials.

Each polynomial is stored as its own JSON file next to a manifest that
records, per (g, n, provenance) entry, the SHA-256 digest of the file.
Entries from different engines ("comb" vs "tr") are kept separate and never
substituted for one another.  Reads verify the digest and re-parse the
payload; anything that fails verification is treated as a miss, so a
corrupted cache heals itself on the next write.  All writes go through a
temporary file and an atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from .quasipoly import QuasiPolynomial, qp_from_json, qp_to_json

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


def default_cache_dir() -> Path:
    env = os.environ.get("NBAR_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "nbar"


def _entry_filename(g: int, n: int, provenance: str) -> str:
    return f"nbar_g{g}_n{n}_{provenance}.json"


def _load_manifest(directory: Path) -> dict:
    path = directory / MANIFEST_NAME
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {"version": MANIFEST_VERSION, "entries": []}
    if not isinstance(data, dict) or data.get("version") != MANIFEST_VERSION:
        return {"version": MANIFEST_VERSION, "entries": []}
    if not isinstance(data.get("entries"), list):
        data["entries"] = []
    return data


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cache_get(directory: Path, g: int, n: int, provenance: str) -> Optional[QuasiPolynomial]:
    """Look up a stored polynomial; any verification failure is a miss."""
    directory = Path(directory)
    manifest = _load_manifest(directory)
    entry = None
    for e in manifest["entries"]:
        if (
            isinstance(e, dict)
            and e.get("g") == g
            and e.get("n") == n
            and e.get("provenance") == provenance
        ):
            entry = e
            break
    if entry is None:
        return None
    path = directory / _entry_filename(g, n, provenance)
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    if hashlib.sha256(blob).hexdigest() != entry.get("digest"):
        return None
    try:
        qp = qp_from_json(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if qp.g != g or qp.n != n:
        return None
    return qp


def cache_put(directory: Path, qp: QuasiPolynomial, provenance: str) -> Path:
    """Store a polynomial, replacing any previous entry for its key."""
    directory = Path(directory)
    path = directory / _entry_filename(qp.g, qp.n, provenance)
    text = qp_to_json(qp)
    _atomic_write(path, text)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    manifest = _load_manifest(directory)
    entries = [
        e
        for e in manifest["entries"]
        if not (
            isinstance(e, dict)
            and e.get("g") == qp.g
            and e.get("n") == qp.n
            and e.get("provenance") == provenance
        )
    ]
    entries.append({"g": qp.g, "n": qp.n, "provenance": provenance, "digest": digest})
    entries.sort(key=lambda e: (e.get("g", 0), e.get("n", 0), e.get("provenance", "")))
    manifest["entries"] = entries
    _atomic_write(directory / MANIFEST_NAME, json.dumps(manifest, indent=2))
    return path
