"""On-disk cache of computed count polynomials.

Each polynomial is stored as its own JSON file, ``nbar_g{g}_n{n}_{engine}.json``,
with the SHA-256 digest of that file in a sidecar ``nbar_g{g}_n{n}_{engine}.sha256``
next to it.  Entries from different engines ("comb" vs "tr") are kept
separate and never substituted for one another.  A read verifies the digest,
then parses the payload under its certificates (``qp_from_json``: the
slot-symmetry check of every class) and checks that it names the (g, n) asked
for; anything that fails, a missing digest included, is a miss, so a corrupted
entry heals itself on the next write.  A hit returns the polynomial and the
verified payload text, and ``nbar poly --format json`` prints that text as it
is, after the digest check and the parse, instead of rendering the polynomial
again: only :func:`cache_put` writes an entry, so the text is the one a
render would print.  Writes put the payload first and then its digest, each
through a temporary file and an atomic rename.  No file is shared between
keys, so concurrent writers cannot lose each other's entries, and two writers
of one key write the same bytes.

The payload is the text of :func:`nbar.quasipoly.qp_to_json`, which writes the
``indent=2`` JSON of ``qp_serialize`` directly, byte-identical to
``json.dumps(qp_serialize(qp), indent=2)``; it is encoded once, and those
bytes are both written and hashed.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Optional, Tuple

from .quasipoly import QuasiPolynomial, qp_from_json, qp_to_json


def default_cache_dir() -> Path:
    env = os.environ.get("NBAR_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "nbar"


def _entry_paths(directory: Path, g: int, n: int, provenance: str) -> Tuple[str, str]:
    """The payload file of one entry and its digest sidecar."""
    stem = os.path.join(directory, f"nbar_g{g}_n{n}_{provenance}")
    return stem + ".json", stem + ".sha256"


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _atomic_write(path: str, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cache_get(directory: Path, g: int, n: int, provenance: str) -> Optional[Tuple[QuasiPolynomial, str]]:
    """A stored polynomial and the payload text it was parsed from; any verification failure is a miss."""
    path, sidecar = _entry_paths(directory, g, n, provenance)
    try:
        blob = _read(path)
        digest = _read(sidecar)
    except OSError:
        return None
    if hashlib.sha256(blob).hexdigest().encode("ascii") != digest:
        return None
    try:
        text = blob.decode("utf-8")
        qp = qp_from_json(text)
    except (ValueError, UnicodeDecodeError):
        return None
    if qp.g != g or qp.n != n:
        return None
    return qp, text


def cache_put(directory: Path, qp: QuasiPolynomial, provenance: str) -> Path:
    """Store a polynomial, replacing any previous entry for its key; returns the payload file."""
    path, sidecar = _entry_paths(directory, qp.g, qp.n, provenance)
    blob = qp_to_json(qp).encode("utf-8")
    if not os.path.isdir(directory):
        os.makedirs(directory, exist_ok=True)
    _atomic_write(path, blob)
    _atomic_write(sidecar, hashlib.sha256(blob).hexdigest().encode("ascii"))
    return Path(path)
