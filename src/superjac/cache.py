"""Content-addressed on-disk cache for command results.

One JSON document per entry under <root>/<hh>/<hash>.json, where hash
is the SHA-256 of the canonical key string (operation name, canonical
parameter JSON, code version).  The code version is the package version
plus a SHA-256 of the package's .py sources, so a result is never served
to code other than the code that computed it.  Documents hold the key
in clear for human inspection.  Writes go to a temp file in the same
directory and are renamed into place, so concurrent invocations never
see torn files.

Verify mode recomputes on every hit and compares canonical result
bytes; divergence raises CacheMismatch.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

try:
    # CPython's built-in SHA-256 (3.10, 3.11): the same digests without
    # loading OpenSSL, which costs every CLI process about 3 MB and 3 ms
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from . import __version__
from .errors import CacheMismatch


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def code_version() -> str:
    """Package version and a digest of every .py source of the package."""
    h = sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return f"{__version__}+{h.hexdigest()}"


class ResultCache:
    """get_or_compute keyed by (operation, parameters)."""

    def __init__(self, root, verify: bool = False):
        self.root = Path(root)
        self.verify = verify
        self.hits = 0
        self.misses = 0
        self.code = code_version()

    def key(self, op: str, params: dict) -> str:
        return f"{op}|{canonical(params)}|v{self.code}"

    def path(self, key: str) -> Path:
        h = sha256(key.encode()).hexdigest()
        return self.root / h[:2] / f"{h}.json"

    def get_or_compute(self, op: str, params: dict, compute):
        key = self.key(op, params)
        path = self.path(key)
        if path.exists():
            try:
                doc = json.loads(path.read_text())
            except ValueError as exc:
                raise CacheMismatch(f"unreadable cache entry at {path}: "
                                    f"{exc}") from exc
            # hash collisions aside, a stored entry must echo its key
            if doc.get("key") != key:
                raise CacheMismatch(f"stored key differs at {path}")
            self.hits += 1
            if self.verify:
                fresh = compute()
                if canonical(fresh) != canonical(doc["result"]):
                    raise CacheMismatch(
                        f"cached result diverges from recomputation for "
                        f"{op} {canonical(params)}")
            return doc["result"]
        self.misses += 1
        result = compute()
        doc = {"key": key, "op": op, "params": params,
               "result": result, "timestamp": time.time()}
        self.root.mkdir(parents=True, exist_ok=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # insertion order kept: a hit prints plain lines in the
                # order of the call that computed it
                json.dump(doc, fh)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return result
