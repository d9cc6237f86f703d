"""Content-addressed on-disk capture store.

Layout under one corpus root::

    corpus.json                 # format marker, written once
    entries/<fingerprint>.npz   # array payload (recordings), compressed
    entries/<fingerprint>.json  # manifest: spec, versions, per-trial data

The address is the cell's :meth:`~repro.eval.engine.TrialSpec.fingerprint`
— the same content hash the :class:`~repro.eval.engine.MeasurementCache`
keys on — so an entry recorded by any invocation (any ``--jobs``) is
found again by every later replay of the same computation.

Two properties the writers guarantee:

* **atomicity** — both files are written to a process-unique temp name in
  the same directory and :func:`os.replace`\\ d into place, so a reader
  (or a crashed writer) can never observe a half-written file.  The JSON
  manifest goes last and is the commit point: a payload without its
  manifest is an interrupted write, reported as corruption rather than
  silently served.
* **concurrent-writer safety** — fingerprints are content addresses, so
  two workers racing on one entry are writing identical bytes; whichever
  ``os.replace`` lands last wins and the entry stays consistent.  Workers
  writing *different* entries never share a path at all.

Reads fail closed: a missing entry is a :class:`KeyError` (an honest
cache miss), but a malformed manifest, a payload whose SHA-256 does not
match the manifest, or a manifest/payload pair with one half missing is a
:class:`CorpusIntegrityError` — corruption must never be mistaken for
"not recorded yet".
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import zipfile
from pathlib import Path

import numpy as np

__all__ = [
    "CORPUS_FORMAT",
    "CaptureCorpus",
    "CorpusError",
    "CorpusIntegrityError",
]

#: On-disk format version stamped into every manifest and the root marker.
CORPUS_FORMAT = 1

_tmp_counter = itertools.count()


class CorpusError(Exception):
    """Base class of structured corpus failures.

    Carries the offending path and entry fingerprint (when known) so
    callers and CI logs can point at the exact on-disk artifact.
    """

    def __init__(
        self,
        message: str,
        *,
        path: Path | str | None = None,
        fingerprint: str | None = None,
    ) -> None:
        details = []
        if fingerprint is not None:
            details.append(f"entry {fingerprint}")
        if path is not None:
            details.append(f"at {path}")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)
        self.path = None if path is None else Path(path)
        self.fingerprint = fingerprint


class CorpusIntegrityError(CorpusError):
    """An entry exists but its bytes cannot be trusted.

    Raised for truncated or bit-flipped payloads (SHA-256 mismatch),
    unparseable manifests, and interrupted writes (payload without
    manifest or vice versa).  Deliberately *not* a silent miss: replay
    propagates it instead of re-rendering, so corruption surfaces in CI
    rather than hiding behind a recompute.
    """


class CaptureCorpus:
    """One content-addressed capture store rooted at ``root``.

    The constructor only creates directories when the caller intends to
    write (``create=True``, the default); opening a corpus read-only at a
    missing path raises :class:`CorpusError` rather than manufacturing an
    empty store.
    """

    def __init__(self, root: str | Path, *, create: bool = True) -> None:
        self.root = Path(root)
        self.entries_dir = self.root / "entries"
        if create:
            self.entries_dir.mkdir(parents=True, exist_ok=True)
            marker = self.root / "corpus.json"
            if not marker.exists():
                self._write_atomic(
                    marker,
                    json.dumps(
                        {"format": CORPUS_FORMAT, "store": "repro.corpus"},
                        sort_keys=True,
                    ).encode("utf-8")
                    + b"\n",
                )
        elif not self.entries_dir.is_dir():
            raise CorpusError("no corpus found", path=self.root)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def fingerprints(self) -> list[str]:
        """Every committed entry (sorted); commitment = manifest present."""
        if not self.entries_dir.is_dir():
            return []
        return sorted(
            path.stem
            for path in self.entries_dir.glob("*.json")
            if not path.name.startswith(".")
        )

    def __contains__(self, fingerprint: str) -> bool:
        return self._manifest_path(fingerprint).exists()

    def __len__(self) -> int:
        return len(self.fingerprints())

    def _manifest_path(self, fingerprint: str) -> Path:
        return self.entries_dir / f"{fingerprint}.json"

    def _payload_path(self, fingerprint: str) -> Path:
        return self.entries_dir / f"{fingerprint}.npz"

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def _write_atomic(self, target: Path, payload: bytes) -> None:
        """Write ``payload`` to ``target`` via temp file + rename.

        The temp name is unique per (pid, call), so concurrent writers —
        pool workers recording with ``--jobs N`` — never collide on the
        temp path, and ``os.replace`` is atomic on POSIX and Windows
        alike: readers see the old file or the new one, never a partial.
        """
        tmp = target.parent / (
            f".{target.name}.tmp.{os.getpid()}.{next(_tmp_counter)}"
        )
        try:
            tmp.write_bytes(payload)
            os.replace(tmp, target)
        finally:
            if tmp.exists():  # pragma: no cover - only on a failed replace
                tmp.unlink(missing_ok=True)

    def write_entry(
        self,
        fingerprint: str,
        manifest: dict,
        arrays: dict[str, np.ndarray],
    ) -> Path:
        """Commit one entry: payload first, manifest last (atomic each).

        The manifest is stamped with the format version, the fingerprint,
        and the payload's SHA-256 so reads can verify end to end.
        Returns the manifest path (the commit point).
        """
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        payload = buffer.getvalue()
        stamped = dict(manifest)
        stamped["format"] = CORPUS_FORMAT
        stamped["fingerprint"] = fingerprint
        stamped["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        self._write_atomic(self._payload_path(fingerprint), payload)
        manifest_path = self._manifest_path(fingerprint)
        self._write_atomic(
            manifest_path,
            json.dumps(stamped, sort_keys=True).encode("utf-8") + b"\n",
        )
        return manifest_path

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def read_manifest(self, fingerprint: str) -> dict:
        """The manifest of one entry; ``KeyError`` when never recorded."""
        path = self._manifest_path(fingerprint)
        if not path.exists():
            if self._payload_path(fingerprint).exists():
                raise CorpusIntegrityError(
                    "payload present but manifest missing (interrupted write)",
                    path=self._payload_path(fingerprint),
                    fingerprint=fingerprint,
                )
            raise KeyError(fingerprint)
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CorpusIntegrityError(
                f"manifest is not valid JSON: {error}",
                path=path,
                fingerprint=fingerprint,
            ) from error
        if not isinstance(manifest, dict):
            raise CorpusIntegrityError(
                "manifest is not a JSON object",
                path=path,
                fingerprint=fingerprint,
            )
        for field in ("format", "fingerprint", "payload_sha256"):
            if field not in manifest:
                raise CorpusIntegrityError(
                    f"manifest missing required field {field!r}",
                    path=path,
                    fingerprint=fingerprint,
                )
        if manifest["format"] != CORPUS_FORMAT:
            raise CorpusError(
                f"unsupported corpus format {manifest['format']!r} "
                f"(this build reads format {CORPUS_FORMAT})",
                path=path,
                fingerprint=fingerprint,
            )
        if manifest["fingerprint"] != fingerprint:
            raise CorpusIntegrityError(
                f"manifest claims fingerprint {manifest['fingerprint']!r}",
                path=path,
                fingerprint=fingerprint,
            )
        return manifest

    def read_arrays(
        self, fingerprint: str, *, verify: bool = True
    ) -> dict[str, np.ndarray]:
        """The array payload of one entry, SHA-verified by default."""
        manifest = self.read_manifest(fingerprint)
        path = self._payload_path(fingerprint)
        if not path.exists():
            raise CorpusIntegrityError(
                "manifest present but payload missing",
                path=path,
                fingerprint=fingerprint,
            )
        payload = path.read_bytes()
        if verify:
            digest = hashlib.sha256(payload).hexdigest()
            if digest != manifest["payload_sha256"]:
                raise CorpusIntegrityError(
                    "payload SHA-256 mismatch (truncated or corrupted): "
                    f"expected {manifest['payload_sha256']}, got {digest}",
                    path=path,
                    fingerprint=fingerprint,
                )
        try:
            with np.load(io.BytesIO(payload), allow_pickle=False) as data:
                return {name: data[name] for name in data.files}
        except (zipfile.BadZipFile, ValueError, OSError, EOFError) as error:
            raise CorpusIntegrityError(
                f"payload is not a readable npz archive: {error}",
                path=path,
                fingerprint=fingerprint,
            ) from error

    def manifests(self) -> dict[str, dict]:
        """Every committed entry's manifest, keyed by fingerprint."""
        return {fp: self.read_manifest(fp) for fp in self.fingerprints()}
