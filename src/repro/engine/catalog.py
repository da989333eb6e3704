"""`QueryCatalog`: persistent storage of compiled standing queries.

The catalog packages the query-only half of the paper's preprocessing
pipeline — translate (Lemma 7.4 / Theorem 8.5) and homogenize (Lemma 2.1) —
behind a content-addressed directory of JSON files, one per distinct query
content (:func:`repro.automata.serialize.query_digest`).

The serving workflow it enables:

* an **offline/compile process** builds the standing queries once and
  ``save()``\\ s them;
* each **serving process** ``get()``\\ s the compiled queries at startup —
  a JSON load, cheaper than compilation — and then pays only the
  per-document ``O(|T| · poly|Q'|)`` build of Lemma 7.3 when documents
  arrive.

Entries load into the process's one table of compiled automata
(:func:`repro.core.enumerator.register_automaton`), where the compiler puts
its own: :meth:`QueryCatalog.get` hands out the automaton the process
already holds for a digest, reads an unknown digest from disk, or compiles
it.  The catalog keeps no automaton of its own.

Files are written atomically (temp file + ``os.replace``), so a catalog
directory shared between processes never exposes half-written entries — this
is what lets the sharding workers of ``Engine(workers=N)`` share one catalog
directory.

Alongside the entries the catalog maintains a ``manifest.json``: the library
version that wrote the catalog plus per-digest metadata (kind, sizes, save
time).  Opening a catalog written by an incompatible library version raises
a precise :class:`~repro.errors.CatalogVersionError`; :meth:`QueryCatalog.gc`
garbage-collects entries whose digest is no longer referenced.  Entry files
remain the source of truth — the manifest is metadata, rebuilt on demand —
so catalogs written before the manifest existed keep loading.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
import uuid
from typing import Dict, Iterable, List, Optional, Set

from repro.automata.serialize import query_digest
from repro.automata.unranked_tva import UnrankedTVA
from repro.automata.wva import WVA
from repro.core.enumerator import compiled_automaton_for, lookup_automaton, register_automaton
from repro.errors import CatalogError, CatalogVersionError, InvalidAutomatonError
from repro.engine.codec import CompiledQuery, compiled_query_from_json, compiled_query_to_json

__all__ = ["CatalogLease", "QueryCatalog", "MANIFEST_FORMAT", "MANIFEST_NAME", "LEASE_DIR"]

#: format number of ``manifest.json`` (bumped on incompatible layout changes)
MANIFEST_FORMAT = 1
MANIFEST_NAME = "manifest.json"

#: subdirectory of the catalog root holding the live-consumer lease files
LEASE_DIR = "leases"


class CatalogLease:
    """One live consumer's claim on a set of catalog digests.

    Every open :class:`repro.Engine` (and, through it, every
    :class:`repro.net.server.EngineServer`) holds one lease: a small JSON
    file under ``<catalog>/leases/`` naming the digests of the queries it
    has compiled, rewritten atomically as queries are added.  With leases on
    disk, :meth:`QueryCatalog.gc` needs no manual ``keep=`` list — the union
    of every live lease's digests *is* the keep set, computed safely across
    processes.  A lease whose recording process has died (same host, dead
    pid) is stale and reaped on the next :meth:`QueryCatalog.live_digests`;
    a lease from another host is conservatively assumed live.
    """

    def __init__(self, catalog: "QueryCatalog", path: str):
        self._catalog = catalog
        self.path = path
        self.released = False
        self._digests: Set[str] = set()
        self._created_unix = time.time()
        self._write()

    def _write(self) -> None:
        self._catalog._atomic_write(
            self.path,
            json.dumps(
                {
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                    "created_unix": self._created_unix,
                    "digests": sorted(self._digests),
                },
                sort_keys=True,
                indent=0,
            ),
        )

    def add(self, digest: str) -> None:
        """Record one digest as live (idempotent; a no-op once released)."""
        if self.released or digest in self._digests:
            return
        self._digests.add(digest)
        self._write()

    def release(self) -> None:
        """Drop the claim (idempotent): the lease file is removed."""
        if self.released:
            return
        self.released = True
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


def _pid_alive(pid: int) -> bool:
    """Whether a pid exists on this host (EPERM counts as alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def _compatible_versions(wrote: str, reads: str) -> bool:
    """Same-major-version compatibility rule for persisted compiled queries."""
    return str(wrote).split(".")[0] == str(reads).split(".")[0]


def _kind_of(query) -> str:
    if isinstance(query, UnrankedTVA):
        return "tree"
    if isinstance(query, WVA):
        return "word"
    raise CatalogError(
        f"cannot catalog {type(query).__name__}; expected an UnrankedTVA or a WVA"
    )


class QueryCatalog:
    """A directory of persisted compiled queries, keyed by content digest."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        # Fail fast on a catalog written by an incompatible library version
        # (a missing manifest is a pre-manifest catalog and stays readable).
        self.read_manifest()

    # -------------------------------------------------------------- manifest
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def read_manifest(self) -> Optional[Dict]:
        """The parsed ``manifest.json``, or ``None`` if none was written yet.

        Raises :class:`~repro.errors.CatalogVersionError` when the manifest
        was written by an incompatible library major version or an unknown
        manifest format — naming both versions and the path, so a stale
        catalog is distinguishable from a corrupt one (which raises
        :class:`~repro.errors.CatalogError`).
        """
        from repro import __version__

        try:
            with open(self.manifest_path, encoding="utf8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            return None
        except ValueError as exc:
            raise CatalogError(
                f"corrupt catalog manifest {self.manifest_path}: {exc}"
            ) from exc
        fmt = manifest.get("manifest_format")
        if fmt != MANIFEST_FORMAT:
            raise CatalogVersionError(
                f"catalog {self.root} has manifest format {fmt!r}; this library "
                f"reads format {MANIFEST_FORMAT}"
            )
        wrote = manifest.get("library_version", "0")
        if not _compatible_versions(wrote, __version__):
            raise CatalogVersionError(
                f"catalog {self.root} was written by library version {wrote}, "
                f"incompatible with this library version {__version__} "
                f"(major versions must match); re-save its queries or point "
                f"the engine at a fresh catalog directory"
            )
        return manifest

    def _write_manifest(self, manifest: Dict) -> None:
        from repro import __version__

        manifest = dict(manifest)
        manifest["manifest_format"] = MANIFEST_FORMAT
        manifest["library_version"] = __version__
        self._atomic_write(
            self.manifest_path, json.dumps(manifest, sort_keys=True, indent=0)
        )

    def _update_manifest(self, digest: str, meta: Dict) -> None:
        """Record one entry's metadata.

        Concurrent writers race benignly: entry files are the source of
        truth, written atomically, and a lost manifest update only loses
        advisory metadata (:meth:`gc` works off the file listing).
        """
        manifest = self.read_manifest() or {"entries": {}}
        manifest.setdefault("entries", {})[digest] = meta
        self._write_manifest(manifest)

    def entry_meta(self, query_or_digest) -> Optional[Dict]:
        """The manifest metadata recorded for an entry (or ``None``)."""
        digest = (
            query_or_digest
            if isinstance(query_or_digest, str)
            else self.digest_of(query_or_digest)
        )
        manifest = self.read_manifest() or {}
        return (manifest.get("entries") or {}).get(digest)

    # ---------------------------------------------------------------- leases
    @property
    def leases_root(self) -> str:
        return os.path.join(self.root, LEASE_DIR)

    def acquire_lease(self) -> CatalogLease:
        """Open a :class:`CatalogLease` registering this process as live.

        Every open :class:`repro.Engine` acquires one automatically and
        records each digest it compiles, so :meth:`gc` with no ``keep=``
        list never collects a query an open engine (in this process or any
        other sharing the directory) still serves.  Release it (or close
        the engine) when done; leases of dead processes are reaped.
        """
        os.makedirs(self.leases_root, exist_ok=True)
        path = os.path.join(
            self.leases_root, f"lease-{os.getpid()}-{uuid.uuid4().hex}.json"
        )
        return CatalogLease(self, path)

    def live_digests(self) -> Set[str]:
        """The union of every live lease's digests (the implicit keep set).

        Stale leases — written by a process on this host that no longer
        exists, or unreadable despite the atomic lease writes — are removed
        while scanning.  Leases from other hosts cannot be liveness-probed
        and are conservatively counted as live.
        """
        live: Set[str] = set()
        try:
            names = os.listdir(self.leases_root)
        except FileNotFoundError:
            return live
        host = socket.gethostname()
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.leases_root, name)
            try:
                with open(path, encoding="utf8") as handle:
                    lease = json.load(handle)
            except FileNotFoundError:
                continue  # released between the listing and the read
            except (ValueError, OSError):
                # Lease writes are atomic, so an unreadable lease is real
                # corruption protecting nothing: reap it.
                self._unlink_lease(path)
                continue
            pid = lease.get("pid")
            if lease.get("host") == host and isinstance(pid, int) and not _pid_alive(pid):
                self._unlink_lease(path)
                continue
            digests = lease.get("digests")
            if isinstance(digests, list):
                live.update(d for d in digests if isinstance(d, str))
        return live

    @staticmethod
    def _unlink_lease(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def gc(self, keep: Optional[Iterable] = None) -> List[str]:
        """Delete every persisted entry whose digest is not in ``keep``.

        ``keep`` is an iterable of digests and/or query objects (digested
        here).  With ``keep=None`` (the default) the keep set is computed
        from the **live leases** (:meth:`live_digests`): every digest some
        open engine still serves survives, so an operator can run
        ``catalog.gc()`` as a cron job without coordinating a manual list.
        Works off the entry-file listing, so pre-manifest entries and
        entries saved by other processes are collected too; the manifest is
        pruned to the survivors.  Returns the sorted list of removed digests.
        """
        if keep is None:
            kept = self.live_digests()
        else:
            kept = {
                item if isinstance(item, str) else self.digest_of(item) for item in keep
            }
        removed = [digest for digest in self.digests() if digest not in kept]
        for digest in removed:
            try:
                os.unlink(self.path_of(digest))
            except FileNotFoundError:
                pass
        if removed:
            manifest = self.read_manifest() or {"entries": {}}
            entries = manifest.setdefault("entries", {})
            for digest in removed:
                entries.pop(digest, None)
            self._write_manifest(manifest)
        return sorted(removed)

    # --------------------------------------------------------------- low-level
    def _atomic_write(self, path: str, text: str) -> None:
        fd, tmp_path = tempfile.mkstemp(dir=self.root, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf8") as handle:
                handle.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise

    # ------------------------------------------------------------------ keys
    def digest_of(self, query) -> str:
        """The content digest a query is stored under."""
        return query_digest(query)

    def path_of(self, digest: str) -> str:
        """The file path of a digest's entry (whether or not it exists)."""
        return os.path.join(self.root, digest + ".json")

    def __contains__(self, query_or_digest) -> bool:
        digest = (
            query_or_digest
            if isinstance(query_or_digest, str)
            else self.digest_of(query_or_digest)
        )
        return os.path.exists(self.path_of(digest))

    def digests(self) -> List[str]:
        """The digests of all persisted entries.

        Leftover atomic-write temp files (``.tmp-*.json``, possible after a
        crash between ``mkstemp`` and ``os.replace``) and the manifest are
        not entries.
        """
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.root)
            if name.endswith(".json")
            and not name.startswith(".tmp-")
            and name != MANIFEST_NAME
        )

    def __len__(self) -> int:
        return len(self.digests())

    # ----------------------------------------------------------------- write
    def save(self, query) -> CompiledQuery:
        """Persist the compiled form of ``query``.

        The entry holds the automaton the process holds for the query's
        digest, compiled now if it holds none.  The write is atomic and
        idempotent: saving equal content twice rewrites the same file.
        """
        kind = _kind_of(query)
        digest = self.digest_of(query)
        automaton = compiled_automaton_for(query)
        saved_unix = time.time()
        text = compiled_query_to_json(
            query, automaton, kind, extra_meta={"saved_unix": saved_unix}
        )
        self._atomic_write(self.path_of(digest), text)
        self._update_manifest(
            digest,
            {
                "kind": kind,
                "saved_unix": saved_unix,
                "automaton_states": len(automaton.states),
                "automaton_size": automaton.size(),
                "file_bytes": len(text.encode("utf8")),
            },
        )
        return CompiledQuery(kind=kind, digest=digest, automaton=automaton)

    # ------------------------------------------------------------------ read
    def _load_if_present(self, digest: str) -> Optional[CompiledQuery]:
        """Load one entry from disk; ``None`` if its file does not exist.

        This is the single disk-read path, and it distinguishes the two
        failure modes a *shared* catalog can produce:

        * **the entry vanished** (e.g. another process ran :meth:`gc` after
          this one listed or probed it) — returns ``None``, letting callers
          decide between compiling and raising a precise missing-entry error;
        * **the entry is unreadable** (truncated file, invalid JSON, an
          automaton payload that does not decode) — raises
          :class:`CatalogError` naming the path and digest, never a bare
          ``json`` / ``KeyError`` / codec crash.  Entry writes are atomic,
          so this means real corruption, not a concurrent writer.
        """
        path = self.path_of(digest)
        start = time.perf_counter()
        try:
            with open(path, "rb") as handle:  # loads_payload checks the UTF-8
                text = handle.read()
        except FileNotFoundError:
            return None
        try:
            entry = compiled_query_from_json(text, expected_digest=digest)
        except CatalogVersionError:
            raise
        except (CatalogError, ValueError, LookupError, TypeError, InvalidAutomatonError) as exc:
            raise CatalogError(
                f"corrupt or truncated compiled-query entry {path} "
                f"(digest {digest!r}): {exc}"
            ) from exc
        entry.load_seconds = time.perf_counter() - start
        return entry

    def load(self, digest: str, use_cache: bool = True) -> CompiledQuery:
        """Load a persisted compiled query by digest.

        The entry file is read on every call, so a missing or corrupt entry
        always raises.  With ``use_cache`` the result carries the process's
        one automaton for the digest: the one it already holds, or else the
        loaded one, which it holds from now on.  ``use_cache=False`` returns
        the loaded automaton without registering it.

        ``load_seconds`` on the result records the wall-clock cost of the
        disk read + payload reconstruction (the quantity the serving
        benchmark compares against compile time).  A digest with no entry
        file raises a precise :class:`CatalogError` (the entry may never
        have been saved — or may just have been garbage-collected by
        another process sharing the directory).
        """
        entry = self._load_if_present(digest)
        if entry is None:
            raise CatalogError(
                f"no compiled query with digest {digest!r} in {self.root} "
                f"(never saved, or removed by a concurrent gc())"
            )
        if use_cache:
            entry.automaton = register_automaton(digest, entry.automaton)
        return entry

    def get(self, query) -> CompiledQuery:
        """The compiled form of ``query``, one automaton per digest per process.

        The automaton the process already holds for the query's digest
        comes without a disk read; an unknown digest loads from disk if
        persisted, else compiles, and the process holds the result from
        then on.  A miss does *not* implicitly write to disk — persisting is
        an explicit :meth:`save`.

        Safe against a concurrent :meth:`gc` in another process sharing the
        directory (e.g. the parent of a shard pool collecting a digest while
        a worker loads it): an entry that vanishes between the existence
        probe and the read is treated as never persisted and compiled
        in-process.  A *corrupt* entry still raises loudly — silently
        recompiling could mask a catalog that keeps serving damaged files.
        """
        digest = self.digest_of(query)
        held = lookup_automaton(digest)
        if held is None:
            entry = self._load_if_present(digest)
            if entry is not None:
                entry.automaton = register_automaton(digest, entry.automaton)
                return entry
            held = compiled_automaton_for(query)
        return CompiledQuery(kind=_kind_of(query), digest=digest, automaton=held)
