"""Content-addressed on-disk cache of candidate scores.

Exploration repeatedly scores the same design points — reruns, resumed
sweeps, greedy walks that revisit neighbors, overlapping spaces — and
every score costs an instruction-set simulation.  This cache keys each
score by *content*, never by object identity or space/knob naming:

    sha256(model digest . config fingerprint . program image digest
           . instruction budget)

so a hit is guaranteed to describe the same (model, processor, program)
triple even across processes, runs and differently-spelled spaces that
happen to build the same design point.

Entries are one JSON file per key, sharded by key prefix, written
atomically (tmp + ``os.replace``); a corrupt or truncated entry reads as
a miss and is rewritten, never trusted.  Corrupt entries are not just
skipped: the damaged file is renamed aside to ``<key>.json.corrupt``
(preserved for forensics, never re-read) and counted, so a cache that is
rotting — a flaky disk, a torn copy — is visible in ``info()`` and the
serving layer's ``/metrics`` instead of silently costing re-simulations.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Optional

from ..asm import Program, write_image
from ..core.characterize import atomic_write_json
from ..core.model import EnergyMacroModel
from ..xtcore import ProcessorConfig

#: Format tag stored in every cache entry (bump to invalidate old caches).
CACHE_FORMAT = "repro-dse-score/2"


def model_digest(model: EnergyMacroModel) -> str:
    """Stable digest of a macro-model's content (see :meth:`EnergyMacroModel.digest`)."""
    return model.digest()


def program_digest(program: Program, config: ProcessorConfig) -> str:
    """Stable digest of an assembled program via its serialized XPF image."""
    return hashlib.sha256(write_image(program, config.isa)).hexdigest()


def candidate_cache_key(
    model_fingerprint: str,
    config: ProcessorConfig,
    program: Program,
    max_instructions: int,
) -> str:
    """The content address of one candidate score."""
    blob = "\n".join(
        [
            CACHE_FORMAT,
            model_fingerprint,
            config.fingerprint(),
            program_digest(program, config),
            str(int(max_instructions)),
        ]
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """One directory of content-addressed candidate scores.

    Concurrency-safe by construction: entries are immutable once written
    (same key ⇒ same content), writes are atomic, and corrupt reads are
    misses — so any number of processes (DSE workers, the estimation
    service's pool) may share one directory.  The hit/miss counters are
    guarded by a lock so in-process concurrent readers keep them exact.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_entries = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, key: str) -> Optional[dict]:
        """The stored payload, or None (counted as a miss) if absent/corrupt.

        A *present but unreadable* entry (truncated JSON, wrong format
        tag) is quarantined: renamed to ``<key>.json.corrupt`` so the
        next ``put`` rewrites cleanly, and counted in
        ``corrupt_entries``.  A missing file is a plain miss.
        """
        corrupt = False
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            payload = None
        except (OSError, json.JSONDecodeError):
            payload = None
            corrupt = True
        if payload is not None and (
            not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT
        ):
            payload = None
            corrupt = True
        if corrupt:
            self._quarantine_corrupt(key)
        if payload is None:
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return payload

    def _quarantine_corrupt(self, key: str) -> None:
        path = self._path(key)
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            pass  # racing reader already moved it (or the disk is that bad)
        with self._lock:
            self.corrupt_entries += 1

    def put(self, key: str, payload: dict) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_json(path, {**payload, "format": CACHE_FORMAT, "key": key})
        with self._lock:
            self.stores += 1

    def info(self) -> dict:
        """Counter snapshot (cheap — does not walk the directory)."""
        with self._lock:
            return {
                "root": self.root,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "corrupt_entries": self.corrupt_entries,
            }

    def __len__(self) -> int:
        count = 0
        for _, _, files in os.walk(self.root):
            count += sum(1 for name in files if name.endswith(".json"))
        return count

