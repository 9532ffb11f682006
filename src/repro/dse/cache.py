"""The content address of one candidate score.

A score is keyed by *content*, never by object identity or space/knob
naming:

    sha256(model digest . config fingerprint . program digest
           . instruction budget)

so two requests with one key describe the same (model, processor,
program) triple even when differently-spelled spaces or inline sources
build the same design point.  The estimation service's in-memory memo
and its in-flight coalescer both use it.
"""

from __future__ import annotations

import hashlib

from ..asm import Program
from ..xtcore import ProcessorConfig

#: Format tag hashed into every key (bump to change every key).
KEY_FORMAT = "repro-dse-score/3"


def candidate_cache_key(
    model_fingerprint: str,
    config: ProcessorConfig,
    program: Program,
    max_instructions: int,
) -> str:
    """The content address of one candidate score.

    :meth:`Program.digest` covers everything that affects execution and
    is memoized per program; the config fingerprint covers the ISA the
    program is encoded against.
    """
    blob = "\n".join(
        [
            KEY_FORMAT,
            model_fingerprint,
            config.fingerprint(),
            program.digest(),
            str(int(max_instructions)),
        ]
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
