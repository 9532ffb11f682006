"""The router's shard key for estimate requests.

The *exact* dedup identity of a request — the
:func:`repro.dse.cache.candidate_cache_key` content address — requires building
the processor config and assembling the program, which is precisely the
work the router must **not** do per request.  Routing only needs a
cheaper invariant: *equal workloads hash equal*.  So the router keys on
the validated wire fields that determine the workload:

    (benchmark | program source + name's irrelevance, extensions,
     max_instructions, canonical operating point)

Two requests with the same routing key necessarily have the same
request key (the fields above determine config, program image and
budget), so consistent-hash routing sends every duplicate of a workload
to the same node, where the node's memo/coalescer merges them exactly.
The converse misses are harmless: a workload spelled differently (e.g.
the same assembly under a different inline ``name``) may route to a
different node, where the shared cache tier still dedupes the
simulation fleet-wide.

``name`` is deliberately **excluded** for inline programs — program
names are cosmetic in the dedup key, so they must not split routing
either.
"""

from __future__ import annotations

import hashlib

from ..serve.api import EstimateRequest

#: Version tag folded into every routing key (bump to reshuffle shards).
ROUTING_FORMAT = "repro-fleet-route/1"


def routing_key(request: EstimateRequest) -> str:
    """The consistent-hash shard key of one validated estimate request."""
    blob = "\n".join(
        [
            ROUTING_FORMAT,
            request.benchmark or "",
            request.source or "",
            ",".join(request.extensions),
            str(request.max_instructions),
            request.operating_point or "",
        ]
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
