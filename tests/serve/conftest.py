"""Shared fixtures for the estimation-service tests.

The end-to-end tests run a real :class:`EstimationServer` on an
ephemeral port, with its asyncio loop on a background thread so the
tests can speak plain blocking ``http.client`` — exactly what an
external client does.  The default service forks one worker, the
topology production runs, and the tests send tiny inline programs, so
each request costs well under a millisecond of simulation.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.core import EnergyMacroModel, default_template
from repro.serve import EstimationServer, EstimationService

TINY_SOURCE = """
    .data
out: .word 0
    .text
main:
    movi a2, 6
    movi a3, 0
loop:
    add a3, a3, a2
    addi a2, a2, -1
    bnez a2, loop
    la a4, out
    s32i a3, a4, 0
    halt
"""


@pytest.fixture(scope="session")
def serve_model() -> EnergyMacroModel:
    template = default_template()
    return EnergyMacroModel(template, np.linspace(50, 5000, len(template)))


class ServerHarness:
    """A live server on an ephemeral port + a blocking JSON client."""

    def __init__(self, service: EstimationService) -> None:
        self.service = service
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run_loop, daemon=True)
        self._thread.start()
        self.server = EstimationServer(service, port=0)
        self.run(self.server.start(), timeout=60)
        self.port = self.server.port

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def run(self, coro, timeout: float = 60):
        """Run a coroutine on the server's loop from the test thread."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def request(self, method: str, path: str, body: object = None, timeout: float = 60):
        """One blocking HTTP round-trip; returns (status, decoded body)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, payload, headers)
            response = conn.getresponse()
            raw = response.read()
            content_type = response.getheader("Content-Type", "")
            decoded = (
                json.loads(raw) if content_type.startswith("application/json") else raw.decode()
            )
            return response.status, decoded
        finally:
            conn.close()

    def estimate(self, body: object, timeout: float = 60):
        return self.request("POST", "/estimate", body, timeout)

    def close(self) -> None:
        if self._loop.is_closed():
            return
        self.run(self.server.stop())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()


class PoolGate:
    """Hold every estimate batch a service dispatches until :meth:`open`.

    Wraps ``service.pool.estimate_batch``.  While the gate is shut each
    dispatched batch keeps its worker slot, so requests that arrive
    meanwhile wait in the queue — as they would behind a slow batch —
    and leave together as the next harvest.  ``batches`` records the
    items of every dispatch; ``max_outstanding`` is the most batches the
    service ever had dispatched and unfinished at once.
    """

    def __init__(self, service: EstimationService) -> None:
        self._opened = threading.Event()
        self._lock = threading.Lock()
        self._estimate_batch = service.pool.estimate_batch
        self.batches: list[list[dict]] = []
        self.outstanding = 0
        self.max_outstanding = 0
        service.pool.estimate_batch = self.estimate_batch

    async def estimate_batch(self, items) -> dict:
        with self._lock:
            self.batches.append(list(items))
            self.outstanding += 1
            self.max_outstanding = max(self.max_outstanding, self.outstanding)
        try:
            deadline = time.monotonic() + 30
            while not self._opened.is_set() and time.monotonic() < deadline:
                await asyncio.sleep(0.002)
            return await self._estimate_batch(items)
        finally:
            with self._lock:
                self.outstanding -= 1

    def open(self) -> None:
        self._opened.set()

    def sizes(self) -> list[int]:
        with self._lock:
            return [len(batch) for batch in self.batches]


def wait_until(predicate, timeout: float = 10.0) -> None:
    """Poll ``predicate`` until it holds; fail the test after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


def fire(server: "ServerHarness", bodies: list) -> tuple[list, list[threading.Thread]]:
    """POST each body to /estimate on its own thread.

    Returns the list the responses land in (in completion order, as
    ``(index, status, body)``) and the started threads.
    """
    results: list = []
    lock = threading.Lock()

    def post(index: int, body: object) -> None:
        status, decoded = server.estimate(body, timeout=60)
        with lock:
            results.append((index, status, decoded))

    threads = [
        threading.Thread(target=post, args=(index, body))
        for index, body in enumerate(bodies)
    ]
    for thread in threads:
        thread.start()
    return results, threads


@pytest.fixture
def make_server(serve_model):
    """Factory fixture: build a live server with custom service options."""
    harnesses: list[ServerHarness] = []

    def factory(**options) -> ServerHarness:
        options.setdefault("workers", 1)
        harness = ServerHarness(EstimationService(serve_model, **options))
        harnesses.append(harness)
        return harness

    yield factory
    for harness in harnesses:
        harness.close()
