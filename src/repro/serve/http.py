"""Minimal asyncio HTTP/1.1 plumbing for the estimation service.

The service speaks a deliberately small subset of HTTP — JSON request
bodies, JSON or plain-text responses, keep-alive connections — over
``asyncio`` streams, with **no third-party dependencies**.  This module
owns the wire concerns (request parsing, size limits, response
formatting) so :mod:`repro.serve.server` can be pure routing + policy.

Limits are enforced while reading, before any body is buffered whole:
an over-long request line/header block or a body beyond
``max_body_bytes`` is answered with 431/413 instead of being swallowed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from typing import Optional
from urllib.parse import parse_qsl, urlsplit

#: Protect the parser from hostile request lines / header blocks.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
#: Default cap on request bodies (the API layer has tighter source limits).
DEFAULT_MAX_BODY = 1024 * 1024

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpProtocolError(Exception):
    """A malformed or over-limit request; carries the status to answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclasses.dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self) -> object:
        """The body parsed as JSON (HttpProtocolError 400 on failure)."""
        if not self.body:
            raise HttpProtocolError(400, "request body must be JSON (got empty body)")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpProtocolError(400, f"request body is not valid JSON: {exc}")

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int = DEFAULT_MAX_BODY
) -> Optional[HttpRequest]:
    """Parse one request off the stream; None on a cleanly closed connection."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # connection closed between requests: normal
        raise HttpProtocolError(400, "truncated request line")
    except asyncio.LimitOverrunError:
        raise HttpProtocolError(431, "request line too long")
    if len(line) > MAX_REQUEST_LINE:
        raise HttpProtocolError(431, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HttpProtocolError(400, f"malformed request line {line!r}")
    method, target, _version = parts

    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise HttpProtocolError(400, "truncated header block")
        if line in (b"\r\n", b"\n"):
            break
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpProtocolError(431, "header block too large")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpProtocolError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        raise HttpProtocolError(400, "chunked request bodies are not supported")
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise HttpProtocolError(400, f"bad Content-Length {length_header!r}")
        if length < 0:
            raise HttpProtocolError(400, f"bad Content-Length {length_header!r}")
        if length > max_body_bytes:
            raise HttpProtocolError(
                413, f"request body of {length} bytes exceeds {max_body_bytes}"
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpProtocolError(400, "request body shorter than Content-Length")

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return HttpRequest(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


def format_response(
    status: int,
    body: bytes,
    content_type: str,
    extra_headers: Optional[dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_response(
    status: int,
    payload: object,
    extra_headers: Optional[dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    # compact: an indented dump runs the pure-Python encoder, about twice
    # the C encoder's time on every response the event loop writes
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return format_response(
        status, body, "application/json", extra_headers, keep_alive
    )


def text_response(
    status: int,
    text: str,
    extra_headers: Optional[dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    return format_response(
        status,
        text.encode("utf-8"),
        "text/plain; charset=utf-8",
        extra_headers,
        keep_alive,
    )
