"""In-process stub server speaking wire protocol v4 (see :mod:`rsdkit.remote`).

Wraps any in-process LanguageModel (tables, n-grams) behind the same wire
surface a real inference server would expose, so decoders can be exercised
end to end over HTTP without GPUs. ``POST /v1/distributions`` is the one row
endpoint: its body holds ``model``, ``context``, ``continuation`` (at most
:data:`MAX_CONTINUATION` ids, advertised as ``"max_continuation"`` in the
capabilities; ``[]`` for one row) and ``"encoding": "f64-le"``, and the
reply is one ``application/octet-stream`` body of ``(k+1)·8·V`` bytes, the
exact probabilities after each prefix of the continuation as little-endian
float64. It refuses with HTTP 400 a body key outside those four, any other
``encoding`` (``"f64-b64"`` and a missing one included), a ``model`` that is
not a string, a ``context`` or ``continuation`` that is not a list of ints,
a token outside the model's vocabulary, a continuation longer than
advertised and one that takes the context past ``max_context``. Errors and
capabilities are JSON.

Usable as a context manager in tests (background thread) or run in the
foreground via the ``stub-serve`` CLI subcommand.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping
from urllib.parse import parse_qs, urlparse

import numpy as np

from .models import Distribution, LanguageModel
from .remote import F64_LE, OCTET_STREAM

#: The longest continuation one /v1/distributions request may carry.
MAX_CONTINUATION = 64
#: The keys a /v1/distributions body may hold; any other is refused.
REQUEST_KEYS = frozenset({"model", "context", "continuation", "encoding"})
#: How often a background server checks for :meth:`StubServer.stop`, in seconds;
#: ``serve_forever``'s default of 0.5 s made every stop wait about that long.
POLL_INTERVAL_S = 0.05

class StubServer:
    def __init__(
        self,
        models: Mapping[str, LanguageModel],
        host: str = "127.0.0.1",
        port: int = 0,
        max_context: int = 8192,
        quiet: bool = True,
    ) -> None:
        self.models = dict(models)
        self.max_context = max_context
        handler = _make_handler(self.models, max_context, quiet)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "StubServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": POLL_INTERVAL_S}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def __enter__(self) -> "StubServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _make_handler(models: Mapping[str, LanguageModel], max_context: int, quiet: bool):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # headers and body go out in two writes; with Nagle on, a body that
        # fits one segment waits for the client's delayed ACK (~40 ms)
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):  # noqa: N802
            if not quiet:
                super().log_message(fmt, *args)

        def _send(self, status: int, payload: dict | bytes) -> None:
            """``payload`` as JSON, or raw ``bytes`` as an octet stream."""
            raw = isinstance(payload, bytes)
            body = payload if raw else json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", OCTET_STREAM if raw else "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _fail(self, status: int, message: str) -> None:
            self._send(status, {"error": message})

        def do_GET(self) -> None:  # noqa: N802
            url = urlparse(self.path)
            if url.path != "/v1/capabilities":
                self._fail(404, f"unknown path {url.path}")
                return
            names = parse_qs(url.query).get("model", [])
            if len(names) != 1:
                self._fail(400, "exactly one model parameter required")
                return
            model = models.get(names[0])
            if model is None:
                self._fail(404, f"unknown model {names[0]!r}")
                return
            self._send(
                200,
                {
                    "model": names[0],
                    "vocab_size": model.vocab_size,
                    "eos_token": model.eos_token,
                    "max_context": max_context,
                    "max_continuation": MAX_CONTINUATION,
                },
            )

        def do_POST(self) -> None:  # noqa: N802
            url = urlparse(self.path)
            if url.path != "/v1/distributions":
                self.close_connection = True  # the body is unread
                self._fail(404, f"unknown path {url.path}")
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:  # rfile.read(-1) would block until the client hangs up
                    raise ValueError(f"negative Content-Length {length}")
                body = json.loads(self.rfile.read(length))
                if not isinstance(body, dict):
                    raise TypeError(f"body must be a JSON object, got {type(body).__name__}")
                if body.keys() - REQUEST_KEYS:
                    raise ValueError(f"unknown keys {sorted(body.keys() - REQUEST_KEYS)}")
                name, context, continuation = body["model"], body["context"], body["continuation"]
                if not isinstance(name, str):
                    raise TypeError(f"model must be a string, got {type(name).__name__}")
                for field, ids in (("context", context), ("continuation", continuation)):
                    if not isinstance(ids, list) or any(type(t) is not int for t in ids):
                        raise TypeError(f"{field} must be a list of ints")  # bools are not ints here
                encoding = body.get("encoding")
            except (KeyError, TypeError, ValueError) as exc:
                self.close_connection = True  # the body may be unread
                self._fail(400, f"malformed request: {exc}")
                return
            if encoding != F64_LE:
                self._fail(400, f"unsupported encoding {encoding!r}")
                return
            model = models.get(name)
            if model is None:
                self._fail(404, f"unknown model {name!r}")
                return
            if len(continuation) > MAX_CONTINUATION:
                self._fail(400, f"continuation length {len(continuation)} exceeds max {MAX_CONTINUATION}")
                return
            if len(context) + len(continuation) > max_context:
                self._fail(400, f"context length {len(context) + len(continuation)} exceeds max {max_context}")
                return
            for t in context + continuation:
                if not 0 <= t < model.vocab_size:
                    self._fail(400, f"context token {t} outside vocabulary of size {model.vocab_size}")
                    return
            rows = model.next_distributions(context, continuation)
            self._send(200, b"".join([_full_payload(row) for row in rows]))  # one row: no copy

    return Handler


def _full_payload(dist: Distribution) -> bytes:
    """The raw ``f64-le`` body: ``dist``'s probabilities as little-endian float64."""
    return np.ascontiguousarray(dist.probs, dtype="<f8").tobytes()
