"""In-process stub server speaking wire protocol v5 (see :mod:`rsdkit.remote`).

Wraps any in-process LanguageModel (tables, n-grams) behind the same wire
surface a real inference server would expose, so decoders can be exercised
end to end over HTTP without GPUs. Two POST endpoints serve a model:

* ``POST /v1/distributions`` returns rows: its body holds ``model``,
  ``context``, ``continuation`` (at most :data:`MAX_CONTINUATION` ids,
  advertised as ``"max_continuation"`` in the capabilities; ``[]`` for one
  row) and ``"encoding": "f64-le"``, and the reply is one
  ``application/octet-stream`` body of ``(k+1)·8·V`` bytes, the exact
  probabilities after each prefix of the continuation as little-endian
  float64. It refuses with HTTP 400 any other ``encoding`` (``"f64-b64"``
  and a missing one included), a ``continuation`` that is not a list of
  ints, one longer than advertised and one that takes the context past
  ``max_context``.
* ``POST /v1/draws`` returns draws: its body holds ``model``, ``context``,
  ``uniforms`` (at most ``MAX_CONTINUATION + 1``), ``temperature``,
  ``suppressed`` ids and ``stop`` (an id or null), and the reply is JSON
  ``{"tokens": [...], "probs": [...]}`` from the model's
  :meth:`~rsdkit.models.LanguageModel.draws`, which runs rsdkit's own
  :func:`~rsdkit.models.sample`, so the tokens are those in-process
  decoding draws. A draw that fails ends the reply short; it is never an
  error status. It refuses with HTTP 400 uniforms that are not a list of
  numbers in [0, 1), too many of them, a context plus uniforms past
  ``max_context``, a temperature that is not a finite number above 0,
  ``suppressed`` ids that are not a list of ids in the vocabulary, and a
  ``stop`` that is neither an int nor null.

Both refuse with HTTP 400 a body key outside their own, a ``model`` that is
not a string, a ``context`` that is not a list of ints and a context token
outside the model's vocabulary. Errors and capabilities are JSON.

Usable as a context manager in tests (background thread) or run in the
foreground via the ``stub-serve`` CLI subcommand.
"""

from __future__ import annotations

import json
import math
import threading
from functools import cached_property
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping
from urllib.parse import parse_qs, urlparse

import numpy as np

from .models import Distribution, LanguageModel
from .remote import F64_LE, OCTET_STREAM
from .vocab import VocabularyMap

#: The longest continuation one /v1/distributions request may carry; a /v1/draws request carries one
#: uniform more.
MAX_CONTINUATION = 64
#: The keys a /v1/distributions body may hold; any other is refused.
REQUEST_KEYS = frozenset({"model", "context", "continuation", "encoding"})
#: The keys a /v1/draws body holds; any other is refused.
DRAWS_KEYS = frozenset({"model", "context", "uniforms", "temperature", "suppressed", "stop"})
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
    ) -> None:
        self.models = dict(models)
        self.max_context = max_context
        handler = _make_handler(self.models, max_context)
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


def _make_handler(models: Mapping[str, LanguageModel], max_context: int):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # headers and body go out in two writes; with Nagle on, a body that
        # fits one segment waits for the client's delayed ACK (~40 ms)
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):  # noqa: N802
            pass

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
            path = urlparse(self.path).path
            answer = {"/v1/distributions": _distributions, "/v1/draws": _draws}.get(path)
            if answer is None:
                self.close_connection = True  # the body is unread
                self._fail(404, f"unknown path {path}")
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:  # rfile.read(-1) would block until the client hangs up
                    raise ValueError(f"negative Content-Length {length}")
                body = json.loads(self.rfile.read(length))
                if not isinstance(body, dict):
                    raise TypeError(f"body must be a JSON object, got {type(body).__name__}")
            except (TypeError, ValueError) as exc:
                self.close_connection = True  # the body may be unread
                self._fail(400, f"malformed request: {exc}")
                return
            self._send(*answer(body, models, max_context))

    return Handler


def _read(body: dict, keys: frozenset, *id_lists: str) -> None:
    """Raise KeyError, TypeError or ValueError unless ``body`` holds exactly ``keys``, a string
    ``model`` and each of ``id_lists`` a list of ints."""
    if body.keys() - keys:
        raise ValueError(f"unknown keys {sorted(body.keys() - keys)}")
    if not isinstance(body["model"], str):
        raise TypeError(f"model must be a string, got {type(body['model']).__name__}")
    for name in id_lists:
        if not isinstance(body[name], list) or any(type(t) is not int for t in body[name]):
            raise TypeError(f"{name} must be a list of ints")  # bools are not ints here


def _outside(ids, model: LanguageModel, what: str = "context token") -> tuple[int, dict] | None:
    """The 400 reply for the first of ``ids`` outside ``model``'s vocabulary, if any."""
    for t in ids:
        if not 0 <= t < model.vocab_size:
            return 400, {"error": f"{what} {t} outside vocabulary of size {model.vocab_size}"}
    return None


def _distributions(body: dict, models: Mapping[str, LanguageModel], max_context: int) -> tuple[int, dict | bytes]:
    """``(status, reply)`` to a /v1/distributions body: the raw rows, or an error."""
    try:
        _read(body, REQUEST_KEYS, "context", "continuation")
    except (KeyError, TypeError, ValueError) as exc:
        return 400, {"error": f"malformed request: {exc}"}
    if body.get("encoding") != F64_LE:
        return 400, {"error": f"unsupported encoding {body.get('encoding')!r}"}
    model = models.get(body["model"])
    if model is None:
        return 404, {"error": f"unknown model {body['model']!r}"}
    context, continuation = body["context"], body["continuation"]
    if len(continuation) > MAX_CONTINUATION:
        return 400, {"error": f"continuation length {len(continuation)} exceeds max {MAX_CONTINUATION}"}
    if len(context) + len(continuation) > max_context:
        return 400, {"error": f"context length {len(context) + len(continuation)} exceeds max {max_context}"}
    refusal = _outside(context + continuation, model)
    if refusal is not None:
        return refusal
    rows = model.next_distributions(context, continuation)
    return 200, b"".join([_full_payload(row) for row in rows])  # one row: no copy


def _draws(body: dict, models: Mapping[str, LanguageModel], max_context: int) -> tuple[int, dict]:
    """``(status, reply)`` to a /v1/draws body: the drawn tokens and their raw probabilities, or an error."""
    try:
        _read(body, DRAWS_KEYS, "context", "suppressed")
        uniforms, temperature, stop = body["uniforms"], body["temperature"], body["stop"]
        if not isinstance(uniforms, list) or any(type(u) not in (int, float) for u in uniforms):
            raise TypeError("uniforms must be a list of numbers")
        if type(temperature) not in (int, float):
            raise TypeError(f"temperature must be a number, got {temperature!r}")
        if stop is not None and type(stop) is not int:
            raise TypeError(f"stop must be an int or null, got {stop!r}")
    except (KeyError, TypeError, ValueError) as exc:
        return 400, {"error": f"malformed request: {exc}"}
    model = models.get(body["model"])
    if model is None:
        return 404, {"error": f"unknown model {body['model']!r}"}
    context = body["context"]
    if len(uniforms) > MAX_CONTINUATION + 1:
        return 400, {"error": f"{len(uniforms)} uniforms exceed max {MAX_CONTINUATION + 1}"}
    if len(context) + len(uniforms) > max_context:
        return 400, {"error": f"context length {len(context)} plus {len(uniforms)} uniforms exceeds max {max_context}"}
    bad = next((u for u in uniforms if not 0.0 <= u < 1.0), None)  # NaN fails the range too
    if bad is not None:
        return 400, {"error": f"uniform {bad!r} outside [0, 1)"}
    if not 0.0 < temperature < math.inf:
        return 400, {"error": f"temperature must be finite and above 0, got {temperature!r}"}
    refusal = _outside(context, model) or _outside(body["suppressed"], model, "suppressed id")
    if refusal is not None:
        return refusal
    cut = _Suppression(body["suppressed"]) if body["suppressed"] else None
    drawn = model.draws(context, uniforms, temperature, cut, stop)
    return 200, {"tokens": [t for t, _ in drawn], "probs": [p for _, p in drawn]}


class _Suppression:
    """What :func:`~rsdkit.models.sample` reads of a :class:`~rsdkit.vocab.VocabularyMap`: its suppressed
    ids as a set, a sorted array and runs. A bare id set obeys none of a map's invariants, so no map is
    built from it."""

    suppressed_ids = cached_property(VocabularyMap.suppressed_ids.func)
    suppressed_runs = cached_property(VocabularyMap.suppressed_runs.func)

    def __init__(self, ids: list[int]) -> None:
        self.suppressed = frozenset(ids)


def _full_payload(dist: Distribution) -> bytes:
    """The raw ``f64-le`` body: ``dist``'s probabilities as little-endian float64."""
    return np.ascontiguousarray(dist.probs, dtype="<f8").tobytes()
