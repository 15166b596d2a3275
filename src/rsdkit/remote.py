"""HTTP client exposing a log-probability server as a LanguageModel.

Wire protocol v4 (HTTP/1.1, JSON requests):

* ``GET /v1/capabilities?model=NAME`` returns ``{"model": NAME,
  "vocab_size": V, "eos_token": E, "max_context": C, "max_continuation":
  K}``, each number a JSON integer. A server that advertises no
  ``max_continuation`` fails the handshake with
  :class:`CapabilityMismatchError`; any other malformed payload is a
  :class:`BackendError`.
* ``POST /v1/distributions`` with body ``{"model": NAME, "context": [int,
  ...], "continuation": [int, ...], "encoding": "f64-le"}`` and a
  continuation of ``k <= K`` ids returns the ``k+1`` distributions after
  ``context`` extended by each prefix of ``continuation``, shortest first,
  as one ``application/octet-stream`` body of exactly ``(k+1)·8·V`` bytes:
  each row the ``V`` exact probabilities as little-endian float64, with no
  JSON and no base64. A single row is the request with ``"continuation":
  []``. :attr:`RemoteModel.lookahead` is ``min(LOOKAHEAD, K + 1)``, so
  ``decode`` judges a block of proposals in one request. A body that is
  not raw, of the wrong length, or not finite distributions raises
  :class:`BackendError`.

Each thread keeps its own ``http.client`` connection alive; a non-2xx status,
a redirect too, raises :class:`BackendError`. Requests are idempotent and never
mutate server state. The client keeps no rows: each call is one request.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence
from urllib.parse import SplitResult, urlencode, urlsplit

import numpy as np

from .models import Distribution, LanguageModel, _integer


#: The encoding the client requests: a raw body of little-endian float64 probs.
F64_LE = "f64-le"
OCTET_STREAM = "application/octet-stream"
#: Steps a remote approver judges per block request. Proposals after a
#: rejection are wasted, so longer blocks stop paying: on the remote-stub-v4k
#: benchmark (accept ratio 0.97) a command made 87 requests at 4, 83 at 8 and
#: 95 at 16, against 128 one row at a time.
LOOKAHEAD = 8
_CONNECTIONS = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}


class BackendError(RuntimeError):
    """The remote backend misbehaved (bad payload, HTTP error)."""


class BackendUnavailableError(BackendError):
    """The backend stayed unreachable through the whole retry budget."""


class CapabilityMismatchError(BackendError):
    """Server-reported capabilities contradict the configured endpoint."""


@dataclass(frozen=True)
class ServerCapabilities:
    model_name: str
    vocab_size: int
    eos_token: int
    max_context: int
    max_continuation: int


@dataclass(frozen=True)
class BackendEndpoint:
    """Where and how to reach one served model, and how often to retry it."""

    base_url: str
    model_name: str
    timeout_s: float = 30.0
    max_retries: int = 3
    backoff_s: float = 0.2
    vocab_size: int | None = None
    eos_token: int | None = None
    _url: SplitResult = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # check here, so a bad value fails at build time, not at the first retry
        for name in ("timeout_s", "backoff_s"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{name} must be a number, got {value!r}")
            object.__setattr__(self, name, float(value))
        object.__setattr__(self, "max_retries", _integer("max_retries", self.max_retries))
        for name in ("vocab_size", "eos_token"):  # None: whatever the server reports
            if getattr(self, name) is not None:
                _integer(name, getattr(self, name))
        if not self.timeout_s > 0:  # NaN fails each of these three checks
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not self.backoff_s >= 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        url = urlsplit(str(self.base_url))
        if url.scheme not in _CONNECTIONS or not url.hostname or url.port == 0:  # .port raises if bad
            raise ValueError(f"base_url {self.base_url!r} is not an http:// or https:// URL with a host")
        object.__setattr__(self, "_url", url)


def _request(endpoint: BackendEndpoint, local, method: str, path: str, *, params=None, body=None,
             tally=lambda **counts: None):
    """``body`` as JSON on this thread's connection; retries with backoff, ``tally``s each try.
    Returns a 2xx octet stream as ``bytes``, any other 2xx body parsed as JSON."""
    if getattr(local, "conn", None) is None:
        local.conn = _connect(endpoint)
    target = endpoint._url.path.rstrip("/") + path + (f"?{urlencode(params)}" if params else "")
    data = None if body is None else json.dumps(body).encode("utf-8")
    last: Exception | None = None
    for attempt in range(endpoint.max_retries + 1):
        if attempt:
            time.sleep(endpoint.backoff_s * 2 ** (attempt - 1))
        start = time.perf_counter()
        try:
            status, kind, reply = _exchange(local.conn, method, target, data)
        except (OSError, http.client.HTTPException) as exc:
            local.conn.close()  # the next try opens a new connection
            last, status, kind, reply = exc, None, "", b""
        tally(requests=1, retries=attempt > 0, request_bytes=len(data or b""),
              response_bytes=len(reply), round_trip_s=time.perf_counter() - start)
        if status is None:
            continue
        if not 200 <= status < 300:
            text = reply.decode("utf-8", "replace")[:200]
            raise BackendError(f"{method} {path} -> HTTP {status}: {text}")
        if kind.partition(";")[0].strip().lower() == OCTET_STREAM:
            return reply
        try:
            return json.loads(reply)
        except ValueError as exc:  # JSONDecodeError, or a body that is not UTF-8
            text = reply.decode("utf-8", "replace")[:200]
            raise BackendError(f"{method} {path} -> body is not JSON: {text!r}") from exc
    url = endpoint.base_url.rstrip("/") + path
    raise BackendUnavailableError(f"{url} unreachable after {endpoint.max_retries + 1} tries: {last}")


def _connect(endpoint: BackendEndpoint) -> http.client.HTTPConnection:
    """A new, not yet connected, connection to ``endpoint``."""
    return _CONNECTIONS[endpoint._url.scheme](endpoint._url.netloc, timeout=endpoint.timeout_s)


def _exchange(conn: http.client.HTTPConnection, method: str, target: str, data: bytes | None):
    """``(status, content type, body)`` of one request, sent once more, at once, if a kept-alive connection fails."""
    reused = conn.sock is not None
    try:
        conn.request(method, target, body=data, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
    except ConnectionError:  # reset, broken pipe, or closed before the status line
        if not reused:  # the server may close an idle kept-alive connection
            raise
        conn.close()
        return _exchange(conn, method, target, data)  # on a new socket: never again
    return resp.status, resp.getheader("Content-Type", ""), resp.read()


def handshake(endpoint: BackendEndpoint) -> ServerCapabilities:
    """Fetch server capabilities and check them against the configuration."""
    local = threading.local()
    try:
        payload = _request(endpoint, local, "GET", "/v1/capabilities", params={"model": endpoint.model_name})
    finally:
        local.conn.close()
    if isinstance(payload, dict) and "max_continuation" not in payload:
        raise CapabilityMismatchError(
            f"server advertises no max_continuation, so it does not speak wire protocol v4: {payload!r}"
        )
    try:  # JSON integers only: a float, a bool or a numeric string is refused, not rounded
        caps = ServerCapabilities(str(payload["model"]), *(
            _integer(key, payload[key]) for key in ("vocab_size", "eos_token", "max_context", "max_continuation")
        ))
    except (KeyError, TypeError) as exc:
        raise BackendError(f"malformed capabilities payload: {payload!r}") from exc
    if caps.max_continuation < 0:
        raise BackendError(f"malformed capabilities payload: {payload!r}")
    if endpoint.vocab_size is not None and caps.vocab_size != endpoint.vocab_size:
        raise CapabilityMismatchError(
            f"configured vocab_size {endpoint.vocab_size}, server reports {caps.vocab_size}"
        )
    if endpoint.eos_token is not None and caps.eos_token != endpoint.eos_token:
        raise CapabilityMismatchError(
            f"configured eos_token {endpoint.eos_token}, server reports {caps.eos_token}"
        )
    return caps


def distribution_from_payload(payload: bytes | memoryview, vocab_size: int) -> Distribution:
    """One raw row -> its distribution: exactly ``8·V`` bytes of little-endian float64
    probabilities, taken verbatim as a view, not a copy."""
    if len(payload) != 8 * vocab_size:
        raise BackendError(f"raw body holds {len(payload)} bytes, expected 8 x vocab size {vocab_size}")
    try:
        return Distribution(np.frombuffer(payload, dtype="<f8"))
    except ValueError as exc:
        raise BackendError(f"non-normalizable probs payload: {exc}") from exc


def distributions_from_payload(payload: dict | bytes, rows: int, vocab_size: int) -> list[Distribution]:
    """A reply -> its ``rows`` distributions. Only a raw body of exactly ``rows·8·V`` bytes is
    one; each row, a view of the body, goes through :func:`distribution_from_payload`."""
    if not isinstance(payload, bytes):
        raise BackendError(f"reply is not a raw body but {type(payload).__name__}")
    if len(payload) != 8 * rows * vocab_size:
        raise BackendError(
            f"raw body holds {len(payload)} bytes, expected {rows} rows x 8 x vocab size {vocab_size}"
        )
    width, body = 8 * vocab_size, memoryview(payload)
    return [distribution_from_payload(body[i * width : (i + 1) * width], vocab_size) for i in range(rows)]


class RemoteModel(LanguageModel):
    """LanguageModel backed by the wire protocol above.

    Thread-safe; the caller's worker count bounds the requests in flight,
    each thread on its own connection, and :meth:`close` closes them all.
    It keeps no rows: every call asks the server, which may cache a repeated
    prompt itself. ``stats`` counts HTTP tries, the rows their replies held,
    retries, body bytes (raw ones: ``8·V`` a row) and seconds in requests.
    """

    def __init__(self, endpoint: BackendEndpoint) -> None:
        self.endpoint = endpoint
        caps = handshake(endpoint)
        self.capabilities = caps
        self.vocab_size = caps.vocab_size
        self.eos_token = caps.eos_token
        self.lookahead = min(LOOKAHEAD, caps.max_continuation + 1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._opened: list[http.client.HTTPConnection] = []  # every thread's, for close()
        self.stats = Counter(requests=0, rows=0, retries=0, request_bytes=0, response_bytes=0, round_trip_s=0.0)

    def next_distribution(self, context: Sequence[int]) -> Distribution:
        return self.next_distributions(context, ())[0]

    def next_distributions(self, context: Sequence[int], continuation: Sequence[int]) -> list[Distribution]:
        """One ``/v1/distributions`` request for all the rows; row by row when the continuation
        is longer than the server takes."""
        if len(continuation) > self.capabilities.max_continuation:
            return super().next_distributions(context, continuation)
        length = len(context) + len(continuation)
        if length > self.capabilities.max_context:
            raise BackendError(f"context length {length} exceeds server max {self.capabilities.max_context}")
        body = {
            "model": self.endpoint.model_name,
            "context": list(context),
            "continuation": list(continuation),
            "encoding": F64_LE,
        }
        rows = distributions_from_payload(self._post(body), len(continuation) + 1, self.vocab_size)
        self._tally(rows=len(rows))
        return rows

    def _post(self, body: dict) -> dict | bytes:
        if getattr(self._local, "conn", None) is None:  # this thread's first request
            self._local.conn = _connect(self.endpoint)
            with self._lock:
                self._opened.append(self._local.conn)
        return _request(self.endpoint, self._local, "POST", "/v1/distributions", body=body, tally=self._tally)

    def _tally(self, **counts) -> None:
        with self._lock:
            self.stats.update(counts)

    def close(self) -> None:
        """Close every thread's connection; a thread's next request reconnects it."""
        with self._lock:
            for conn in self._opened:
                conn.close()
