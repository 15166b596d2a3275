"""HTTP client exposing a log-probability server as a LanguageModel.

Protocol (HTTP/1.1, JSON requests):

* ``GET /v1/capabilities?model=NAME`` returns
  ``{"model": NAME, "vocab_size": V, "eos_token": E, "max_context": C}``,
  plus ``"max_continuation": K`` from a server that serves the block
  endpoint below.
* ``POST /v1/distribution`` with body
  ``{"model": NAME, "context": [int, ...], "want": "full", "encoding": "f64-le"}``
  returns the full distribution; the client dispatches on ``Content-Type``:

  - ``application/octet-stream``: exactly ``8·V`` bytes, the ``V`` exact
    probabilities as little-endian float64, with no JSON and no base64.
    The client asks for this: it is bit-exact and nearly free to encode and
    decode. The bundled stub answers it, and answers any other ``encoding``
    (the retired ``"f64-b64"`` and a missing one included) with HTTP 400.
  - anything else is JSON, so a server that ignores ``encoding`` still
    works: ``{"logprobs": [float; V]}`` holds possibly unnormalized logits,
    which the client softmaxes. Servers that hold exact probabilities may
    add ``"probs": [float; V]``, taken verbatim, which keeps the
    bit-exactness a log/exp round trip cannot.

  A body that is malformed, of the wrong length, or not a finite
  distribution raises :class:`BackendError`.
* ``POST /v1/distributions`` (block verification) with the same body plus
  ``"continuation": [int, ...]`` of at most ``K`` ids returns the
  distributions after ``context`` extended by each prefix of
  ``continuation``, shortest first: exactly ``(k+1)·8·V`` raw bytes for a
  continuation of ``k`` ids, ``k+1`` rows of the ``f64-le`` body above.
  Against a server that advertises it, :attr:`RemoteModel.lookahead` is
  :data:`LOOKAHEAD`, so ``decode`` judges a block of proposals in one
  request; against one that does not, it is 1 and every row is one
  ``/v1/distribution`` request.

Each thread keeps its own ``http.client`` connection alive; a non-2xx status,
a redirect too, raises :class:`BackendError`. Requests are idempotent and never
mutate server state; responses are cached per context with a bounded LRU.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Sequence
from urllib.parse import SplitResult, urlencode, urlsplit

import numpy as np

from .models import Distribution, LanguageModel


#: The encoding the client requests: a raw body of little-endian float64 probs.
F64_LE = "f64-le"
OCTET_STREAM = "application/octet-stream"
#: Steps a remote approver judges per block request. Proposals after a
#: rejection are wasted, so longer blocks stop paying: on the remote-stub-v4k
#: benchmark (accept ratio 0.97) a command made 83 requests at 4, 79 at 8 and
#: 91 at 16, against 120 one row at a time.
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
    max_continuation: int | None = None  # None: no /v1/distributions endpoint


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
        # convert here, so a bad value fails at build time, not at the first retry
        object.__setattr__(self, "timeout_s", float(self.timeout_s))
        object.__setattr__(self, "max_retries", int(self.max_retries))
        object.__setattr__(self, "backoff_s", float(self.backoff_s))
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
    try:
        caps = ServerCapabilities(
            model_name=str(payload["model"]),
            vocab_size=int(payload["vocab_size"]),
            eos_token=int(payload["eos_token"]),
            max_context=int(payload["max_context"]),
            max_continuation=None if payload.get("max_continuation") is None else int(payload["max_continuation"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BackendError(f"malformed capabilities payload: {payload!r}") from exc
    if caps.max_continuation is not None and caps.max_continuation < 0:
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


def distribution_from_payload(payload: dict | bytes, vocab_size: int) -> Distribution:
    """Dense payload -> normalized distribution.

    Takes a raw body (``bytes``, exactly ``8·V`` of little-endian float64
    probabilities) verbatim, as it takes exact ``probs`` from a JSON
    object; otherwise softmaxes ``logprobs`` (which are then allowed to be
    arbitrary logits, already-normalized log-probabilities included, with
    ``-inf`` for zero mass). 32-bit servers are fine: values widen to
    float64 on ingestion.
    """
    if isinstance(payload, bytes):
        if len(payload) != 8 * vocab_size:
            raise BackendError(f"raw body holds {len(payload)} bytes, expected 8 x vocab size {vocab_size}")
        return _exact_distribution(np.frombuffer(payload, dtype="<f8"))
    if not isinstance(payload, dict):
        raise BackendError(f"payload is not a JSON object: {type(payload).__name__}")
    if payload.get("probs") is not None:
        return _exact_distribution(_float_vector(payload, "probs", vocab_size))
    if "logprobs" not in payload:
        raise BackendError(f"payload carries neither probs nor logprobs: {list(payload)}")
    lp = _float_vector(payload, "logprobs", vocab_size)
    if np.isnan(lp).any() or np.isposinf(lp).any():
        raise BackendError("logprobs vector carries NaN or +inf")
    finite = np.isfinite(lp)
    if not finite.any():
        raise BackendError("logprobs vector has no finite entries")
    w = np.zeros(vocab_size, dtype=np.float64)
    shifted = lp[finite] - lp[finite].max()
    w[finite] = np.exp(shifted)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise BackendError("logprobs vector is not normalizable")
    return Distribution(w / total)


def distributions_from_payload(payload: dict | bytes, rows: int, vocab_size: int) -> list[Distribution]:
    """A block reply -> its ``rows`` distributions. Only a raw body of exactly ``rows·8·V`` bytes
    is one; each row is checked like a single reply's and is a view of the body, not a copy."""
    if not isinstance(payload, bytes):
        raise BackendError(f"block reply is not a raw body but {type(payload).__name__}")
    if len(payload) != 8 * rows * vocab_size:
        raise BackendError(
            f"raw body holds {len(payload)} bytes, expected {rows} rows x 8 x vocab size {vocab_size}"
        )
    return [_exact_distribution(row) for row in np.frombuffer(payload, dtype="<f8").reshape(rows, vocab_size)]


def _float_vector(payload: dict, key: str, vocab_size: int) -> np.ndarray:
    try:
        vec = np.asarray(payload[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise BackendError(f"{key} is not a list of numbers: {exc}") from exc
    if vec.shape != (vocab_size,):
        raise BackendError(f"{key} length {vec.shape} != vocab size {vocab_size}")
    return vec


def _exact_distribution(probs: np.ndarray) -> Distribution:
    try:
        return Distribution(probs)
    except ValueError as exc:
        raise BackendError(f"non-normalizable probs payload: {exc}") from exc


class RemoteModel(LanguageModel):
    """LanguageModel backed by the wire protocol above.

    Thread-safe; the caller's worker count bounds the requests in flight,
    each thread on its own connection, and :meth:`close` closes them all.
    The response cache is shared (sound, since responses are pure functions
    of the context) and bounded, one entry per row. ``stats`` counts HTTP
    tries, the rows their replies held, retries, cache hits, body bytes (raw
    ones: ``8·V`` a row) and seconds in requests.
    """

    def __init__(self, endpoint: BackendEndpoint, cache_size: int = 256) -> None:
        self.endpoint = endpoint
        caps = handshake(endpoint)
        self.capabilities = caps
        self.vocab_size = caps.vocab_size
        self.eos_token = caps.eos_token
        if caps.max_continuation is not None:
            self.lookahead = min(LOOKAHEAD, caps.max_continuation + 1)
        self._cache: OrderedDict[tuple[int, ...], Distribution] = OrderedDict()
        self._cache_size = cache_size
        self._lock = threading.Lock()
        self._local = threading.local()
        self._opened: list[http.client.HTTPConnection] = []  # every thread's, for close()
        self.stats = Counter(requests=0, rows=0, retries=0, cache_hits=0, request_bytes=0, response_bytes=0,
                             round_trip_s=0.0)

    def next_distribution(self, context: Sequence[int]) -> Distribution:
        key = tuple(context)
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._cache.move_to_end(key)
                self.stats["cache_hits"] += 1
                return hit
        if len(key) > self.capabilities.max_context:
            raise BackendError(
                f"context length {len(key)} exceeds server max {self.capabilities.max_context}"
            )
        body = {
            "model": self.endpoint.model_name,
            "context": list(key),
            "want": "full",
            "encoding": F64_LE,
        }
        dist = distribution_from_payload(self._post("/v1/distribution", body), self.vocab_size)
        self._keep([key], [dist])
        return dist

    def next_distributions(self, context: Sequence[int], continuation: Sequence[int]) -> list[Distribution]:
        """One ``/v1/distributions`` request for the rows from the first one not cached on, or
        none when all are cached; the per-row path when the server serves no such block."""
        key, more = tuple(context), tuple(continuation)
        if self.capabilities.max_continuation is None or len(more) > self.capabilities.max_continuation:
            return super().next_distributions(key, more)
        keys = [key + more[:i] for i in range(len(more) + 1)]
        with self._lock:
            rows = [self._cache.get(k) for k in keys]
            first = next((i for i, row in enumerate(rows) if row is None), len(rows))
            for k in keys[:first]:
                self._cache.move_to_end(k)
            self.stats["cache_hits"] += first
        if first == len(rows):
            return rows
        if len(keys[-1]) > self.capabilities.max_context:
            raise BackendError(
                f"context length {len(keys[-1])} exceeds server max {self.capabilities.max_context}"
            )
        body = {
            "model": self.endpoint.model_name,
            "context": list(keys[first]),
            "continuation": list(more[first:]),
            "want": "full",
            "encoding": F64_LE,
        }
        fetched = distributions_from_payload(
            self._post("/v1/distributions", body), len(keys) - first, self.vocab_size
        )
        self._keep(keys[first:], fetched)
        return rows[:first] + fetched

    def _post(self, path: str, body: dict) -> dict | bytes:
        if getattr(self._local, "conn", None) is None:  # this thread's first request
            self._local.conn = _connect(self.endpoint)
            with self._lock:
                self._opened.append(self._local.conn)
        return _request(self.endpoint, self._local, "POST", path, body=body, tally=self._tally)

    def _keep(self, keys: list[tuple[int, ...]], rows: list[Distribution]) -> None:
        """Cache each of a reply's rows under its context, evicting the least recently used."""
        with self._lock:
            self.stats["rows"] += len(rows)
            for key, row in zip(keys, rows):
                self._cache[key] = row
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)

    def _tally(self, **counts) -> None:
        with self._lock:
            self.stats.update(counts)

    def close(self) -> None:
        """Close every thread's connection; a thread's next request reconnects it."""
        with self._lock:
            for conn in self._opened:
                conn.close()
