"""Wire protocol client, stub server, and backend equivalence."""

from __future__ import annotations

import http.client
import json
import math
import socket
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlparse

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rsdkit.config import build_model
from rsdkit.decoding import GenerationConfig, decode
from rsdkit.models import Distribution, TableModel
from rsdkit.remote import (
    BackendEndpoint,
    BackendError,
    BackendUnavailableError,
    CapabilityMismatchError,
    LOOKAHEAD,
    RemoteModel,
    _request,
    distribution_from_payload,
    distributions_from_payload,
    handshake,
)
from rsdkit.stub_server import MAX_CONTINUATION, POLL_INTERVAL_S, StubServer, _full_payload, _make_handler

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "remote"


def fixture_model():
    return build_model(json.loads((FIXTURES / "fixture_model.json").read_text()), "fixture")


@pytest.fixture()
def stub():
    model = fixture_model()
    with StubServer({"fixture-table": model}) as server:
        yield server, model


@pytest.fixture()
def remote_model():
    """Build ``RemoteModel``s that are closed when the test ends, so none
    leaves a socket open."""
    built = []

    def build(*args, **kwargs) -> RemoteModel:
        built.append(RemoteModel(*args, **kwargs))
        return built[-1]

    yield build
    for model in built:
        model.close()


def endpoint(server: StubServer, **kwargs) -> BackendEndpoint:
    base = dict(base_url=server.base_url, model_name="fixture-table")
    base.update(kwargs)
    return BackendEndpoint(**base)


def f64le(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


_DIRECT = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def exchange(url: str, payload=None) -> tuple[int, str, bytes]:
    """``(status, content type, body)`` of a GET, or of a POST of ``payload`` as JSON."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json"})
    try:
        with _DIRECT.open(request, timeout=5) as resp:
            return resp.status, resp.headers["Content-Type"], resp.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.headers["Content-Type"], exc.read()


def fetch(url: str, payload=None) -> tuple[int, str]:
    """``(status, body text)`` of a GET, or of a POST of ``payload`` as JSON."""
    status, _, body = exchange(url, payload)
    return status, body.decode("utf-8")


def record_requests(monkeypatch, method: str) -> list:
    """The body of every ``method`` request sent through ``http.client`` from now on."""
    sent = []
    original = http.client.HTTPConnection.request

    def request(self, verb, url, body=None, headers={}, **kwargs):
        if verb == method:
            sent.append(body)
        return original(self, verb, url, body, headers, **kwargs)

    monkeypatch.setattr(http.client.HTTPConnection, "request", request)
    return sent


def record_targets(monkeypatch) -> list:
    """The ``(method, target)`` of every request sent through ``http.client`` from now on."""
    sent = []
    original = http.client.HTTPConnection.request

    def request(self, verb, url, *args, **kwargs):
        sent.append((verb, url))
        return original(self, verb, url, *args, **kwargs)

    monkeypatch.setattr(http.client.HTTPConnection, "request", request)
    return sent


def record_connects(monkeypatch) -> list:
    """``(thread id, connection)`` of every socket ``http.client`` opens from now on."""
    opened = []
    original = http.client.HTTPConnection.connect

    def connect(self):
        opened.append((threading.get_ident(), self))
        return original(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", connect)
    return opened


CAPS = {"model": "m", "vocab_size": 4, "eos_token": 3, "max_context": 64, "max_continuation": 8}


def backend(content_type: str, body: bytes, **advertised):
    """A handler for a V=4 model that answers every ``POST`` with ``body``, whatever was asked;
    its capabilities are :data:`CAPS` updated by ``advertised``."""

    class Backend(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):
            pass

        def _answer(self, kind: str, data: bytes) -> None:
            self.send_response(200)
            self.send_header("Content-Type", kind)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):  # noqa: N802
            self._answer("application/json", json.dumps({**CAPS, **advertised}).encode())

        def do_POST(self):  # noqa: N802
            self.rfile.read(int(self.headers.get("Content-Length", "0")))
            self._answer(content_type, body)

    return Backend


@contextmanager
def serving(handler):
    """Serve ``handler`` on a free local port; yields the base URL."""
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": POLL_INTERVAL_S}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestHandshake:
    def test_reports_served_model_shape(self, stub):
        server, model = stub
        caps = handshake(endpoint(server))
        assert caps.vocab_size == model.vocab_size == 4
        assert caps.eos_token == model.eos_token == 3
        assert caps.max_context == 8192

    def test_configured_mismatch_is_an_error(self, stub):
        server, _ = stub
        with pytest.raises(CapabilityMismatchError, match="vocab_size"):
            handshake(endpoint(server, vocab_size=5))
        with pytest.raises(CapabilityMismatchError, match="eos_token"):
            handshake(endpoint(server, eos_token=0))

    def test_matching_configuration_passes(self, stub):
        server, _ = stub
        handshake(endpoint(server, vocab_size=4, eos_token=3))

    def test_unknown_model_is_backend_error(self, stub):
        server, _ = stub
        with pytest.raises(BackendError, match="404"):
            handshake(endpoint(server, model_name="nope"))

    def test_vocab_eight_stub_yields_vocab_eight_handle(self, remote_model):
        model = TableModel({}, [0.125] * 8, eos_token=7)
        with StubServer({"wide": model}) as server:
            remote = remote_model(BackendEndpoint(base_url=server.base_url, model_name="wide"))
            assert remote.vocab_size == 8
            assert remote.eos_token == 7

    @pytest.mark.parametrize("key", ["timeout_s", "max_retries", "backoff_s"])
    def test_non_numeric_retry_setting_fails_at_construction(self, key):
        # not at the first retry, in the middle of a run
        with pytest.raises(TypeError):
            BackendEndpoint(base_url="http://127.0.0.1:9", model_name="x", **{key: "fast"})

    def test_server_older_than_v4_fails_the_handshake(self, html_server):
        ep = BackendEndpoint(base_url=html_server(capabilities=True, v4=False), model_name="m")
        with pytest.raises(CapabilityMismatchError, match="advertises no max_continuation"):
            handshake(ep)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("vocab_size", 4.9),
            ("vocab_size", 4.0),
            ("vocab_size", "4"),
            ("eos_token", "3"),
            ("eos_token", True),
            ("max_context", 64.5),
            ("max_context", None),
        ],
    )
    def test_capability_that_is_not_a_json_integer_is_refused(self, key, value):
        # int() would round 4.9 to 4 and read true as 1
        with serving(backend("application/octet-stream", b"", **{key: value})) as base_url:
            with pytest.raises(BackendError, match="malformed capabilities payload"):
                handshake(BackendEndpoint(base_url=base_url, model_name="m"))

    def test_unreachable_server_retries_then_fails(self):
        dead = BackendEndpoint(
            base_url="http://127.0.0.1:9",  # discard port, nothing listens
            model_name="x",
            timeout_s=0.2,
            max_retries=2,
            backoff_s=0.01,
        )
        with pytest.raises(BackendUnavailableError, match="after 3 tries"):
            handshake(dead)


class TestNonJsonBody:
    def test_handshake_refuses_a_non_json_body(self, html_server):
        ep = BackendEndpoint(base_url=html_server(capabilities=False), model_name="m")
        with pytest.raises(BackendError, match="GET /v1/capabilities -> body is not JSON"):
            handshake(ep)

    def test_next_distribution_refuses_a_non_json_body(self, html_server, remote_model):
        ep = BackendEndpoint(base_url=html_server(capabilities=True), model_name="m")
        remote = remote_model(ep)
        with pytest.raises(BackendError, match="POST /v1/distributions -> body is not JSON"):
            remote.next_distribution([0])


class TestPayloadConversion:
    def test_unnormalizable_probs_payload_rejected(self):
        with pytest.raises(BackendError, match="non-normalizable"):
            distribution_from_payload(f64le([0.9, 0.4]), 2)

    @pytest.mark.parametrize(
        "body, match",
        [
            (f64le([0.5, 0.5]), "16 bytes"),  # 2 floats for V=3
            (f64le([0.25, 0.25, 0.25, 0.25]), "32 bytes"),  # 4 floats for V=3
            (bytes(23), "23 bytes"),  # not whole float64s
            (b"", "0 bytes"),
            (f64le([math.nan, 0.5, 0.5]), "finite"),
            (f64le([math.inf, 0.5, 0.5]), "finite"),
            (f64le([-math.inf, 0.5, 0.5]), "non-negative"),
            (f64le([-0.5, 0.75, 0.75]), "non-negative"),
            (f64le([0.0, 0.0, 0.0]), "sums to 0.0"),
        ],
        ids=["2-floats", "4-floats", "23-bytes", "empty", "nan", "inf", "-inf", "negative", "zero-sum"],
    )
    def test_malformed_raw_body_rejected(self, body, match):
        with pytest.raises(BackendError, match=match):
            distribution_from_payload(body, 3)

    @given(
        body=st.one_of(
            st.binary(max_size=168),
            arrays("<f8", st.integers(0, 20)).map(np.ndarray.tobytes),  # NaN and infinities included
            arrays("<f8", st.integers(2, 20), elements=st.floats(0.0, 1.0))
            .filter(lambda w: w.sum() > 0.0)
            .map(lambda w: (w / w.sum()).tobytes()),
        ),
        offset=st.sampled_from([0, 0, -1, 1]),
    )
    @example(body=f64le([math.nan, 0.5, 0.5]), offset=0)
    @example(body=f64le([math.inf, 0.0]), offset=0)
    @example(body=f64le([-math.inf, 1.0]), offset=0)
    @example(body=f64le([-0.5, 1.5]), offset=0)
    @example(body=f64le([0.0, 0.0]), offset=0)
    @example(body=bytes(23), offset=0)
    def test_raw_body_is_taken_verbatim_or_refused(self, body, offset):
        """Any body for V = len(body) // 8 + offset decodes bit for bit or is a BackendError."""
        try:
            dist = distribution_from_payload(body, len(body) // 8 + offset)
        except BackendError:
            return
        assert dist.probs.tobytes() == body

    def test_non_object_payload_rejected(self):
        with pytest.raises(BackendError, match="reply is not a raw body but list"):
            distributions_from_payload([0.5, 0.5], 1, 2)

    @given(st.data())
    def test_binary_round_trip_is_bit_exact(self, data):
        weights = data.draw(arrays(np.float64, st.integers(2, 64), elements=st.floats(0.0, 1.0)))
        assume(weights.sum() > 0.0)
        # zeros and subnormals as explicit entries; they move the sum by < 1e-300
        tiny = data.draw(st.lists(st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308])))
        dist = Distribution(np.concatenate([weights / weights.sum(), tiny]))
        decoded = distribution_from_payload(_full_payload(dist), dist.vocab_size).probs
        assert decoded.tobytes() == dist.probs.tobytes()


class TestRemoteModel:
    def test_distributions_match_wrapped_table_exactly(self, stub, remote_model):
        server, model = stub
        remote = remote_model(endpoint(server))
        for ctx in ([], [0], [0, 1], [3, 2, 1]):
            np.testing.assert_array_equal(
                remote.next_distribution(ctx).probs, model.next_distribution(ctx).probs
            )

    def test_context_beyond_server_max_rejected(self, stub, remote_model):
        server, _ = stub
        remote = remote_model(endpoint(server))
        remote.capabilities = remote.capabilities.__class__(
            model_name="fixture-table", vocab_size=4, eos_token=3, max_context=2, max_continuation=8
        )
        with pytest.raises(BackendError, match="exceeds server max"):
            remote.next_distribution([0, 1, 2])

    def test_a_context_asked_again_is_asked_of_the_server_again(self, stub, monkeypatch, remote_model):
        server, model = stub
        posts = record_requests(monkeypatch, "POST")
        remote = remote_model(endpoint(server))
        rows = [remote.next_distribution([0, 1]) for _ in range(3)]
        assert len(posts) == 3
        assert len({body for body in posts}) == 1
        expected = model.next_distribution([0, 1]).probs.tobytes()
        assert [row.probs.tobytes() for row in rows] == [expected] * 3
        assert (remote.stats["requests"], remote.stats["rows"]) == (3, 3)

    def test_requests_the_binary_encoding(self, stub, monkeypatch, remote_model):
        # one row is the recorded block request with an empty continuation
        server, _ = stub
        remote = remote_model(endpoint(server))
        sent, posts = record_targets(monkeypatch), record_requests(monkeypatch, "POST")
        remote.next_distribution([0, 1])
        bodies = [json.loads(body) for body in posts]
        assert bodies == [json.loads((FIXTURES / "distribution_request_f64le.json").read_text())]
        assert sent == [("POST", "/v1/distributions")]

    def test_raw_body_of_the_wrong_length_is_a_backend_error(self, remote_model):
        with serving(backend("application/octet-stream", f64le([0.5, 0.5]))) as base_url:
            remote = remote_model(BackendEndpoint(base_url=base_url, model_name="m"))
            with pytest.raises(BackendError, match="raw body holds 16 bytes, expected 1 rows x 8 x vocab size 4"):
                remote.next_distribution([0])

    def test_small_responses_do_not_wait_for_delayed_acks(self, remote_model):
        # the stub writes headers and body separately; with Nagle on, each
        # small body waits ~40 ms for the client's delayed ACK
        model = TableModel({}, [0.25, 0.25, 0.25, 0.25], eos_token=3)
        with StubServer({"v4": model}) as server:
            remote = remote_model(BackendEndpoint(base_url=server.base_url, model_name="v4"))
            start = time.perf_counter()
            for i in range(40):
                remote.next_distribution([i % 4] * (i + 1))
            elapsed = time.perf_counter() - start
        assert elapsed < 0.5


class TestBlockRequests:
    def test_stub_advertises_the_block_endpoint(self, stub, remote_model):
        server, _ = stub
        remote = remote_model(endpoint(server))
        assert remote.capabilities.max_continuation == MAX_CONTINUATION
        assert remote.lookahead == LOOKAHEAD == 8

    def test_lookahead_never_exceeds_what_the_server_takes(self, remote_model):
        for advertised, lookahead in ((0, 1), (3, 4), (100, LOOKAHEAD)):
            with serving(backend("application/octet-stream", b"", max_continuation=advertised)) as base_url:
                assert remote_model(BackendEndpoint(base_url=base_url, model_name="m")).lookahead == lookahead

    def test_rows_match_the_wrapped_table_and_come_in_one_request(self, stub, monkeypatch, remote_model):
        server, model = stub
        remote = remote_model(endpoint(server))
        sent = record_targets(monkeypatch)
        rows = remote.next_distributions([3, 0], [1, 2, 1, 0])
        expected = model.next_distributions([3, 0], [1, 2, 1, 0])
        assert [r.probs.tobytes() for r in rows] == [r.probs.tobytes() for r in expected]
        assert sent == [("POST", "/v1/distributions")]
        assert (remote.stats["requests"], remote.stats["rows"]) == (1, 5)
        assert remote.stats["response_bytes"] == 5 * 8 * model.vocab_size

    def test_rows_are_views_of_one_reply(self, stub, remote_model):
        server, _ = stub
        rows = remote_model(endpoint(server)).next_distributions([0], [1, 2])
        starts = [row.probs.__array_interface__["data"][0] for row in rows]
        assert not any(row.probs.flags.owndata for row in rows)
        assert [b - a for a, b in zip(starts, starts[1:])] == [8 * 4, 8 * 4]  # back to back in one buffer

    def test_rows_of_an_earlier_reply_are_asked_for_again(self, stub, monkeypatch, remote_model):
        server, model = stub
        remote = remote_model(endpoint(server))
        remote.next_distributions([0], [1, 2])
        posts = record_requests(monkeypatch, "POST")
        rows = [remote.next_distribution(ctx) for ctx in ([0], [0, 1], [0, 1, 2])]
        rows += remote.next_distributions([0, 1], [2])
        assert [json.loads(body) for body in posts] == [
            {"model": "fixture-table", "context": ctx, "continuation": more, "encoding": "f64-le"}
            for ctx, more in (([0], []), ([0, 1], []), ([0, 1, 2], []), ([0, 1], [2]))
        ]
        expected = [model.next_distribution(ctx) for ctx in ([0], [0, 1], [0, 1, 2], [0, 1], [0, 1, 2])]
        assert [r.probs.tobytes() for r in rows] == [r.probs.tobytes() for r in expected]
        assert (remote.stats["requests"], remote.stats["rows"]) == (1 + 4, 3 + 5)

    def test_a_block_asks_for_every_row_it_returns(self, stub, monkeypatch, remote_model):
        server, model = stub
        remote = remote_model(endpoint(server))
        remote.next_distribution([0])
        remote.next_distribution([0, 1])
        posts = record_requests(monkeypatch, "POST")
        rows = remote.next_distributions([0], [1, 2, 3])
        assert [json.loads(body) for body in posts] == [
            {"model": "fixture-table", "context": [0], "continuation": [1, 2, 3], "encoding": "f64-le"}
        ]
        expected = model.next_distributions([0], [1, 2, 3])
        assert [r.probs.tobytes() for r in rows] == [r.probs.tobytes() for r in expected]

    def test_block_beyond_server_max_context_rejected_before_sending(self, stub, monkeypatch, remote_model):
        server, _ = stub
        remote = remote_model(endpoint(server))
        remote.capabilities = remote.capabilities.__class__(
            model_name="fixture-table", vocab_size=4, eos_token=3, max_context=3, max_continuation=8
        )
        posts = record_requests(monkeypatch, "POST")
        with pytest.raises(BackendError, match="context length 4 exceeds server max 3"):
            remote.next_distributions([0, 1], [2, 0])
        assert posts == []

    def test_continuation_longer_than_the_server_takes_goes_row_by_row(self, stub, monkeypatch, remote_model):
        server, model = stub
        remote = remote_model(endpoint(server))
        sent, posts = record_targets(monkeypatch), record_requests(monkeypatch, "POST")
        continuation = [1, 2] * MAX_CONTINUATION
        rows = remote.next_distributions([0], continuation)
        assert len(rows) == len(continuation) + 1
        assert {target for _, target in sent} == {"/v1/distributions"}
        assert all(json.loads(body)["continuation"] == [] for body in posts)
        assert rows[-1].probs.tobytes() == model.next_distribution([0, *continuation]).probs.tobytes()

    @pytest.mark.parametrize("rows", [2, 4], ids=["short", "long"])
    def test_raw_body_of_the_wrong_length_is_a_backend_error(self, rows, remote_model):
        body = f64le([0.25] * 4 * rows)
        with serving(backend("application/octet-stream", body, max_continuation=8)) as base_url:
            remote = remote_model(BackendEndpoint(base_url=base_url, model_name="m"))
            with pytest.raises(BackendError, match=f"raw body holds {32 * rows} bytes, expected 3 rows x 8 x vocab size 4"):
                remote.next_distributions([0], [1, 2])

    @pytest.mark.parametrize("continuation", [[], [1]], ids=["one-row", "block"])
    def test_json_reply_to_a_block_is_a_backend_error(self, remote_model, continuation):
        reply = json.dumps({"probs": [0.25] * 4}).encode()
        with serving(backend("application/json", reply)) as base_url:
            remote = remote_model(BackendEndpoint(base_url=base_url, model_name="m"))
            with pytest.raises(BackendError, match="reply is not a raw body but dict"):
                remote.next_distributions([0], continuation)

    def test_each_row_is_checked(self):
        body = f64le([0.25] * 4 + [0.5, 0.5, 0.5, 0.0])
        with pytest.raises(BackendError, match="non-normalizable"):
            distributions_from_payload(body, 2, 4)

    @pytest.mark.parametrize("advertised", [-1, "many", [8], True, 8.0, None])
    def test_malformed_max_continuation_is_a_backend_error(self, advertised):
        with serving(backend("application/octet-stream", b"", max_continuation=advertised)) as base_url:
            with pytest.raises(BackendError, match="malformed capabilities payload"):
                handshake(BackendEndpoint(base_url=base_url, model_name="m"))

class TestConnections:
    def test_each_worker_thread_keeps_one_connection(self, stub, monkeypatch, remote_model):
        server, model = stub
        remote = remote_model(endpoint(server))
        opened = record_connects(monkeypatch)
        barrier = threading.Barrier(4, timeout=5)

        def work(worker):
            barrier.wait()  # all four busy at once, so the pool starts four threads
            for i in range(4):
                ctx = [worker, i]
                np.testing.assert_array_equal(
                    remote.next_distribution(ctx).probs, model.next_distribution(ctx).probs
                )
            return threading.get_ident()

        with ThreadPoolExecutor(max_workers=4) as pool:
            threads = list(pool.map(work, range(4)))
        assert len(set(threads)) == 4
        assert sorted(thread for thread, _ in opened) == sorted(threads)
        assert len({id(conn) for _, conn in opened}) == 4
        assert remote.stats["requests"] == 16

    def test_server_closing_kept_alive_connections_costs_no_retry(self, monkeypatch, remote_model):
        model = fixture_model()

        class Hangup(_make_handler({"m": model}, 64)):
            def handle_one_request(self):
                super().handle_one_request()
                self.close_connection = True  # hang up, without a Connection: close header

        sleeps = []
        with serving(Hangup) as base_url:
            remote = remote_model(BackendEndpoint(base_url=base_url, model_name="m", backoff_s=5.0))
            opened = record_connects(monkeypatch)
            monkeypatch.setattr(time, "sleep", sleeps.append)
            for i in range(20):
                ctx = [i % 4] * (i + 1)
                np.testing.assert_array_equal(
                    remote.next_distribution(ctx).probs, model.next_distribution(ctx).probs
                )
        assert len(opened) == 20  # each request after the first found its connection closed
        assert sleeps == []
        assert remote.stats["retries"] == 0
        assert remote.stats["requests"] == 20

    def test_redirect_is_a_backend_error_naming_the_status(self):
        class Redirect(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):
                pass

            def do_GET(self):  # noqa: N802
                self.send_response(302)
                self.send_header("Location", "/v1/elsewhere")
                self.send_header("Content-Length", "0")
                self.end_headers()

        with serving(Redirect) as base_url:
            with pytest.raises(BackendError, match="GET /v1/capabilities -> HTTP 302"):
                handshake(BackendEndpoint(base_url=base_url, model_name="m"))


class TestStats:
    def test_counts_match_what_the_stub_served(self, remote_model):
        model = fixture_model()
        served = []
        inner = model.next_distribution

        def counting(ctx):
            served.append(list(ctx))
            return inner(ctx)

        model.next_distribution = counting
        # each of 12 contexts twice in a row, two rounds: every one is served every time
        contexts = [[k % 3, k % 4] for _ in range(2) for k in range(12) for _ in range(2)]
        with StubServer({"fixture-table": model}) as server:
            remote = remote_model(endpoint(server))
            for ctx in contexts:
                remote.next_distribution(ctx)
        stats = remote.stats
        assert served == contexts
        assert (stats["requests"], stats["rows"], stats["retries"]) == (len(contexts), len(contexts), 0)
        assert "cache_hits" not in stats
        assert stats["response_bytes"] == 8 * model.vocab_size * len(served)  # raw bodies, nothing else
        sent = [{"model": "fixture-table", "context": ctx, "continuation": [], "encoding": "f64-le"} for ctx in served]
        assert stats["request_bytes"] == sum(len(json.dumps(b).encode()) for b in sent)
        assert stats["round_trip_s"] > 0.0

    def test_failed_tries_are_counted_as_retries(self):
        dead = BackendEndpoint(
            base_url="http://127.0.0.1:9", model_name="x", timeout_s=0.2, max_retries=2, backoff_s=0.01
        )
        counts = Counter()
        with pytest.raises(BackendUnavailableError, match="after 3 tries"):
            _request(dead, threading.local(), "POST", "/v1/distributions", body={}, tally=counts.update)
        assert counts["requests"] == 3
        assert counts["retries"] == 2
        assert counts["response_bytes"] == 0


class TestRecordReplay:
    def test_replayed_binary_fixture_gives_identical_distribution(self):
        stored = (FIXTURES / "distribution_response_f64le.bin").read_bytes()
        replayed = distribution_from_payload(stored, 4)
        expected = fixture_model().next_distribution([0, 1])
        assert replayed.probs.tobytes() == expected.probs.tobytes()

    def test_live_stub_still_matches_recorded_binary_response(self, stub):
        server, _ = stub
        request = json.loads((FIXTURES / "distribution_request_f64le.json").read_text())
        status, content_type, body = exchange(f"{server.base_url}/v1/distributions", request)
        assert status == 200
        assert content_type == "application/octet-stream"  # what a .bin record holds
        assert body == (FIXTURES / "distribution_response_f64le.bin").read_bytes()

    def test_replayed_block_fixture_gives_identical_distributions(self):
        request = json.loads((FIXTURES / "distributions_request_f64le.json").read_text())
        stored = (FIXTURES / "distributions_response_f64le.bin").read_bytes()
        replayed = distributions_from_payload(stored, len(request["continuation"]) + 1, 4)
        expected = fixture_model().next_distributions(request["context"], request["continuation"])
        assert [r.probs.tobytes() for r in replayed] == [r.probs.tobytes() for r in expected]

    def test_client_sends_the_recorded_block_request(self, stub, monkeypatch, remote_model):
        server, _ = stub
        request = json.loads((FIXTURES / "distributions_request_f64le.json").read_text())
        posts = record_requests(monkeypatch, "POST")
        remote_model(endpoint(server)).next_distributions(request["context"], request["continuation"])
        assert [json.loads(body) for body in posts] == [request]

    def test_live_stub_still_matches_recorded_block_response(self, stub):
        server, _ = stub
        request = json.loads((FIXTURES / "distributions_request_f64le.json").read_text())
        status, content_type, body = exchange(f"{server.base_url}/v1/distributions", request)
        assert status == 200
        assert content_type == "application/octet-stream"
        assert body == (FIXTURES / "distributions_response_f64le.bin").read_bytes()

    def test_capabilities_fixture_matches_live(self, stub):
        server, _ = stub
        stored = json.loads((FIXTURES / "capabilities_response.json").read_text())
        status, text = fetch(f"{server.base_url}/v1/capabilities?model=fixture-table")
        assert status == 200
        assert json.loads(text) == stored


class TestStubValidation:
    @pytest.mark.parametrize(
        "extra",
        [{"want": "full"}, {"want": {"top_k": 2, "score": [3]}}, {"temperature": 0.7}],
        ids=["want-full", "want-top-k", "temperature"],
    )
    def test_unknown_body_key_400(self, stub, extra):
        # the wire has one shape: the full rows; a client that asks for more is refused
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distributions",
            {"model": "fixture-table", "context": [0], "continuation": [], "encoding": "f64-le", **extra},
        )
        assert status == 400
        assert json.loads(text)["error"] == f"malformed request: unknown keys {sorted(extra)}"

    def test_missing_encoding_is_unsupported(self, stub):
        # the stub answers only the exact binary encoding
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distributions", {"model": "fixture-table", "context": [0], "continuation": []}
        )
        assert status == 400
        assert json.loads(text)["error"] == "unsupported encoding None"

    def test_unknown_encoding_is_unsupported(self, stub):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distributions",
            {"model": "fixture-table", "context": [0], "continuation": [], "encoding": "f32"},
        )
        assert status == 400
        assert "unsupported encoding" in json.loads(text)["error"]

    def test_retired_base64_encoding_is_unsupported(self, stub):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distributions",
            {"model": "fixture-table", "context": [0], "continuation": [], "encoding": "f64-b64"},
        )
        assert status == 400
        assert json.loads(text)["error"] == "unsupported encoding 'f64-b64'"

    def test_unknown_model_404(self, stub):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distributions",
            {"model": "ghost", "context": [], "continuation": [], "encoding": "f64-le"},
        )
        assert status == 404
        assert json.loads(text)["error"] == "unknown model 'ghost'"

    def test_malformed_body_400(self, stub):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distributions", {"model": "fixture-table", "encoding": "f64-le"}
        )
        assert status == 400
        assert json.loads(text)["error"] == "malformed request: 'context'"

    @pytest.mark.parametrize(
        "context",
        ["01", [1.7], [True, 0], [1.0], {"0": 1}, None],
        ids=["string", "float", "bool", "integral-float", "object", "null"],
    )
    def test_context_that_is_not_a_list_of_ints_400(self, stub, context):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distributions",
            {"model": "fixture-table", "context": context, "continuation": [], "encoding": "f64-le"},
        )
        assert status == 400
        assert json.loads(text)["error"] == "malformed request: context must be a list of ints"

    def test_model_that_is_not_a_string_400(self, stub):
        # was a TypeError inside the handler: the connection dropped, and the client retried it
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distributions",
            {"model": ["t"], "context": [0], "continuation": [], "encoding": "f64-le"},
        )
        assert status == 400
        assert json.loads(text)["error"] == "malformed request: model must be a string, got list"

    def test_non_object_body_400(self, stub):
        server, _ = stub
        status, text = fetch(f"{server.base_url}/v1/distributions", [0, 1])
        assert status == 400
        assert json.loads(text)["error"].startswith("malformed request: ")

    def test_out_of_vocab_context_400(self, stub):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distributions",
            {"model": "fixture-table", "context": [0, 99], "continuation": [], "encoding": "f64-le"},
        )
        assert status == 400
        assert json.loads(text)["error"] == "context token 99 outside vocabulary of size 4"

    @pytest.mark.parametrize(
        "continuation",
        ["01", [1.7], [True, 0], [1.0], {"0": 1}, None],
        ids=["string", "float", "bool", "integral-float", "object", "null"],
    )
    def test_continuation_that_is_not_a_list_of_ints_400(self, stub, continuation):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distributions",
            {"model": "fixture-table", "context": [0], "continuation": continuation,
             "encoding": "f64-le"},
        )
        assert status == 400
        assert json.loads(text)["error"] == "malformed request: continuation must be a list of ints"

    def test_missing_continuation_400(self, stub):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distributions",
            {"model": "fixture-table", "context": [0], "encoding": "f64-le"},
        )
        assert status == 400
        assert json.loads(text)["error"] == "malformed request: 'continuation'"

    def test_out_of_vocab_continuation_400(self, stub):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distributions",
            {"model": "fixture-table", "context": [0], "continuation": [1, 4],
             "encoding": "f64-le"},
        )
        assert status == 400
        assert json.loads(text)["error"] == "context token 4 outside vocabulary of size 4"

    def test_continuation_past_max_context_400(self):
        with StubServer({"fixture-table": fixture_model()}, max_context=4) as server:
            ok, _, body = exchange(
                f"{server.base_url}/v1/distributions",
                {"model": "fixture-table", "context": [0, 1], "continuation": [2, 0],
                 "encoding": "f64-le"},
            )
            status, text = fetch(
                f"{server.base_url}/v1/distributions",
                {"model": "fixture-table", "context": [0, 1], "continuation": [2, 0, 1],
                 "encoding": "f64-le"},
            )
        assert (ok, len(body)) == (200, 3 * 8 * 4)
        assert status == 400
        assert json.loads(text)["error"] == "context length 5 exceeds max 4"

    def test_continuation_longer_than_advertised_400(self, stub):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distributions",
            {"model": "fixture-table", "context": [0], "continuation": [1] * (MAX_CONTINUATION + 1),
             "encoding": "f64-le"},
        )
        assert status == 400
        assert json.loads(text)["error"] == f"continuation length {MAX_CONTINUATION + 1} exceeds max {MAX_CONTINUATION}"

    def test_unknown_path_404(self, stub):
        server, _ = stub
        status, text = fetch(f"{server.base_url}/v2/whatever")
        assert status == 404
        assert json.loads(text)["error"] == "unknown path /v2/whatever"

    def test_negative_content_length_400_without_reading(self, stub):
        # rfile.read(-1) would wait for the client to hang up
        server, _ = stub
        reply = post_until_closed(server, b"/v1/distributions", b"-1")
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"negative Content-Length" in reply

    def test_unknown_post_path_404_closes_the_connection(self, stub):
        # a kept-alive connection would read the unread body as the next request
        server, _ = stub
        reply = post_until_closed(server, b"/v1/distribution", b"2")
        assert reply.startswith(b"HTTP/1.1 404")
        assert reply.count(b"HTTP/1.1") == 1
        assert b"unknown path /v1/distribution" in reply


def post_until_closed(server: StubServer, path: bytes, length: bytes) -> bytes:
    """All the stub sends back for a POST of ``{}`` to ``path`` declaring ``length``, read until
    the stub closes the connection (a timeout if it never does)."""
    url = urlparse(server.base_url)
    with socket.create_connection((url.hostname, url.port), timeout=1.0) as sock:
        sock.sendall(
            b"POST " + path + b" HTTP/1.1\r\nHost: stub\r\n"
            b"Content-Type: application/json\r\nContent-Length: " + length + b"\r\n\r\n{}"
        )
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return reply


class TestBackendEquivalence:
    def test_decoding_against_stub_matches_in_process(self, stub, remote_model):
        server, table_teacher = stub
        student = TableModel({}, [0.4, 0.1, 0.3, 0.2], eos_token=3)
        remote_teacher = remote_model(endpoint(server))
        for seed in range(10):
            cfg = GenerationConfig(p_th=0.05, max_tokens=8, temperature=0.7, seed=seed)
            local = decode(table_teacher, student, [0], cfg)
            remote = decode(remote_teacher, student, [0], cfg)
            assert local.to_json_line() == remote.to_json_line()


class TestConcurrentRemoteGeneration:
    """The shared client must stay correct under a parallel worker pool:
    serial and 4-worker runs over a remote teacher produce identical bytes."""

    def test_parallel_pipeline_over_the_wire_matches_serial(self, stub, tmp_path, remote_model):
        from rsdkit.pipeline import (
            Problem,
            Verifier,
            export_dataset,
            run_generation,
        )

        server, _ = stub
        remote_teacher = remote_model(endpoint(server))
        student = TableModel({}, [0.4, 0.1, 0.3, 0.2], eos_token=3)

        def generator(prompt, seed):
            cfg = GenerationConfig(
                p_th=0.05, max_tokens=6, temperature=0.7, context_limit=32, seed=seed
            )
            return decode(remote_teacher, student, prompt, cfg)

        problems = [
            Problem(id=f"q{i}", prompt_tokens=(i % 3,), answer="0 0 0") for i in range(12)
        ]
        verifier = Verifier(mode="exact-match", normalization=())
        outputs = {}
        for workers in (1, 4):
            records = run_generation(
                problems,
                generator,
                verifier,
                attempts=2,
                base_seed=5,
                detokenize=lambda ts: " ".join(str(t) for t in ts),
                prefix_length=3,
                workers=workers,
            )
            path = tmp_path / f"w{workers}.jsonl"
            export_dataset(list(records), path)
            outputs[workers] = path.read_bytes()
        assert outputs[1] == outputs[4]
