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


def v3_handler(models, max_context: int = 8192):
    """The stub's handler as a server without the block endpoint answers: its capabilities
    advertise no ``max_continuation``, and ``/v1/distributions`` is an unknown path."""

    class V3(_make_handler(models, max_context, True)):
        def _send(self, status, payload):
            if isinstance(payload, dict):
                payload = {k: v for k, v in payload.items() if k != "max_continuation"}
            super()._send(status, payload)

        def do_POST(self):  # noqa: N802
            if self.path == "/v1/distributions":
                self._fail(404, f"unknown path {self.path}")
            else:
                super().do_POST()

    return V3


def record_connects(monkeypatch) -> list:
    """``(thread id, connection)`` of every socket ``http.client`` opens from now on."""
    opened = []
    original = http.client.HTTPConnection.connect

    def connect(self):
        opened.append((threading.get_ident(), self))
        return original(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", connect)
    return opened


def backend(content_type: str, body: bytes, max_continuation: int | None = None):
    """A handler for a V=4 model that answers every ``POST`` with ``body``, whatever was asked,
    and advertises the block endpoint when ``max_continuation`` is given."""

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
            caps = {"model": "m", "vocab_size": 4, "eos_token": 3, "max_context": 64}
            if max_continuation is not None:
                caps["max_continuation"] = max_continuation
            self._answer("application/json", json.dumps(caps).encode())

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
        with pytest.raises(ValueError):
            BackendEndpoint(base_url="http://127.0.0.1:9", model_name="x", **{key: "fast"})

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
        with pytest.raises(BackendError, match="POST /v1/distribution -> body is not JSON"):
            remote.next_distribution([0])


class TestPayloadConversion:
    def test_log_uniform_becomes_uniform(self):
        lp = [math.log(0.25)] * 4
        dist = distribution_from_payload({"logprobs": lp}, 4)
        np.testing.assert_allclose(dist.probs, 0.25, atol=1e-12)

    def test_unnormalized_logits_are_softmaxed(self):
        dist = distribution_from_payload({"logprobs": [1.0, 2.0, 3.0]}, 3)
        assert abs(dist.probs.sum() - 1.0) <= 1e-9
        expected = np.exp([1.0, 2.0, 3.0])
        np.testing.assert_allclose(dist.probs, expected / expected.sum(), rtol=1e-12)

    def test_exact_probs_preferred_over_logprobs(self):
        payload = {"logprobs": [0.0, 0.0], "probs": [0.125, 0.875]}
        dist = distribution_from_payload(payload, 2)
        assert dist.probs.tolist() == [0.125, 0.875]

    def test_minus_infinity_logprobs_are_zero_mass(self):
        dist = distribution_from_payload({"logprobs": [0.0, -math.inf]}, 2)
        assert dist.probs.tolist() == [1.0, 0.0]

    def test_wrong_length_rejected(self):
        with pytest.raises(BackendError, match="length"):
            distribution_from_payload({"logprobs": [0.0, 0.0]}, 3)

    def test_degenerate_payload_rejected(self):
        with pytest.raises(BackendError, match="finite"):
            distribution_from_payload({"logprobs": [-math.inf, -math.inf]}, 2)
        with pytest.raises(BackendError, match="neither"):
            distribution_from_payload({}, 2)

    def test_unnormalizable_probs_payload_rejected(self):
        with pytest.raises(BackendError, match="non-normalizable"):
            distribution_from_payload({"probs": [0.9, 0.4]}, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_probs_rejected_on_both_encodings(self, bad):
        vector = [bad, 0.5, 0.5]
        with pytest.raises(BackendError):
            distribution_from_payload({"probs": vector}, 3)
        with pytest.raises(BackendError):
            distribution_from_payload(f64le(vector), 3)
        # json.loads accepts the non-standard NaN and Infinity literals
        with pytest.raises(BackendError):
            distribution_from_payload(json.loads(json.dumps({"probs": vector})), 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_or_positive_infinite_logprobs_rejected(self, bad):
        with pytest.raises(BackendError, match="NaN or \\+inf"):
            distribution_from_payload({"logprobs": [0.0, bad, 0.0]}, 3)

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

    @pytest.mark.parametrize(
        "payload",
        [{"probs": ["a", "b"]}, {"probs": {"x": 1}}, {"logprobs": [[1.0], [2.0, 3.0]]}, {"logprobs": "ab"}],
    )
    def test_non_numeric_vector_rejected(self, payload):
        with pytest.raises(BackendError, match="not a list of numbers"):
            distribution_from_payload(payload, 2)

    def test_non_object_payload_rejected(self):
        with pytest.raises(BackendError, match="not a JSON object"):
            distribution_from_payload([0.5, 0.5], 2)

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
            model_name="fixture-table", vocab_size=4, eos_token=3, max_context=2
        )
        with pytest.raises(BackendError, match="exceeds server max"):
            remote.next_distribution([0, 1, 2])

    def test_responses_cached_per_context(self, stub, monkeypatch, remote_model):
        server, _ = stub
        posts = record_requests(monkeypatch, "POST")
        remote = remote_model(endpoint(server))
        remote.next_distribution([0, 1])
        remote.next_distribution([0, 1])
        remote.next_distribution([0, 1])
        assert len(posts) == 1

    def test_requests_the_binary_encoding(self, stub, monkeypatch, remote_model):
        server, _ = stub
        posts = record_requests(monkeypatch, "POST")
        remote_model(endpoint(server)).next_distribution([0, 1])
        bodies = [json.loads(body) for body in posts]
        assert bodies == [json.loads((FIXTURES / "distribution_request_f64le.json").read_text())]

    def test_raw_body_of_the_wrong_length_is_a_backend_error(self, remote_model):
        with serving(backend("application/octet-stream", f64le([0.5, 0.5]))) as base_url:
            remote = remote_model(BackendEndpoint(base_url=base_url, model_name="m"))
            with pytest.raises(BackendError, match="raw body holds 16 bytes, expected 8 x vocab size 4"):
                remote.next_distribution([0])

    def test_server_ignoring_the_encoding_is_read_as_json(self, remote_model):
        logprobs = json.dumps({"logprobs": [0.0, 0.0, math.log(2.0), -1e300]}).encode()
        with serving(backend("application/json", logprobs)) as base_url:
            remote = remote_model(BackendEndpoint(base_url=base_url, model_name="m"))
            probs = remote.next_distribution([0]).probs
        np.testing.assert_allclose(probs, [0.25, 0.25, 0.5, 0.0], rtol=1e-12)
        assert remote.stats["response_bytes"] == len(logprobs)

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
        block = rows[0].probs.base
        assert block is not None and block.size == 3 * 4
        assert all(row.probs.base is block for row in rows)

    def test_each_row_is_cached_under_its_prefix(self, stub, monkeypatch, remote_model):
        server, _ = stub
        remote = remote_model(endpoint(server))
        remote.next_distributions([0], [1, 2])
        posts = record_requests(monkeypatch, "POST")
        for ctx in ([0], [0, 1], [0, 1, 2]):
            remote.next_distribution(ctx)
        remote.next_distributions([0, 1], [2])
        assert posts == []
        assert remote.stats["cache_hits"] == 5

    def test_only_the_rows_from_the_first_uncached_one_are_asked_for(self, stub, monkeypatch, remote_model):
        server, model = stub
        remote = remote_model(endpoint(server))
        remote.next_distribution([0])
        remote.next_distribution([0, 1])
        posts = record_requests(monkeypatch, "POST")
        rows = remote.next_distributions([0], [1, 2, 3])
        assert [json.loads(body) for body in posts] == [
            {"model": "fixture-table", "context": [0, 1, 2], "continuation": [3], "want": "full", "encoding": "f64-le"}
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
        sent = record_targets(monkeypatch)
        continuation = [1, 2] * MAX_CONTINUATION
        rows = remote.next_distributions([0], continuation)
        assert len(rows) == len(continuation) + 1
        assert {target for _, target in sent} == {"/v1/distribution"}
        assert rows[-1].probs.tobytes() == model.next_distribution([0, *continuation]).probs.tobytes()

    @pytest.mark.parametrize("rows", [2, 4], ids=["short", "long"])
    def test_raw_body_of_the_wrong_length_is_a_backend_error(self, rows, remote_model):
        body = f64le([0.25] * 4 * rows)
        with serving(backend("application/octet-stream", body, max_continuation=8)) as base_url:
            remote = remote_model(BackendEndpoint(base_url=base_url, model_name="m"))
            with pytest.raises(BackendError, match=f"raw body holds {32 * rows} bytes, expected 3 rows x 8 x vocab size 4"):
                remote.next_distributions([0], [1, 2])

    def test_json_reply_to_a_block_is_a_backend_error(self, remote_model):
        reply = json.dumps({"probs": [0.25] * 4}).encode()
        with serving(backend("application/json", reply, max_continuation=8)) as base_url:
            remote = remote_model(BackendEndpoint(base_url=base_url, model_name="m"))
            with pytest.raises(BackendError, match="block reply is not a raw body but dict"):
                remote.next_distributions([0], [1])

    def test_each_row_is_checked(self):
        body = f64le([0.25] * 4 + [0.5, 0.5, 0.5, 0.0])
        with pytest.raises(BackendError, match="non-normalizable"):
            distributions_from_payload(body, 2, 4)

    @pytest.mark.parametrize("advertised", [-1, "many", [8]])
    def test_malformed_max_continuation_is_a_backend_error(self, advertised):
        with serving(backend("application/octet-stream", b"", max_continuation=advertised)) as base_url:
            with pytest.raises(BackendError, match="malformed capabilities payload"):
                handshake(BackendEndpoint(base_url=base_url, model_name="m"))

    def test_server_without_the_block_endpoint_is_judged_row_by_row(self, monkeypatch, remote_model):
        table_student = TableModel({(1,): [0.1, 0.2, 0.3, 0.4]}, [0.4, 0.1, 0.3, 0.2], eos_token=3)
        teacher = fixture_model()
        with serving(v3_handler({"student": table_student})) as base_url:
            student = remote_model(BackendEndpoint(base_url=base_url, model_name="student"))
            assert student.capabilities.max_continuation is None
            assert student.lookahead == 1
            sent = record_targets(monkeypatch)
            for seed in range(6):
                cfg = GenerationConfig(p_th=0.05, max_tokens=8, temperature=0.7, seed=seed)
                over_wire = decode(teacher, student, [0], cfg)
                assert over_wire.to_json_line() == decode(teacher, table_student, [0], cfg).to_json_line()
            student.next_distributions([0], [1, 2])
        assert sent and {target for _, target in sent} == {"/v1/distribution"}


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

        class Hangup(_make_handler({"m": model}, 64, True)):
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
        # each of 12 contexts twice in a row, two rounds: hits, and evictions from 4 slots
        contexts = [[k % 3, k % 4] for _ in range(2) for k in range(12) for _ in range(2)]
        with StubServer({"fixture-table": model}) as server:
            remote = remote_model(endpoint(server), cache_size=4)
            for ctx in contexts:
                remote.next_distribution(ctx)
        stats = remote.stats
        assert stats["requests"] - stats["retries"] == len(served)
        assert stats["cache_hits"] + stats["requests"] - stats["retries"] == len(contexts)
        assert (stats["cache_hits"], len(served)) == (24, 24)
        assert stats["response_bytes"] == 8 * model.vocab_size * len(served)  # raw bodies, nothing else
        sent = [{"model": "fixture-table", "context": ctx, "want": "full", "encoding": "f64-le"} for ctx in served]
        assert stats["request_bytes"] == sum(len(json.dumps(b).encode()) for b in sent)
        assert stats["round_trip_s"] > 0.0

    def test_failed_tries_are_counted_as_retries(self):
        dead = BackendEndpoint(
            base_url="http://127.0.0.1:9", model_name="x", timeout_s=0.2, max_retries=2, backoff_s=0.01
        )
        counts = Counter()
        with pytest.raises(BackendUnavailableError, match="after 3 tries"):
            _request(dead, threading.local(), "POST", "/v1/distribution", body={}, tally=counts.update)
        assert counts["requests"] == 3
        assert counts["retries"] == 2
        assert counts["response_bytes"] == 0


class TestRecordReplay:
    def test_replayed_fixture_gives_identical_distribution(self):
        stored = json.loads((FIXTURES / "distribution_response_full.json").read_text())
        replayed = distribution_from_payload(stored, 4)
        expected = fixture_model().next_distribution([0, 1])
        np.testing.assert_array_equal(replayed.probs, expected.probs)

    def test_replayed_binary_fixture_gives_identical_distribution(self):
        stored = (FIXTURES / "distribution_response_f64le.bin").read_bytes()
        replayed = distribution_from_payload(stored, 4)
        expected = fixture_model().next_distribution([0, 1])
        assert replayed.probs.tobytes() == expected.probs.tobytes()

    def test_live_stub_still_matches_recorded_binary_response(self, stub):
        server, _ = stub
        request = json.loads((FIXTURES / "distribution_request_f64le.json").read_text())
        status, content_type, body = exchange(f"{server.base_url}/v1/distribution", request)
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


class TestZeroMassTransport:
    def test_clamped_logprobs_reconstruct_without_probs_field(self):
        # servers that keep their JSON strict clamp zero mass to a huge negative logprob
        dist = distribution_from_payload({"logprobs": [math.log(0.5), -1e300, math.log(0.5)]}, 3)
        assert dist.probs[1] == 0.0
        assert abs(dist.probs.sum() - 1.0) <= 1e-9


class TestStubValidation:
    def test_top_k_want_is_unsupported(self, stub):
        # the wire has one shape: the full distribution
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distribution",
            {
                "model": "fixture-table",
                "context": [0],
                "want": {"top_k": 2, "score": [3]},
                "encoding": "f64-le",
            },
        )
        assert status == 400
        assert "unsupported want" in json.loads(text)["error"]

    def test_missing_encoding_is_unsupported(self, stub):
        # the stub answers only the exact binary encoding
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distribution", {"model": "fixture-table", "context": [0], "want": "full"}
        )
        assert status == 400
        assert json.loads(text)["error"] == "unsupported encoding None"

    def test_unknown_encoding_is_unsupported(self, stub):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distribution",
            {"model": "fixture-table", "context": [0], "want": "full", "encoding": "f32"},
        )
        assert status == 400
        assert "unsupported encoding" in json.loads(text)["error"]

    def test_retired_base64_encoding_is_unsupported(self, stub):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distribution",
            {"model": "fixture-table", "context": [0], "want": "full", "encoding": "f64-b64"},
        )
        assert status == 400
        assert json.loads(text)["error"] == "unsupported encoding 'f64-b64'"

    def test_unknown_model_404(self, stub):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distribution",
            {"model": "ghost", "context": [], "want": "full", "encoding": "f64-le"},
        )
        assert status == 404
        assert json.loads(text)["error"] == "unknown model 'ghost'"

    def test_malformed_body_400(self, stub):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distribution", {"model": "fixture-table", "encoding": "f64-le"}
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
            f"{server.base_url}/v1/distribution",
            {"model": "fixture-table", "context": context, "want": "full", "encoding": "f64-le"},
        )
        assert status == 400
        assert json.loads(text)["error"] == "malformed request: context must be a list of ints"

    def test_model_that_is_not_a_string_400(self, stub):
        # was a TypeError inside the handler: the connection dropped, and the client retried it
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distribution",
            {"model": ["t"], "context": [0], "want": "full", "encoding": "f64-le"},
        )
        assert status == 400
        assert json.loads(text)["error"] == "malformed request: model must be a string, got list"

    def test_non_object_body_400(self, stub):
        server, _ = stub
        status, text = fetch(f"{server.base_url}/v1/distribution", [0, 1])
        assert status == 400
        assert json.loads(text)["error"].startswith("malformed request: ")

    def test_out_of_vocab_context_400(self, stub):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distribution",
            {"model": "fixture-table", "context": [0, 99], "want": "full", "encoding": "f64-le"},
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
            {"model": "fixture-table", "context": [0], "continuation": continuation, "want": "full",
             "encoding": "f64-le"},
        )
        assert status == 400
        assert json.loads(text)["error"] == "malformed request: continuation must be a list of ints"

    def test_missing_continuation_400(self, stub):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distributions",
            {"model": "fixture-table", "context": [0], "want": "full", "encoding": "f64-le"},
        )
        assert status == 400
        assert json.loads(text)["error"] == "malformed request: 'continuation'"

    def test_out_of_vocab_continuation_400(self, stub):
        server, _ = stub
        status, text = fetch(
            f"{server.base_url}/v1/distributions",
            {"model": "fixture-table", "context": [0], "continuation": [1, 4], "want": "full",
             "encoding": "f64-le"},
        )
        assert status == 400
        assert json.loads(text)["error"] == "context token 4 outside vocabulary of size 4"

    def test_continuation_past_max_context_400(self):
        with StubServer({"fixture-table": fixture_model()}, max_context=4) as server:
            ok, _, body = exchange(
                f"{server.base_url}/v1/distributions",
                {"model": "fixture-table", "context": [0, 1], "continuation": [2, 0], "want": "full",
                 "encoding": "f64-le"},
            )
            status, text = fetch(
                f"{server.base_url}/v1/distributions",
                {"model": "fixture-table", "context": [0, 1], "continuation": [2, 0, 1], "want": "full",
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
             "want": "full", "encoding": "f64-le"},
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
        url = urlparse(server.base_url)
        with socket.create_connection((url.hostname, url.port), timeout=1.0) as sock:
            sock.sendall(
                b"POST /v1/distribution HTTP/1.1\r\nHost: stub\r\n"
                b"Content-Type: application/json\r\nContent-Length: -1\r\n\r\n{}"
            )
            reply = b""
            while chunk := sock.recv(4096):  # the stub closes the connection
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"negative Content-Length" in reply


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
        remote_teacher = remote_model(endpoint(server), cache_size=64)
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
