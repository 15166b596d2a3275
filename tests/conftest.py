"""Shared fixtures."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from rsdkit.stub_server import POLL_INTERVAL_S


@pytest.fixture()
def html_server():
    """Start servers that answer every request with ``200`` and an HTML page.

    ``html_server(capabilities=True)`` answers ``GET /v1/capabilities`` with
    a V=4 model's capabilities instead, so a client gets past the handshake;
    with ``v4=False`` they lack the ``max_continuation`` of wire protocol v4.
    Returns the base URL.
    """
    servers = []

    def start(capabilities: bool, v4: bool = True) -> str:
        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):
                pass

            def _answer(self, content_type: str, body: bytes) -> None:
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802
                if capabilities and self.path.startswith("/v1/capabilities"):
                    caps = {"model": "m", "vocab_size": 4, "eos_token": 3, "max_context": 64}
                    if v4:
                        caps["max_continuation"] = 8
                    self._answer("application/json", json.dumps(caps).encode())
                else:
                    self._answer("text/html", b"<html><body>maintenance</body></html>")

            def do_POST(self):  # noqa: N802
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                self._answer("text/html", b"<html><body>maintenance</body></html>")

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": POLL_INTERVAL_S}, daemon=True
        ).start()
        servers.append(httpd)
        return f"http://127.0.0.1:{httpd.server_address[1]}"

    yield start
    for httpd in servers:
        httpd.shutdown()
        httpd.server_close()
