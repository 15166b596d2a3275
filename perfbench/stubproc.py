"""The stub server process, and the launcher that runs it for a benchmark.

    python3 perfbench/stubproc.py [--spans S.json] serve.json

runs ``rsdkit stub-serve serve.json --port 0`` in this process. With
``--spans`` it wraps the request handler (``do_POST``), the model call,
``_full_payload`` and the handler's ``json.dumps``, and writes the spans to
``S.json`` when SIGINT stops the server.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
SERVING = re.compile(r"serving \S+ at (http://\S+)")
STUB_START_TIMEOUT_S = 60.0


def install_server_tracing(rec, cli, stub_server) -> None:
    make_handler = stub_server._make_handler

    def traced_make_handler(*args, **kwargs):
        handler = make_handler(*args, **kwargs)
        handler.do_POST = rec.wrap(handler.do_POST, "stub_server.handler")
        return handler

    stub_server._make_handler = traced_make_handler
    rec.patch(stub_server, "_full_payload", "stub_server.full_payload")
    stub_server.json = types.SimpleNamespace(
        dumps=rec.wrap(json.dumps, "stub_server.json_encode"), loads=json.loads
    )
    build_model = cli.build_model

    def traced_build_model(spec, role="model"):
        model = build_model(spec, role)
        model.next_distribution = rec.wrap(model.next_distribution, "stub_server.model")
        return model

    cli.build_model = traced_build_model


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None)
    parser.add_argument("config")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from rsdkit import cli, stub_server
    from tracing import Recorder

    rec = Recorder() if args.spans else None
    if rec is not None:
        install_server_tracing(rec, cli, stub_server)
    rc = cli.main(["stub-serve", args.config, "--port", "0"])
    if rec is not None:
        rec.dump(args.spans)
    return rc


class StubProcess:
    """Runs :func:`main` in its own process for the life of a ``with`` block.

    The port is read from the ``serving ... at URL`` line the server logs
    to stderr; stderr goes to a file, so a chatty server can never block on
    a full pipe.
    """

    def __init__(self, config: Path, log: Path, spans: Path | None):
        self.config = config
        self.log = log
        self.spans = spans
        self.proc: subprocess.Popen | None = None
        self.base_url = ""

    def __enter__(self) -> "StubProcess":
        cmd = [sys.executable, str(HERE / "stubproc.py")]
        if self.spans is not None:
            cmd += ["--spans", str(self.spans)]
        cmd.append(str(self.config))
        with open(self.log, "wb") as err:
            self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        try:
            self.base_url = self._wait_for_url()
        except BaseException:
            self.stop()
            raise
        return self

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + STUB_START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = SERVING.search(self.log.read_text(errors="replace"))
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                raise RuntimeError(f"stub server exited with {self.proc.returncode}: {self._tail()}")
            time.sleep(0.02)
        raise RuntimeError(f"stub server printed no URL within {STUB_START_TIMEOUT_S:.0f} s: {self._tail()}")

    def _tail(self) -> str:
        return self.log.read_text(errors="replace")[-2000:]

    def stop(self) -> int | None:
        """SIGINT ends ``serve_forever`` cleanly, so the spans get written."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode

    def __exit__(self, *exc_info) -> None:
        self.stop()


if __name__ == "__main__":
    sys.exit(main())
