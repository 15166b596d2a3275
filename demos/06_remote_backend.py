"""Driving the same decoders over the wire protocol.

A stub server wraps any in-process model behind the HTTP surface a real
inference server would expose (`GET /v1/capabilities`,
`POST /v1/distributions`, `POST /v1/draws`). The client handshakes, validates
capabilities, and then behaves as an ordinary model handle. One row is a
request with an empty ``continuation``, in the raw encoding ``"f64-le"``: the
reply is an ``application/octet-stream`` body of exactly 8·V bytes, the exact
probabilities as little-endian float64. A proposer draws a whole block with
one ``/v1/draws`` request: the client sends each step's uniform as a JSON
float, which round-trips exactly, and the stub draws with rsdkit's own
sampler, so traces decoded over the wire are byte-identical to in-process
ones. The stub answers nothing else: a request without ``encoding``, with the
retired ``"f64-b64"`` or with a key it does not know gets HTTP 400.
"""

import json
import urllib.request

from rsdkit import (
    BackendEndpoint,
    GenerationConfig,
    RemoteModel,
    StubServer,
    TableModel,
    decode,
    handshake,
)
from rsdkit.remote import distribution_from_payload

teacher = TableModel({(1,): [0.1, 0.2, 0.3, 0.4]}, [0.4, 0.3, 0.2, 0.1], eos_token=3)
student = TableModel({}, [0.3, 0.3, 0.3, 0.1], eos_token=3)


def post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.build_opener(urllib.request.ProxyHandler({})).open(request) as resp:
        return resp.headers["Content-Type"], resp.read()


with StubServer({"teacher": teacher}) as server:
    print("stub server at", server.base_url)

    endpoint = BackendEndpoint(base_url=server.base_url, model_name="teacher")
    caps = handshake(endpoint)
    print("capabilities:", caps)

    request = {"model": "teacher", "context": [0, 1], "continuation": [], "encoding": "f64-le"}
    content_type, body = post(f"{server.base_url}/v1/distributions", request)
    print("\nraw reply for context [0, 1] (what a remote approver asks for):")
    print(f"  Content-Type: {content_type}, {len(body)} bytes = 8 x vocab size {caps.vocab_size}")
    print("decodes to:", distribution_from_payload(body, caps.vocab_size).probs.tolist())

    request = {"model": "teacher", "context": [0, 1], "uniforms": [0.05, 0.5, 0.9], "temperature": 0.7,
               "suppressed": [], "stop": 3}
    content_type, body = post(f"{server.base_url}/v1/draws", request)
    print("\ndraws reply for context [0, 1] and three uniforms (what a remote proposer asks for):")
    print(f"  Content-Type: {content_type}, {body.decode()}")

    remote_teacher = RemoteModel(endpoint)
    cfg = GenerationConfig(p_th=0.05, max_tokens=8, temperature=0.7, context_limit=32, seed=1)
    local = decode(teacher, student, [0], cfg)
    over_wire = decode(remote_teacher, student, [0], cfg)
    print("\nlocal tokens:   ", local.tokens())
    print("over-wire tokens:", over_wire.tokens())
    print("byte-identical traces:", local.to_json_line() == over_wire.to_json_line())
    print("client HTTP health:", dict(remote_teacher.stats))
    remote_teacher.close()
