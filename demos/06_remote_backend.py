"""Driving the same decoders over the wire protocol.

A stub server wraps any in-process model behind the HTTP surface a real
inference server would expose (`GET /v1/capabilities`,
`POST /v1/distribution`). The client handshakes, validates capabilities, and
then behaves as an ordinary model handle; traces decoded over the wire are
byte-identical to in-process ones.
"""

import json

import requests

from rsdkit import (
    BackendEndpoint,
    GenerationConfig,
    RemoteModel,
    StubServer,
    TableModel,
    decode,
    handshake,
)

teacher = TableModel({(1,): [0.1, 0.2, 0.3, 0.4]}, [0.4, 0.3, 0.2, 0.1], eos_token=3)
student = TableModel({}, [0.3, 0.3, 0.3, 0.1], eos_token=3)

with StubServer({"teacher": teacher}) as server:
    print("stub server at", server.base_url)

    endpoint = BackendEndpoint(base_url=server.base_url, model_name="teacher")
    caps = handshake(endpoint)
    print("capabilities:", caps)

    raw = requests.post(
        f"{server.base_url}/v1/distribution",
        json={"model": "teacher", "context": [0, 1], "want": "full"},
    ).json()
    print("\nwire payload for context [0, 1]:")
    print(json.dumps({k: raw[k] for k in ("model", "logprobs")}, indent=2))

    remote_teacher = RemoteModel(endpoint)
    cfg = GenerationConfig(p_th=0.05, max_tokens=8, temperature=0.7, context_limit=32, seed=1)
    local = decode(teacher, student, [0], cfg)
    over_wire = decode(remote_teacher, student, [0], cfg)
    print("\nlocal tokens:   ", local.tokens())
    print("over-wire tokens:", over_wire.tokens())
    print("byte-identical traces:", local.to_json_line() == over_wire.to_json_line())
