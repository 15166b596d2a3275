"""Run one rsdkit CLI command in this fresh process and report on it.

    python3 perfbench/child.py --result R.json [--spans S.json] -- generate cfg.json

Writes ``R.json`` with the command's exit code, its monotonic timestamps
(``cli.main`` entry, end of set-up, ``cli.main`` return),
the work it did (problems, attempts, tokens, failed attempts) and its peak
resident memory. Set-up ends when the last ``load_run_config``,
``build_model`` or ``load_problems`` call returns, or at ``cli.main``
entry for a command that makes none of them.

With ``--spans`` the public functions of every rsdkit layer are wrapped
and their spans are written to ``S.json`` after the command returns.
"""

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from rsdkit import cli, decoding, metrics, pipeline, remote  # noqa: E402

from tracing import Recorder  # noqa: E402

SETUP_FUNCTIONS = ("load_run_config", "build_model", "load_problems")


class Probe:
    """Set-up timing and per-problem work counts, cheap enough to leave on
    in the untraced run: it wraps three set-up calls and one call per
    problem, never a per-token function."""

    def __init__(self, count_accepted: bool) -> None:
        self.setup_end = 0
        self.work = {"problems": 0, "solved": 0, "attempts": 0, "tokens": 0, "failed": 0, "accepted": 0}
        self._count_accepted = count_accepted
        self._lock = threading.Lock()

    def install(self) -> None:
        for name in SETUP_FUNCTIONS:
            setattr(cli, name, self._timed(getattr(cli, name)))
        inner = pipeline.rejection_sample

        def rejection_sample(*args, **kwargs):
            result = inner(*args, **kwargs)
            self._count(result)
            return result

        pipeline.rejection_sample = rejection_sample

    def _timed(self, fn):
        def timed(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.setup_end = max(self.setup_end, time.monotonic_ns())
            return out

        return timed

    def _count(self, result) -> None:
        traces = [a.trace for a in result.attempts if a.trace is not None]
        accepted = (
            sum(1 for t in traces for r in t.records if r.accepted) if self._count_accepted else 0
        )
        with self._lock:
            w = self.work
            w["problems"] += 1
            w["solved"] += result.solved is not None
            w["attempts"] += len(result.attempts)
            w["failed"] += sum(1 for a in result.attempts if a.error is not None)
            w["tokens"] += sum(len(t.records) for t in traces)
            w["accepted"] += accepted


def install_tracing(rec: Recorder) -> None:
    """Wrap each layer where rsdkit looks it up at call time."""
    import requests

    rec.patch(decoding, "apply_temperature", "models.apply_temperature")
    rec.patch(decoding, "sample", "models.sample")
    rec.patch(decoding, "suppress", "vocab.suppress")
    rec.patch(cli, "decode", "decoding.decode")
    rec.patch(pipeline, "rejection_sample", "pipeline.rejection_sample")
    rec.patch(pipeline.Verifier, "judge", "pipeline.verifier.judge")
    traced_seed = rec.wrap(pipeline.derive_seed, "seeding.derive_seed")

    def derive_seed(base_seed, *parts):
        rec.set_attempt("#".join(str(p) for p in parts))
        return traced_seed(base_seed, *parts)

    pipeline.derive_seed = derive_seed

    rec.patch(cli, "assemble_dataset", "pipeline.assemble_dataset")
    traced_export = rec.wrap(cli.export_dataset, "pipeline.export_dataset")

    def export_dataset(records, path):
        traced_export(records, path)
        rec.add("pipeline.export_dataset.bytes", Path(path).stat().st_size)

    cli.export_dataset = export_dataset
    rec.patch(cli, "import_dataset", "pipeline.import_dataset")
    rec.patch(cli, "dataset_report", "metrics.dataset_report")
    rec.patch(cli, "records_perplexity", "metrics.records_perplexity")
    rec.patch(metrics, "records_perplexity", "metrics.records_perplexity")
    rec.patch(cli, "low_prob_token_tally", "metrics.low_prob_token_tally")
    for name in ("write_surprisal_csv", "write_perplexity_csv", "write_token_tally_csv"):
        rec.patch(cli, name, "metrics.csv")

    rec.patch(cli, "load_run_config", "config.load_run_config")
    rec.patch(cli, "load_problems", "config.load_problems")
    build_model = cli.build_model
    by_role = {}

    def traced_build_model(spec, role="model"):
        if role not in by_role:
            by_role[role] = rec.wrap(build_model, f"config.build_model.{role}")
        model = by_role[role](spec, role)
        # an instance attribute shadows the class method for this role only
        model.next_distribution = rec.wrap(model.next_distribution, f"models.{role}.next_distribution")
        return model

    cli.build_model = traced_build_model

    rec.patch(remote.RemoteModel, "next_distribution", "remote.next_distribution")
    rec.patch(remote, "distribution_from_payload", "remote.decode_payload")
    request_by_method = {m: rec.wrap(remote._request, f"remote.request.{m}") for m in ("GET", "POST")}

    def _request(endpoint, session, method, path, **kwargs):
        return request_by_method[method](endpoint, session, method, path, **kwargs)

    remote._request = _request
    http_by_method = {m: rec.wrap(requests.Session.request, f"remote.http.{m}") for m in ("GET", "POST")}

    def request(session, method, url, **kwargs):
        try:
            resp = http_by_method[method](session, method, url, **kwargs)
        except requests.RequestException:
            rec.add(f"remote.http.{method}.failed")
            raise
        if resp.status_code >= 400:
            rec.add(f"remote.http.{method}.failed")
        rec.add(f"remote.http.{method}.request_bytes", len(resp.request.body or b""))
        rec.add(f"remote.http.{method}.response_bytes", len(resp.content))
        return resp

    requests.Session.request = request
    rec.patch(requests.Response, "json", "remote.json_decode")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    rec = Recorder() if args.spans else None
    probe = Probe(count_accepted=rec is not None)
    probe.install()
    if rec is not None:
        install_tracing(rec)
    t_main = time.monotonic_ns()
    rc = cli.main(argv)
    t_end = time.monotonic_ns()
    result = {
        "rc": rc,
        "t_main": t_main,
        "t_setup_end": max(t_main, probe.setup_end),
        "t_end": t_end,
        "work": probe.work,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if rec is not None:
        rec.dump(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
