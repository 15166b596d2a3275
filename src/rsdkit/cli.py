"""Operator surface: generate datasets, analyze traces, sweep thresholds.

Subcommands: ``generate``, ``analyze``, ``sweep``, ``stub-serve``. Every
command is deterministic given its config file and seeds; progress goes to
stderr, machine output only to files. Exit codes: 0 success, 2 config
error, 3 backend error, 4 data error (1 for unexpected internal failures).

Every command is one streaming pass that folds each item into a
:class:`~rsdkit.metrics.RecordsAggregate` as it arrives and keeps only the
item's scalars. ``generate`` and ``sweep`` write each record into
``<dataset>.partial`` as the run yields it and build the report from the
fold; ``analyze`` reads one item at a time into ``<out>.partial/``. A
partial file or directory is renamed into place only when the command
succeeds, and removed when it fails.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import shutil
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterator

from .config import (
    ConfigError,
    RunConfig,
    at_least_one,
    build_detokenizer,
    build_model,
    build_vocab_map_from_spec,
    in_unit_interval,
    load_problems,
    load_run_config,
)
from .decoding import ROLES, decode, prompt_context
# assemble_dataset, dataset_report, import_dataset, low_prob_token_tally and
# records_perplexity stay attributes here, unused, for perfbench/child.py to patch
from .metrics import (
    DEFAULT_SUB_THRESHOLD,
    RecordsAggregate,
    dataset_report,  # noqa: F401
    low_prob_token_tally,  # noqa: F401
    records_perplexity,  # noqa: F401
    write_perplexity_csv,
    write_surprisal_csv,
    write_token_tally_csv,
)
from .models import ContextOverflowError
from .pipeline import (
    DataError,
    DatasetRecord,
    assemble_dataset,  # noqa: F401
    export_dataset,
    import_dataset,  # noqa: F401
    read_dataset,
    read_jsonl,
    read_traces_jsonl,
    run_generation,
    score_external_traces,
)
from .remote import BackendError, RemoteModel
from .stub_server import StubServer

log = logging.getLogger("rsdkit")

DEFAULT_SWEEP_THRESHOLDS = (0.10, 0.03, 0.01, 0.003)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsdkit",
        description="Coordinated teacher/student decoding and distillation dataset tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="run rejection sampling and write a dataset")
    p_gen.add_argument("config", help="run configuration JSON file")
    p_gen.add_argument("--workers", type=int, default=None,
                       help="remote requests in flight (in-process pairs decode serially)")
    p_gen.add_argument("--threshold", type=float, default=None, help="override generation p_th")
    p_gen.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_gen.add_argument("--attempts", type=int, default=None, help="override the attempt budget")
    p_gen.set_defaults(func=cmd_generate)

    p_ana = sub.add_parser("analyze", help="metrics, CSV series, and a report for a dataset")
    p_ana.add_argument("dataset", help="dataset records, traces, or external traces (JSONL)")
    p_ana.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_SUB_THRESHOLD,
        help="sub-threshold diagnostic cutoff (default 0.01)",
    )
    p_ana.add_argument("--out", default=None, help="output directory (default <dataset>_analysis)")
    p_ana.add_argument(
        "--config", default=None, help="run config providing the student model (external traces)"
    )
    p_ana.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="generate once per threshold and compare")
    p_sweep.add_argument("config", help="run configuration JSON file")
    p_sweep.add_argument(
        "--thresholds",
        default=",".join(str(t) for t in DEFAULT_SWEEP_THRESHOLDS),
        help="comma-separated p_th values (default %(default)s)",
    )
    p_sweep.add_argument("--out-dir", default=None, help="output directory (default <config>_sweep)")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="remote requests in flight (in-process pairs decode serially)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_stub = sub.add_parser("stub-serve", help="serve the config's in-process models over HTTP")
    p_stub.add_argument("config", help="run configuration JSON file")
    p_stub.add_argument("--host", default="127.0.0.1")
    p_stub.add_argument("--port", type=int, default=8000)
    p_stub.set_defaults(func=cmd_stub_serve)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    except BackendError as exc:
        _emit_error("backend", exc)
        return 3
    except DataError as exc:
        _emit_error("data", exc)
        return 4
    except Exception as exc:  # structured even for bugs
        _emit_error("internal", exc)
        return 1


def _emit_error(kind: str, exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"error": {"kind": kind, "type": type(exc).__name__, "message": str(exc)}})
        + "\n"
    )


def _build_pair(cfg: RunConfig):
    teacher = build_model(cfg.teacher_spec, "teacher") if cfg.teacher_spec else None
    student = build_model(cfg.student_spec, "student") if cfg.student_spec else None
    # solo regimes ignore the map, so only a coordinated pair checks it against the models
    vmap = build_vocab_map_from_spec(
        cfg.vocab_map_spec,
        (student or teacher).vocab_size,
        teacher.vocab_size if ROLES[cfg.generation.regime][1] else None,
        cfg.base_dir,
    )
    return teacher, student, vmap


def _prepare(cfg: RunConfig):
    """Build the pair and load the problems, checking every prompt and token_text before any decode."""
    if cfg.problems_path is None:
        raise ConfigError("config names no problems file")
    teacher, student, vmap = _build_pair(cfg)
    problems = load_problems(cfg.resolve_path(cfg.problems_path), cfg.token_text)
    for problem in problems:
        try:  # home, the model whose ids the run emits, is the same for every problem
            home = prompt_context(teacher, student, problem.prompt_tokens, cfg.generation, vmap)[0]
        except (ValueError, ContextOverflowError) as exc:
            raise DataError(f"problem {problem.id!r}: {exc}") from exc
    if cfg.token_text is not None and len(cfg.token_text) < home.vocab_size:
        raise ConfigError(f"token_text has {len(cfg.token_text)} entries, fewer than the {home.vocab_size} ids the run emits")
    return (teacher, student, vmap), problems


def _run_dataset(cfg: RunConfig, pair, problems) -> Iterator[DatasetRecord]:
    """Each problem's record as the run yields it, logged; the remote models
    are closed when the run ends. Only a pair with a remote model decodes on a
    pool of ``cfg.workers`` threads, which wait on its sockets: in-process
    decoding holds the GIL, so threads would only contend for it."""
    teacher, student, vmap = pair
    remote = isinstance(teacher, RemoteModel) or isinstance(student, RemoteModel)
    gen_cfg = cfg.generation

    def generator(prompt, seed):
        return decode(teacher, student, prompt, gen_cfg.with_seed(seed), vmap)

    try:
        for record in run_generation(
            problems,
            generator,
            cfg.verifier,
            cfg.attempts,
            gen_cfg.seed,
            build_detokenizer(cfg.token_text),
            prefix_length=cfg.prefix_length,
            prefix_source=cfg.prefix_source,
            workers=(cfg.workers or os.cpu_count() or 1) if remote else 1,
        ):
            log.info("problem=%s kind=%s source=%s", record.problem_id, record.kind, record.source_trace_ref)
            yield record
    finally:
        for role, model in (("teacher", teacher), ("student", student)):
            if isinstance(model, RemoteModel):  # running totals since the model was built
                model.close()
                log.info("remote %s %s", role, json.dumps(model.stats))


def _write_outputs(cfg: RunConfig, records, dataset_path: Path, report_path: Path) -> dict:
    """Export ``records`` as they arrive, folding each into the report, then
    write the report."""
    agg = RecordsAggregate(cfg.diagnostic_threshold)

    def folded():
        for record in records:
            agg.add(record.regime, record.records, record.kind == "full-trace")
            yield record

    _write_atomically(dataset_path, lambda partial: export_dataset(folded(), partial))
    report = agg.dataset_report()
    _write_atomically(report_path, _json_writer(report))
    return report


def _make_parents(path: Path) -> list[Path]:
    """Create the missing parent directories of ``path``; returns them,
    innermost first, for removal should the write fail."""
    made = [parent for parent in path.parents if not parent.exists()]
    path.parent.mkdir(parents=True, exist_ok=True)
    return made


def _write_atomically(path: Path, write) -> None:
    """Write via ``<path>.partial`` and a rename, so a failed write keeps the
    old ``path`` and leaves no partial file, nor the directories made for it."""
    partial = path.with_name(path.name + ".partial")
    made = _make_parents(partial)
    try:
        write(partial)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        for parent in made:
            parent.rmdir()
        raise


@contextmanager
def _directory_atomically(out_dir: Path) -> Iterator[Path]:
    """A fresh ``<out_dir>.partial`` directory to write into, a stale one
    removed first. On success it is renamed to ``out_dir``, or, when
    ``out_dir`` exists, each of its files replaces its namesake there and the
    other files stay. On any error it is removed, with the parent
    directories made for it, and ``out_dir`` is left as it was."""
    partial = Path(os.path.abspath(out_dir) + ".partial")
    shutil.rmtree(partial, ignore_errors=True)
    made = _make_parents(partial)
    partial.mkdir()
    try:
        yield partial
        if out_dir.is_dir():
            for path in partial.iterdir():
                os.replace(path, out_dir / path.name)
            partial.rmdir()
        else:
            os.replace(partial, out_dir)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        for parent in made:
            parent.rmdir()
        raise


def cmd_generate(args) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    records = _run_dataset(cfg, *_prepare(cfg))
    dataset_path = cfg.resolve_path(cfg.dataset_path)
    report_path = cfg.resolve_path(cfg.report_path)
    report = _write_outputs(cfg, records, dataset_path, report_path)
    log.info(
        "dataset=%s records=%d solved=%d report=%s",
        dataset_path,
        report["problems_attempted"],
        report["correctly_solved"],
        report_path,
    )
    return 0


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """Fold command-line overrides into ``cfg``, range-checked like the config file."""
    gen = cfg.generation
    if getattr(args, "threshold", None) is not None:
        gen = replace(gen, p_th=in_unit_interval("--threshold", args.threshold))
    if getattr(args, "seed", None) is not None:
        gen = replace(gen, seed=args.seed)
    cfg = replace(cfg, generation=gen)
    if getattr(args, "attempts", None) is not None:
        cfg = replace(cfg, attempts=at_least_one("--attempts", args.attempts))
    if args.workers is not None:
        cfg = replace(cfg, workers=at_least_one("--workers", args.workers))
    return cfg


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name) or "item"


def _sniff_kind(path: Path) -> str:
    """Which of the three line schemas ``path`` holds, judged by its first row."""
    for _, row in read_jsonl(path, lambda row: row):
        break
    else:
        raise DataError(f"{path}: empty file")
    if row.get("kind") in ("full-trace", "upft-prefix", "manifest"):
        return "dataset"
    if "records" in row and "config" in row:
        return "traces"
    if "tokens" in row and "prompt_tokens" in row:
        return "external"
    raise DataError(f"{path}: unrecognized line schema (keys: {sorted(row)})")


def cmd_analyze(args) -> int:
    dataset_path = Path(args.dataset)
    threshold = in_unit_interval("--threshold", args.threshold)
    out_dir = Path(args.out) if args.out else dataset_path.with_name(dataset_path.stem + "_analysis")
    kind = _sniff_kind(dataset_path)
    student = _external_student(args) if kind == "external" else None
    try:
        with _directory_atomically(out_dir) as partial:
            items = _analyze(dataset_path, kind, student, partial, threshold)
    finally:
        if isinstance(student, RemoteModel):
            student.close()
    log.info("analysis=%s items=%d threshold=%g", out_dir, items, threshold)
    return 0


def _external_student(args):
    if not args.config:
        raise ConfigError("external traces need --config with a student model spec")
    cfg = load_run_config(args.config)
    if cfg.student_spec is None:
        raise ConfigError("--config carries no student model spec")
    return build_model(cfg.student_spec, "student")


def _analysis_items(path: Path, kind: str, student) -> Iterator[tuple]:
    """``(name, regime, token records, full trace)`` for each item of
    ``path``, read when asked for; scored external traces have no regime."""
    if kind == "dataset":
        return ((r.problem_id, r.regime, r.records, r.kind == "full-trace") for r in read_dataset(path))
    if kind == "traces":
        return ((str(i), t.config.regime, t.records, False) for i, t in enumerate(read_traces_jsonl(path)))
    scored = score_external_traces(path, student)
    return ((str(i), None, records, False) for i, records in enumerate(scored))


def _analyze(path: Path, kind: str, student, out_dir: Path, threshold: float) -> int:
    """Write each item's surprisal CSV and fold it in, keeping only its
    perplexity row; then the report, ``perplexity.csv`` and
    ``token_tally.csv``. Returns the number of items."""
    agg = RecordsAggregate(threshold)
    rows = []
    owners: dict[str, str] = {}  # surprisal file -> the item that wrote it
    for name, regime, records, full_trace in _analysis_items(path, kind, student):
        csv_name = f"surprisal_{_slug(name)}.csv"
        if csv_name in owners:
            raise DataError(f"{path}: items {owners[csv_name]!r} and {name!r} would both write {csv_name}")
        owners[csv_name] = name
        write_surprisal_csv(records, out_dir / csv_name)
        rows.append((name, agg.add(regime, records, full_trace), len(records)))
    if kind == "dataset":
        if not agg.items:
            raise DataError(f"{path}: dataset is empty")
        report = agg.dataset_report()
    else:
        report = {"traces": agg.items, "sub_threshold": threshold, **agg.report_fields()}
    _json_writer(report)(out_dir / "report.json")
    write_perplexity_csv(rows, out_dir / "perplexity.csv")
    write_token_tally_csv(agg.token_tally(), out_dir / "token_tally.csv")
    return agg.items


def _json_writer(obj):
    """A ``write(path)`` for :func:`_write_atomically` that stores ``obj`` as indented JSON."""
    return lambda path: path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def cmd_sweep(args) -> int:
    try:  # the flag is one string; the config-file checks take numbers
        numbers = [float(x) for x in args.thresholds.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"--thresholds must be comma-separated numbers: {exc}") from exc
    thresholds = [in_unit_interval("--thresholds", x) for x in numbers]
    if not thresholds:
        raise ConfigError("sweep needs at least one threshold")
    cfg = _apply_overrides(load_run_config(args.config), args)
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.config).with_name(
        Path(args.config).stem + "_sweep"
    )

    pair, problems = _prepare(cfg)  # the threshold changes neither
    rows = []
    for th in thresholds:
        run_cfg = replace(cfg, generation=replace(cfg.generation, p_th=th))
        records = _run_dataset(run_cfg, pair, problems)
        tag = f"p{th:g}"
        report = _write_outputs(
            run_cfg, records, out_dir / f"dataset_{tag}.jsonl", out_dir / f"report_{tag}.json"
        )
        rows.append({"p_th": th, **report})
        log.info("sweep p_th=%g solved=%d/%d", th, report["correctly_solved"], report["problems_attempted"])

    _write_atomically(
        out_dir / "sweep_report.json", _json_writer({"thresholds": thresholds, "rows": rows})
    )
    _write_atomically(out_dir / "sweep_table.txt", lambda path: path.write_text(_sweep_table(rows)))
    log.info("sweep=%s thresholds=%d", out_dir, len(thresholds))
    return 0


def _sweep_table(rows: list[dict]) -> str:
    headers = ["p_th", "correctly_solved", "fallback_rate_pct", "sub_threshold_pct", "avg_token_count"]
    lines = ["\t".join(headers)]
    for row in rows:
        fb = row["fallback_rate_pct"]
        lines.append(
            "\t".join(
                [
                    f"{row['p_th']:g}",
                    f"{row['correctly_solved']}/{row['problems_attempted']}",
                    "n/a" if fb is None else f"{fb:.4f}",
                    f"{row['sub_threshold_pct']:.4f}",
                    f"{row['avg_token_count']:.2f}",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def build_stub_server(cfg: RunConfig, host: str, port: int) -> StubServer:
    models = {}
    for role, spec in (("teacher", cfg.teacher_spec), ("student", cfg.student_spec)):
        if spec is None:
            continue
        if spec.get("backend") == "remote":
            raise ConfigError(f"{role}: cannot serve a remote backend from the stub")
        models[role] = build_model(spec, role)
    if not models:
        raise ConfigError("config carries no in-process models to serve")
    return StubServer(models, host=host, port=port, max_context=cfg.generation.context_limit)


def cmd_stub_serve(args) -> int:
    server = build_stub_server(load_run_config(args.config), args.host, args.port)
    log.info("serving %s at %s", ",".join(server.models), server.base_url)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
