"""Batch command-line interface.

Subcommands: aggregate, rank, flip, fold, eval. Users run commands and read
the emitted files; there is no interactive mode. Numbers in output files are
written with 12 significant digits so repeated runs are byte identical. Every
subcommand writes <output>.manifest.jsonl when it succeeds; a DP run that fails
after a release writes its ledger alone there. DPMI_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
from collections import Counter
from itertools import repeat

import numpy as np

from .aggregate import accumulate, build_probability_tables, release_aggregate_table
from .dp import BudgetAccountant, prepare_records
from .evaluation import (
    DEFAULT_EPSILONS,
    fmt_sig,
    runtime_compare,
    sweep_and_stability,
    synth_generate,
    write_runtime_tsv,
    write_stability_tsv,
    write_sweep_tsv,
)
from .mi import FoldSpec, flip, nfold, rank, rank_records
from .model import (OTHER_KEY, AggregateTable, Columns, Direction, KeyCoder, PrivacyConfig,
                    Ranking, Record, valid_mask, validate_record)

logger = logging.getLogger(__name__)

DEFAULT_COLUMNS = ("id", "feature", "partition", "observation")
SYNTH_KEYS = ("users", "features", "partitions", "strength", "zipf")
# Characters per read of an input file.
_BLOCK_CHARS = 1 << 16
# The whitespace JSON allows before a value.
_JSON_SPACE = " \t\r\n"


# ---------------------------------------------------------------------------
# ingestion


def _jsonl_format(columns, rejects: Counter):
    """JSON lines' row width, mapped field indices, and block-to-fields function.

    A block's fields are four per non-blank line: the mapped keys as their
    str() and the observation as JSON typed it. The values that str() or
    float() would misread are refused here: a null key is empty, and a
    boolean, array or object key, or a boolean observation, does not parse.
    """
    def fields(lines: list[str]) -> list:
        flat: list = []
        for line in filter(None, lines):
            try:
                obj = json.loads(line)
            except ValueError:  # malformed, or an integer past int's digit limit
                rejects["parse"] += 1
                continue
            try:
                *keys, observation = [obj[name] for name in columns]
            except (KeyError, TypeError):  # a mapped field missing, or not an object
                rejects["fields"] += 1
                continue
            if any(key is None for key in keys):
                rejects["empty_key"] += 1
            elif (any(isinstance(key, (bool, list, dict)) for key in keys)
                  or isinstance(observation, bool)):
                rejects["parse"] += 1
            else:
                flat += map(str, keys)
                flat.append(observation)
        return flat

    return 4, range(4), fields


def _delimited_format(header_line: str, path: str, columns, rejects: Counter):
    """Delimited input's row width, mapped field indices, and block-to-fields function.

    A mapped column that the header lacks, or names more than once, is an
    error naming the column. A block's fields are the header's count per
    non-blank line. A line with another count is a "fields" reject if it is
    too short for the mapped columns; otherwise it is cut or padded with
    empty fields to the header's count, which keeps every mapped field. The
    lines are then joined and split once.
    """
    delim = "\t" if "\t" in header_line else ","
    header = header_line.split(delim)
    for name in columns:
        if header.count(name) != 1:
            problem = "not found in" if name not in header else "named more than once in"
            raise ValueError(f"{path}: column {name!r} {problem} header {header}")
    width, indices = len(header), [header.index(name) for name in columns]
    last = max(indices)

    def fields(lines: list[str]) -> list[str]:
        counts = list(map(str.count, lines, repeat(delim)))
        if counts.count(width - 1) < len(lines):
            even = []
            for line, n in zip(lines, counts):
                if n == width - 1:
                    even.append(line)
                elif line:
                    split = line.split(delim)
                    if len(split) > last:
                        even.append(delim.join((split + [""] * width)[:width]))
                    else:
                        rejects["fields"] += 1
            lines = even
        return delim.join(lines).split(delim) if lines else []

    return width, indices, fields


def _float_or_nan(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):  # a JSON null or array, an integer past 1e308
        return math.nan


def _check_block(fields: list, width: int, indices, coders, rejects: Counter):
    """The valid rows among a block's flat fields: (id, feature, partition codes, observations).

    Each mapped column is a stride slice of ``fields``, ``width`` per row,
    coded whole; an observation that float() refuses reads NaN.
    model.valid_mask checks the rows whole; only a row that fails goes
    through validate_record, which names its reason, and its codes are
    dropped.
    """
    observations = np.array([_float_or_nan(value) for value in fields[indices[3]::width]],
                            np.float64)
    codes = [coder.code(fields[i::width]) for coder, i in zip(coders, indices)]
    ok = valid_mask(coders, codes, observations)
    for row in np.flatnonzero(~ok).tolist():
        rejects[validate_record([fields[row * width + i] for i in indices])] += 1
    return (*(column[ok] for column in codes), observations[ok])


def read_records(path: str, columns) -> tuple[Columns, Counter, int]:
    """Read and validate one input file.

    A file whose first non-empty line starts with ``{`` after the whitespace
    JSON allows is JSON lines; any other is delimited, and its header is that
    first non-empty line. Either is read _BLOCK_CHARS characters at a time,
    each read's partial last line carried into the next, and split on "\\n"
    alone: text mode has already turned "\\r\\n" and a bare "\\r" into it,
    and str.splitlines would also break on form feeds and other separators.
    The format turns each block's lines into flat fields, and
    ``_check_block`` codes and checks them.
    Returns (the valid rows as coded columns, rejection counts by reason,
    rows read). Keys are coded in first-seen order as blocks arrive, and no
    Record is built.
    """
    rejects: Counter = Counter()
    coders = KeyCoder(), KeyCoder(), KeyCoder()
    blocks = []
    with open(path, "r", encoding="utf-8-sig") as fh:  # -sig drops a leading BOM
        first = next(filter(str.strip, fh), "")
        if first.lstrip(_JSON_SPACE).startswith("{"):
            fh.seek(0)
            width, indices, fields = _jsonl_format(columns, rejects)
        elif first:
            width, indices, fields = _delimited_format(first.rstrip("\n"), path, columns, rejects)
        else:
            raise ValueError(f"{path}: empty input, expected a header line")
        tail = ""
        while True:
            chunk = fh.read(_BLOCK_CHARS)
            lines = (tail + chunk).split("\n")
            tail = lines.pop() if chunk else ""
            blocks.append(_check_block(fields(lines), width, indices, coders, rejects))
            if not chunk:
                break
    *codes, observations = (np.concatenate(column) for column in zip(*blocks))
    (id_keys, ids), (feature_keys, features), (partition_keys, partitions) = (
        coder.finish(column) for coder, column in zip(coders, codes))
    cols = Columns(ids, id_keys, features, feature_keys, partitions, partition_keys,
                   observations)
    return cols, rejects, len(cols) + sum(rejects.values())


# ---------------------------------------------------------------------------
# output


def _check_tsv_keys(results: Ranking) -> None:
    """Refuse a key holding a tab or line break, which would break a TSV row.

    Each distinct key is checked once, partitions first, in rank order.
    """
    for key in dict.fromkeys([*results.partitions.tolist(), *results.features.tolist()]):
        if "\t" in key or "\r" in key or "\n" in key:
            raise ValueError(
                f"key {key!r} holds a tab or line break, which a TSV row cannot; "
                "use --output-format jsonl"
            )


def write_results(results: Ranking, path: str, output_format: str) -> None:
    """Write a ranking as TSV or JSON lines, one row per pair, from its columns."""
    if output_format == "tsv":
        _check_tsv_keys(results)
    rows = zip(
        results.partitions.tolist(),
        results.features.tolist(),
        map(fmt_sig, results.mi.tolist()),
        np.where(results.presence, Direction.PRESENCE.value, Direction.ABSENCE.value).tolist(),
        results.ranks,
    )
    with open(path, "w", encoding="utf-8") as fh:
        if output_format == "jsonl":
            fh.writelines(
                json.dumps(
                    {"partition": p, "feature": f, "mi": float(mi), "direction": d, "rank": r},
                    sort_keys=True,
                )
                + "\n"
                for p, f, mi, d, r in rows
            )
        else:
            fh.write("partition\tfeature\tmi\tdirection\trank\n")
            fh.writelines(f"{p}\t{f}\t{mi}\t{d}\t{r}\n" for p, f, mi, d, r in rows)


def write_manifest(path: str, events) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")


def write_aggregate_file(table: AggregateTable, epsilon_spent: float, path: str) -> None:
    """Persist a released table as JSON lines with full float precision, each
    table in key order; the closing meta row records ``epsilon_spent``, the
    run's ledger total."""
    fk, pk = table.feature_keys, table.partition_keys
    with open(path, "w", encoding="utf-8") as fh:
        for f, p, v in zip(table.features.tolist(), table.partitions.tolist(),
                           table.joint.tolist()):
            fh.write(json.dumps({"table": "joint", "feature": fk[f], "partition": pk[p],
                                 "value": v}) + "\n")
        for f, v in zip(fk, table.feature_marginals.tolist()):
            fh.write(json.dumps({"table": "feature_marginal", "feature": f, "value": v}) + "\n")
        for p, v in zip(pk, table.partition_marginals.tolist()):
            fh.write(json.dumps({"table": "partition_marginal", "partition": p, "value": v}) + "\n")
        fh.write(json.dumps({"table": "total", "value": table.total}) + "\n")
        fh.write(json.dumps({"table": "meta", "epsilon_spent": epsilon_spent}) + "\n")


# each aggregate-file table's key fields, in AggregateTable.of's argument order
AGGREGATE_KEYS = {"joint": ("feature", "partition"), "feature_marginal": ("feature",),
                  "partition_marginal": ("partition",)}


def read_aggregate_file(path: str) -> AggregateTable:
    """Read a file write_aggregate_file wrote; its total and meta rows are not
    read back. A line that is not a JSON object, a repeated (table, key) row, a
    key that is not a string or is the reserved OTHER_KEY, or a value that is
    not a finite number is an error naming the file and line."""
    tables: dict = {kind: {} for kind in AGGREGATE_KEYS}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line, parse_int=float)  # so an oversized integer reads as inf
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {lineno}: {exc.msg}: column {exc.colno}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path} line {lineno}: expected a JSON object, got {line}")
            kind = obj.get("table")
            if kind in AGGREGATE_KEYS:
                keys = tuple(obj.get(name) for name in AGGREGATE_KEYS[kind])
                key = keys if kind == "joint" else keys[0]
                value = obj.get("value")
                where = f"{path} line {lineno}: {kind} {key!r}"
                if not all(isinstance(k, str) for k in keys):  # a missing key field reads None
                    raise ValueError(f"{where} needs string keys")
                if OTHER_KEY in keys:
                    raise ValueError(f"{where} uses the reserved key {OTHER_KEY!r}")
                if not isinstance(value, float) or not math.isfinite(value):  # a bool is no float
                    raise ValueError(f"{where} needs a finite number value, got {value!r}")
                if key in tables[kind]:
                    raise ValueError(f"{where} repeats an earlier row")
                tables[kind][key] = value
            elif kind not in ("total", "meta"):  # the total is derived, meta is the ledger's
                raise ValueError(f"{path} line {lineno}: unknown table row {obj!r}")
    return AggregateTable.of(*tables.values())


# ---------------------------------------------------------------------------
# argument parsing


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo,hi got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three weights, got {text!r}")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


def _parse_floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p]


def _parse_columns(text: str) -> tuple[str, str, str, str]:
    parts = tuple(p.strip() for p in text.split(","))
    if len(parts) != 4 or not all(parts):
        raise argparse.ArgumentTypeError(
            f"expected four column names (id,feature,partition,observation roles), got {text!r}"
        )
    repeated = [name for name in parts if parts.count(name) > 1]
    if repeated:
        raise argparse.ArgumentTypeError(
            f"column {repeated[0]!r} is named for more than one role in {text!r}")
    return parts  # type: ignore[return-value]


def _parse_kv(text: str) -> dict:
    out = {}
    for chunk in text.split(","):
        if not chunk:
            continue
        if "=" not in chunk:
            raise argparse.ArgumentTypeError(f"expected key=value, got {chunk!r}")
        key, value = chunk.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", action="append", default=[], help="input file (repeatable for fold)")
    common.add_argument("--columns", type=_parse_columns, default=DEFAULT_COLUMNS,
                        metavar="ID,FEATURE,PARTITION,OBSERVATION")
    common.add_argument("--epsilon", type=float, default=1.0, help="total privacy budget")
    common.add_argument("--delta", type=float, default=1e-6,
                        help="censoring failure probability, in (0, 0.5]")
    common.add_argument("--clamp", type=_parse_pair, default=(0.0, 1.0), metavar="LO,HI")
    common.add_argument("--contribution-limit", type=int, default=1)
    common.add_argument("--budget-split", type=_parse_triple, default=(0.5, 0.25, 0.25),
                        metavar="JOINT,FEATURE,PARTITION")
    common.add_argument("--no-dp", action="store_true", help="disable the privacy mechanisms")
    common.add_argument("--seed", type=int, default=None,
                        help="required unless --no-dp, --aggregate or eval --runtime")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored; every run is single-threaded")
    common.add_argument("--output", required=True)

    parser = argparse.ArgumentParser(
        prog="dpmi",
        description="Differentially private one-vs-all mutual information ranking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_agg = sub.add_parser("aggregate", parents=[common],
                           help="release the joint and marginal sum tables plus a manifest")
    p_agg.set_defaults(func=cmd_aggregate)

    p_rank = sub.add_parser("rank", parents=[common], help="rank features per partition by MI")
    p_flip = sub.add_parser("flip", parents=[common],
                            help="rank partitions per feature: rank's released table, transposed")
    for p in (p_rank, p_flip):
        p.add_argument("--aggregate", default=None,
                       help="read a previously released aggregate file instead of raw records")
        p.set_defaults(func=cmd_rank)

    p_fold = sub.add_parser("fold", parents=[common],
                            help="cascaded rankings where each stage seeds the next")
    p_eval = sub.add_parser("eval", parents=[common],
                            help="emit sweep/stability data files, or runtime with --runtime")
    for p in (p_rank, p_flip, p_fold, p_eval):
        p.add_argument("--top-k", type=int, default=None)
    for p in (p_rank, p_flip, p_fold):
        p.add_argument("--output-format", choices=("tsv", "jsonl"), default="tsv")

    p_fold.add_argument("--fold-epsilons", type=_parse_floats, required=False, default=None,
                        metavar="E1,E2,...", help="per-stage budget shares, one per --input")
    p_fold.add_argument("--seeds", default="", help="comma-separated seed features for stage 1")
    p_fold.add_argument("--fold-top-k", type=int, default=10,
                        help="how many Presence features feed the next stage")
    p_fold.set_defaults(func=cmd_fold)

    p_eval.add_argument("--synth", type=_parse_kv, default=None,
                        metavar="users=N,features=N,partitions=N[,strength=S][,zipf=A]")
    p_eval.add_argument("--epsilons", type=_parse_floats, default=list(DEFAULT_EPSILONS))
    p_eval.add_argument("--trials", type=int, default=5)
    p_eval.add_argument("--stability-epsilon", type=float, default=1.0)
    p_eval.add_argument("--runtime", action="store_true",
                        help="time batched vs sequential one-vs-all runs instead of sweeping")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def _privacy_from_args(args) -> PrivacyConfig | None:
    """The run's privacy config; None for a run that releases nothing (--no-dp, a
    saved --aggregate, eval --runtime), which reads no privacy flag and no seed."""
    top_k = getattr(args, "top_k", None)  # aggregate takes no --top-k
    if top_k is not None and top_k < 1:
        raise ValueError(f"--top-k must be >= 1, got {top_k}")
    if args.no_dp or getattr(args, "aggregate", None) or getattr(args, "runtime", False):
        return None
    if args.seed is None:
        raise ValueError("--seed is required when privacy is enabled (pass --no-dp to opt out)")
    return PrivacyConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        clamp_lo=args.clamp[0],
        clamp_hi=args.clamp[1],
        contribution_limit=args.contribution_limit,
        budget_split=args.budget_split,
        seed=args.seed,
    )


def _single_input(args) -> str:
    if len(args.input) != 1:
        raise ValueError(f"expected exactly one --input, got {len(args.input)}")
    return args.input[0]


def _ingest(path: str, args) -> tuple[Columns, dict]:
    """Read one input file; log and return its counts; no valid row is an error."""
    records, rejects, rows_read = read_records(path, args.columns)
    counts = {"rows_read": rows_read, "rows_rejected": dict(sorted(rejects.items()))}
    if not records:
        raise ValueError(
            f"{path}: no valid rows ({rows_read} read, rejected by reason {counts['rows_rejected']})"
        )
    logger.info("%s: %d rows read, rejected by reason: %s", path, rows_read, counts["rows_rejected"])
    return records, counts


# ---------------------------------------------------------------------------
# subcommands


def cmd_aggregate(args, privacy, accountant) -> list[dict]:
    records, counts = _ingest(_single_input(args), args)
    prepared = prepare_records(records, privacy)
    acc = accumulate(prepared)
    release_events: list = []
    table = release_aggregate_table(acc, privacy, accountant, manifest=release_events)
    spent = _ledger_event(accountant)["spent_epsilon"]
    write_aggregate_file(table, spent, args.output)
    events = [{"event": "ingest", **counts, "rows_after_bounding": len(prepared)}]
    events += [{"event": "release", **entry} for entry in release_events]
    events.append(
        {
            "event": "summary",
            "epsilon_spent": spent,
            "total": table.total,
            "joint_cells": len(table.joint),
            "features": len(table.feature_marginals),
            "partitions": len(table.partition_marginals),
        }
    )
    logger.info("aggregate written to %s (%d joint cells)", args.output, len(table.joint))
    return events


def _ledger_event(accountant: BudgetAccountant | None) -> dict:
    """Where the budget went: the total, each (label, epsilon) charge, their sum.

    A run that releases nothing (no DP, or ranking a saved aggregate) has an
    empty ledger with a total of 0.
    """
    if accountant is None:
        return {"event": "ledger", "total_epsilon": 0.0, "charges": [], "spent_epsilon": 0.0}
    return {
        "event": "ledger",
        "total_epsilon": accountant.total_epsilon,
        "charges": [[label, eps] for label, eps in accountant.spent],
        "spent_epsilon": accountant.spent_epsilon,
    }


def cmd_rank(args, privacy, accountant) -> list[dict]:
    swap = args.command == "flip"
    if args.aggregate:
        tables = build_probability_tables(read_aggregate_file(args.aggregate))
        results = (flip(tables) if swap else rank(tables))[: args.top_k]
    else:
        records, _ = _ingest(_single_input(args), args)
        results = rank_records(records, privacy, accountant, swap=swap, top_k=args.top_k)
    write_results(results, args.output, args.output_format)
    logger.info("%d ranked pairs written to %s", len(results), args.output)
    return [_ledger_event(accountant)]


def cmd_fold(args, privacy, accountant) -> list[dict]:
    if not args.input:
        raise ValueError("fold needs at least one --input")
    fold_epsilons = args.fold_epsilons
    if fold_epsilons is None:
        fold_epsilons = [args.epsilon / len(args.input)] * len(args.input)
    if len(fold_epsilons) != len(args.input):
        raise ValueError(
            f"got {len(fold_epsilons)} fold epsilons for {len(args.input)} inputs"
        )
    seeds = tuple(s for s in args.seeds.split(",") if s)
    ingested = [_ingest(path, args) for path in args.input]
    folds = [
        FoldSpec(records=records, epsilon=eps, top_k=args.fold_top_k)
        for (records, _), eps in zip(ingested, fold_epsilons)
    ]
    fold_results = nfold(folds, seeds, privacy, accountant)
    stage_results = [fr.results[: args.top_k] for fr in fold_results]
    if args.output_format == "tsv":  # refuse any stage before writing a file
        for results in stage_results:
            _check_tsv_keys(results)
    events = []
    for fr, results, (_, counts) in zip(fold_results, stage_results, ingested):
        out_path = f"{args.output}.fold{fr.index}.{args.output_format}"
        write_results(results, out_path, args.output_format)
        events.append(
            {
                "event": "fold",
                "index": fr.index,
                "epsilon": fr.epsilon,
                "cohort_size": fr.cohort_size,
                "rest_size": fr.rest_size,
                "seeds": list(fr.seeds),
                "next_seeds": list(fr.next_seeds),
                "output": out_path,
                **counts,
            }
        )
    ledger = _ledger_event(accountant)
    summary = {"epsilon_total": ledger["total_epsilon"], "epsilon_spent": ledger["spent_epsilon"]}
    return [*events, {"event": "summary", **summary, "folds": len(fold_results)}, ledger]


def _build_synth_records(kv: dict, seed: int) -> list[Record]:
    unknown = sorted(set(kv) - set(SYNTH_KEYS))
    if unknown:
        raise ValueError(f"unknown --synth key(s) {unknown}; expected some of {list(SYNTH_KEYS)}")
    users = int(kv.get("users", 10000))
    features = int(kv.get("features", 500))
    partitions = int(kv.get("partitions", 10))
    strength = float(kv.get("strength", 0.9))
    zipf = float(kv.get("zipf", 1.3))
    return synth_generate(users, features, partitions, strength, seed, zipf_exponent=zipf)


def cmd_eval(args, privacy, accountant) -> list[dict]:
    """Write sweep.tsv and stability.tsv, or runtime.tsv, under --output.

    The files compare against the noiseless baseline, so they and the
    manifest are exact, for the operator only. The manifest holds no timing,
    and no ledger: eval charges no budget.
    """
    if args.no_dp and not args.runtime:
        raise ValueError("eval sweeps measure DP noise and refuse --no-dp; only --runtime takes it")
    if args.synth is not None and args.input:
        raise ValueError(f"eval --synth reads no --input, got {len(args.input)}")
    events = []
    if args.synth is not None:
        records = _build_synth_records(args.synth, args.seed or 0)
    else:
        records, counts = _ingest(_single_input(args), args)
        events.append({"event": "ingest", **counts})
    if args.runtime:
        rt = runtime_compare(records)
        os.makedirs(args.output, exist_ok=True)
        path = os.path.join(args.output, "runtime.tsv")
        write_runtime_tsv(rt, path)
        logger.info("runtime ratio %.2f over %d partitions", rt.ratio, rt.partitions)
        return [*events, {"event": "eval", "mode": "runtime", "outputs": {path: 1}}]
    top_k = args.top_k if args.top_k is not None else 10000
    # both files' rows before the directory or either file, so a failure leaves no trace
    sweep_rows, stability_rows = sweep_and_stability(
        records, privacy, args.epsilons, args.stability_epsilon, args.trials, top_k,
        min(top_k, 100),
    )
    os.makedirs(args.output, exist_ok=True)
    sweep_path = os.path.join(args.output, "sweep.tsv")
    stability_path = os.path.join(args.output, "stability.tsv")
    write_sweep_tsv(sweep_rows, sweep_path)
    write_stability_tsv(stability_rows, stability_path)
    return [*events, {
        "event": "eval",
        "mode": "sweep",
        "epsilons": args.epsilons,
        "stability_epsilon": args.stability_epsilon,
        "trials": args.trials,
        "trial_seeds": [privacy.seed + t for t in range(args.trials)],
        "top_k": top_k,
        "outputs": {sweep_path: len(sweep_rows), stability_path: len(stability_rows)},
    }]


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    level = os.environ.get("DPMI_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    manifest_path = args.output + ".manifest.jsonl"
    accountant = None
    try:
        privacy = _privacy_from_args(args)
        accountant = BudgetAccountant(privacy.epsilon) if privacy is not None else None
        write_manifest(manifest_path, args.func(args, privacy, accountant))
        return 0
    except Exception as exc:  # single-line machine-parsable failure
        if accountant is not None and accountant.spent:  # a release spent budget
            with contextlib.suppress(OSError):  # the error line stays the whole of stderr
                write_manifest(manifest_path, [_ledger_event(accountant)])
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
