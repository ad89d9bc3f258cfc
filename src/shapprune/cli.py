"""Command-line pipeline: synth, train, attribute, prune, eval, curve,
oracle.

Every subcommand is runnable on its own given its input files, prints
key=value lines on stdout, and exits 0 on success, 1 on a domain error
(bad values, diverged training, corrupt checkpoints), 2 on usage or missing
file problems. A --config file of key=value lines overrides parsed flags,
last line wins.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from .attribution import (
    AttributionScores,
    MAGNITUDE,
    METHODS,
    SHAPLEY,
    TAYLOR,
    efficiency_gap,
    estimate_shapley,
    exact_shapley_global,
    score_magnitude,
    score_taylor,
)
from .codebook import compute_codebook
from .data import (
    DataError,
    FieldSchema,
    Vocabulary,
    build_vocabulary,
    encode_rows,
    read_csv_rows,
    write_csv_rows,
)
from .model import (
    DEEPFM,
    FM,
    EmbeddingTable,
    Model,
    NonFiniteError,
    TrainConfig,
    TrainingDiverged,
    load_model,
    save_model,
    train,
)
from .pruner import (
    CODEBOOK,
    ZERO,
    PrunedModel,
    evaluate,
    frequency_bucket_report,
    load_pruned,
    prune,
    prune_curve,
    write_curve_csv,
)
from .model import check_vocabulary, model_from_bytes
from .serialization import BODY_START, CheckpointError, unseal, TAG_PRUNED, MODEL_TAGS
from .synth import SyntheticConfig, synthetic_rows, synthetic_schema


def log(**pairs) -> None:
    parts = []
    for key, value in pairs.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.6f}")
        elif value is None:
            parts.append(f"{key}=undefined")
        else:
            parts.append(f"{key}={value}")
    print(" ".join(parts), flush=True)


def _ints(text: str) -> tuple:
    return tuple(int(part) for part in text.split(",") if part != "")


def _floats(text: str) -> tuple:
    return tuple(float(part) for part in text.split(",") if part != "")


def _load_inputs(args):
    vocab = Vocabulary.load(args.vocab)
    return vocab, encode_rows(read_csv_rows(args.data), vocab)


def _detect_and_load(path, vocab=None):
    """Model checkpoints and pruned checkpoints share the container format;
    dispatch on the kind tag. The tag is read before the file is checked:
    either loader unseals the file, so it is checked once, and any other
    file is unsealed here, so a damaged one reports as damaged."""
    with open(path, "rb") as fh:
        data = fh.read()
    tag = data[BODY_START] if len(data) > BODY_START else None
    if tag == TAG_PRUNED:
        pruned = PrunedModel.from_bytes(data)
        check_vocabulary(vocab, pruned.n, pruned.offsets)
        return pruned
    if tag in MODEL_TAGS:
        return model_from_bytes(data, vocab)
    tag = unseal(data).u8()
    raise CheckpointError(f"file holds neither a model nor a pruned model (kind tag {tag})")


def cmd_synth(args) -> int:
    sizes = args.tokens_per_field
    if len(sizes) == 1:
        sizes = sizes * args.fields
    start = time.perf_counter()
    config = SyntheticConfig(args.fields, sizes, args.rows, args.seed)
    rows = synthetic_rows(config)
    write_csv_rows(args.out, rows)
    if args.schema_out:
        synthetic_schema(config).save(args.schema_out)
    seconds = time.perf_counter() - start
    positives = sum(int(r[0]) for r in rows)
    log(event="synth", rows=len(rows), fields=args.fields, positives=positives,
        seconds=seconds, out=args.out)
    return 0


def cmd_train(args) -> int:
    config = TrainConfig(
        backbone=args.backbone,
        dim=args.dim,
        hidden=args.hidden,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        seed=args.seed,
    )
    rows = read_csv_rows(args.data)
    if args.vocab:
        vocab = Vocabulary.load(args.vocab)
    else:
        if not args.schema:
            print("error: --schema is required when --vocab is not given", file=sys.stderr)
            return 2
        schema = FieldSchema.load(args.schema)
        vocab = build_vocabulary(rows, schema, args.min_count)
        vocab_out = args.vocab_out or f"{args.out}.vocab"
        vocab.save(vocab_out)
        log(event="vocabulary", features=vocab.n, fields=vocab.field_count, out=vocab_out)
    dataset = encode_rows(rows, vocab)

    init = mask = padding = None
    if args.mask:
        pruned = load_pruned(args.mask)
        check_vocabulary(vocab, pruned.n, pruned.offsets)
        mask = pruned.prune_mask()
        padding = ZERO if pruned.codebook is None else pruned.codebook
        # train works on a copy, so the pruned table can seed it directly
        init = Model(EmbeddingTable(pruned.values, pruned.offsets), pruned.backbone, vocab)
        log(event="finetune", mask=args.mask, pruned_coords=mask.count, padding=pruned.padding)

    def on_epoch(epoch, loss):
        log(event="epoch", epoch=epoch, logloss=loss)

    start = time.perf_counter()
    model = train(dataset, config, init=init, mask=mask, padding=padding, log_fn=on_epoch)
    seconds = time.perf_counter() - start
    steps = config.epochs * math.ceil(len(dataset) / config.batch_size)
    save_model(model, args.out)
    report = evaluate(model, dataset)
    summary = {"event": "train_done", "train_logloss": report.logloss, "train_auc": report.auc}
    if args.val_data:
        val = encode_rows(read_csv_rows(args.val_data), vocab)
        val_report = evaluate(model, val)
        summary.update(val_logloss=val_report.logloss, val_auc=val_report.auc)
    summary.update(seconds=seconds, steps=steps, steps_per_s=steps / seconds, out=args.out)
    log(**summary)
    return 0


def cmd_attribute(args) -> int:
    vocab = Vocabulary.load(args.vocab)
    model = load_model(args.model, vocab)
    if args.method != MAGNITUDE:
        if not args.data:
            print("error: --data is required for this scoring method", file=sys.stderr)
            return 2
        full = encode_rows(read_csv_rows(args.data), vocab)
        dataset = full.subsample(args.fraction, args.seed)  # refuses fractions outside (0, 1]
        if dataset is not full:
            log(event="subsample", fraction=args.fraction, rows=len(dataset))
    start = time.perf_counter()
    if args.method == SHAPLEY:
        scores = estimate_shapley(model, dataset, passes=args.passes, seed=args.seed)
    elif args.method == TAYLOR:
        scores = score_taylor(model, dataset)
    else:
        scores = score_magnitude(model)
    seconds = time.perf_counter() - start
    report = dict(seconds=seconds)
    if args.method == SHAPLEY:
        report.update(
            visits_per_s=scores.passes * len(dataset) / seconds,
            forwards_per_s=scores.forward_count / seconds,
            efficiency_gap=f"{efficiency_gap(model, dataset, scores):.3e}",
        )
    scores.save(args.out)
    log(
        event="attribute",
        method=args.method,
        passes=scores.passes,
        forwards=scores.forward_count,
        fingerprint=scores.dataset_fingerprint,
        **report,
        out=args.out,
    )
    return 0


def cmd_prune(args) -> int:
    if args.data and not args.vocab:
        print("error: --data needs --vocab to encode it", file=sys.stderr)
        return 2
    if args.padding == CODEBOOK and not args.data:
        print("error: --padding codebook needs --data to compute the codebook", file=sys.stderr)
        return 2
    vocab = Vocabulary.load(args.vocab) if args.vocab else None
    model = load_model(args.model, vocab)
    scores = AttributionScores.load(args.scores)
    dataset = encode_rows(read_csv_rows(args.data), vocab) if args.data else None
    frequencies = None if dataset is None else dataset.frequencies
    codebook = compute_codebook(model, dataset) if args.padding == CODEBOOK else None
    start = time.perf_counter()
    pruned = prune(model, scores, args.sparsity, args.padding, codebook, frequencies)
    seconds = time.perf_counter() - start
    pruned.save(args.out)
    log(
        event="prune",
        sparsity=args.sparsity,
        kept=pruned.kept_count,
        pruned=pruned.n * pruned.dim - pruned.kept_count,
        padding=args.padding,
        seconds=seconds,
        coords_per_s=pruned.n * pruned.dim / seconds,
        out=args.out,
    )
    return 0


def cmd_eval(args) -> int:
    vocab, dataset = _load_inputs(args)
    target = _detect_and_load(args.model, vocab)
    start = time.perf_counter()
    report = evaluate(target, dataset)
    seconds = time.perf_counter() - start
    log(
        event="eval",
        logloss=report.logloss,
        auc=report.auc,
        count=len(dataset),
        bytes=os.path.getsize(args.model),
        seconds=seconds,
        rows_per_s=len(dataset) / seconds,
    )
    if isinstance(target, PrunedModel):
        for index, bucket in enumerate(frequency_bucket_report(target, dataset.frequencies)):
            log(event="freq_bucket", bucket=index, **bucket)
    return 0


def cmd_curve(args) -> int:
    vocab, dataset = _load_inputs(args)
    model = load_model(args.model, vocab)
    scores = AttributionScores.load(args.scores)
    codebook = compute_codebook(model, dataset) if args.padding == CODEBOOK else None
    start = time.perf_counter()
    rows = prune_curve(
        model,
        scores,
        args.sparsities,
        dataset,
        padding=args.padding,
        codebook=codebook,
        frequencies=dataset.frequencies,
    )
    seconds = time.perf_counter() - start
    write_curve_csv(args.out, rows)
    for row in rows:
        log(event="curve", **row)
    log(
        event="curve_done",
        points=len(rows),
        seconds=seconds,
        points_per_s=len(rows) / seconds,
        out=args.out,
    )
    return 0


def cmd_oracle(args) -> int:
    vocab, dataset = _load_inputs(args)
    model = load_model(args.model, vocab)
    start = time.perf_counter()
    scores = exact_shapley_global(model, dataset)
    seconds = time.perf_counter() - start
    scores.save(args.out)
    log(event="oracle", forwards=scores.forward_count, seconds=seconds,
        forwards_per_s=scores.forward_count / seconds, out=args.out)
    if args.compare:
        other = AttributionScores.load(args.compare)
        if other.values.shape != scores.values.shape:
            raise DataError("compared score matrices have different shapes")
        mae = float(np.abs(other.values - scores.values).mean())
        log(event="oracle_compare", against=args.compare, mae=mae)
    return 0


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="key=value file overriding flags, last wins")

    parser = argparse.ArgumentParser(
        prog="shapprune",
        description="Budgeted embedding-table pruning guided by Shapley attribution",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = sub.add_parser("synth", parents=[shared], help="emit planted-importance CTR data")
    p.add_argument("--out", required=True)
    p.add_argument("--schema-out")
    p.add_argument("--fields", type=int, default=5)
    p.add_argument("--tokens-per-field", type=_ints, default=(400,))
    p.add_argument("--rows", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_synth, input_paths=())
    commands["synth"] = p

    p = sub.add_parser("train", parents=[shared], help="train a CTR model")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", help="JSON field schema (unless --vocab is given)")
    p.add_argument("--vocab", help="existing vocabulary file to encode with")
    p.add_argument("--vocab-out", help="where to write a newly built vocabulary")
    p.add_argument("--val-data")
    p.add_argument("--out", required=True)
    p.add_argument("--backbone", choices=(FM, DEEPFM), default=FM)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--hidden", type=_ints, default=(16, 16))
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--min-count", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask", help="pruned checkpoint; fine-tune with its mask frozen")
    p.set_defaults(handler=cmd_train, input_paths=("data", "schema", "vocab", "val_data", "mask"))
    commands["train"] = p

    p = sub.add_parser("attribute", parents=[shared], help="score embedding parameters")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--data")
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=METHODS, default=SHAPLEY)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fraction", type=float, default=1.0, help="subsample the data first")
    p.set_defaults(handler=cmd_attribute, input_paths=("model", "vocab", "data"))
    commands["attribute"] = p

    p = sub.add_parser("prune", parents=[shared], help="prune to a parameter budget")
    p.add_argument("--model", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sparsity", type=float, required=True)
    p.add_argument("--padding", choices=(ZERO, CODEBOOK), default=ZERO)
    p.add_argument("--vocab")
    p.add_argument("--data", help="tie-break frequencies; needed for --padding codebook")
    p.set_defaults(handler=cmd_prune, input_paths=("model", "scores", "vocab", "data"))
    commands["prune"] = p

    p = sub.add_parser("eval", parents=[shared], help="report logloss, AUC, size")
    p.add_argument("--model", required=True, help="dense or pruned checkpoint")
    p.add_argument("--vocab", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(handler=cmd_eval, input_paths=("model", "vocab", "data"))
    commands["eval"] = p

    p = sub.add_parser("curve", parents=[shared], help="metrics across a sparsity grid")
    p.add_argument("--model", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--sparsities",
        type=_floats,
        default=(0.2, 0.4, 0.5, 0.6, 0.8, 0.9, 0.95, 0.99, 0.999),
    )
    p.add_argument("--padding", choices=(ZERO, CODEBOOK), default=ZERO)
    p.set_defaults(handler=cmd_curve, input_paths=("model", "scores", "vocab", "data"))
    commands["curve"] = p

    p = sub.add_parser("oracle", parents=[shared], help="exact attribution for small models")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--compare", help="estimated score file to report MAE against")
    p.set_defaults(handler=cmd_oracle, input_paths=("model", "vocab", "data", "compare"))
    commands["oracle"] = p

    return parser, commands


def apply_config(args, command_parser) -> None:
    """Overlay key=value lines from --config onto parsed flags. Values go
    through the flag's type and choices, as on the command line."""
    actions = {a.dest: a for a in command_parser._actions}
    with open(args.config, encoding="utf-8") as fh:
        for line_number, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"config line {line_number}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            dest = key.strip().replace("-", "_")
            if dest not in actions or dest in ("config", "command"):
                raise DataError(f"config line {line_number}: unknown key {key.strip()!r}")
            action = actions[dest]
            value = value.strip() if action.type is None else action.type(value.strip())
            if action.choices is not None and value not in action.choices:
                raise DataError(
                    f"config line {line_number}: {key.strip()} must be one of "
                    f"{', '.join(action.choices)}, got {value!r}"
                )
            setattr(args, dest, value)


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.config:
            if not os.path.exists(args.config):
                print(f"error: no such file: {args.config}", file=sys.stderr)
                return 2
            apply_config(args, commands[args.command])
        for dest in args.input_paths:
            path = getattr(args, dest, None)
            if path and not os.path.exists(path):
                print(f"error: no such file: {path}", file=sys.stderr)
                return 2
        return args.handler(args)
    except (DataError, ValueError, CheckpointError, TrainingDiverged, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
