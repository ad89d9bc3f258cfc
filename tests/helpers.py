"""Independent reference implementations used as test oracles.

Everything in this module recomputes quantities from first principles
(explicit loops, itertools enumeration) so that library results are checked
against a second, structurally different route.
"""

import itertools
import math
import struct
import tracemalloc

import numpy as np

import shapprune as sp


def tiny_random_model(seed, kind, n_fields=3, field_size=2, dim=2, hidden=(4,)):
    """Randomly initialized micro model plus a matching random batch."""
    rng = np.random.default_rng(seed)
    schema = sp.FieldSchema.categorical(n_fields)
    tables = tuple({f"f{f}t{k}": k for k in range(field_size - 1)} for f in range(n_fields))
    vocab = sp.Vocabulary(schema, tables, 0)
    config = sp.TrainConfig(backbone=kind, dim=dim, hidden=hidden, seed=seed)
    model = sp.init_model(vocab, config)
    model.embedding.values[...] = rng.normal(0.0, 0.6, model.embedding.values.shape)
    model.backbone.linear[...] = rng.normal(0.0, 0.3, model.backbone.linear.shape)
    model.backbone.bias = float(rng.normal(0.0, 0.2))
    for weight, bias in model.backbone.layers:
        weight[...] = rng.normal(0.0, 0.5, weight.shape)
        bias[...] = rng.normal(0.0, 0.1, bias.shape)
    ids = np.stack(
        [vocab.offsets[:-1] + rng.integers(0, field_size, n_fields) for _ in range(8)]
    ).astype(np.int64)
    labels = rng.integers(0, 2, 8).astype(np.int64)
    return model, ids, labels


def small_table_corpus(seed, n_fields=3, field_size=4, count=37, used=None):
    """Random encoded dataset over a small table: with few rows per field,
    rows repeat across the instances of every batch. Ids are drawn from the
    first used rows of each field's block (all of it by default)."""
    rng = np.random.default_rng(seed)
    tables = tuple({f"f{f}t{k}": k for k in range(field_size - 1)} for f in range(n_fields))
    vocab = sp.Vocabulary(sp.FieldSchema.categorical(n_fields), tables, 0)
    ids = vocab.offsets[:-1] + rng.integers(0, used or field_size, (count, n_fields))
    labels = rng.integers(0, 2, count)
    return sp.dataset_from_encoded(ids.astype(np.int64), labels.astype(np.int64), vocab)


def flat_fm_model(n_fields, field_size, dim, seed=0):
    """Plain FM with random parameters and a random encoded dataset."""
    rng = np.random.default_rng(seed)
    tables = tuple({f"f{j}t{k}": k for k in range(field_size - 1)} for j in range(n_fields))
    vocab = sp.Vocabulary(sp.FieldSchema.categorical(n_fields), tables, 0)
    values = rng.normal(0.0, 0.5, (vocab.n, dim))
    model = sp.Model(
        sp.EmbeddingTable(values, vocab.offsets.copy()),
        sp.BackboneParams(sp.FM, 0.05, rng.normal(0.0, 0.1, vocab.n), []),
        vocab,
    )
    ids = np.stack(
        [vocab.offsets[:-1] + rng.integers(0, field_size, n_fields) for _ in range(32)]
    ).astype(np.int64)
    labels = rng.integers(0, 2, 32).astype(np.int64)
    ds = sp.dataset_from_encoded(ids, labels, vocab)
    return model, ds


def naive_predict_proba(model, feature_ids):
    """Score one instance with explicit loops instead of vectorized algebra."""
    backbone = model.backbone
    vectors = [np.asarray(model.embedding.values[i], dtype=np.float64) for i in feature_ids]
    z = float(backbone.bias)
    for i in feature_ids:
        z += float(backbone.linear[i])
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            z += float(np.dot(vectors[a], vectors[b]))
    if backbone.kind == "deepfm":
        h = np.concatenate(vectors)
        for weight, bias in backbone.layers[:-1]:
            h = np.maximum(weight @ h + bias, 0.0)
        weight, bias = backbone.layers[-1]
        z += float((weight @ h + bias)[0])
    p = 1.0 / (1.0 + math.exp(-z))
    return min(max(p, 1e-7), 1.0 - 1e-7)


def naive_log_loss(model, feature_ids, label):
    p = naive_predict_proba(model, feature_ids)
    return -math.log(p) if label == 1 else -math.log(1.0 - p)


def masked_log_loss(model, ids, label, kept_coords):
    """Loss of one encoded row (its active ``ids`` and ``label``) after
    zeroing every embedding coordinate outside ``kept_coords``.

    ``kept_coords`` is a set of (feature_id, column) pairs.  Coordinates of
    features that do not appear in the row are irrelevant to the score.
    """
    saved = model.embedding.values.copy()
    masked = np.zeros_like(saved)
    for (row, col) in kept_coords:
        masked[row, col] = saved[row, col]
    model.embedding.values[...] = masked
    try:
        return naive_log_loss(model, ids, label)
    finally:
        model.embedding.values[...] = saved


def exact_local_shapley_reference(model, ids, label, dim):
    """Per-coordinate Shapley values for one encoded row by direct enumeration.

    Players are the md coordinates of the row's own embedding rows.
    The value of a coalition is the loss drop obtained by keeping exactly
    that coalition and zeroing the rest, relative to keeping nothing.
    Uses the subset-weight form of the Shapley value.
    """
    players = [(fid, col) for fid in ids for col in range(dim)]
    md = len(players)
    value = {}
    for bits in range(1 << md):
        kept = {players[k] for k in range(md) if bits >> k & 1}
        value[bits] = masked_log_loss(model, ids, label, kept)
    base = value[0]
    phi = np.zeros((len(ids), dim))
    for k, (fid, col) in enumerate(players):
        total = 0.0
        for bits in range(1 << md):
            if bits >> k & 1:
                continue
            s = bin(bits).count("1")
            weight = 1.0 / (md * math.comb(md - 1, s))
            total += weight * ((value[bits | 1 << k] - base) - (value[bits] - base))
        # Loss drops as coordinates are kept; attribution follows the
        # removal direction, so negate the keep-direction marginal.
        phi[k // dim, k % dim] = -total
    return phi


def permutation_shapley_reference(model, ids, label, dim):
    """Same attribution as ``exact_local_shapley_reference`` via permutations."""
    players = [(fid, col) for fid in ids for col in range(dim)]
    md = len(players)
    phi = np.zeros((len(ids), dim))
    full = masked_log_loss(model, ids, label, set(players))
    for order in itertools.permutations(range(md)):
        kept = set(players)
        before = full
        for k in order:
            kept.discard(players[k])
            after = masked_log_loss(model, ids, label, kept)
            phi[k // dim, k % dim] += after - before
            before = after
    return phi / math.factorial(md)


def table_game_exact_shapley(model, ids, label, dim, n_rows):
    """Shapley values of the full-table game with n*d coordinate players.

    Every coordinate of the embedding table is a player, including rows of
    features absent from the row (ids, label).  Only usable for tiny tables.
    """
    nd = n_rows * dim
    losses = np.empty(1 << nd)
    for bits in range(1 << nd):
        kept = {(k // dim, k % dim) for k in range(nd) if bits >> k & 1}
        losses[bits] = masked_log_loss(model, ids, label, kept)
    base = losses[0]
    phi = np.zeros((n_rows, dim))
    for k in range(nd):
        total = 0.0
        for bits in range(1 << nd):
            if bits >> k & 1:
                continue
            s = bin(bits).count("1")
            weight = 1.0 / (nd * math.comb(nd - 1, s))
            total += weight * ((losses[bits | 1 << k] - base) - (losses[bits] - base))
        phi[k // dim, k % dim] = -total
    return phi


def stacked_walk_shapley(model, dataset, passes, seed):
    """Sampled Shapley scores by re-scoring every step of every walk.

    Visit k = pass * len(dataset) + instance draws its permutation on its
    own from the library's _walk_orders, then scores the full (md + 1, m, d)
    stack of progressively zeroed copies through the game's payoff function
    and charges each removed coordinate its loss difference.
    """
    from shapprune.attribution import _removal_losses, _walk_orders

    n, d = model.embedding.values.shape
    m = dataset.ids.shape[1]
    md = m * d
    count = len(dataset)
    phi = np.zeros((n, d))
    thresholds = np.arange(-1, md)[:, None, None]
    for visit in range(passes * count):
        pass_idx, inst_idx = divmod(visit, count)
        perm = _walk_orders(seed, np.array([pass_idx]), np.array([inst_idx]), md)[0]
        ids = dataset.ids[inst_idx]
        position = np.empty(md, np.int64)
        position[perm] = np.arange(md)
        removed = position.reshape(m, d)[None] <= thresholds
        losses = _removal_losses(model, ids, dataset.labels[inst_idx], removed)
        phi[ids] += np.diff(losses)[position].reshape(m, d)
    return phi / (passes * count)


def reference_estimate_shapley(model, dataset, passes=1, seed=0):
    """estimate_shapley as it was with one (n, d) table per visit block:
    each block scatters its marginals with np.add.at into its own zero
    table, and the tables are kept in a list and summed in block order at
    the end. The walk orders (_walk_orders), the walk (_walk_losses) and the
    block size constants are read from the library, so a monkeypatched size
    applies to both."""
    from shapprune import attribution
    from shapprune.attribution import SHAPLEY, AttributionScores, _walk_losses, _walk_orders

    def _visit_blocks(total_visits: int, md: int):
        size = max(1, min(attribution._BLOCK_VISITS, attribution._WALK_ROWS // (md + 1)))
        for start in range(0, total_visits, size):
            yield start, min(start + size, total_visits)

    def _run_block(model, dataset, seed: int, span) -> np.ndarray:
        n, d = model.embedding.values.shape
        md = dataset.ids.shape[1] * d
        phi = np.zeros((n, d))
        pass_idx, inst = np.divmod(np.arange(*span), len(dataset))
        perms = _walk_orders(seed, pass_idx, inst, md)
        ids = dataset.ids[inst]
        losses = _walk_losses(model, ids, dataset.labels[inst], perms)
        local = np.empty(perms.shape)
        local[np.arange(inst.shape[0])[:, None], perms] = np.diff(losses, axis=1)
        np.add.at(phi, ids, local.reshape(ids.shape + (d,)))
        return phi

    count = len(dataset)
    md = dataset.ids.shape[1] * model.embedding.d
    total_visits = passes * count
    spans = list(_visit_blocks(total_visits, md))
    parts = [_run_block(model, dataset, seed, span) for span in spans]
    phi = np.zeros((model.embedding.n, model.embedding.d))
    for part in parts:  # fixed merge order
        phi += part
    phi /= total_visits
    return AttributionScores(
        phi,
        SHAPLEY,
        seed=seed,
        passes=passes,
        forward_count=(md + 1) * total_visits,
        dataset_fingerprint=dataset.fingerprint(),
    )


def full_removal_jumps(model, ids, labels):
    """Per-row loss jump (B,) from the model to a copy of it whose table is
    all zero, both scored through predict_proba: the payoff of removing
    every active coordinate of each row."""
    zeroed = sp.Model(
        sp.EmbeddingTable(np.zeros_like(model.embedding.values), model.embedding.offsets),
        model.backbone,
        model.vocab,
    )
    return sp.log_loss(sp.predict_proba(zeroed, ids), labels) - sp.log_loss(
        sp.predict_proba(model, ids), labels
    )


def dense_batch_gradients(values, backbone, ids, labels):
    """One mini-batch's mean loss, its (n, d+1) embedding-then-linear
    gradient scattered into a zero table of full size, and its flat head
    gradient [bias, W1, b1, ...]."""
    from shapprune.model import _batch_gradients

    p, rows, row_grad, head_grad = _batch_gradients(values, backbone, ids, labels)
    grad = np.zeros((values.shape[0], values.shape[1] + 1))
    grad[rows] = row_grad
    return float(np.mean(sp.log_loss(p, labels))), grad, head_grad


def flat_gradient(grad, head_grad):
    """A dense_batch_gradients result as one vector in flatten_params order:
    embedding, linear, bias, then each layer's weights and bias."""
    return np.concatenate([grad[:, :-1].ravel(), grad[:, -1], head_grad])


def reference_batch_gradients(values, backbone, ids, labels, scale=None):
    """The mini-batch gradient from textbook formulas, sharing no code with
    the library's forward or backward pass, as a bitwise oracle: (p, rows,
    embedding (U, d), linear (U,), bias, [(dW, db)] per layer). The score
    is bias + sum_j w[i_j] + (|sum_j e_j|^2 - sum_j |e_j|^2) / 2, plus for
    a DeepFM the output of the ReLU MLP on the concatenated e_j; each sum
    runs in numpy's order, the same as the library's. The touched rows and
    their in-order sums are separate steps here (_reference_touched_rows,
    _reference_row_sums), the linear gradient is its own scatter-add of
    np.repeat(dz, m), and the layer gradients are separate arrays gathered
    from the output layer back."""
    B, m = ids.shape
    d = values.shape[1]
    if scale is None:
        scale = 1.0 / B
    emb = values[ids]
    column_sums = emb.sum(axis=1)
    square_of_sum = (column_sums**2).sum(axis=1)
    sum_of_squares = (emb**2).sum(axis=(1, 2))
    z = backbone.bias + backbone.linear[ids].sum(axis=1) + 0.5 * (square_of_sum - sum_of_squares)
    inputs, pres = [], []
    if backbone.kind == sp.DEEPFM:
        a = emb.reshape(B, m * d)
        for k, (W, b) in enumerate(backbone.layers):
            inputs.append(a)
            pres.append(a @ W.T + b)
            a = np.maximum(pres[-1], 0.0) if k < len(backbone.layers) - 1 else pres[-1]
        z = z + a[:, 0]

    p = 1.0 / (1.0 + np.exp(-z))
    dz = scale * (p - labels.astype(np.float64))

    grad_bias = float(dz.sum())
    rows, where = _reference_touched_rows(ids, values.shape[0])
    grad_linear = _reference_row_sums(where, rows.shape[0], np.repeat(dz, m))

    demb = dz[:, None, None] * (column_sums[:, None, :] - emb)

    grad_layers = []
    if backbone.kind == sp.DEEPFM:
        W, _ = backbone.layers[-1]
        dout = dz[:, None]
        grad_layers.append((dout.T @ inputs[-1], dout.sum(axis=0)))
        dh = dout @ W
        for h_in, pre, (W, _) in zip(inputs[-2::-1], pres[-2::-1], backbone.layers[-2::-1]):
            da = dh * (pre > 0)
            grad_layers.append((da.T @ h_in, da.sum(axis=0)))
            dh = da @ W
        grad_layers.reverse()
        demb = demb + dh.reshape(B, m, d)

    grad_block = _reference_row_sums(where, rows.shape[0], demb.reshape(-1, d))
    return p, rows, grad_block, grad_linear, grad_bias, grad_layers


def _reference_touched_rows(ids, n):
    """The sorted distinct rows (U,) of an id array and, for each id in
    ravelled order, its index into them."""
    flat = ids.ravel()
    flag = np.zeros(n, bool)
    flag[flat] = True
    rows = np.flatnonzero(flag)
    where = np.empty(n, np.intp)
    where[rows] = np.arange(rows.shape[0])
    return rows, where[flat]


def _reference_row_sums(where, count, parts):
    """Sums of parts (K, ...) into count rows, part k going to row where[k],
    by np.bincount in order of k from 0.0."""
    width = math.prod(parts.shape[1:])
    bins = (where[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(bins, weights=parts.ravel(), minlength=count * width)
    return sums.reshape((count,) + parts.shape[1:])


def dense_adam_train(dataset, config, init=None, mask=None, padding=None):
    """Mini-batch Adam that updates every coordinate of every parameter, one
    array at a time, from full-size gradients: the optimizer that lazy Adam
    replaced, kept as a quality reference."""
    return _reference_adam_train(dataset, config, init, mask, padding, lazy=False)


def lazy_adam_train(dataset, config, init=None, mask=None, padding=None):
    """Mini-batch lazy Adam from full-size gradients: the embedding and
    linear moments and parameters change only at the rows present in the
    batch's ids, with the bias correction of the global step count, and the
    bias and every MLP array get dense Adam, one array at a time. The
    reference that train must match bit for bit."""
    return _reference_adam_train(dataset, config, init, mask, padding, lazy=True)


def _reference_adam_train(dataset, config, init, mask, padding, lazy):
    import copy

    from shapprune.codebook import impute
    from shapprune.model import ADAM_EPS, BETA1, BETA2, NonFiniteError, _views, init_model

    model = copy.deepcopy(init) if init is not None else init_model(dataset.vocab, config)
    table = model.embedding
    backbone = model.backbone

    flags = None
    if mask is not None:
        if mask.shape != table.values.shape:
            raise ValueError("mask shape does not match the embedding table")
        flags = mask.dense()
        table.values = impute(table.values, table.offsets, flags, padding)
    values = table.values

    params = [values, backbone.linear, np.array([backbone.bias])]
    params.extend(p for pair in backbone.layers for p in pair)
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]

    shuffle_rng = np.random.default_rng((config.seed, 1))
    step = 0
    count = len(dataset)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(count)
        for batch_index, start in enumerate(range(0, count, config.batch_size)):
            take = order[start : start + config.batch_size]
            ids = dataset.ids[take]
            try:
                _, grad, head_grad = dense_batch_gradients(
                    values, backbone, ids, dataset.labels[take]
                )
            except NonFiniteError:
                raise sp.TrainingDiverged(
                    f"non-finite loss at epoch {epoch} batch {batch_index}"
                ) from None
            if flags is not None:
                grad[:, :-1][flags] = 0.0
            grad_list = [grad[:, :-1], grad[:, -1], head_grad[:1]]
            grad_list.extend(g for pair in _views(head_grad[1:], backbone.layers) for g in pair)
            rows = slice(None)
            if lazy:
                rows = np.zeros(values.shape[0], bool)
                rows[ids.ravel()] = True
            step += 1
            correct1 = 1.0 - BETA1 ** step
            correct2 = 1.0 - BETA2 ** step
            for k, (p, g, m1, m2) in enumerate(zip(params, grad_list, moment1, moment2)):
                at = rows if k < 2 else slice(None)
                m1[at] = BETA1 * m1[at] + (1.0 - BETA1) * g[at]
                m2[at] = BETA2 * m2[at] + (1.0 - BETA2) * (g[at] * g[at])
                p[at] -= (
                    config.learning_rate * (m1[at] / correct1)
                    / (np.sqrt(m2[at] / correct2) + ADAM_EPS)
                )
            backbone.bias = float(params[2][0])
    return model


def codebook_objective(
    model,
    dataset,
    codebook,
    budget_fraction: float,
    n_samples: int = 10_000,
    seed: int = 0,
) -> float:
    """Monte Carlo estimate of the expected squared perturbation of the
    active-embedding sum when a uniformly random coordinate set of size
    round(budget_fraction * n * d) is replaced by the codebook.

    The sample stream depends only on (dataset, budget_fraction, n_samples,
    seed), so candidates evaluated with identical arguments share the same
    draws.
    """
    values = model.embedding.values
    n, d = values.shape
    total = n * d
    budget = int(np.rint(budget_fraction * total))
    if budget == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(dataset), size=n_samples)
    # one uniform size-budget coordinate subset per sample
    masked = rng.random((n_samples, total)).argsort(axis=1)[:, :budget]
    member = np.zeros((n_samples, total), bool)
    member[np.repeat(np.arange(n_samples), budget), masked.ravel()] = True

    ids = dataset.ids[picks]  # (S, m)
    flat = ids[:, :, None] * d + np.arange(d)[None, None, :]  # (S, m, d)
    hit = member[np.arange(n_samples)[:, None, None], flat]
    delta = (values[ids] - codebook.values[None, :, :]) * hit
    shift = delta.sum(axis=1)
    return float(np.mean((shift * shift).sum(axis=1)))


def lexsort_prune_order(scores, frequencies=None):
    """Flat coordinate indices in pruning order from one four-key lexsort:
    score, then lower frequency, then larger row, then larger column."""
    n, d = scores.shape
    if frequencies is None:
        frequencies = np.zeros(n, np.int64)
    rows = np.repeat(np.arange(n), d)
    cols = np.tile(np.arange(d), n)
    return np.lexsort((-cols, -rows, np.repeat(frequencies, d), scores.ravel()))


def pruned_sections(blob):
    """The (tag, payload) sections of a pruned file, in file order."""
    from shapprune import serialization as ser
    from shapprune.model import read_backbone, read_head

    r = ser.unseal(blob)
    ser.expect_kind(r, ser.TAG_PRUNED, "a pruned model")
    head = read_head(r)
    r.u8()
    r.f64()
    read_backbone(r, head)
    return [(tag, bytes(payload)) for tag, payload in r.sections()]


def reference_kept(flags, values):
    """Kept section payload for the kept entries of a bool (n, d) pruned-flag
    array, set bit by bit: per row ceil(d/8) bytes with column j's kept flag
    at bit 7 - j % 8 of byte j // 8, then the kept values f64 in row-major
    order."""
    n, d = flags.shape
    width = (d + 7) // 8
    bitmap = bytearray(n * width)
    kept_values = []
    for i in range(n):
        for j in range(d):
            if not flags[i, j]:
                bitmap[i * width + j // 8] |= 0x80 >> (j % 8)
                kept_values.append(struct.pack("<d", values[i, j]))
    return bytes(bitmap) + b"".join(kept_values)


def pairwise_auc_reference(labels, scores):
    """AUC as the fraction of correctly ordered positive/negative pairs."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (pos.size * neg.size)


def flatten_params(model):
    """All trainable parameters as one flat vector, with a rebuilder."""
    backbone = model.backbone
    parts = [model.embedding.values, backbone.linear, np.array([backbone.bias])]
    for weight, bias in backbone.layers:
        parts.append(weight)
        parts.append(bias)
    shapes = [p.shape for p in parts]
    flat = np.concatenate([p.ravel() for p in parts])

    def write_back(vector):
        cursor = 0
        arrays = []
        for shape in shapes:
            size = int(np.prod(shape))
            arrays.append(vector[cursor:cursor + size].reshape(shape))
            cursor += size
        model.embedding.values[...] = arrays[0]
        backbone.linear[...] = arrays[1]
        backbone.bias = float(arrays[2][0])
        for idx, (weight, bias) in enumerate(backbone.layers):
            weight[...] = arrays[3 + 2 * idx]
            bias[...] = arrays[4 + 2 * idx]

    return flat, write_back


def batch_loss_mean(model, ids, labels):
    total = 0.0
    for row, label in zip(ids, labels):
        total += naive_log_loss(model, row, label)
    return total / len(labels)


def reference_build_vocabulary(raw_rows, schema, min_count=0):
    """build_vocabulary as a row-by-row, cell-by-cell loop: the form that
    data._token_columns replaced, kept to check it against."""
    from shapprune.data import OOV_TOKEN, _cell_token, _check_width, _parse_label

    m = schema.field_count
    counters = [dict() for _ in range(m)]
    row_number = 0
    for row in raw_rows:
        row_number += 1
        _check_width(row, m, row_number)
        _parse_label(row[0], row_number)
        for j in range(m):
            token = _cell_token(schema.kinds[j], row[j + 1])
            counters[j][token] = counters[j].get(token, 0) + 1
    if row_number == 0:
        raise sp.DataError("empty dataset")
    tables = []
    for j in range(m):
        kept = {}
        for token, count in counters[j].items():
            if count >= min_count and token != OOV_TOKEN:
                kept[token] = len(kept)
        tables.append(kept)
    return sp.Vocabulary(schema, tuple(tables), min_count)


def _reference_encode_token(vocab, field, token):
    local = vocab.tables[field].get(token)
    if local is None:
        return vocab.oov_id(field)
    return int(vocab.offsets[field]) + local


def reference_encode_rows(raw_rows, vocab):
    """encode_rows as a row-by-row loop with one token lookup per cell."""
    from shapprune.data import _cell_token, _check_width, _parse_label

    schema = vocab.schema
    m = schema.field_count
    ids_rows, labels = [], []
    row_number = 0
    for row in raw_rows:
        row_number += 1
        _check_width(row, m, row_number)
        labels.append(_parse_label(row[0], row_number))
        ids_rows.append(
            [
                _reference_encode_token(vocab, j, _cell_token(schema.kinds[j], row[j + 1]))
                for j in range(m)
            ]
        )
    if row_number == 0:
        raise sp.DataError("empty dataset")
    return sp.dataset_from_encoded(np.array(ids_rows, np.int64), np.array(labels, np.int64), vocab)


def reference_synthetic_rows(config):
    """synthetic_rows with its rows built one at a time, indexing the numpy
    label and token arrays once per cell."""
    from scipy.special import expit
    from shapprune.synth import (
        LATENT_RANK,
        NOISE_SCALE,
        STRONG_POOL_FRACTION,
        STRONG_SCALE,
        ZIPF_EXPONENT,
    )

    rng = np.random.default_rng(config.seed)
    m = config.fields

    token_idx = []
    latents = []
    effects = []
    for j in range(m):
        size = config.tokens_per_field[j]
        popularity = (1.0 + np.arange(size)) ** -ZIPF_EXPONENT
        popularity /= popularity.sum()
        token_idx.append(rng.choice(size, size=config.rows, p=popularity))
        theta = rng.normal(0.0, NOISE_SCALE, (size, LATENT_RANK))
        beta = np.zeros(size)
        pool = max(2, int(size * STRONG_POOL_FRACTION))
        strong = rng.choice(pool, size=max(2, size // 20), replace=False)
        theta[strong] = rng.normal(0.0, STRONG_SCALE, (strong.shape[0], LATENT_RANK))
        beta[strong] = rng.normal(0.0, 1.2, strong.shape[0])
        latents.append(theta)
        effects.append(beta)

    active = np.stack([latents[j][token_idx[j]] for j in range(m)], axis=1)  # (rows, m, r)
    total = active.sum(axis=1)
    pair = 0.5 * ((total * total).sum(axis=1) - (active * active).sum(axis=(1, 2)))
    logit = pair + sum(effects[j][token_idx[j]] for j in range(m))
    logit -= np.median(logit)
    labels = (rng.random(config.rows) < expit(logit)).astype(int)

    rows = []
    for k in range(config.rows):
        rows.append([str(labels[k])] + [f"t{token_idx[j][k]}" for j in range(m)])
    return rows


def reference_toy_rows(seed=0):
    """toy_rows as it was written with scipy's expit, word for word: the
    pinned toy corpus that the acceptance criteria and the toy benchmark
    workload are built on."""
    from scipy.special import expit
    from shapprune.data import FieldSchema

    rng = np.random.default_rng(seed)
    rows_count = 40

    def column(spec):
        col = []
        for token, count in spec:
            col.extend([token] * count)
        assert len(col) == rows_count
        rng.shuffle(col)
        return col

    col0 = column([("a", 34), ("r1", 3), ("r2", 2), ("r3", 1)])
    col1 = column([("b", 33), ("r4", 3), ("r5", 3), ("r6", 1)])
    col2 = column([("c", 18), ("d", 14), ("r7", 3), ("r8", 3), ("r9", 2)])

    kept = {0: {"a"}, 1: {"b"}, 2: {"c", "d"}}
    weight = {
        (0, "a"): 1.2, (0, "<oov>"): -0.8,
        (1, "b"): -0.5, (1, "<oov>"): 1.0,
        (2, "c"): 0.9, (2, "d"): -1.1, (2, "<oov>"): 0.3,
    }

    rows = []
    for k in range(rows_count):
        tokens = (col0[k], col1[k], col2[k])
        groups = [t if t in kept[j] else "<oov>" for j, t in enumerate(tokens)]
        logit = sum(weight[(j, g)] for j, g in enumerate(groups))
        if groups[0] == "a" and groups[2] == "d":
            logit += 1.5
        if groups[1] == "<oov>" and groups[2] == "c":
            logit -= 1.3
        label = int(rng.random() < expit(logit))
        rows.append([str(label), *tokens])
    return rows, FieldSchema.categorical(3)


def traced_peak(call):
    """Peak bytes of traced allocation that call() adds, tracing with
    tracemalloc unless a caller already does."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not outer:
            tracemalloc.stop()
