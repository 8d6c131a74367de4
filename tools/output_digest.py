"""Print three SHA-256 digests over the package's outputs at fixed seeds.

The ``values`` digest covers, at several model shapes: binary32
``next_logits`` rows of the base, adapted and black-box models at every
prefix of a few sequences; ``train_neural_lm`` snapshot bytes; ``train_lora``
factors (binary64) and adapter bytes; ``loss_and_grads`` loss and gradients;
and the greedy tokens of every generation mode (in-process ``generate_*``
and every protocol mode, ``prada-sd`` at S = 1 and 8). The ``stochastic``
digest covers the same modes' stochastic tokens, so a change of the
stochastic token rule moves it and leaves ``values`` alone. The
base and black-box models of every shape carry seeded nonzero biases, since
adding zero hides a reordered bias addition. The ``billing`` digest covers
each protocol session's billed bytes per ledger category and direction and
its round and token counters, so a change to how drafts are sized moves it
and leaves ``values`` alone. One more case
runs adapter training at the benchmark's train-adapter size (V = 512,
context 8, embed 16, hidden 64, rank 8, 32 documents of 64 tokens, batch 8,
one epoch) and then ``loss_and_grads`` over the whole corpus (2016
positions: 7 row blocks of ``models.row_blocks`` in the backward pass, 1 in
the forward pass's first layer), so the large-batch path,
where BLAS runs threaded and the step works block by block, is covered too.

It also checks the mode equivalences on the way: ``api`` must equal
``generate_blackbox``, and ``prada`` (per token), ``prada-sd`` at S = 1 and 8
and the transfer mode must each equal ``generate_adapted``, greedy and
stochastic. A mismatch exits nonzero and names the run.

A refactor that must not change any output runs this before and after, on
one machine, and compares the last three lines. The digests depend on the numpy
and BLAS build, so they are never golden values to commit. They also depend
on the BLAS thread count, so compare runs under one setting. With numpy
2.4.6 and OpenBLAS 0.3.31 on 2 vCPUs, ``OPENBLAS_NUM_THREADS=1`` moves only
the ``train=`` line and the ``shape=257x8x32x128x8`` line, and with them the
``values`` digest; inference rows and every ``stochastic`` and ``billing``
line stay the same.
A training gradient that reduces over one batch of 504 positions (8
documents of 63), such as a (512x504)@(504x64) product, takes other bits
with one thread than with two; reductions over 2016 and 16128 positions do
not.

Every ``RuntimeWarning`` raised on the way (numpy's floating-point warnings)
is printed after its case as a ``record=fp_warning`` line on stdout, naming
the case, the warning's file:line and its message, and is still shown on
stderr. Every floating-point array and loss the tool hashes must be finite:
a NaN or an infinity ends the run nonzero with a ``record=non_finite`` line.

    PYTHONPATH=src python3 tools/output_digest.py
"""

from __future__ import annotations

import hashlib
import struct
import warnings
from functools import partial

import numpy as np

from offsetlm import (
    Client,
    CostLedger,
    GenerationConfig,
    Server,
    TinyNeuralLM,
    TrainConfig,
    Vocab,
    apply_adapter,
    connect_in_process,
    encode_adapter,
    encode_model,
    generate_adapted,
    generate_blackbox,
    loss_and_grads,
    train_lora,
    train_neural_lm,
)

# (vocab size, context, embed dim, hidden dim, adapter rank)
SHAPES = ((8, 3, 4, 6, 2), (32, 4, 16, 32, 4), (61, 1, 8, 5, 3), (257, 8, 32, 128, 8))
# the train-adapter benchmark's proxy shape, and its corpus: (documents, tokens each)
TRAIN_SHAPE = (512, 8, 16, 64, 8)
TRAIN_CORPUS = (32, 64)


def corpus(rng: np.random.Generator, vocab: Vocab, docs: int) -> list[list[int]]:
    """Seeded documents of 2-19 ordinary tokens, some shorter than any context."""
    return [
        [int(t) for t in rng.integers(3, vocab.size, size=int(rng.integers(2, 20)))]
        for _ in range(docs)
    ]


class NonFiniteError(ValueError):
    """An array or loss the tool was about to hash held a NaN or an infinity."""


def check_finite(what: str, arr) -> None:
    arr = np.asarray(arr)
    if np.issubdtype(arr.dtype, np.floating) and not np.isfinite(arr).all():
        raise NonFiniteError(what)


def run_case(case: str, digest, *args):
    """``digest(*args)``, printing each RuntimeWarning it raised as a record line.

    Every warning is shown on stderr afterwards, as it would have been; a
    non-finite hashed value ends the run with a nonzero exit.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            result = digest(*args)
        except NonFiniteError as exc:
            result = exc
    for w in caught:
        if issubclass(w.category, RuntimeWarning):
            print(f'record=fp_warning case={case} at={w.filename}:{w.lineno} msg="{w.message}"')
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if isinstance(result, NonFiniteError):
        raise SystemExit(f"record=non_finite case={case} what={result}")
    return result


def feed(h, *arrays) -> None:
    for arr in arrays:
        check_finite("array", arr)
        h.update(np.ascontiguousarray(arr).tobytes())


def feed_step(h, base: TinyNeuralLM, adapter, docs: list[list[int]]) -> None:
    loss, grads = loss_and_grads(base, adapter, docs)
    check_finite("loss", loss)
    h.update(struct.pack("<d", loss))
    for name in sorted(grads):
        feed(h, grads[name]["a"], grads[name]["b"])


def with_biases(model: TinyNeuralLM, rng: np.random.Generator) -> TinyNeuralLM:
    """``model`` with seeded nonzero biases; ``random()`` draws zeros."""
    return TinyNeuralLM(model.vocab, model.context, model.embedding, model.w1,
                        rng.normal(0.0, 0.5, size=model.w1.shape[0]), model.w2,
                        rng.normal(0.0, 0.5, size=model.vocab.size))


def shape_digest(index: int, shape: tuple[int, ...]) -> tuple[str, str, str]:
    """The ``(values, stochastic, billing)`` digests of one model shape."""
    v, context, embed, hidden, rank = shape
    vocab = Vocab(size=v, eos_id=1, bos_id=2)
    rng = np.random.Generator(np.random.PCG64(100 + index))
    docs = corpus(rng, vocab, 12)
    h, stochastic, billing = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()

    trained = train_neural_lm(docs, vocab, context=context, embed_dim=embed,
                              hidden_dim=hidden, epochs=2, batch_size=5, seed=index)
    for arr in trained.params:
        check_finite("train_neural_lm", arr)
    h.update(encode_model(trained))

    base = with_biases(TinyNeuralLM.random(vocab, context, embed, hidden, seed=index), rng)
    blackbox = with_biases(
        TinyNeuralLM.random(vocab, context, embed, hidden, seed=50 + index, scale=1.5), rng)
    adapter = train_lora(base, docs, TrainConfig(lr=0.3, batch_size=3, epochs=2, rank=rank, seed=index))
    for t in adapter.targets:
        feed(h, t.a, t.b)
    h.update(encode_adapter(adapter))
    for t in adapter.targets:
        t.scaling = 0.7  # training uses 1.0; a product with 1.0 hides reassociation
    feed_step(h, base, adapter, docs[:5])

    tuned = apply_adapter(base, adapter)
    for seq in docs[:4] + [[3], [2, 3, 4] * 5]:
        for model in (base, tuned, blackbox):
            prefixes = np.stack([model.next_logits(seq[: j + 1]) for j in range(len(seq))])
            feed(h, model.next_logits(seq), prefixes)

    prompt = docs[0][:3]
    for mode in ("greedy", "stochastic"):
        config = GenerationConfig(max_new_tokens=24, mode=mode, temperature=0.9, seed=7 + index)
        plain = generate_blackbox(blackbox, prompt, config)
        adapted = generate_adapted(blackbox, base, tuned, prompt, config)
        runs = [plain, adapted]
        for name, want, run in (
            ("api", plain, Client.run_api),
            ("prada", adapted, Client.run_per_token),
            ("prada-sd S=1", adapted, partial(Client.run_speculative, draft_len=1)),
            ("prada-sd S=8", adapted, partial(Client.run_speculative, draft_len=8)),
            ("prada-transfer", adapted, Client.run_transfer),
        ):
            ledger = CostLedger()
            conn, _ = connect_in_process(Server(blackbox, base), ledger)
            client = Client(conn, vocab, base_proxy=base, adapter=adapter)
            try:
                client.handshake()
                runs.append(run(client, prompt, config))
            finally:
                conn.close()
            if runs[-1] != want:
                raise SystemExit(f"shape {shape} {mode}: {name} gave {runs[-1]}, expected {want}")
            billed = (sorted(ledger.bytes_by.items()), ledger.round_count, ledger.tokens_drafted,
                      ledger.tokens_committed, ledger.tokens_dropped, ledger.replacements)
            billing.update(repr(billed).encode())
        tokens_digest = h if mode == "greedy" else stochastic
        for tokens in runs:
            tokens_digest.update(struct.pack(f"<I{len(tokens)}I", len(tokens), *tokens))
    return h.hexdigest(), stochastic.hexdigest(), billing.hexdigest()


def train_digest(seed: int) -> str:
    """train_lora, then one full-corpus step, at the train-adapter benchmark's size."""
    v, context, embed, hidden, rank = TRAIN_SHAPE
    vocab = Vocab(size=v, eos_id=1, bos_id=2)
    rng = np.random.Generator(np.random.PCG64(seed))
    docs = [[int(t) for t in rng.integers(3, v, size=TRAIN_CORPUS[1])]
            for _ in range(TRAIN_CORPUS[0])]
    h = hashlib.sha256()
    base = with_biases(TinyNeuralLM.random(vocab, context, embed, hidden, seed=seed), rng)
    adapter = train_lora(base, docs, TrainConfig(lr=0.5, batch_size=8, epochs=1, rank=rank, seed=seed))
    for t in adapter.targets:
        feed(h, t.a, t.b)
    feed_step(h, base, adapter, docs)
    for t in adapter.targets:
        t.scaling = 0.7
    feed_step(h, base, adapter, docs)
    return h.hexdigest()


def main() -> None:
    values, stochastic, billing = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for index, shape in enumerate(SHAPES):
        case = "shape=" + "x".join(map(str, shape))
        digests = run_case(case, shape_digest, index, shape)
        for total, digest in zip((values, stochastic, billing), digests):
            total.update(bytes.fromhex(digest))
        print(case + " values=%s stochastic=%s billing=%s" % digests)
    case = "train=" + "x".join(map(str, TRAIN_SHAPE + TRAIN_CORPUS))
    digest = run_case(case, train_digest, len(SHAPES))
    values.update(bytes.fromhex(digest))
    print(case + f" values={digest}")
    print(f"values sha256={values.hexdigest()}")
    print(f"stochastic sha256={stochastic.hexdigest()}")
    print(f"billing sha256={billing.hexdigest()}")


if __name__ == "__main__":
    main()
