"""Print four SHA-256 digests over the package's outputs at fixed seeds.

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
and leaves ``values`` alone. The ``decode`` digest covers what the strict
decoders make of corrupted input: for a wire payload of every message kind,
a bigram and a neural PRDM snapshot and a PRDL adapter, each truncation,
each one-byte overwrite with 0, 1, 0x80 or 0xFF, and seeded random
overwrites, insertions and appends, it hashes the decoded value's class and
fields, or the error's type, text and offset. One more case
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
one machine, and compares the last four lines. The digests depend on the numpy
and BLAS build, so they are never golden values to commit. They also depend
on the BLAS thread count, so compare runs under one setting. With numpy
2.4.6 and OpenBLAS 0.3.31 on 2 vCPUs, ``OPENBLAS_NUM_THREADS=1`` moves only
the ``train=`` line and the ``shape=257x8x32x128x8`` line, and with them the
``values`` digest; inference rows, every ``stochastic`` and ``billing``
line and the ``decode`` digest stay the same.
A training gradient that reduces over one batch of 504 positions (8
documents of 63), such as a (512x504)@(504x64) product, takes other bits
with one thread than with two; reductions over 2016 and 16128 positions do
not.

Every ``RuntimeWarning`` raised on the way (numpy's floating-point warnings)
is printed after its case as a ``record=fp_warning`` line on stdout, naming
the case, the warning's file:line and its message, and is still shown on
stderr. Every floating-point array and loss the tool hashes from training or
generation must be finite: a NaN or an infinity ends the run nonzero with a
``record=non_finite`` line.

    PYTHONPATH=src python3 tools/output_digest.py
"""

from __future__ import annotations

import dataclasses
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
    decode_adapter,
    decode_message,
    decode_model,
    encode_adapter,
    encode_message,
    encode_model,
    fit_bigram,
    generate_adapted,
    generate_blackbox,
    init_adapter,
    loss_and_grads,
    train_lora,
    train_neural_lm,
)
from offsetlm.messages import (
    Commit,
    DraftBatch,
    GenerationResult,
    Hello,
    HelloAck,
    ProtocolError,
    ServerGenerate,
    StartSession,
    UploadAdapter,
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


def wire_examples() -> list:
    """At least one message of every kind, with the fields that can be refused set."""
    stochastic = GenerationConfig(max_new_tokens=9, mode="stochastic", temperature=0.75, seed=2**40 + 3)
    rows = np.random.Generator(np.random.PCG64(3)).normal(size=(3, 5)).astype(np.float32)
    return [
        Hello(protocol_version=4, vocab_size=32, eos_id=1, bos_id=2),
        HelloAck(accept=True),
        HelloAck(accept=False, reason="vocabulary mismatch: 32 \u2260 16"),
        StartSession(9, (3, 4, 5), 8, stochastic),
        StartSession(0, (), 1, GenerationConfig(max_new_tokens=0)),
        DraftBatch(7, (4, 0, 3), rows),
        DraftBatch(2**64 - 1, (2**32 - 1,), rows[:1, :1]),
        Commit(9, 3),
        Commit(9, 2, replacement=11, done=True),
        UploadAdapter(b"PRDL\x01\x00", 77),
        ServerGenerate(4, (6,), 1, stochastic),
        GenerationResult(4, (6, 7, 1)),
        ProtocolError("unknown-session", "no session 12"),
    ]


def describe(value) -> str:
    """A decoded value as text: its class and public fields, an array as dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        raw = np.ascontiguousarray(value).tobytes()
        return f"array({value.dtype.str},{value.shape},{hashlib.sha256(raw).hexdigest()})"
    if isinstance(value, (list, tuple)):
        return f"{type(value).__name__}({','.join(map(describe, value))})"
    if dataclasses.is_dataclass(value):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    elif hasattr(value, "__dict__"):
        fields = {k: v for k, v in vars(value).items() if not k.startswith("_")}
    else:
        return repr(value)
    return f"{type(value).__name__}({','.join(f'{k}={describe(v)}' for k, v in fields.items())})"


def outcome(decode, data: bytes) -> str:
    """What ``decode(data)`` gives: the decoded value, or the error's type, text and offset."""
    try:
        return describe(decode(data))
    except Exception as exc:  # every refusal is part of the outcome
        return f"{type(exc).__name__}:{exc}:{getattr(exc, 'offset', None)}"


def corruptions(rng: np.random.Generator, data: bytes, count: int):
    """``data``, each of its truncations, each copy with one byte set to 0, 1, 0x80 or 0xFF,
    then ``count`` seeded copies with 1-4 random bytes overwritten, inserted or appended."""
    yield data
    for n in range(len(data)):
        yield data[:n]
    for at in range(len(data)):
        for b in (0, 1, 0x80, 0xFF):
            yield data[:at] + bytes((b,)) + data[at + 1 :]
    for _ in range(count):
        noise = rng.bytes(int(rng.integers(1, 5)))
        at, kind = int(rng.integers(0, len(data) + 1)), int(rng.integers(3))
        if kind == 0:  # overwrite
            yield data[:at] + noise + data[at + len(noise) :]
        elif kind == 1:  # insert
            yield data[:at] + noise + data[at:]
        else:  # append
            yield data + noise


def decode_digest(count: int = 2000) -> str:
    """The outcomes of decoding seeded corruptions of a wire payload of every
    kind, a bigram and a neural PRDM snapshot, and a PRDL adapter."""
    vocab = Vocab(size=6, eos_id=1, bos_id=2)
    rng = np.random.Generator(np.random.PCG64(11))
    neural = with_biases(TinyNeuralLM.random(vocab, 2, 3, 4, seed=11), rng)
    cases = [(decode_message, encode_message(msg)) for msg in wire_examples()] + [
        (decode_model, encode_model(fit_bigram(corpus(rng, vocab, 4), vocab, alpha=0.5))),
        (decode_model, encode_model(neural)),
        (decode_adapter, encode_adapter(init_adapter(neural, rank=2, seed=11))),
    ]
    h = hashlib.sha256()
    for index, (decode, data) in enumerate(cases):
        for corrupted in corruptions(np.random.Generator(np.random.PCG64(1000 + index)), data, count):
            h.update(f"{index}:{outcome(decode, corrupted)}\n".encode())
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
    print(f"decode sha256={run_case('decode', decode_digest)}")


if __name__ == "__main__":
    main()
