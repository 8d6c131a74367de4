"""Command-line front end.

Subcommands::

    offsetlm fit-blackbox   fit and snapshot a model (PRDM file)
    offsetlm train-proxy    train a low-rank adapter (PRDL file)
    offsetlm serve          host a snapshot over a TCP socket
    offsetlm generate       run one generation in a chosen mode
    offsetlm bench          sweep modes/draft lengths and tabulate costs

Generation modes:

* ``api``            — the server generates from the black-box alone; no
                       proxy model is ever loaded on the client;
* ``prada``          — per-token offset-adapted generation (one round trip
                       per committed token);
* ``prada-sd``       — the speculative draft/verify variant (at most
                       ``--draft-len`` tokens per round);
* ``prada-transfer`` — upload the adapter once and generate server-side.

Every option can also come from a flat ``key=value`` config file
(``--config``); explicit flags win over the file, the file wins over built-in
defaults. Corpora are plain text, one document per line, whitespace-separated
decimal token ids. Reports are line-delimited ``field=value`` records.
"""

from __future__ import annotations

import csv as _csv
import signal

import click

from .core import GREEDY, STOCHASTIC, GenerationConfig, Vocab, read_corpus
from .lora import TrainConfig, init_adapter, load_adapter, loss_and_grads, save_adapter, train_lora
from .models import TinyNeuralLM, fit_bigram, load_model, save_model, train_neural_lm
from .protocol import (
    Client,
    Server,
    SocketServer,
    connect_in_process,
    connect_socket,
)
from .transport import (
    CostLedger,
    latency_probe,
    latency_report,
    ledger_report,
)

MODES = ("api", "prada", "prada-sd", "prada-transfer")
PROXY_MODES = ("prada", "prada-sd", "prada-transfer")


class CliError(click.ClickException):
    """Carries a short machine-readable code alongside the message."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code

    def show(self, file=None) -> None:
        click.echo(f"error code={self.code} msg=\"{self.format_message()}\"", err=True)


def _fail(code: str, message: str) -> "CliError":
    return CliError(code, message)


def load_config_file(path: str | None) -> dict[str, str]:
    """Flat key=value lines; blank lines and #-comments ignored."""
    if path is None:
        return {}
    config: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise _fail("bad-config", f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                config[key.strip()] = value.strip()
    except OSError as exc:
        raise _fail("bad-config", f"cannot read config file: {exc}") from exc
    return config


def _resolve(flag, config: dict[str, str], key: str, default, cast):
    """Precedence: explicit flag > config file entry > default."""
    if flag is not None:
        return flag
    if key in config:
        try:
            return cast(config[key])
        except ValueError as exc:
            raise _fail("bad-config", f"config key {key}={config[key]!r}: {exc}") from exc
    return default


def _resolve_prompt(prompt_flag, prompt_file, cfg: dict[str, str]) -> list[int]:
    """Flags beat the config file's ``prompt`` key; file flag beats both."""
    if prompt_flag is None and prompt_file is None:
        prompt_flag = cfg.get("prompt")
    return _parse_prompt(prompt_flag, prompt_file)


def _parse_prompt(prompt: str | None, prompt_file: str | None) -> list[int]:
    if prompt is not None and prompt_file is not None:
        raise _fail("bad-prompt", "--prompt and --prompt-file are mutually exclusive")
    if prompt is None and prompt_file is None:
        raise _fail("bad-prompt", "one of --prompt / --prompt-file is required")
    if prompt_file is not None:
        try:
            with open(prompt_file, "r", encoding="utf-8") as fh:
                prompt = fh.read()
        except OSError as exc:
            raise _fail("bad-prompt", f"cannot read prompt file: {exc}") from exc
    try:
        tokens = [int(part) for part in prompt.split()]
    except ValueError as exc:
        raise _fail("bad-prompt", f"prompt must be decimal token ids: {exc}") from exc
    if not tokens:
        raise _fail("bad-prompt", "prompt must contain at least one token id")
    return tokens


def _vocab_from_flags(size, eos, bos) -> Vocab:
    if size is None or eos is None or bos is None:
        raise _fail("bad-vocab", "--vocab-size, --eos-id and --bos-id are all required here")
    try:
        return Vocab(size=size, eos_id=eos, bos_id=bos)
    except ValueError as exc:
        raise _fail("bad-vocab", str(exc)) from exc


def _wrap_errors(fn):
    """Convert internal exceptions into one-line machine-parseable errors."""
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CliError:
            raise
        except click.ClickException:
            raise
        except Exception as exc:  # noqa: BLE001 — the CLI boundary
            code = getattr(exc, "code", type(exc).__name__)
            raise CliError(str(code), str(exc)) from exc

    return wrapper


@click.group()
def main() -> None:
    """Offset-adapted black-box generation toolkit."""


# ---------------------------------------------------------------------------
# fit-blackbox
# ---------------------------------------------------------------------------


@main.command("fit-blackbox")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--arch", type=click.Choice(["bigram", "neural"]), default=None)
@click.option("--vocab-size", type=int, default=None)
@click.option("--eos-id", type=int, default=None)
@click.option("--bos-id", type=int, default=None)
@click.option("--alpha", type=float, default=None, help="bigram smoothing")
@click.option("--context", type=int, default=None, help="neural context window")
@click.option("--embed-dim", type=int, default=None)
@click.option("--hidden-dim", type=int, default=None)
@click.option("--lr", type=float, default=None)
@click.option("--batch-size", type=int, default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--seed", type=int, default=None)
@_wrap_errors
def cmd_fit_blackbox(corpus_path, out_path, config_path, arch, vocab_size, eos_id, bos_id,
                     alpha, context, embed_dim, hidden_dim, lr, batch_size, epochs, seed):
    """Fit a model on a token corpus and write a PRDM snapshot."""
    cfg = load_config_file(config_path)
    arch = _resolve(arch, cfg, "arch", "bigram", str)
    vocab = _vocab_from_flags(
        _resolve(vocab_size, cfg, "vocab_size", 32, int),
        _resolve(eos_id, cfg, "eos_id", 1, int),
        _resolve(bos_id, cfg, "bos_id", 2, int),
    )
    corpus = read_corpus(corpus_path, vocab)
    if arch == "bigram":
        model = fit_bigram(corpus, vocab, _resolve(alpha, cfg, "alpha", 1.0, float))
    else:
        model = train_neural_lm(
            corpus,
            vocab,
            context=_resolve(context, cfg, "context", 4, int),
            embed_dim=_resolve(embed_dim, cfg, "embed_dim", 16, int),
            hidden_dim=_resolve(hidden_dim, cfg, "hidden_dim", 32, int),
            lr=_resolve(lr, cfg, "lr", 0.1, float),
            batch_size=_resolve(batch_size, cfg, "batch_size", 8, int),
            epochs=_resolve(epochs, cfg, "epochs", 5, int),
            seed=_resolve(seed, cfg, "seed", 0, int),
        )
    save_model(model, out_path)
    click.echo(f"record=model path={out_path} arch={arch} fingerprint={model.fingerprint():016x}")


# ---------------------------------------------------------------------------
# train-proxy
# ---------------------------------------------------------------------------


@main.command("train-proxy")
@click.option("--base", "base_path", required=True, type=click.Path(exists=True))
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--rank", type=int, default=None)
@click.option("--lr", type=float, default=None)
@click.option("--batch-size", type=int, default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--seed", type=int, default=None)
@_wrap_errors
def cmd_train_proxy(base_path, corpus_path, out_path, config_path, rank, lr, batch_size, epochs, seed):
    """Train a low-rank adapter over a tiny-neural base and write PRDL bytes."""
    cfg = load_config_file(config_path)
    base = load_model(base_path)
    if not isinstance(base, TinyNeuralLM):
        raise _fail("bad-base", "adapter training needs a tiny-neural base snapshot")
    train_cfg = TrainConfig(
        lr=_resolve(lr, cfg, "lr", 0.05, float),
        batch_size=_resolve(batch_size, cfg, "batch_size", 4, int),
        epochs=_resolve(epochs, cfg, "epochs", 3, int),
        rank=_resolve(rank, cfg, "rank", 4, int),
        seed=_resolve(seed, cfg, "seed", 0, int),
    )
    corpus = [doc for doc in read_corpus(corpus_path, base.vocab) if len(doc) >= 2]
    if not corpus:
        raise _fail("empty-corpus", "corpus has no usable sequences (length >= 2)")
    init = init_adapter(base, train_cfg.rank, train_cfg.seed)
    initial_loss, _ = loss_and_grads(base, init, corpus)
    adapter = train_lora(base, corpus, train_cfg)
    final_loss, _ = loss_and_grads(base, adapter, corpus)
    save_adapter(adapter, out_path)
    click.echo(
        f"record=train path={out_path} rank={train_cfg.rank} epochs={train_cfg.epochs} "
        f"initial_loss={initial_loss:.6f} final_loss={final_loss:.6f}"
    )


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


@main.command("serve")
@click.option("--blackbox", "blackbox_path", required=True, type=click.Path(exists=True))
@click.option("--base-proxy", "base_proxy_path", type=click.Path(exists=True), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--host", type=str, default=None)
@click.option("--port", type=int, default=None)
@_wrap_errors
def cmd_serve(blackbox_path, base_proxy_path, config_path, host, port):
    """Serve a black-box snapshot (and optional base proxy) over TCP."""
    cfg = load_config_file(config_path)
    blackbox = load_model(blackbox_path)
    base_proxy = None
    if base_proxy_path is not None:
        base_proxy = load_model(base_proxy_path)
        if not isinstance(base_proxy, TinyNeuralLM):
            raise _fail("bad-base", "base proxy snapshot must be tiny-neural")
    server = Server(blackbox, base_proxy)
    front = SocketServer(
        server,
        host=_resolve(host, cfg, "host", "127.0.0.1", str),
        port=_resolve(port, cfg, "port", 0, int),
    ).start()
    click.echo(f"record=serve host={front.address[0]} port={front.address[1]}", nl=True)
    try:
        signal.pause()
    except (KeyboardInterrupt, AttributeError):
        pass
    finally:
        front.close()


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _load_proxy_models(base_path: str | None, adapter_path: str | None):
    """Load the client-side proxy pair. Never called in api mode."""
    if base_path is None:
        raise _fail("missing-proxy", "this mode needs --base-proxy")
    base = load_model(base_path)
    if not isinstance(base, TinyNeuralLM):
        raise _fail("bad-base", "base proxy snapshot must be tiny-neural")
    if adapter_path is None:
        raise _fail("missing-adapter", "this mode needs --adapter")
    adapter = load_adapter(adapter_path)
    return base, adapter


def _generation_config(cfg, max_new_tokens, sampling, temperature, seed) -> GenerationConfig:
    mode = _resolve(sampling, cfg, "sampling", GREEDY, str)
    if mode not in (GREEDY, STOCHASTIC):
        raise _fail("bad-sampling", f"sampling must be greedy or stochastic, got {mode!r}")
    return GenerationConfig(
        max_new_tokens=_resolve(max_new_tokens, cfg, "max_new_tokens", 32, int),
        mode=mode,
        temperature=_resolve(temperature, cfg, "temperature", 1.0, float),
        seed=_resolve(seed, cfg, "seed", 0, int),
    )


def _run_mode(client: Client, mode: str, prompt: list[int], config: GenerationConfig, draft_len: int):
    if mode == "api":
        return client.run_api(prompt, config)
    if mode == "prada":
        return client.run_per_token(prompt, config)
    if mode == "prada-sd":
        return client.run_speculative(prompt, config, draft_len=draft_len)
    if mode == "prada-transfer":
        return client.run_transfer(prompt, config)
    raise _fail("bad-mode", f"unknown mode {mode!r}")


def _run_session(conn, vocab: Vocab, base, adapter, mode: str, prompt: list[int],
                 config: GenerationConfig, draft_len: int):
    """Handshake, time one generation with ``latency_probe``, then close.

    Returns the response tokens and the latency report.
    """
    tokens: list[int] = []
    try:
        client = Client(conn, vocab, base_proxy=base, adapter=adapter)
        client.handshake()

        def run():
            tokens.extend(_run_mode(client, mode, prompt, config, draft_len))
            return tokens

        lat = latency_probe(run)
    finally:
        conn.close()
    return tokens, lat


def _draft_lens(text: str) -> list[int]:
    """Comma-separated draft lengths, at least one, each at least 1."""
    try:
        lens = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise _fail("bad-draft-len", f"draft lengths must be integers: {exc}") from exc
    if not lens or min(lens) < 1:
        raise _fail("bad-draft-len", f"draft lengths must be one or more integers >= 1, got {text!r}")
    return lens


@main.command("generate")
@click.option("--mode", type=click.Choice(MODES), default=None)
@click.option("--prompt", type=str, default=None, help="space-separated token ids")
@click.option("--prompt-file", type=click.Path(exists=True), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--connect", type=str, default=None, help="host:port of a running server")
@click.option("--blackbox", "blackbox_path", type=click.Path(exists=True), default=None,
              help="serve this snapshot in-process instead of connecting")
@click.option("--base-proxy", "base_proxy_path", type=click.Path(exists=True), default=None)
@click.option("--adapter", "adapter_path", type=click.Path(exists=True), default=None)
@click.option("--max-new-tokens", type=int, default=None)
@click.option("--draft-len", type=int, default=None, help="most tokens the server drafts per prada-sd round")
@click.option("--sampling", type=click.Choice([GREEDY, STOCHASTIC]), default=None)
@click.option("--temperature", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--vocab-size", type=int, default=None, help="needed for api mode over --connect")
@click.option("--eos-id", type=int, default=None)
@click.option("--bos-id", type=int, default=None)
@click.option("--report", "report_path", type=click.Path(), default=None)
@_wrap_errors
def cmd_generate(mode, prompt, prompt_file, config_path, connect, blackbox_path,
                 base_proxy_path, adapter_path, max_new_tokens, draft_len, sampling,
                 temperature, seed, vocab_size, eos_id, bos_id, report_path):
    """Generate a continuation in one of the four protocol modes."""
    cfg = load_config_file(config_path)
    mode = _resolve(mode, cfg, "mode", None, str)
    if mode not in MODES:
        raise _fail("bad-mode", f"--mode must be one of {', '.join(MODES)}; got {mode!r}")
    connect = _resolve(connect, cfg, "connect", None, str)
    blackbox_path = _resolve(blackbox_path, cfg, "blackbox", blackbox_path, str)
    base_proxy_path = _resolve(base_proxy_path, cfg, "base_proxy", base_proxy_path, str)
    adapter_path = _resolve(adapter_path, cfg, "adapter", adapter_path, str)
    draft_len = _resolve(draft_len, cfg, "draft_len", 8, int)
    if mode == "prada-sd" and draft_len < 1:
        raise _fail("bad-draft-len", f"--draft-len must be at least 1, got {draft_len}")
    tokens_in = _resolve_prompt(prompt, prompt_file, cfg)
    gen_config = _generation_config(cfg, max_new_tokens, sampling, temperature, seed)

    base = adapter = None
    if mode in PROXY_MODES:
        base, adapter = _load_proxy_models(base_proxy_path, adapter_path)

    ledger = CostLedger()
    if connect is not None:
        host, _, port = connect.rpartition(":")
        if not host or not port.isdigit():
            raise _fail("bad-endpoint", f"--connect must be host:port, got {connect!r}")
        if base is not None:
            vocab = base.vocab
        else:
            vocab = _vocab_from_flags(
                _resolve(vocab_size, cfg, "vocab_size", None, int),
                _resolve(eos_id, cfg, "eos_id", None, int),
                _resolve(bos_id, cfg, "bos_id", None, int),
            )
        conn = connect_socket(host, int(port), ledger)
    else:
        if blackbox_path is None:
            raise _fail("bad-endpoint", "either --connect or --blackbox is required")
        blackbox = load_model(blackbox_path)
        vocab = blackbox.vocab
        # the server needs the base proxy in transfer mode
        server_base = base if mode == "prada-transfer" else None
        conn, _ = connect_in_process(Server(blackbox, server_base), ledger)

    tokens, lat = _run_session(conn, vocab, base, adapter, mode, tokens_in, gen_config, draft_len)
    lines = [
        f"record=result mode={mode} tokens={','.join(str(t) for t in tokens)}",
        ledger_report(ledger),
        latency_report(lat),
    ]
    text = "\n".join(lines)
    click.echo(text)
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


@main.command("bench")
@click.option("--blackbox", "blackbox_path", required=True, type=click.Path(exists=True))
@click.option("--base-proxy", "base_proxy_path", required=True, type=click.Path(exists=True))
@click.option("--adapter", "adapter_path", required=True, type=click.Path(exists=True))
@click.option("--prompt", type=str, default=None)
@click.option("--prompt-file", type=click.Path(exists=True), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--modes", type=str, default=None, help="comma-separated subset of modes")
@click.option("--draft-lens", type=str, default=None, help="comma-separated prada-sd draft-length ceilings")
@click.option("--max-new-tokens", type=int, default=None)
@click.option("--sampling", type=click.Choice([GREEDY, STOCHASTIC]), default=None)
@click.option("--temperature", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@_wrap_errors
def cmd_bench(blackbox_path, base_proxy_path, adapter_path, prompt, prompt_file, config_path,
              modes, draft_lens, max_new_tokens, sampling, temperature, seed, csv_path):
    """Run every requested mode in-process and tabulate bytes, rounds, latency."""
    cfg = load_config_file(config_path)
    mode_list = [m.strip() for m in _resolve(modes, cfg, "modes", ",".join(MODES), str).split(",") if m.strip()]
    if not mode_list:
        raise _fail("bad-mode", f"--modes names no mode; choose from {', '.join(MODES)}")
    for m in mode_list:
        if m not in MODES:
            raise _fail("bad-mode", f"unknown mode {m!r}")
    sweep = _draft_lens(_resolve(draft_lens, cfg, "draft_lens", "8", str))
    tokens_in = _resolve_prompt(prompt, prompt_file, cfg)
    gen_config = _generation_config(cfg, max_new_tokens, sampling, temperature, seed)

    blackbox = load_model(blackbox_path)
    base, adapter = _load_proxy_models(base_proxy_path, adapter_path)

    rows = []
    for mode in mode_list:
        for s in sweep if mode == "prada-sd" else [1 if mode == "prada" else 0]:
            ledger = CostLedger()
            server_base = base if mode == "prada-transfer" else None
            conn, _ = connect_in_process(Server(blackbox, server_base), ledger)
            proxy = (None, None) if mode == "api" else (base, adapter)
            tokens, lat = _run_session(conn, blackbox.vocab, *proxy, mode, tokens_in, gen_config, s)
            rate = ledger.acceptance_rate()
            rows.append(
                {
                    "mode": mode,
                    "draft_len": s,
                    "response_tokens": len(tokens),
                    "rounds": ledger.round_count,
                    "acceptance_rate": "" if rate is None else f"{rate:.6f}",
                    "data_bytes": ledger.bytes_total("data_transfer"),
                    "model_bytes": ledger.bytes_total("model_transfer"),
                    "inference_bytes": ledger.bytes_total("inference"),
                    "ms_per_token": f"{lat.ms_per_token:.6f}",
                }
            )

    for row in rows:
        click.echo("record=bench " + " ".join(f"{k}={row[k]}" for k in row))
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)


if __name__ == "__main__":
    main()
