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

Every option, required ones included, can also come from a flat
``key=value`` config file (``--config``) under its long name with ``-`` as
``_``; flags win over the file, the file over built-in defaults, and keys no
option takes are ignored. Each entry is checked by its option's type: a bad
one, ``mode`` and ``sampling`` included, fails as ``bad-config`` and names
its key (a missing ``--mode`` is ``bad-mode``). A sampling setting the wire
cannot carry (a negative ``--seed``, a ``--temperature`` beyond binary32,
``--max-new-tokens`` of 2**32 or more) fails as ``bad-sampling``. Corpora are
plain text, one document per line, whitespace-separated decimal token ids.
Reports are line-delimited ``field=value`` records.
"""

from __future__ import annotations

import csv as _csv
import functools
import signal

import click
from click.core import ParameterSource

from .core import GREEDY, STOCHASTIC, GenerationConfig, Vocab, VocabMismatchError, read_corpus
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


def _read_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Install a config file's entries as the command's defaults.

    Flat key=value lines; blank lines and #-comments ignored. Each entry that
    names an option is converted by that option's type; other keys are ignored.
    """
    if path is None:
        return
    options = {p.name: p for p in ctx.command.params if p.expose_value}
    defaults: dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError("bad-config", f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in options:
                    continue
                try:
                    defaults[key] = options[key].type.convert(value, options[key], ctx)
                except click.BadParameter as exc:
                    raise CliError("bad-config", f"config key {key}={value!r}: {exc.message}") from exc
    except OSError as exc:
        raise CliError("bad-config", f"cannot read config file: {exc}") from exc
    ctx.default_map = defaults


_config_option = click.option(
    "--config", type=click.Path(exists=True), is_eager=True, expose_value=False,
    callback=_read_config, help="key=value defaults; flags beat them",
)


def _parse_prompt(prompt: str | None, prompt_file: str | None) -> list[int]:
    if prompt is not None and prompt_file is not None:
        source = click.get_current_context().get_parameter_source
        if source("prompt") is source("prompt_file"):
            raise CliError("bad-prompt", "--prompt and --prompt-file are mutually exclusive")
        # one setting spelled two ways: the flag beats the config entry
        if source("prompt") is ParameterSource.DEFAULT_MAP:
            prompt = None
        else:
            prompt_file = None
    if prompt is None and prompt_file is None:
        raise CliError("bad-prompt", "one of --prompt / --prompt-file is required")
    if prompt_file is not None:
        try:
            with open(prompt_file, "r", encoding="utf-8") as fh:
                prompt = fh.read()
        except OSError as exc:
            raise CliError("bad-prompt", f"cannot read prompt file: {exc}") from exc
    try:
        tokens = [int(part) for part in prompt.split()]
    except ValueError as exc:
        raise CliError("bad-prompt", f"prompt must be decimal token ids: {exc}") from exc
    if not tokens:
        raise CliError("bad-prompt", "prompt must contain at least one token id")
    return tokens


def _vocab_from_flags(size, eos, bos) -> Vocab:
    if size is None or eos is None or bos is None:
        raise CliError("bad-vocab", "--vocab-size, --eos-id and --bos-id are all required here")
    try:
        return Vocab(size=size, eos_id=eos, bos_id=bos)
    except ValueError as exc:
        raise CliError("bad-vocab", str(exc)) from exc


def _generation_config(max_new_tokens, sampling, temperature, seed) -> GenerationConfig:
    try:
        return GenerationConfig(max_new_tokens, sampling, temperature, seed)
    except ValueError as exc:
        raise CliError("bad-sampling", str(exc)) from exc


def _wrap_errors(fn):
    """Convert internal exceptions into one-line machine-parseable errors."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except Exception as exc:  # noqa: BLE001 — the CLI boundary
            code = getattr(exc, "code", type(exc).__name__)
            raise CliError(str(code), str(exc)) from exc

    return wrapper


@click.group(context_settings={"show_default": True})
def main() -> None:
    """Offset-adapted black-box generation toolkit."""


# ---------------------------------------------------------------------------
# fit-blackbox
# ---------------------------------------------------------------------------


@main.command("fit-blackbox")
@click.option("--corpus", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@_config_option
@click.option("--arch", type=click.Choice(["bigram", "neural"]), default="bigram")
@click.option("--vocab-size", type=int, default=32)
@click.option("--eos-id", type=int, default=1)
@click.option("--bos-id", type=int, default=2)
@click.option("--alpha", type=float, default=1.0, help="bigram smoothing")
@click.option("--context", type=int, default=4, help="neural context window")
@click.option("--embed-dim", type=int, default=16)
@click.option("--hidden-dim", type=int, default=32)
@click.option("--lr", type=float, default=0.1)
@click.option("--batch-size", type=int, default=8)
@click.option("--epochs", type=int, default=5)
@click.option("--seed", type=int, default=0)
@_wrap_errors
def cmd_fit_blackbox(corpus, out, arch, vocab_size, eos_id, bos_id,
                     alpha, context, embed_dim, hidden_dim, lr, batch_size, epochs, seed):
    """Fit a model on a token corpus and write a PRDM snapshot."""
    vocab = _vocab_from_flags(vocab_size, eos_id, bos_id)
    docs = read_corpus(corpus, vocab)
    if arch == "bigram":
        model = fit_bigram(docs, vocab, alpha)
    else:
        model = train_neural_lm(
            docs, vocab, context=context, embed_dim=embed_dim, hidden_dim=hidden_dim,
            lr=lr, batch_size=batch_size, epochs=epochs, seed=seed,
        )
    save_model(model, out)
    click.echo(f"record=model path={out} arch={arch} fingerprint={model.fingerprint():016x}")


# ---------------------------------------------------------------------------
# train-proxy
# ---------------------------------------------------------------------------


@main.command("train-proxy")
@click.option("--base", required=True, type=click.Path(exists=True))
@click.option("--corpus", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@_config_option
@click.option("--rank", type=int, default=4)
@click.option("--lr", type=float, default=0.05)
@click.option("--batch-size", type=int, default=4)
@click.option("--epochs", type=int, default=3)
@click.option("--seed", type=int, default=0)
@_wrap_errors
def cmd_train_proxy(base, corpus, out, rank, lr, batch_size, epochs, seed):
    """Train a low-rank adapter over a tiny-neural base and write PRDL bytes."""
    base_model = load_model(base)
    if not isinstance(base_model, TinyNeuralLM):
        raise CliError("bad-base", "adapter training needs a tiny-neural base snapshot")
    train_cfg = TrainConfig(lr=lr, batch_size=batch_size, epochs=epochs, rank=rank, seed=seed)
    docs = [doc for doc in read_corpus(corpus, base_model.vocab) if len(doc) >= 2]
    if not docs:
        raise CliError("empty-corpus", "corpus has no usable sequences (length >= 2)")
    init = init_adapter(base_model, rank, seed)
    initial_loss, _ = loss_and_grads(base_model, init, docs)
    adapter = train_lora(base_model, docs, train_cfg)
    final_loss, _ = loss_and_grads(base_model, adapter, docs)
    save_adapter(adapter, out)
    click.echo(
        f"record=train path={out} rank={rank} epochs={epochs} "
        f"initial_loss={initial_loss:.6f} final_loss={final_loss:.6f}"
    )


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


@main.command("serve")
@click.option("--blackbox", required=True, type=click.Path(exists=True))
@click.option("--base-proxy", type=click.Path(exists=True), default=None)
@_config_option
@click.option("--host", type=str, default="127.0.0.1")
@click.option("--port", type=int, default=0)
@_wrap_errors
def cmd_serve(blackbox, base_proxy, host, port):
    """Serve a black-box snapshot (and optional base proxy) over TCP."""
    blackbox_model = load_model(blackbox)
    base_model = None
    if base_proxy is not None:
        base_model = load_model(base_proxy)
        if not isinstance(base_model, TinyNeuralLM):
            raise CliError("bad-base", "base proxy snapshot must be tiny-neural")
    front = SocketServer(Server(blackbox_model, base_model), host=host, port=port).start()
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
        raise CliError("missing-proxy", "this mode needs --base-proxy")
    base = load_model(base_path)
    if not isinstance(base, TinyNeuralLM):
        raise CliError("bad-base", "base proxy snapshot must be tiny-neural")
    if adapter_path is None:
        raise CliError("missing-adapter", "this mode needs --adapter")
    return base, load_adapter(adapter_path)


def _run_mode(client: Client, mode: str, prompt: list[int], config: GenerationConfig, draft_len: int):
    if mode == "api":
        return client.run_api(prompt, config)
    if mode == "prada":
        return client.run_per_token(prompt, config)
    if mode == "prada-sd":
        return client.run_speculative(prompt, config, draft_len=draft_len)
    if mode == "prada-transfer":
        return client.run_transfer(prompt, config)
    raise CliError("bad-mode", f"unknown mode {mode!r}")


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
        raise CliError("bad-draft-len", f"draft lengths must be integers: {exc}") from exc
    if not lens or min(lens) < 1:
        raise CliError("bad-draft-len", f"draft lengths must be one or more integers >= 1, got {text!r}")
    return lens


@main.command("generate")
@click.option("--mode", type=click.Choice(MODES), default=None)
@click.option("--prompt", type=str, default=None, help="space-separated token ids")
@click.option("--prompt-file", type=click.Path(exists=True), default=None)
@_config_option
@click.option("--connect", type=str, default=None, help="host:port of a running server")
@click.option("--blackbox", type=click.Path(exists=True), default=None,
              help="serve this snapshot in-process instead of connecting")
@click.option("--base-proxy", type=click.Path(exists=True), default=None)
@click.option("--adapter", type=click.Path(exists=True), default=None)
@click.option("--max-new-tokens", type=int, default=32)
@click.option("--draft-len", type=int, default=8, help="most tokens the server drafts per prada-sd round")
@click.option("--sampling", type=click.Choice([GREEDY, STOCHASTIC]), default=GREEDY)
@click.option("--temperature", type=float, default=1.0)
@click.option("--seed", type=int, default=0)
@click.option("--vocab-size", type=int, default=None, help="needed for api mode over --connect")
@click.option("--eos-id", type=int, default=None)
@click.option("--bos-id", type=int, default=None)
@click.option("--report", type=click.Path(), default=None)
@_wrap_errors
def cmd_generate(mode, prompt, prompt_file, connect, blackbox, base_proxy, adapter,
                 max_new_tokens, draft_len, sampling, temperature, seed, vocab_size, eos_id,
                 bos_id, report):
    """Generate a continuation in one of the four protocol modes."""
    if mode is None:
        raise CliError("bad-mode", f"--mode must be one of {', '.join(MODES)}; got None")
    if mode == "prada-sd" and draft_len < 1:
        raise CliError("bad-draft-len", f"--draft-len must be at least 1, got {draft_len}")
    tokens_in = _parse_prompt(prompt, prompt_file)
    gen_config = _generation_config(max_new_tokens, sampling, temperature, seed)

    base = adapter_model = None
    if mode in PROXY_MODES:
        base, adapter_model = _load_proxy_models(base_proxy, adapter)

    ledger = CostLedger()
    if connect is not None:
        host, _, port = connect.rpartition(":")
        if not host or not port.isdigit():
            raise CliError("bad-endpoint", f"--connect must be host:port, got {connect!r}")
        vocab = base.vocab if base is not None else _vocab_from_flags(vocab_size, eos_id, bos_id)
        conn = connect_socket(host, int(port), ledger)
    else:
        if blackbox is None:
            raise CliError("bad-endpoint", "either --connect or --blackbox is required")
        blackbox_model = load_model(blackbox)
        vocab = blackbox_model.vocab
        # the server needs the base proxy in transfer mode
        server_base = base if mode == "prada-transfer" else None
        conn, _ = connect_in_process(Server(blackbox_model, server_base), ledger)

    tokens, lat = _run_session(conn, vocab, base, adapter_model, mode, tokens_in, gen_config, draft_len)
    lines = [
        f"record=result mode={mode} tokens={','.join(str(t) for t in tokens)}",
        ledger_report(ledger),
        latency_report(lat),
    ]
    text = "\n".join(lines)
    click.echo(text)
    if report is not None:
        with open(report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


@main.command("bench")
@click.option("--blackbox", required=True, type=click.Path(exists=True))
@click.option("--base-proxy", required=True, type=click.Path(exists=True))
@click.option("--adapter", required=True, type=click.Path(exists=True))
@click.option("--prompt", type=str, default=None)
@click.option("--prompt-file", type=click.Path(exists=True), default=None)
@_config_option
@click.option("--modes", type=str, default=",".join(MODES), help="comma-separated subset of modes")
@click.option("--draft-lens", type=str, default="8", help="comma-separated prada-sd draft-length ceilings")
@click.option("--max-new-tokens", type=int, default=32)
@click.option("--sampling", type=click.Choice([GREEDY, STOCHASTIC]), default=GREEDY)
@click.option("--temperature", type=float, default=1.0)
@click.option("--seed", type=int, default=0)
@click.option("--csv", type=click.Path(), default=None)
@_wrap_errors
def cmd_bench(blackbox, base_proxy, adapter, prompt, prompt_file, modes, draft_lens,
              max_new_tokens, sampling, temperature, seed, csv):
    """Run every requested mode in-process and tabulate bytes, rounds, latency."""
    mode_list = [m.strip() for m in modes.split(",") if m.strip()]
    if not mode_list:
        raise CliError("bad-mode", f"--modes names no mode; choose from {', '.join(MODES)}")
    for m in mode_list:
        if m not in MODES:
            raise CliError("bad-mode", f"unknown mode {m!r}")
    sweep = _draft_lens(draft_lens)
    tokens_in = _parse_prompt(prompt, prompt_file)
    gen_config = _generation_config(max_new_tokens, sampling, temperature, seed)

    blackbox_model = load_model(blackbox)
    base, adapter_model = _load_proxy_models(base_proxy, adapter)
    if base.vocab != blackbox_model.vocab and any(m != "api" for m in mode_list):
        raise VocabMismatchError(
            f"black-box vocab {blackbox_model.vocab} differs from the base proxy's {base.vocab}"
        )

    rows = []
    for mode in mode_list:
        for s in sweep if mode == "prada-sd" else [1 if mode == "prada" else 0]:
            ledger = CostLedger()
            server_base = base if mode == "prada-transfer" else None
            conn, _ = connect_in_process(Server(blackbox_model, server_base), ledger)
            proxy = (None, None) if mode == "api" else (base, adapter_model)
            tokens, lat = _run_session(conn, blackbox_model.vocab, *proxy, mode, tokens_in, gen_config, s)
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
    if csv is not None:
        with open(csv, "w", encoding="utf-8", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)


if __name__ == "__main__":
    main()
