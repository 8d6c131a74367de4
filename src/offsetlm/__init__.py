"""Offset-adapted generation for black-box language models.

A locally tuned proxy pair steers a remote black-box generator: the logit
delta between the tuned and base proxy is added to the black-box logits
before sampling. The package ships deterministic desk-scale model backends,
low-rank adapter training, a draft/verify wire protocol with speculative
acceleration, byte-exact cost accounting, and a CLI.
"""

from .core import GenerationConfig, Vocab, argmax_sample, gumbel_vectors, make_rng, pick
from .lora import (
    AdaptedModel,
    LoraAdapter,
    LoraTarget,
    TrainConfig,
    apply_adapter,
    decode_adapter,
    encode_adapter,
    init_adapter,
    load_adapter,
    loss_and_grads,
    save_adapter,
    train_lora,
)
from .models import (
    BigramTableModel,
    LogitModel,
    TinyNeuralLM,
    decode_model,
    encode_model,
    fit_bigram,
    hash64,
    load_model,
    save_model,
    train_neural_lm,
)
from .offset import OffsetProxy, adapted_next_token, adjusted_logits
from .protocol import (
    Client,
    Server,
    SocketServer,
    connect_in_process,
    connect_socket,
    generate_adapted,
    generate_blackbox,
)
from .transport import (
    CostLedger,
    FramedConnection,
    LatencyReport,
    decode_message,
    encode_message,
    latency_probe,
    latency_report,
    ledger_report,
)

__version__ = "0.1.0"
__all__ = [name for name in dir() if not name.startswith("_")]
