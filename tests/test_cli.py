"""Command-line surface: artifacts, generation modes, config handling, errors."""

from __future__ import annotations

import csv
import re
import signal
import socket
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

from offsetlm import BigramTableModel, Server, SocketServer, TinyNeuralLM, load_adapter, load_model
from offsetlm import cli
from offsetlm.cli import main

from conftest import needs_ipv6_loopback

RESULT_RE = re.compile(r"^record=result mode=(?P<mode>\S+) tokens=(?P<tokens>[\d,]*)$")


@pytest.fixture(scope="module")
def runner() -> CliRunner:
    return CliRunner()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def corpus_path(workdir):
    path = workdir / "corpus.txt"
    lines = []
    for start in (3, 4, 5, 6, 7):
        cycle = [3, 4, 5, 6, 7]
        k = cycle.index(start)
        doc = [cycle[(k + i) % 5] for i in range(12)]
        lines.append(" ".join(str(t) for t in doc))
    path.write_text("\n".join(lines * 3) + "\n")
    return path


@pytest.fixture(scope="module")
def blackbox_path(runner, workdir, corpus_path):
    out = workdir / "blackbox.prdm"
    result = runner.invoke(main, [
        "fit-blackbox", "--corpus", str(corpus_path), "--out", str(out),
        "--arch", "bigram", "--vocab-size", "8", "--eos-id", "1", "--bos-id", "2",
    ])
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture(scope="module")
def base_proxy_path(runner, workdir, corpus_path):
    out = workdir / "base.prdm"
    result = runner.invoke(main, [
        "fit-blackbox", "--corpus", str(corpus_path), "--out", str(out),
        "--arch", "neural", "--vocab-size", "8", "--eos-id", "1", "--bos-id", "2",
        "--context", "2", "--embed-dim", "4", "--hidden-dim", "6", "--epochs", "2",
    ])
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture(scope="module")
def adapter_path(runner, workdir, corpus_path, base_proxy_path):
    out = workdir / "adapter.prdl"
    result = runner.invoke(main, [
        "train-proxy", "--base", str(base_proxy_path), "--corpus", str(corpus_path),
        "--out", str(out), "--rank", "2", "--epochs", "3", "--lr", "0.1",
    ])
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture(scope="module")
def swapped_base_path(runner, workdir, corpus_path):
    """A neural base over Vocab(8, eos 2, bos 1): the black box's size, its ids swapped."""
    out = workdir / "swapped_base.prdm"
    result = runner.invoke(main, [
        "fit-blackbox", "--corpus", str(corpus_path), "--out", str(out),
        "--arch", "neural", "--vocab-size", "8", "--eos-id", "2", "--bos-id", "1",
        "--context", "2", "--embed-dim", "4", "--hidden-dim", "6", "--epochs", "2",
    ])
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture(scope="module")
def swapped_adapter_path(runner, workdir, corpus_path, swapped_base_path):
    out = workdir / "swapped_adapter.prdl"
    result = runner.invoke(main, [
        "train-proxy", "--base", str(swapped_base_path), "--corpus", str(corpus_path),
        "--out", str(out), "--rank", "2", "--epochs", "1",
    ])
    assert result.exit_code == 0, result.output
    return out


def result_tokens(output: str) -> list[int]:
    for line in output.splitlines():
        m = RESULT_RE.match(line)
        if m:
            return [int(t) for t in m.group("tokens").split(",") if t]
    raise AssertionError(f"no result record in output:\n{output}")


class TestFitBlackbox:
    def test_bigram_record_and_artifact(self, runner, workdir, corpus_path):
        out = workdir / "bb2.prdm"
        result = runner.invoke(main, [
            "fit-blackbox", "--corpus", str(corpus_path), "--out", str(out),
            "--arch", "bigram", "--vocab-size", "8", "--eos-id", "1", "--bos-id", "2",
            "--alpha", "0.5",
        ])
        assert result.exit_code == 0, result.output
        m = re.match(
            r"record=model path=(\S+) arch=bigram fingerprint=([0-9a-f]{16})",
            result.output.strip(),
        )
        assert m is not None, result.output
        model = load_model(out)
        assert isinstance(model, BigramTableModel)
        assert f"{model.fingerprint():016x}" == m.group(2)
        assert model.alpha == 0.5

    def test_neural_arch(self, base_proxy_path):
        model = load_model(base_proxy_path)
        assert isinstance(model, TinyNeuralLM)
        assert (model.context, model.embed_dim, model.hidden_dim) == (2, 4, 6)

    def test_flags_beat_config_file(self, runner, workdir, corpus_path):
        cfg = workdir / "fit.cfg"
        cfg.write_text("alpha=9.0\nvocab_size=8\neos_id=1\nbos_id=2\n")
        out = workdir / "bb3.prdm"
        result = runner.invoke(main, [
            "fit-blackbox", "--corpus", str(corpus_path), "--out", str(out),
            "--config", str(cfg), "--alpha", "2.0",
        ])
        assert result.exit_code == 0, result.output
        assert load_model(out).alpha == 2.0

    def test_config_file_beats_defaults(self, runner, workdir, corpus_path):
        cfg = workdir / "fit2.cfg"
        cfg.write_text("alpha=3.0\nvocab_size=8\neos_id=1\nbos_id=2\n")
        out = workdir / "bb4.prdm"
        result = runner.invoke(main, [
            "fit-blackbox", "--corpus", str(corpus_path), "--out", str(out),
            "--config", str(cfg),
        ])
        assert result.exit_code == 0, result.output
        assert load_model(out).alpha == 3.0

    def test_alpha_that_overflows_binary32_is_refused(self, runner, workdir, corpus_path):
        out = workdir / "bb-inf.prdm"
        result = runner.invoke(main, [
            "fit-blackbox", "--corpus", str(corpus_path), "--out", str(out),
            "--vocab-size", "8", "--eos-id", "1", "--bos-id", "2", "--alpha", "1e39",
        ])
        assert result.exit_code != 0
        assert 'msg="alpha must be positive and finite in binary32' in result.stderr, result.stderr
        assert not out.exists()

    def test_bad_corpus_token_is_reported(self, runner, workdir):
        bad = workdir / "bad.txt"
        bad.write_text("3 4 99\n")
        result = runner.invoke(main, [
            "fit-blackbox", "--corpus", str(bad), "--out", str(workdir / "x.prdm"),
            "--vocab-size", "8", "--eos-id", "1", "--bos-id", "2",
        ])
        assert result.exit_code != 0
        assert "error code=" in result.stderr


class TestTrainProxy:
    def test_record_reports_losses(self, runner, workdir, corpus_path, base_proxy_path):
        out = workdir / "a2.prdl"
        result = runner.invoke(main, [
            "train-proxy", "--base", str(base_proxy_path), "--corpus", str(corpus_path),
            "--out", str(out), "--rank", "2", "--epochs", "2",
        ])
        assert result.exit_code == 0, result.output
        m = re.match(
            r"record=train path=\S+ rank=2 epochs=2 "
            r"initial_loss=([\d.]+) final_loss=([\d.]+)",
            result.output.strip(),
        )
        assert m is not None, result.output
        assert float(m.group(2)) < float(m.group(1))
        assert load_adapter(out).rank == 2

    def test_bigram_base_is_rejected(self, runner, workdir, corpus_path, blackbox_path):
        result = runner.invoke(main, [
            "train-proxy", "--base", str(blackbox_path), "--corpus", str(corpus_path),
            "--out", str(workdir / "nope.prdl"),
        ])
        assert result.exit_code != 0
        assert 'error code=bad-base msg="' in result.stderr


    def test_divergence_is_a_named_code(self, runner, workdir, corpus_path, base_proxy_path):
        out = workdir / "diverged.prdl"
        with pytest.warns(RuntimeWarning, match="overflow"):  # numpy still says what overflowed
            result = runner.invoke(main, [
                "train-proxy", "--base", str(base_proxy_path), "--corpus", str(corpus_path),
                "--out", str(out), "--rank", "2", "--epochs", "8", "--lr", "1000",
            ])
        assert result.exit_code != 0
        assert 'error code=training-diverged msg="training diverged at epoch ' in result.stderr, \
            result.stderr
        assert not out.exists()


class TestVocabMismatch:
    """A black box and a base proxy over different vocabularies fail as ``bad-vocab``."""

    @pytest.mark.parametrize("args", [
        ["generate", "--mode", "prada", "--prompt", "3 4", "--blackbox", "BB",
         "--base-proxy", "BASE", "--adapter", "ADAPTER"],
        ["generate", "--mode", "prada-transfer", "--prompt", "3 4", "--blackbox", "BB",
         "--base-proxy", "BASE", "--adapter", "ADAPTER"],
        ["bench", "--prompt", "3 4", "--blackbox", "BB", "--base-proxy", "BASE",
         "--adapter", "ADAPTER"],
        ["serve", "--blackbox", "BB", "--base-proxy", "BASE"],
    ], ids=["generate-prada", "generate-prada-transfer", "bench", "serve"])
    def test_each_command_names_the_mismatch(self, runner, monkeypatch, blackbox_path,
                                             swapped_base_path, swapped_adapter_path, args):
        monkeypatch.setattr(signal, "pause", lambda: None)
        paths = {"BB": blackbox_path, "BASE": swapped_base_path, "ADAPTER": swapped_adapter_path}
        result = runner.invoke(main, [str(paths.get(a, a)) for a in args])
        assert result.exit_code != 0
        assert 'error code=bad-vocab msg="' in result.stderr, result.stderr
        assert "record=" not in result.output

    # (vocab size, eos, bos) of a proxy pair that differs from the black box's (8, 1, 2) in one field
    @pytest.fixture(scope="class", params=[(9, 1, 2), (8, 0, 2), (8, 1, 0)],
                    ids=["size", "eos", "bos"])
    def other_pair(self, request, runner, workdir, corpus_path):
        size, eos, bos = request.param
        base, adapter = workdir / f"base_{size}_{eos}_{bos}.prdm", workdir / f"ad_{size}_{eos}_{bos}.prdl"
        for args in (["fit-blackbox", "--corpus", str(corpus_path), "--out", str(base),
                      "--arch", "neural", "--vocab-size", str(size), "--eos-id", str(eos),
                      "--bos-id", str(bos), "--context", "2", "--embed-dim", "4",
                      "--hidden-dim", "6", "--epochs", "1"],
                     ["train-proxy", "--base", str(base), "--corpus", str(corpus_path),
                      "--out", str(adapter), "--rank", "2", "--epochs", "1"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        return base, adapter

    @pytest.mark.parametrize("command", [["generate", "--mode", "prada"], ["bench"]],
                             ids=["generate-prada", "bench"])
    def test_a_pair_differing_in_one_field_is_refused(self, runner, blackbox_path, other_pair,
                                                      command):
        base, adapter = other_pair
        result = runner.invoke(main, command + [
            "--prompt", "3 4", "--blackbox", str(blackbox_path), "--base-proxy", str(base),
            "--adapter", str(adapter)])
        assert result.exit_code != 0
        assert 'error code=bad-vocab msg="' in result.stderr, result.stderr
        assert "record=" not in result.output

    def test_bench_checks_the_vocabularies_before_any_mode_runs(
            self, runner, monkeypatch, blackbox_path, swapped_base_path, swapped_adapter_path):
        real, opened = cli.connect_in_process, []
        monkeypatch.setattr(cli, "connect_in_process",
                            lambda *a, **k: opened.append(a) or real(*a, **k))
        args = ["bench", "--prompt", "3 4", "--blackbox", str(blackbox_path),
                "--base-proxy", str(swapped_base_path), "--adapter", str(swapped_adapter_path),
                "--max-new-tokens", "4"]
        result = runner.invoke(main, args + ["--modes", "api,prada"])
        assert result.exit_code != 0
        assert 'error code=bad-vocab msg="black-box vocab ' in result.stderr, result.stderr
        assert "record=bench" not in result.output
        assert opened == []  # the api mode listed first did not run either
        result = runner.invoke(main, args + ["--modes", "api"])  # no proxy mode, no check
        assert result.exit_code == 0, result.output
        assert result.output.count("record=bench mode=api ") == 1 and len(opened) == 1


# settings GenerationConfig refuses: each is outside what the wire carries
BAD_SAMPLING = [("--seed", "-1"), ("--temperature", "1e39"), ("--max-new-tokens", "4294967296")]


class TestGenerate:
    def invoke_mode(self, runner, mode, blackbox_path, base_proxy_path, adapter_path,
                    extra=()):
        args = [
            "generate", "--mode", mode, "--prompt", "3 4",
            "--blackbox", str(blackbox_path), "--max-new-tokens", "10",
        ]
        if mode != "api":
            args += ["--base-proxy", str(base_proxy_path), "--adapter", str(adapter_path)]
        return runner.invoke(main, args + list(extra))

    def test_all_modes_run_and_adapted_modes_agree(
        self, runner, blackbox_path, base_proxy_path, adapter_path
    ):
        outputs = {}
        for mode in ("api", "prada", "prada-sd", "prada-transfer"):
            result = self.invoke_mode(runner, mode, blackbox_path, base_proxy_path, adapter_path)
            assert result.exit_code == 0, f"{mode}: {result.output}\n{result.stderr}"
            assert f"record=result mode={mode} " in result.output
            outputs[mode] = result_tokens(result.output)
        assert outputs["prada"] == outputs["prada-sd"] == outputs["prada-transfer"]
        assert len(outputs["api"]) == 10

    def test_report_lines_are_machine_parseable(
        self, runner, blackbox_path, base_proxy_path, adapter_path
    ):
        result = self.invoke_mode(runner, "prada-sd", blackbox_path, base_proxy_path, adapter_path)
        lines = result.output.strip().splitlines()
        kinds = {line.split()[0] for line in lines}
        assert kinds == {
            "record=result", "record=ledger_bytes", "record=ledger_counter",
            "record=ledger_ratio", "record=latency",
        }
        for line in lines:
            for part in line.split():
                assert re.match(r"^[\w=.,:-]+$", part) and "=" in part, line

    def test_report_file_matches_stdout(
        self, runner, tmp_path, blackbox_path, base_proxy_path, adapter_path
    ):
        report = tmp_path / "run.report"
        result = self.invoke_mode(
            runner, "prada", blackbox_path, base_proxy_path, adapter_path,
            extra=["--report", str(report)],
        )
        assert result.exit_code == 0
        assert report.read_text() == result.output

    @pytest.mark.parametrize("mode", ["api", "prada", "prada-sd", "prada-transfer"])
    @pytest.mark.parametrize("prompt, budget", [("3", "0"), ("3 1", "10")],
                             ids=["zero-budget", "prompt-ends-in-eos"])
    def test_zero_token_generation_is_a_result(
        self, runner, blackbox_path, base_proxy_path, adapter_path, mode, prompt, budget
    ):
        args = ["generate", "--mode", mode, "--prompt", prompt, "--blackbox", str(blackbox_path),
                "--max-new-tokens", budget]
        if mode != "api":
            args += ["--base-proxy", str(base_proxy_path), "--adapter", str(adapter_path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.stderr
        lines = result.output.splitlines()
        assert lines[0] == f"record=result mode={mode} tokens="
        assert any(line.startswith("record=ledger_bytes ") for line in lines)
        latency = [line for line in lines if line.startswith("record=latency ")]
        assert len(latency) == 1
        assert "response_tokens=0" in latency[0] and "ms_per_token" not in latency[0]

    def test_api_mode_never_touches_proxy_loading(
        self, runner, blackbox_path, base_proxy_path, adapter_path, monkeypatch
    ):
        import offsetlm.cli as cli_mod

        def boom(*args, **kwargs):  # pragma: no cover - would mean api loaded proxies
            raise AssertionError("api mode must not load proxy models")

        monkeypatch.setattr(cli_mod, "_load_proxy_models", boom)
        result = runner.invoke(main, [
            "generate", "--mode", "api", "--prompt", "3 4",
            "--blackbox", str(blackbox_path), "--max-new-tokens", "5",
            # the flags may be present; api mode must still ignore them
            "--base-proxy", str(base_proxy_path), "--adapter", str(adapter_path),
        ])
        assert result.exit_code == 0, result.stderr

    def test_stochastic_is_reproducible_per_seed(
        self, runner, blackbox_path, base_proxy_path, adapter_path
    ):
        extra = ["--sampling", "stochastic", "--temperature", "0.9", "--seed", "11"]
        a = self.invoke_mode(runner, "prada", blackbox_path, base_proxy_path, adapter_path, extra)
        b = self.invoke_mode(runner, "prada", blackbox_path, base_proxy_path, adapter_path, extra)
        c = self.invoke_mode(
            runner, "prada", blackbox_path, base_proxy_path, adapter_path,
            ["--sampling", "stochastic", "--temperature", "0.9", "--seed", "12"],
        )
        assert result_tokens(a.output) == result_tokens(b.output)
        assert result_tokens(a.output) != result_tokens(c.output)

    def test_config_file_supplies_prompt_and_mode(
        self, runner, tmp_path, blackbox_path, base_proxy_path, adapter_path
    ):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(
            f"mode=prada\nprompt=3 4\nmax_new_tokens=6\n"
            f"base_proxy={base_proxy_path}\nadapter={adapter_path}\n"
        )
        result = runner.invoke(main, [
            "generate", "--config", str(cfg), "--blackbox", str(blackbox_path),
        ])
        assert result.exit_code == 0, result.stderr
        assert len(result_tokens(result.output)) == 6

    def test_prompt_flag_beats_config_prompt(
        self, runner, tmp_path, blackbox_path, base_proxy_path, adapter_path
    ):
        cfg = tmp_path / "gen2.cfg"
        cfg.write_text("prompt=7 7 7\n")
        with_flag = runner.invoke(main, [
            "generate", "--mode", "prada", "--config", str(cfg), "--prompt", "3 4",
            "--blackbox", str(blackbox_path), "--base-proxy", str(base_proxy_path),
            "--adapter", str(adapter_path), "--max-new-tokens", "4",
        ])
        from_cfg = runner.invoke(main, [
            "generate", "--mode", "prada", "--config", str(cfg),
            "--blackbox", str(blackbox_path), "--base-proxy", str(base_proxy_path),
            "--adapter", str(adapter_path), "--max-new-tokens", "4",
        ])
        flag_direct = runner.invoke(main, [
            "generate", "--mode", "prada", "--prompt", "3 4",
            "--blackbox", str(blackbox_path), "--base-proxy", str(base_proxy_path),
            "--adapter", str(adapter_path), "--max-new-tokens", "4",
        ])
        cfg_direct = runner.invoke(main, [
            "generate", "--mode", "prada", "--prompt", "7 7 7",
            "--blackbox", str(blackbox_path), "--base-proxy", str(base_proxy_path),
            "--adapter", str(adapter_path), "--max-new-tokens", "4",
        ])
        assert result_tokens(with_flag.output) == result_tokens(flag_direct.output)
        assert result_tokens(from_cfg.output) == result_tokens(cfg_direct.output)

    @pytest.mark.parametrize(
        "args,code",
        [
            (["generate", "--mode", "prada", "--blackbox", "IGNORED"], "bad-prompt"),
            (["generate", "--prompt", "3"], "bad-mode"),
            (["generate", "--mode", "api", "--prompt", "3"], "bad-endpoint"),
            (["generate", "--mode", "api", "--prompt", "3", "--connect", "nonsense"], "bad-endpoint"),
            (["generate", "--mode", "api", "--prompt", "3", "--connect", "h:9"], "bad-vocab"),
            (["generate", "--mode", "prada", "--prompt", "3", "--blackbox", "IGNORED"], "missing-proxy"),
            (["generate", "--mode", "prada-sd", "--prompt", "3", "--blackbox", "IGNORED",
              "--draft-len", "0"], "bad-draft-len"),
        ],
    )
    def test_error_codes(self, runner, blackbox_path, args, code):
        args = [str(blackbox_path) if a == "IGNORED" else a for a in args]
        result = runner.invoke(main, args)
        assert result.exit_code != 0
        assert f"error code={code} msg=\"" in result.stderr, result.stderr

    @pytest.mark.parametrize("flag,value", BAD_SAMPLING)
    def test_bad_sampling_is_a_named_code(self, runner, blackbox_path, flag, value):
        result = runner.invoke(main, ["generate", "--mode", "api", "--prompt", "3",
                                      "--blackbox", str(blackbox_path), flag, value])
        assert result.exit_code != 0
        assert "error code=bad-sampling msg=\"" in result.stderr, result.stderr


class TestServeAndConnect:
    def test_generate_against_a_live_server(
        self, runner, blackbox_path, base_proxy_path, adapter_path
    ):
        blackbox = load_model(blackbox_path)
        with SocketServer(Server(blackbox, load_model(base_proxy_path))) as srv:
            host, port = srv.address
            in_process = runner.invoke(main, [
                "generate", "--mode", "prada-sd", "--prompt", "3 4",
                "--blackbox", str(blackbox_path), "--base-proxy", str(base_proxy_path),
                "--adapter", str(adapter_path), "--max-new-tokens", "8",
            ])
            over_socket = runner.invoke(main, [
                "generate", "--mode", "prada-sd", "--prompt", "3 4",
                "--connect", f"{host}:{port}", "--base-proxy", str(base_proxy_path),
                "--adapter", str(adapter_path), "--max-new-tokens", "8",
            ])
            api_socket = runner.invoke(main, [
                "generate", "--mode", "api", "--prompt", "3 4",
                "--connect", f"{host}:{port}", "--max-new-tokens", "8",
                "--vocab-size", "8", "--eos-id", "1", "--bos-id", "2",
            ])
        assert over_socket.exit_code == 0, over_socket.stderr
        assert api_socket.exit_code == 0, api_socket.stderr
        assert result_tokens(over_socket.output) == result_tokens(in_process.output)
        assert len(result_tokens(api_socket.output)) == 8

    def test_serve_command_prints_endpoint_and_serves(
        self, blackbox_path, base_proxy_path, adapter_path, runner
    ):
        self._serve_then_transfer([], "{}:{}", blackbox_path, base_proxy_path, adapter_path,
                                  runner)

    @needs_ipv6_loopback
    def test_serve_and_connect_on_ipv6_loopback(
        self, blackbox_path, base_proxy_path, adapter_path, runner
    ):
        self._serve_then_transfer(["--host", "::1"], "[{}]:{}", blackbox_path, base_proxy_path,
                                  adapter_path, runner)

    @staticmethod
    def _serve_then_transfer(serve_args, endpoint, blackbox_path, base_proxy_path, adapter_path,
                             runner):
        """Start ``serve`` with ``serve_args``, then run prada-transfer against the endpoint
        it prints, formatted as ``endpoint.format(host, port)``."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "offsetlm.cli", "serve",
             "--blackbox", str(blackbox_path), "--base-proxy", str(base_proxy_path), *serve_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            m = re.match(r"record=serve host=(\S+) port=(\d+)", line)
            assert m is not None, line
            result = runner.invoke(main, [
                "generate", "--mode", "prada-transfer", "--prompt", "3 4",
                "--connect", endpoint.format(m.group(1), m.group(2)),
                "--base-proxy", str(base_proxy_path), "--adapter", str(adapter_path),
                "--max-new-tokens", "6",
            ])
            assert result.exit_code == 0, result.stderr
            assert len(result_tokens(result.output)) == 6
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()


class TestBench:
    def test_sweep_rows_and_csv(self, runner, tmp_path, blackbox_path, base_proxy_path,
                                adapter_path):
        out_csv = tmp_path / "bench.csv"
        result = runner.invoke(main, [
            "bench", "--blackbox", str(blackbox_path), "--base-proxy", str(base_proxy_path),
            "--adapter", str(adapter_path), "--prompt", "3 4",
            "--modes", "api,prada,prada-sd,prada-transfer", "--draft-lens", "2,4",
            "--max-new-tokens", "12", "--csv", str(out_csv),
        ])
        assert result.exit_code == 0, result.stderr
        rows = [l for l in result.output.splitlines() if l.startswith("record=bench ")]
        assert len(rows) == 5  # api, prada, prada-sd x2, prada-transfer
        with open(out_csv, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 5
        by_key = {(r["mode"], r["draft_len"]): r for r in parsed}
        assert float(by_key[("prada", "1")]["ms_per_token"]) > 0
        # speculative rounds never exceed the per-token round count
        assert int(by_key[("prada-sd", "4")]["rounds"]) < int(by_key[("prada", "1")]["rounds"])
        assert int(by_key[("prada-transfer", "0")]["model_bytes"]) > 0
        assert int(by_key[("api", "0")]["model_bytes"]) == 0

    def test_zero_budget_rows_have_no_per_token_latency(self, runner, blackbox_path,
                                                        base_proxy_path, adapter_path):
        result = runner.invoke(main, [
            "bench", "--blackbox", str(blackbox_path), "--base-proxy", str(base_proxy_path),
            "--adapter", str(adapter_path), "--prompt", "3 4", "--max-new-tokens", "0",
        ])
        assert result.exit_code == 0, result.stderr
        rows = [l for l in result.output.splitlines() if l.startswith("record=bench ")]
        assert len(rows) == 4  # api, prada, prada-sd, prada-transfer
        for row in rows:
            assert " response_tokens=0 " in row and row.endswith(" ms_per_token="), row

    @pytest.mark.parametrize("flag,value", BAD_SAMPLING)
    def test_bad_sampling_is_a_named_code(self, runner, blackbox_path, base_proxy_path,
                                          adapter_path, flag, value):
        result = runner.invoke(main, [
            "bench", "--blackbox", str(blackbox_path), "--base-proxy", str(base_proxy_path),
            "--adapter", str(adapter_path), "--prompt", "3", flag, value,
        ])
        assert result.exit_code != 0
        assert "error code=bad-sampling msg=\"" in result.stderr, result.stderr

    def test_unknown_mode_rejected(self, runner, blackbox_path, base_proxy_path, adapter_path):
        result = runner.invoke(main, [
            "bench", "--blackbox", str(blackbox_path), "--base-proxy", str(base_proxy_path),
            "--adapter", str(adapter_path), "--prompt", "3", "--modes", "api,warp",
        ])
        assert result.exit_code != 0
        assert "error code=bad-mode" in result.stderr

    @pytest.mark.parametrize(
        "args,code",
        [
            (["--modes", ""], "bad-mode"),
            (["--modes", "", "--csv", "CSV"], "bad-mode"),
            (["--modes", " , "], "bad-mode"),
            (["--draft-lens", ""], "bad-draft-len"),
            (["--draft-lens", "x"], "bad-draft-len"),
            (["--draft-lens", "0"], "bad-draft-len"),
            (["--draft-lens", "4,-2"], "bad-draft-len"),
        ],
    )
    def test_bad_sweep_rejected_before_loading(self, runner, tmp_path, blackbox_path,
                                               base_proxy_path, adapter_path, monkeypatch,
                                               args, code):
        import offsetlm.cli as cli_mod

        def boom(*args, **kwargs):  # pragma: no cover - would mean a model loaded
            raise AssertionError("a bad sweep must be rejected before any model loads")

        monkeypatch.setattr(cli_mod, "load_model", boom)
        result = runner.invoke(main, [
            "bench", "--blackbox", str(blackbox_path), "--base-proxy", str(base_proxy_path),
            "--adapter", str(adapter_path), "--prompt", "3",
        ] + [str(tmp_path / "out.csv") if a == "CSV" else a for a in args])
        assert result.exit_code != 0
        assert f"error code={code} msg=\"" in result.stderr, result.stderr
        assert "record=bench" not in result.output
        assert not (tmp_path / "out.csv").exists()

    def test_each_model_file_loads_once(self, runner, blackbox_path, base_proxy_path,
                                        adapter_path, monkeypatch):
        # the in-process server shares the client's base proxy in transfer mode
        import offsetlm.cli as cli_mod

        loaded = []

        def counting_load(path):
            loaded.append(str(path))
            return load_model(path)

        monkeypatch.setattr(cli_mod, "load_model", counting_load)
        result = runner.invoke(main, [
            "bench", "--blackbox", str(blackbox_path), "--base-proxy", str(base_proxy_path),
            "--adapter", str(adapter_path), "--prompt", "3 4", "--max-new-tokens", "4",
            "--modes", "prada-transfer,api,prada-transfer",
        ])
        assert result.exit_code == 0, result.stderr
        assert sorted(loaded) == sorted([str(blackbox_path), str(base_proxy_path)])
        loaded.clear()
        result = runner.invoke(main, [
            "generate", "--mode", "prada-transfer", "--prompt", "3 4",
            "--blackbox", str(blackbox_path), "--base-proxy", str(base_proxy_path),
            "--adapter", str(adapter_path), "--max-new-tokens", "4",
        ])
        assert result.exit_code == 0, result.stderr
        assert sorted(loaded) == sorted([str(blackbox_path), str(base_proxy_path)])


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def as_flags(entries: dict) -> list[str]:
    """Config entries spelled as command-line flags."""
    return [part for key, value in entries.items()
            for part in (f"--{key.replace('_', '-')}", str(value))]


class TestConfigFile:
    """Any option can come from ``--config`` under its long name with ``_``; a flag beats it."""

    def invoke(self, runner, tmp_path, command, entries, flags=()):
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in entries.items()))
        return runner.invoke(main, [command, "--config", str(cfg), *flags])

    def test_fit_blackbox(self, runner, tmp_path, corpus_path):
        entries = {
            "corpus": corpus_path, "out": tmp_path / "cfg.prdm", "arch": "neural",
            "vocab_size": 8, "eos_id": 1, "bos_id": 2, "context": 2, "embed_dim": 3,
            "hidden_dim": 5, "lr": 0.2, "batch_size": 3, "epochs": 1, "seed": 7,
        }
        result = self.invoke(runner, tmp_path, "fit-blackbox", entries)
        assert result.exit_code == 0, result.stderr
        from_config = load_model(tmp_path / "cfg.prdm")
        assert (from_config.context, from_config.embed_dim, from_config.hidden_dim) == (2, 3, 5)
        result = runner.invoke(main, ["fit-blackbox", *as_flags({**entries, "out": tmp_path / "f.prdm"})])
        assert result.exit_code == 0, result.stderr
        assert load_model(tmp_path / "f.prdm").fingerprint() == from_config.fingerprint()

        result = self.invoke(runner, tmp_path, "fit-blackbox", entries,
                             ["--out", str(tmp_path / "flag.prdm"), "--hidden-dim", "4"])
        assert result.exit_code == 0, result.stderr
        assert load_model(tmp_path / "flag.prdm").hidden_dim == 4

    def test_train_proxy(self, runner, tmp_path, corpus_path, base_proxy_path):
        entries = {
            "base": base_proxy_path, "corpus": corpus_path, "out": tmp_path / "cfg.prdl",
            "rank": 3, "lr": 0.2, "batch_size": 3, "epochs": 1, "seed": 5,
        }
        result = self.invoke(runner, tmp_path, "train-proxy", entries)
        assert result.exit_code == 0, result.stderr
        assert load_adapter(tmp_path / "cfg.prdl").rank == 3
        result = runner.invoke(main, ["train-proxy", *as_flags({**entries, "out": tmp_path / "f.prdl"})])
        assert result.exit_code == 0, result.stderr
        assert (tmp_path / "f.prdl").read_bytes() == (tmp_path / "cfg.prdl").read_bytes()

        result = self.invoke(runner, tmp_path, "train-proxy", entries,
                             ["--out", str(tmp_path / "flag.prdl"), "--rank", "2"])
        assert result.exit_code == 0, result.stderr
        assert load_adapter(tmp_path / "flag.prdl").rank == 2

    def test_serve(self, runner, tmp_path, blackbox_path, base_proxy_path, monkeypatch):
        monkeypatch.setattr(signal, "pause", lambda: None)
        port, flag_port = free_port(), free_port()
        entries = {"blackbox": blackbox_path, "base_proxy": base_proxy_path,
                   "host": "127.0.0.1", "port": port}
        result = self.invoke(runner, tmp_path, "serve", entries)
        assert result.exit_code == 0, result.stderr
        assert result.output.strip() == f"record=serve host=127.0.0.1 port={port}"
        result = self.invoke(runner, tmp_path, "serve", entries, ["--port", str(flag_port)])
        assert result.exit_code == 0, result.stderr
        assert result.output.strip() == f"record=serve host=127.0.0.1 port={flag_port}"

    def test_generate(self, runner, tmp_path, blackbox_path, base_proxy_path, adapter_path):
        entries = {
            "mode": "prada-sd", "prompt": "3 4", "blackbox": blackbox_path,
            "base_proxy": base_proxy_path, "adapter": adapter_path, "max_new_tokens": 7,
            "draft_len": 3, "sampling": "stochastic", "temperature": 0.8, "seed": 4,
            "report": tmp_path / "cfg.report",
        }
        result = self.invoke(runner, tmp_path, "generate", entries)
        assert result.exit_code == 0, result.stderr
        assert (tmp_path / "cfg.report").read_text() == result.output
        tokens = result_tokens(result.output)
        assert len(tokens) == 7
        flags = runner.invoke(main, ["generate", *as_flags({**entries, "report": tmp_path / "f.report"})])
        assert flags.exit_code == 0, flags.stderr
        assert result_tokens(flags.output) == tokens

        result = self.invoke(runner, tmp_path, "generate", entries,
                             ["--max-new-tokens", "3", "--report", str(tmp_path / "flag.report")])
        assert result.exit_code == 0, result.stderr
        assert result_tokens(result.output) == tokens[:3]
        assert (tmp_path / "flag.report").read_text() == result.output

    def test_generate_api_over_connect(self, runner, tmp_path, blackbox_path):
        with SocketServer(Server(load_model(blackbox_path))) as srv:
            host, port = srv.address
            entries = {"mode": "api", "prompt": "3 4", "connect": f"{host}:{port}",
                       "vocab_size": 8, "eos_id": 1, "bos_id": 2, "max_new_tokens": 5}
            result = self.invoke(runner, tmp_path, "generate", entries)
        assert result.exit_code == 0, result.stderr
        assert len(result_tokens(result.output)) == 5

    def test_bench(self, runner, tmp_path, blackbox_path, base_proxy_path, adapter_path):
        entries = {
            "blackbox": blackbox_path, "base_proxy": base_proxy_path, "adapter": adapter_path,
            "prompt": "3 4", "modes": "api,prada-sd", "draft_lens": "2,3", "max_new_tokens": 5,
            "sampling": "stochastic", "temperature": 0.7, "seed": 2, "csv": tmp_path / "cfg.csv",
        }
        result = self.invoke(runner, tmp_path, "bench", entries)
        assert result.exit_code == 0, result.stderr
        with open(tmp_path / "cfg.csv", newline="") as fh:
            rows = [(r["mode"], r["draft_len"], r["response_tokens"]) for r in csv.DictReader(fh)]
        assert rows == [("api", "0", "5"), ("prada-sd", "2", "5"), ("prada-sd", "3", "5")]

        result = self.invoke(runner, tmp_path, "bench", entries, ["--modes", "prada"])
        assert result.exit_code == 0, result.stderr
        assert [l.split()[1] for l in result.output.splitlines()] == ["mode=prada"]

    def test_prompt_file_flag_beats_config_prompt(
        self, runner, tmp_path, blackbox_path, base_proxy_path, adapter_path
    ):
        prompt_file = tmp_path / "prompt.txt"
        prompt_file.write_text("3 4\n")
        common = {"mode": "prada", "blackbox": blackbox_path, "base_proxy": base_proxy_path,
                  "adapter": adapter_path, "max_new_tokens": 4}
        from_file = self.invoke(runner, tmp_path, "generate", {**common, "prompt": "7 7 7"},
                                ["--prompt-file", str(prompt_file)])
        assert from_file.exit_code == 0, from_file.stderr
        from_prompt = runner.invoke(main, ["generate", *as_flags({**common, "prompt": "3 4"})])
        assert result_tokens(from_file.output) == result_tokens(from_prompt.output)
        # and the other way round: a --prompt flag beats a config prompt_file
        from_flag = self.invoke(runner, tmp_path, "generate",
                                {**common, "prompt_file": prompt_file}, ["--prompt", "7 7 7"])
        cfg_direct = runner.invoke(main, ["generate", *as_flags({**common, "prompt": "7 7 7"})])
        assert from_flag.exit_code == 0, from_flag.stderr
        assert result_tokens(from_flag.output) == result_tokens(cfg_direct.output)

    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("fit-blackbox", "vocab_size", "eight"),
            ("fit-blackbox", "alpha", "lots"),
            ("fit-blackbox", "arch", "zz"),
            ("fit-blackbox", "corpus", "missing.txt"),
            ("train-proxy", "base", "missing.prdm"),
            ("serve", "port", "http"),
            ("generate", "mode", "zz"),
            ("generate", "sampling", "zz"),
            ("bench", "temperature", "hot"),
        ],
    )
    def test_entries_are_type_checked(self, runner, tmp_path, corpus_path, blackbox_path,
                                      base_proxy_path, adapter_path, monkeypatch,
                                      command, key, value):
        monkeypatch.setattr(signal, "pause", lambda: None)
        required = {
            "fit-blackbox": {"corpus": corpus_path, "out": tmp_path / "m.prdm"},
            "train-proxy": {"base": base_proxy_path, "corpus": corpus_path,
                            "out": tmp_path / "a.prdl"},
            "serve": {"blackbox": blackbox_path},
            "generate": {"prompt": "3", "blackbox": blackbox_path},
            "bench": {"blackbox": blackbox_path, "base_proxy": base_proxy_path,
                      "adapter": adapter_path, "prompt": "3"},
        }[command]
        flags = as_flags({k: v for k, v in required.items() if k != key})
        result = self.invoke(runner, tmp_path, command, {key: value}, flags)
        assert result.exit_code != 0
        assert f"error code=bad-config msg=\"config key {key}='{value}': " in result.stderr, \
            result.stderr
        assert not (tmp_path / "m.prdm").exists()
