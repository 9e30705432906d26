import csv
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histadapter import cli, losses, training
from histadapter.adapter import FUSIONS, VARIANTS
from histadapter.autodiff import ShapeError
from histadapter.cli import main
from histadapter.config import RunConfig, load_config, parse_config_text
from histadapter.optim import Adam
from histadapter.training import evaluate_run, train_run
from histadapter.vit import PRESETS, build_model


SMALL = {
    "epochs": "2", "batch_size": "12", "train_per_class": "6",
    "test_per_class": "8", "val_per_class": "6", "lr": "0.002",
}


class TestConfig:
    def test_defaults_follow_documented_values(self):
        cfg = RunConfig()
        assert cfg.lr == 1e-4
        assert cfg.theta == 0.7
        assert cfg.tsr_lambda == 0.1
        assert cfg.batch_size == 32 and cfg.epochs == 20

    def test_parse_file_with_comments(self, tmp_path):
        text = "# comment\ntheta=0.5\nlambda=0.2  # inline\n\nvariant=no_hist\n"
        assert parse_config_text(text) == {"theta": "0.5", "lambda": "0.2",
                                           "variant": "no_hist"}
        path = tmp_path / "run.cfg"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.theta == 0.5
        assert cfg.tsr_lambda == 0.2
        assert cfg.variant == "no_hist"

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta=0.5\nseed=3\n")
        cfg = load_config(path, {"theta": "0.9"})
        assert cfg.theta == 0.9 and cfg.seed == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(None, {"thetaa": "0.5"})

    @pytest.mark.parametrize("bad", [
        {"theta": "1.5"}, {"lambda": "-1"}, {"held_out": "7"},
        {"variant": "nope"}, {"preset": "giant"}, {"epochs": "0"},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            load_config(None, bad)

    @pytest.mark.parametrize("key", ["lr", "lambda"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ValueError, match="finite"):
            load_config(None, {key: value})

    def test_round_trip_text(self):
        cfg = RunConfig(theta=0.3, tsr_lambda=0.25)
        values = parse_config_text(cfg.to_text())
        assert values["theta"] == "0.3"
        assert values["lambda"] == "0.25"

    @settings(deadline=None)
    @given(st.data())
    def test_to_text_load_config_round_trip(self, data):
        positive = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
        counts = st.integers(1, 10**6)
        num_domains = data.draw(st.integers(1, 64))
        cfg = RunConfig(
            preset=data.draw(st.sampled_from(sorted(PRESETS))),
            variant=data.draw(st.sampled_from(VARIANTS)),
            fusion=data.draw(st.sampled_from(FUSIONS)),
            adapter_dim=data.draw(counts),
            theta=data.draw(st.floats(0, 1)),
            tsr_lambda=data.draw(st.floats(min_value=0, allow_infinity=False)),
            tsr_aggregation=data.draw(st.sampled_from(["domain", "pairwise"])),
            lr=data.draw(positive),
            epochs=data.draw(counts),
            batch_size=data.draw(counts),
            seed=data.draw(st.integers(0, 2**63)),
            num_domains=num_domains,
            held_out=data.draw(st.integers(0, num_domains - 1)),
            few_shot_k=data.draw(st.integers(0, 10**6)),
            train_per_class=data.draw(counts),
            test_per_class=data.draw(counts),
            val_per_class=data.draw(counts),
            style_seed=data.draw(st.integers(0, 2**63)),
            out=data.draw(st.text(alphabet="abcXYZ019_-./", max_size=20)),
        ).validate()
        assert load_config(None, parse_config_text(cfg.to_text())) == cfg

    @given(st.text())
    def test_out_rejected_unless_it_reads_back(self, out):
        try:
            cfg = RunConfig(out=out).validate()
        except ValueError:
            return
        assert load_config(None, parse_config_text(cfg.to_text())).out == out

    @pytest.mark.parametrize("out", ["runs/#1", " runs/a", "runs/a ", "runs/a\nb", "a\rb=c"])
    def test_out_that_config_text_changes_rejected(self, out):
        with pytest.raises(ValueError, match="out"):
            RunConfig(out=out).validate()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = load_config(None, {**SMALL, "out": str(out), "seed": 0})
    result = train_run(cfg)
    return cfg, result


class TestTrainEval:
    def test_log_schema_and_checkpoint(self, trained):
        cfg, result = trained
        lines = result.log_path.read_text().strip().splitlines()
        assert lines[0] == "epoch,bce,tsr,total"
        assert len(lines) == 1 + cfg.epochs
        assert result.checkpoint_path.exists()

    def test_total_is_bce_plus_lambda_tsr(self, trained):
        cfg, result = trained
        rows = list(csv.DictReader(result.log_path.open()))
        for row in rows:
            total = float(row["bce"]) + cfg.tsr_lambda * float(row["tsr"])
            assert abs(total - float(row["total"])) < 1e-9

    def test_eval_produces_metrics(self, trained):
        cfg, result = trained
        report = evaluate_run(cfg, result.checkpoint_path)
        for field in ("auc", "eer", "hter", "acer"):
            assert 0.0 <= getattr(report, field) <= 1.0

    def test_lambda_zero_logs_zero_tsr_column(self, tmp_path):
        cfg = load_config(None, {**SMALL, "out": str(tmp_path), "lambda": "0"})
        result = train_run(cfg)
        rows = list(csv.DictReader(result.log_path.open()))
        assert all(float(r["tsr"]) == 0.0 for r in rows)
        assert all(float(r["bce"]) > 0.0 for r in rows)

    def test_determinism_identical_log_bytes(self, tmp_path):
        a = load_config(None, {**SMALL, "out": str(tmp_path / "a"), "seed": 5})
        b = load_config(None, {**SMALL, "out": str(tmp_path / "b"), "seed": 5})
        ra, rb = train_run(a), train_run(b)
        assert ra.log_path.read_bytes() == rb.log_path.read_bytes()
        assert ra.checkpoint_path.read_bytes() == rb.checkpoint_path.read_bytes()

    def test_different_seed_changes_log(self, tmp_path, trained):
        cfg = load_config(None, {**SMALL, "out": str(tmp_path), "seed": 1})
        result = train_run(cfg)
        assert result.log_path.read_bytes() != trained[1].log_path.read_bytes()

    def test_bce_evaluated_once_per_step(self, tmp_path, monkeypatch):
        calls = {"bce": 0, "step": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        bce = counted("bce", losses.binary_cross_entropy_with_logits)
        # both bindings, so a BCE computed inside the losses module counts too
        monkeypatch.setattr(training, "binary_cross_entropy_with_logits", bce)
        monkeypatch.setattr(losses, "binary_cross_entropy_with_logits", bce)
        monkeypatch.setattr(Adam, "step", counted("step", Adam.step))
        train_run(load_config(None, {**SMALL, "epochs": "1", "out": str(tmp_path)}))
        assert calls["step"] > 1
        assert calls["bce"] == calls["step"]

    def test_diverged_run_writes_log_but_no_checkpoint(self, tmp_path):
        cfg = load_config(None, {**SMALL, "lr": "1e300", "out": str(tmp_path)})
        with pytest.raises(ValueError, match="epoch 0"):
            train_run(cfg)
        rows = list(csv.DictReader((tmp_path / "train_log.csv").open()))
        assert [r["total"] for r in rows] == ["nan", "nan"]
        assert not (tmp_path / "model.ckpt").exists()

    def test_diverged_run_removes_earlier_outputs(self, tmp_path):
        train_run(load_config(None, {**SMALL, "out": str(tmp_path)}))
        assert (tmp_path / "model.ckpt").exists() and (tmp_path / "config.txt").exists()
        cfg = load_config(None, {**SMALL, "lr": "1e300", "out": str(tmp_path)})
        with pytest.raises(ValueError, match="diverged"):
            train_run(cfg)
        assert not (tmp_path / "model.ckpt").exists()
        assert not (tmp_path / "config.txt").exists()

    def test_loss_decreases_on_default_toy_config(self, tmp_path):
        cfg = load_config(None, {"out": str(tmp_path), "epochs": "10"})
        train_run(cfg)
        rows = list(csv.DictReader((tmp_path / "train_log.csv").open()))
        assert float(rows[9]["total"]) < float(rows[0]["total"])


class TestScoreBatch:
    def test_scores_without_graph_or_style_capture(self, monkeypatch):
        model = build_model("toy", seed=0, variant="full")
        images = np.random.default_rng(0).uniform(size=(5, 3, 32, 32))
        reference = training.score_batch(model, images, batch_size=2)
        seen = []
        probabilities = training.attack_probabilities
        monkeypatch.setattr(training, "attack_probabilities",
                            lambda logits: seen.append(logits) or probabilities(logits))
        model.set_style_capture(True)
        scores = training.score_batch(model, images, batch_size=2)
        assert np.array_equal(scores, reference)
        assert len(seen) == 3 and not any(logits.requires_grad for logits in seen)
        assert model.capturing_style
        assert model.blocks[-1].mlp_adapter.last_style_map is None

    def test_capture_restored_after_error(self):
        model = build_model("toy", seed=0, variant="full")
        model.set_style_capture(True)
        with pytest.raises(ShapeError):
            training.score_batch(model, np.zeros((2, 3, 16, 16)))
        assert model.capturing_style


class TestCliCommands:
    def test_train_then_eval_cli(self, tmp_path, capsys):
        out = tmp_path / "cli-run"
        config = tmp_path / "run.cfg"
        config.write_text("\n".join(f"{k}={v}" for k, v in SMALL.items()) + "\n")
        assert main(["train", "--config", str(config), "--out", str(out),
                     "--seed", "2"]) == 0
        assert main(["eval", "--config", str(config), "--out", str(out),
                     "--seed", "2", "--checkpoint", str(out / "model.ckpt")]) == 0
        captured = capsys.readouterr().out
        assert "protocol,seed,variant" in captured
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 2
        assert metrics[1].startswith("loo3of4,2,full,")

    def test_eval_rejects_corrupt_checkpoint(self, tmp_path):
        bogus = tmp_path / "bad.ckpt"
        bogus.write_bytes(b"JUNK" + b"\x00" * 32)
        from histadapter.checkpoint import CheckpointError
        with pytest.raises(CheckpointError):
            main(["eval", "--out", str(tmp_path), "--checkpoint", str(bogus),
                  "--set", "epochs=1"])

    def test_gradcheck_cli_passes(self, tmp_path):
        assert main(["gradcheck", "--instances", "1", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "gradcheck.csv").read_text().splitlines()
        assert rows[0] == "op,max_relative_error,element_count,passed"
        assert all(line.endswith(",1") for line in rows[1:])

    def test_params_cli(self, tmp_path, capsys):
        assert main(["params", "--preset", "base", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "adapter params" in out
        body = (tmp_path / "overhead.csv").read_text().splitlines()[1].split(",")
        assert float(body[3]) < 0.01 and float(body[6]) < 0.01

    def test_synth_dump_cli(self, tmp_path):
        assert main(["synth-dump", "--out", str(tmp_path / "data"),
                     "--domains", "2", "--per-class", "2", "--side", "16"]) == 0
        rows = list(csv.DictReader((tmp_path / "data" / "manifest.csv").open()))
        assert len(rows) == 8

    def test_ablate_cli_writes_grid(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("\n".join(f"{k}={v}" for k, v in SMALL.items()) + "\n")
        assert main(["ablate", "--config", str(config), "--out", str(tmp_path / "ab"),
                     "--variants", "full", "--thetas", "0.7", "--lambdas", "0",
                     "--fusions", "sum", "--seeds", "0,1"]) == 0
        rows = (tmp_path / "ab" / "ablation.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2 seeds
        summary = (tmp_path / "ab" / "ablation_summary.csv").read_text().splitlines()
        assert summary[0] == "variant,theta,lambda,fusion,mean_hter"
        assert len(summary) == 2

    def test_ablate_cells_keep_set_overrides(self, tmp_path, monkeypatch):
        cells = []

        def fake_train(cfg):
            cells.append(cfg)
            return training.TrainResult(tmp_path / "model.ckpt", tmp_path / "log.csv", {})

        class Report:
            hter = 0.5

            def csv_row(self, *values):
                return ",".join(map(str, values))

        monkeypatch.setattr(cli, "train_run", fake_train)
        monkeypatch.setattr(cli, "evaluate_run", lambda cfg, path: Report())
        config = tmp_path / "run.cfg"
        config.write_text("epochs=40\nlr=0.002\ntheta=0.3\n")
        assert main(["ablate", "--config", str(config), "--out", str(tmp_path / "ab"),
                     "--set", "epochs=1", "--set", "lr=0.5", "--set", "batch_size=7",
                     "--variants", "full,no_hist", "--thetas", "0.9", "--lambdas", "0",
                     "--seeds", "3"]) == 0
        assert [(c.variant, c.theta, c.tsr_lambda, c.seed, c.epochs, c.lr, c.batch_size)
                for c in cells] == [("full", 0.9, 0.0, 3, 1, 0.5, 7),
                                    ("no_hist", 0.9, 0.0, 3, 1, 0.5, 7)]
        assert all(Path(c.out).parent == tmp_path / "ab" for c in cells)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "histadapter", "params", "--preset", "tiny"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "backbone params" in proc.stdout
