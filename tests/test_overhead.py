import numpy as np

from histadapter.adapter import HistAdapter
from histadapter.overhead import account, adapter_params, backbone_params, head_params
from histadapter.vit import PRESETS, build_model


def test_analytic_backbone_count_matches_live_toy_model():
    model = build_model("toy", seed=0, variant=None)
    live = sum(p.size for p in model.backbone_parameters().values())
    assert live == backbone_params(PRESETS["toy"])
    live_head = sum(p.size for p in model.head.parameters().values())
    assert live_head == head_params(PRESETS["toy"])


def test_analytic_adapter_count_matches_live_adapters():
    rng = np.random.default_rng(0)
    for preset in ("toy", "base"):
        cfg = PRESETS[preset]
        adapter = HistAdapter(cfg.width, rng, adapter_dim=8, variant="full", fusion="sum")
        live = sum(p.size for p in adapter.parameters().values())
        assert live == adapter_params(cfg, 8), preset


def test_adapted_toy_model_total():
    model = build_model("toy", seed=1, variant="full")
    live = sum(p.size for p in model.parameters().values())
    cfg = PRESETS["toy"]
    expected = (backbone_params(cfg) + head_params(cfg)
                + 2 * cfg.depth * adapter_params(cfg, 8))
    assert live == expected


def test_base_preset_overhead_under_one_percent():
    report = account("base", adapter_dim=8)
    assert report.param_ratio < 0.01
    assert report.mac_ratio < 0.01
    # close to the reference accounting: 0.38% params, 0.45% MACs
    assert 0.0038 / 2 <= report.param_ratio <= 0.0038 * 2
    assert 0.0045 / 2 <= report.mac_ratio <= 0.0045 * 2


def test_base_backbone_scale_sanity():
    report = account("base")
    assert 80e6 < report.backbone_params < 95e6
    assert 300_000 < report.adapter_params < 400_000
