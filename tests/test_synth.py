import csv
import tracemalloc

import numpy as np
import pytest

from histadapter.metrics import ScoreSet, auc, roc
from histadapter.synth import (
    FEWSHOT_STREAM,
    TEST_STREAM,
    TRAIN_STREAM,
    VAL_STREAM,
    DomainStyle,
    SynthProtocol,
    dump_dataset,
    generate,
    highpass_variance_scores,
    source_validation,
    split_protocol,
    style_bank,
    training_set,
)

from oracles import synth_loops


@pytest.fixture(scope="module")
def styles():
    return style_bank(4)


class TestGenerate:
    def test_deterministic_given_seed(self, styles):
        a = generate(styles[1], 6, 32)
        b = generate(styles[1], 6, 32)
        assert np.array_equal(a.images.data, b.images.data)
        assert a.example_ids == b.example_ids

    def test_streams_differ(self, styles):
        a = generate(styles[1], 6, 32, stream=0)
        b = generate(styles[1], 6, 32, stream=1)
        assert not np.array_equal(a.images.data, b.images.data)

    def test_balance_and_labels(self, styles):
        batch = generate(styles[0], 8, 32)
        assert len(batch) == 16
        assert (batch.labels == 0).sum() == 8
        assert (batch.labels == 1).sum() == 8

    def test_pixel_range(self, styles):
        batch = generate(styles[2], 8, 32)
        assert batch.images.data.min() >= 0.0
        assert batch.images.data.max() <= 1.0

    def test_color_gain_shifts_channel_means(self):
        neutral = DomainStyle(color_gain=(1.0, 1.0, 1.0), brightness_offset=0.0,
                              noise_sigma=0.0, blur_radius=0, seed=3)
        red = DomainStyle(color_gain=(1.4, 1.0, 1.0), brightness_offset=0.0,
                          noise_sigma=0.0, blur_radius=0, seed=3)
        a = generate(neutral, 16, 32).images.data
        b = generate(red, 16, 32).images.data
        # same underlying textures, only the style differs
        ratio = b[:, 0].mean() / a[:, 0].mean()
        assert ratio > 1.25  # clipping eats a little of the 1.4 gain
        assert abs(b[:, 1].mean() - a[:, 1].mean()) < 1e-12

    def test_invalid_styles_rejected(self):
        with pytest.raises(ValueError, match="gains"):
            DomainStyle(color_gain=(0.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="sigma"):
            DomainStyle(noise_sigma=-0.1)
        with pytest.raises(ValueError, match="n_per_class"):
            generate(DomainStyle(), 0)

    @pytest.mark.parametrize("side", [30, 2, 0, -4])
    def test_side_must_be_a_positive_multiple_of_4(self, side):
        with pytest.raises(ValueError, match=f"side must be a positive multiple of 4, got {side}$"):
            generate(DomainStyle(), 1, side)


def assert_equals_oracle(batch, parts):
    """``batch`` equals the per-image oracle's ``parts``, (style, n, side, domain, stream)
    each, concatenated: images bit for bit, labels, domain ids and example ids."""
    expected = [synth_loops(*part) for part in parts]
    images = np.concatenate([e[0] for e in expected])
    assert batch.images.data.shape == images.shape
    mismatched = np.flatnonzero((batch.images.data != images).reshape(len(images), -1).any(1))
    assert mismatched.size == 0, f"images {mismatched[:10].tolist()} differ"
    assert np.array_equal(batch.labels, np.concatenate([e[1] for e in expected]))
    assert np.array_equal(batch.domain_ids, np.concatenate([e[2] for e in expected]))
    assert batch.example_ids == [i for e in expected for i in e[3]]


class TestBatchedEqualsPerImageOracle:
    """The batched generator draws per image in the oracle's order, so every image is
    bit-identical. Each count straddles a chunk boundary: chunks hold 64 images at 16 px,
    16 at 32 px and 1 at 224 px."""

    STYLES = style_bank(6, 7)
    SIDES = ((16, 65), (32, 17), (224, 2))

    @pytest.mark.parametrize("domain", range(len(STYLES)))
    @pytest.mark.parametrize("stream", [TRAIN_STREAM, TEST_STREAM, FEWSHOT_STREAM, VAL_STREAM])
    def test_generate(self, domain, stream):
        side, n = self.SIDES[(domain + stream) % len(self.SIDES)]
        style = self.STYLES[domain]
        assert_equals_oracle(generate(style, n, side, domain, stream),
                             [(style, n, side, domain, stream)])

    def test_generate_without_noise_and_with_two_blur_passes(self):
        style = DomainStyle(color_gain=(1.2, 0.9, 1.0), noise_sigma=0.0, blur_radius=2, seed=5)
        assert_equals_oracle(generate(style, 17, 32, 6, TEST_STREAM),
                             [(style, 17, 32, 6, TEST_STREAM)])

    def test_generate_squares_each_spot_radius_as_a_python_float(self):
        # squaring the radii as one array flips images 356, 775 and 896 by an ulp
        style = self.STYLES[0]
        assert_equals_oracle(generate(style, 640, 32, 0, TEST_STREAM),
                             [(style, 640, 32, 0, TEST_STREAM)])

    def test_split_protocol_and_source_validation(self):
        protocol = SynthProtocol(self.STYLES[:4], held_out=1, few_shot_k=3)
        split = split_protocol(protocol, 5, 6, 16)
        assert_equals_oracle(split.train, [(self.STYLES[i], 5, 16, i, TRAIN_STREAM)
                                           for i in (0, 2, 3)]
                             + [(self.STYLES[1], 3, 16, 1, FEWSHOT_STREAM)])
        assert_equals_oracle(split.test, [(self.STYLES[1], 6, 16, 1, TEST_STREAM)])
        assert_equals_oracle(source_validation(protocol, 4, 16),
                             [(self.STYLES[i], 4, 16, i, VAL_STREAM) for i in (0, 2, 3)])


def traced_peak(build):
    """``build()``'s result and the ``tracemalloc`` peak of the call, in bytes above
    what was traced when it began."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestSetMemory:
    """A multi-domain set is drawn into one array, and its chunks share the draw's
    scratch: building it holds the set once, not once per domain and again merged."""

    SLACK = 4 * 2 ** 20

    @pytest.mark.parametrize("build", [
        # the toy-eval validation set: 224 per class of 3 sources at 32 px, 31.5 MiB
        lambda: source_validation(SynthProtocol(style_bank(4), held_out=3), 224, 32),
        lambda: training_set(SynthProtocol(style_bank(4), held_out=3, few_shot_k=8), 64, 32),
    ], ids=["source_validation", "few_shot_training_set"])
    def test_peak_is_the_set_plus_4_mib(self, build):
        batch, peak = traced_peak(build)
        held = batch.images.data.nbytes
        assert peak <= held + self.SLACK, \
            f"peak {peak / 2 ** 20:.1f} MiB for a {held / 2 ** 20:.1f} MiB set"


class TestLearnability:
    def test_highpass_baseline_auc_above_090_within_domain(self, styles):
        for domain, style in enumerate(styles):
            batch = generate(style, 48, 32, domain_id=domain)
            scores = highpass_variance_scores(batch)
            value = auc(roc(ScoreSet(scores, batch.labels)))
            assert value > 0.9, f"domain {domain}: baseline AUC {value:.3f}"


class TestSplitProtocol:
    def test_sources_exclude_held_out(self, styles):
        protocol = SynthProtocol(styles, held_out=1)
        split = split_protocol(protocol, 4, 4)
        assert set(split.train.domain_ids) == {0, 2, 3}
        assert set(split.test.domain_ids) == {1}

    def test_few_shot_adds_exactly_k_per_class(self, styles):
        protocol = SynthProtocol(styles, held_out=2, few_shot_k=5)
        split = split_protocol(protocol, 4, 6)
        target = split.train.domain_ids == 2
        target_labels = split.train.labels[target]
        assert (target_labels == 0).sum() == 5
        assert (target_labels == 1).sum() == 5

    def test_splits_disjoint_by_example_id(self, styles):
        protocol = SynthProtocol(styles, held_out=0, few_shot_k=3)
        split = split_protocol(protocol, 5, 5)
        train_ids = set(split.train.example_ids)
        test_ids = set(split.test.example_ids)
        assert train_ids.isdisjoint(test_ids)
        assert len(train_ids) == len(split.train.example_ids)
        val = source_validation(protocol, 4)
        assert set(val.example_ids).isdisjoint(train_ids | test_ids)

    def test_min_source_domains_enforced(self):
        protocol = SynthProtocol(style_bank(2), held_out=0)
        with pytest.raises(ValueError, match="source domains"):
            training_set(protocol, 4, min_source_domains=2)

    def test_validation_names_its_missing_source_domains(self):
        protocol = SynthProtocol(style_bank(1), held_out=0)
        with pytest.raises(ValueError, match=r"^protocol has 0 source domains, need >= 1 "
                                             r"\(validation needs one\)$"):
            source_validation(protocol, 4)

    def test_protocol_validation(self, styles):
        with pytest.raises(ValueError, match="held_out"):
            SynthProtocol(styles, held_out=4)
        with pytest.raises(ValueError, match="few_shot_k"):
            SynthProtocol(styles, held_out=0, few_shot_k=-1)


class TestDump:
    def test_ppm_and_manifest(self, tmp_path, styles):
        batch = training_set(SynthProtocol(styles[:2], held_out=1, few_shot_k=2), 2, 16)
        manifest = dump_dataset(batch, tmp_path / "data")
        rows = list(csv.DictReader(manifest.open()))
        assert len(rows) == len(batch)
        assert {r["domain"] for r in rows} == {"0", "1"}
        first = tmp_path / "data" / rows[0]["path"]
        blob = first.read_bytes()
        assert blob.startswith(b"P6\n16 16\n255\n")
        assert len(blob) == len(b"P6\n16 16\n255\n") + 16 * 16 * 3
