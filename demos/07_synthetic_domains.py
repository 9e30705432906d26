"""The procedural data: face-like blobs, moire/halftone attack artifacts,
and per-domain imaging styles. Writes a browsable PPM dump of the split's
training set.

Run:  python demos/07_synthetic_domains.py [out_dir]
"""

import sys

from histadapter.metrics import ScoreSet, auc, roc
from histadapter.synth import (
    SynthProtocol, dump_dataset, generate, highpass_variance_scores,
    split_protocol, style_bank,
)

styles = style_bank(4)
print("domain styles:")
for i, s in enumerate(styles):
    print(f"  d{i}: gain={s.color_gain} offset={s.brightness_offset:+.2f} "
          f"noise={s.noise_sigma} blur={s.blur_radius}")

print("\nwithin-domain detectability of the attack artifacts")
print("(variance of a Laplacian high-pass response as the score):")
for i, style in enumerate(styles):
    batch = generate(style, 32, 32, domain_id=i)
    score = auc(roc(ScoreSet(highpass_variance_scores(batch), batch.labels)))
    print(f"  domain {i}: baseline AUC = {score:.3f}")

protocol = SynthProtocol(styles, held_out=3, few_shot_k=5)
split = split_protocol(protocol, train_per_class=8, test_per_class=8)
target = split.train.domain_ids == 3
print("\nleave-one-out split with 5-shot target data:")
print("  train examples      :", len(split.train),
      "from domains", sorted(set(split.train.domain_ids.tolist())))
print("  of which target shots:", int(target.sum()))
print("  test examples       :", len(split.test), "all from domain 3")
print("  id overlap          :",
      len(set(split.train.example_ids) & set(split.test.example_ids)))

if len(sys.argv) > 1:
    manifest = dump_dataset(split.train, sys.argv[1])
    print("\nwrote", manifest)
