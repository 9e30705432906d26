"""Each short demo runs to completion as a script (the training demo 08 is left out)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-7]_*.py"))


def test_demo_set_is_complete():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # 07 also writes its image dump when given a directory
    extra = [str(tmp_path / "dump")] if demo.startswith("07_") else []
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo), *extra],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if extra:
        assert any(Path(extra[0]).iterdir())
