import filecmp
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_make_fixture_reproduces_bundled_data(tmp_path):
    script = ROOT / "scripts" / "make_fixture.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("copurchase_graph.txt", "copurchase_ratings.csv"):
        want = ROOT / "tests" / "data" / name
        assert filecmp.cmp(tmp_path / name, want, shallow=False)
