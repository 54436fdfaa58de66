import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run():
    # README's quick start and genie example, in order, as one script, so
    # that an example or an API note that no longer runs fails here
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    result = subprocess.run([sys.executable, "-c", "\n".join(blocks)], cwd=ROOT,
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
