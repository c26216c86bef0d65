"""The README's library example runs as written and reaches statistical accuracy."""

import contextlib
import io
import re
from pathlib import Path

import adasize as ad

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_and_reach_accuracy():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert blocks
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    # the quick start prints the suboptimality of its final iterate on R_N
    suboptimality = float(out.getvalue().split()[-1])
    assert 0.0 <= suboptimality <= ad.statistical_accuracy(namespace["spec"],
                                                           namespace["train"].n_samples)
