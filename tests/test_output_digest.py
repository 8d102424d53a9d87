import difflib
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _output_digest():
    """tools/output_digest.py, imported as a module."""
    spec = importlib.util.spec_from_file_location("output_digest", _TOOLS / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_pinned_listing(monkeypatch):
    """Every stdout, stderr, `--report` and CSV byte of the commands that
    `tools/output_digest.py` runs equals the listing committed beside it,
    `tools/output_digest.txt`, rebuilt here in process.

    The digests depend on numpy's rounding, so on a numpy or Python version
    other than the one the listing's first line names, this skips and names
    both.  They depend on the BLAS kernel too, which the first line does not
    name (see the docstring of `tools/output_digest.py`): on a CPU for which
    OpenBLAS picks a kernel without fused multiply-adds, this can fail with
    the same versions.  After a deliberate output change, regenerate the listing with

        PYTHONPATH=src python tools/output_digest.py > tools/output_digest.txt

    and commit it: the change then shows as a diff of that file."""
    digest = _output_digest()
    pinned = (_TOOLS / "output_digest.txt").read_text().splitlines()
    if pinned[0] != digest.header():
        pytest.skip(f"tools/output_digest.txt was made with {pinned[0].lstrip('# ')}; "
                    f"this is {digest.header().lstrip('# ')}")
    monkeypatch.delenv("MOEBIUS_TOL", raising=False)
    out = io.StringIO()
    with redirect_stdout(out):
        digest.main()
    got = out.getvalue().splitlines()
    changed = list(difflib.unified_diff(pinned, got, "pinned", "now", n=0, lineterm=""))
    assert got == pinned, "\n".join(changed[:40])
