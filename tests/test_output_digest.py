import difflib
import importlib.util
import io
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _output_digest():
    """tools/output_digest.py, imported as a module."""
    spec = importlib.util.spec_from_file_location("output_digest", _TOOLS / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _skip_unless_made_here(pinned: str, here: str) -> None:
    """Skip, naming both, unless the listing's first line is this one."""
    if pinned != here:
        pytest.skip(f"tools/output_digest.txt was made with {pinned.lstrip('# ')}; "
                    f"this is {here.lstrip('# ')}")


def test_outputs_match_the_pinned_listing(monkeypatch):
    """Every stdout, stderr, `--report` and CSV byte of the commands that
    `tools/output_digest.py` runs equals the listing committed beside it,
    `tools/output_digest.txt`, rebuilt here in process.

    The digests depend on numpy's rounding and on how the BLAS dot rounds
    (see the docstring of `tools/output_digest.py`), so with a numpy or
    Python version or a BLAS dot other than the listing's first line names,
    as on a CPU for which OpenBLAS picks a kernel without fused
    multiply-adds, this skips and names both.  After a deliberate output
    change, regenerate the listing with

        PYTHONPATH=src python tools/output_digest.py > tools/output_digest.txt

    and commit it: the change then shows as a diff of that file."""
    digest = _output_digest()
    pinned = (_TOOLS / "output_digest.txt").read_text().splitlines()
    _skip_unless_made_here(pinned[0], digest.header())
    monkeypatch.delenv("MOEBIUS_TOL", raising=False)
    out = io.StringIO()
    with redirect_stdout(out):
        digest.main()
    got = out.getvalue().splitlines()
    changed = list(difflib.unified_diff(pinned, got, "pinned", "now", n=0, lineterm=""))
    assert got == pinned, "\n".join(changed[:40])


def test_header_names_the_blas_dot(monkeypatch):
    """The first line tells a fused BLAS dot from an unfused one, and a
    listing made with the other skips, naming both."""
    digest = _output_digest()
    # the probe tells them apart: 0.1 * 0.1 + 0.3 * 0.3 rounds twice, to 0.1
    assert 0.1 * 0.1 + 0.3 * 0.3 == 0.1 != float(Fraction(0.3) ** 2 + Fraction(0.1 * 0.1))
    assert digest.header().endswith(f", BLAS dot {digest.blas_dot()}")
    pinned = (_TOOLS / "output_digest.txt").read_text().splitlines()[0]
    other = "unfused" if digest.blas_dot() == "fused" else "fused"
    monkeypatch.setattr(digest, "blas_dot", lambda: other)
    with pytest.raises(pytest.skip.Exception, match=f"BLAS dot .*; this is .*BLAS dot {other}$"):
        _skip_unless_made_here(pinned, digest.header())
