"""Exit codes of every ``repro`` command line, and the one way to fail.

- ``0`` — ok: clean tree, within tolerance, identical profiles;
- ``1`` — findings (``lint``, ``flow``) or a regression (``regress``,
  ``profile --diff``);
- ``2`` — usage error, an input that cannot be read or an output that
  cannot be written (argparse exits 2 on bad usage as well);
- ``3`` — provenance mismatch: ``regress`` refuses to compare payloads
  from different experiments.

Stdlib-only, so ``python -m repro.analysis`` stays numpy-free.
"""

from __future__ import annotations

import sys


def fail(prog: str, reason: str, code: int = 2) -> int:
    """Print ``prog: reason`` to stderr and return ``code``."""
    print(f"{prog}: {reason}", file=sys.stderr)
    return code


__all__ = ["fail"]
