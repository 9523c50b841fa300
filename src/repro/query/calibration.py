"""The host fingerprint benchmark results are stamped with.

The benchmark harness and the ``BENCH_*.json`` trajectory record it so
that results measured on different machines are never compared as like
for like.
"""

from __future__ import annotations

import os
import platform
from typing import Any, Dict


def host_fingerprint() -> Dict[str, Any]:
    """``{cpu_count, platform, python}`` of the running host."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
