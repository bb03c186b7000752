"""Output checks, failure accounting and the machine stamp."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from workloads import Outcome


def check_outcomes(outcomes: Sequence[Outcome],
                   pinned: Optional[Dict[str, str]] = None,
                   reference: Optional[Dict[str, str]] = None) -> List[str]:
    """Every reason the run's outputs are wrong (empty when correct).

    All iterations of one seed must agree byte for byte; ``pinned``
    holds the committed digests for the default seed and ``reference``
    a twin workload's digests at this seed (the sharded campaign must
    reproduce the serial one).
    """
    problems: List[str] = []
    for index, outcome in enumerate(outcomes):
        problems.extend(f"iteration {index}: {problem}"
                        for problem in outcome.problems)
    first = outcomes[0].digests
    for index, outcome in enumerate(outcomes[1:], start=1):
        if outcome.digests != first:
            problems.append(f"iteration {index} digests differ from "
                            f"iteration 0: {outcome.digests} != {first}")
    for label, expected in (("pinned", pinned), ("reference", reference)):
        for key, digest in sorted((expected or {}).items()):
            if first.get(key) != digest:
                problems.append(f"{key} {first.get(key)} != {label} "
                                f"{digest}")
    return problems


def score(outcomes: Sequence[Outcome], problems: Sequence[str]) -> dict:
    """``correct``/``attempted``/``failed``/``failed_frac`` of a run.

    A run whose outputs fail the check counts every attempted operation
    as failed, so ``failed_frac`` is 1.0.
    """
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = (attempted if problems
              else sum(outcome.failed for outcome in outcomes))
    return {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted if attempted else 1.0}


#: What :func:`calibrate` reads on a quiet 2-vCPU x86-64 host under
#: CPython 3.11: on such a host a reference second is a wall second.
REF_CALIBRATION_S = 0.0093
CALIBRATION_SCRIPT = Path(__file__).resolve().parent / "calibrate.py"


def calibrate() -> float:
    """This host's current speed: seconds the calibration loop takes.

    Shared hosts swing in speed by up to 2x within minutes. Scaling a
    wall time by ``REF_CALIBRATION_S / calibrate()``, measured just
    before it, gives *reference seconds*, which cancel that swing. The
    loop runs in a child interpreter (waited for) because in this
    process its speed would drift with the heap the program leaves.
    """
    completed = subprocess.run(
        [sys.executable, "-I", "-S", str(CALIBRATION_SCRIPT)],
        capture_output=True, text=True, check=True, timeout=60)
    return float(completed.stdout)


def _git_commit(root: Path) -> Optional[str]:
    """HEAD's commit read straight from ``.git`` (no git process);
    None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def source_sha256(src: Path) -> str:
    """Digest of every ``.py`` file under ``src``, path and content."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_stamp(root: Path) -> dict:
    """What any number in the result must be read against."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(root),
        "source_sha256": source_sha256(root / "src"),
    }
