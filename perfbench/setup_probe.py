"""One set-up of a workload in a fresh interpreter: import nplabel from this
checkout and build the workload's first inputs.  Prints the seconds taken.

    python3 perfbench/setup_probe.py WORKLOAD SEED

run.py averages these in batches, spread over the run, and reports the
median of the batch means as ``setup_s``.
The harness's own modules, and the standard-library modules only the harness
uses, are imported before the clock starts; what is timed is nplabel's
import, the import of the nplabel modules the workload uses, and the build.
"""

import contextlib  # noqa: F401  (used by family_label; nplabel does not import it)
import io  # noqa: F401  (likewise)
import shutil  # noqa: F401  (likewise)
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
SCRATCH = ROOT / "perfbench" / "out"


def load_program():
    """Import nplabel from ``ROOT/src``; exit with an error if it is not there,
    so the benchmark never measures some other installed copy."""
    package = ROOT / "src" / "nplabel"
    if not (package / "__init__.py").is_file():
        raise SystemExit("error: %s not found; run the benchmark from the root "
                         "of a checkout of the repository" % package)
    sys.path.insert(0, str(ROOT / "src"))
    import nplabel

    if Path(nplabel.__file__).resolve().parent != package.resolve():
        raise SystemExit("error: imported nplabel from %s, not %s"
                         % (nplabel.__file__, package))
    return nplabel


if __name__ == "__main__":
    start = time.perf_counter()
    load_program()
    workloads.load(sys.argv[1], SCRATCH).build(int(sys.argv[2]), 0)
    print(repr(time.perf_counter() - start))
