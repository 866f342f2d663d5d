"""Write perfbench/references/<workload>.json from the current sources.

Run this only on a commit whose outputs are the accepted reference (the
stored files were made on the commit that introduced the benchmark):

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import sys
import time

from check import REFERENCE_DIR, make_reference
from run import OUT_DIR, ROOT, WORKLOADS

sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    from cosmodirac import cli, config, pipeline
    from workloads import workload_text

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, spec in WORKLOADS.items():
        out = OUT_DIR / f"reference-{name}"
        cfg = config.load_config(workload_text(name, cli.preset_text(spec["preset"])))
        start = time.perf_counter()
        pipeline.run(cfg, output_dir=out, workers=1)
        reference = make_reference(out, spec["preset"])
        reference["workload"] = spec
        with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(reference, fh, indent=1)
            fh.write("\n")
        print(f"{name}: {spec['preset']} in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
