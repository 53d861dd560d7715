#!/usr/bin/env python3
"""Design-space exploration with the Sweep utility.

Crosses topology x controller scheduling x SerDes latency for one
workload, prints the frontier, and saves raw results as JSON — the
workflow for exploring beyond the paper's configurations.

Usage:  python examples/design_space_sweep.py [WORKLOAD]
"""

import sys
import tempfile
from pathlib import Path

from repro import get_workload, simulate
from repro.serialization import save_results
from repro.sweep import Sweep
from repro.units import ns


def main() -> None:
    workload = get_workload(sys.argv[1] if len(sys.argv) > 1 else "MATRIXMUL")
    sweep = (
        Sweep(workload, requests=1200)
        .over("topology", ["chain", "tree", "metacube"])
        .over("cube.scheduling", ["fcfs", "frfcfs"])
        .over("link.serdes_latency_ps", [ns(2), ns(10)])
    )
    rows = sweep.run()
    print(sweep.render(rows))

    best = min(rows, key=lambda row: row["runtime_us"])
    print()
    print(f"Best point: {best['label']} scheduling={best['cube.scheduling']} "
          f"serdes={best['link.serdes_latency_ps'] / 1000:.0f}ns "
          f"-> {best['runtime_us']:.2f} us")

    # persist the winning configuration's full result for later diffing
    config = sweep.config_for(
        {name: best[name] for name, _ in sweep.axes}
    )
    result = simulate(config, workload, requests=1200)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "best.json"
        save_results([result], path)
        print(f"saved {path.stat().st_size} bytes of result JSON")


if __name__ == "__main__":
    main()
