#!/usr/bin/env python3
"""End-to-end demo on generated data; needs no network or downloads.

Creates a small credit-shaped dataset (two informative numerics, one noise
numeric, one categorical, some missing cells), writes the matching schema and
experiment file, then drives the command-line pipeline through ingest,
training on all rows (``model.json`` holds the preprocessing, the selected
features and the cluster classifier), a cross-validated run of both methods
side by side, and a window scan. The experiment file names its data, schema
and output directory relative to itself.

    python3 scripts/demo_synthetic.py --out runs/demo --seed 0
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from riskmeans.cli import main as cli_main  # noqa: E402


def write_dataset(out: Path, n: int, seed: int) -> tuple[Path, Path, Path]:
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.35).astype(int)
    income = 5.0 - 1.6 * y + rng.normal(0, 1.0, n)
    debt = 2.0 + 1.4 * y + rng.normal(0, 1.0, n)
    noise = rng.normal(0, 1.0, n)
    grade = np.where(rng.random(n) < 0.5, "retail",
                     np.where(y == 1, "subprime", "prime"))

    data = out / "demo.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("income,debt,noise,grade,outcome\n")
        for i in range(n):
            income_cell = "?" if rng.random() < 0.05 else f"{income[i]:.4f}"
            fh.write(f"{income_cell},{debt[i]:.4f},{noise[i]:.4f},"
                     f"{grade[i]},{'bad' if y[i] else 'good'}\n")

    schema = out / "demo.schema"
    schema.write_text(
        "column income numeric missing=?\n"
        "column debt numeric\n"
        "column noise numeric\n"
        "column grade categorical\n"
        "column outcome categorical\n"
        "label outcome positive=bad\n",
        encoding="utf-8",
    )

    config = out / "demo.ini"
    config.write_text(
        "[data]\n"
        f"path = {data.name}\n"
        f"schema = {schema.name}\n"
        "name = demo\n"
        "\n[kmeans]\nk = auto\nk_max = 6\nrestarts = 6\n"
        "\n[cv]\nfolds = 5\n"
        "\n[output]\ndir = .\n",
        encoding="utf-8",
    )
    return data, schema, config


def run(argv: list[str]) -> None:
    print("\n$ riskmeans " + " ".join(argv))
    code = cli_main(argv)
    if code != 0:
        sys.exit(code)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs/demo", help="artifact directory")
    parser.add_argument("--rows", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data, schema, config = write_dataset(out, args.rows, args.seed)
    print(f"generated {data} ({args.rows} rows)")

    cfg = ["--config", str(config)]
    run(["ingest", *cfg, "--seed", str(args.seed)])
    run(["train", *cfg, "--seed", str(args.seed)])
    run(["run", *cfg, "--methods", "kmeans,lr", "--seed", str(args.seed),
         "--emit-plot-data"])
    run(["scan", *cfg, "--windows", "2,3", "--seed", str(args.seed)])

    print(f"\nall artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
