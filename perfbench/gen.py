"""Seeded German-credit-shaped tables for the benchmark; needs no download.

The column names, kinds and label token come from ``data/german.schema``:
7 numeric and 13 categorical features plus ``outcome``, with token ``2``
(bad risk) as the positive class. Rows come from a mixture of four applicant
segments with default rates from 5% to 80%:

* exactly 30% of rows are positives, in seeded order, and each row's segment
  is drawn given its class;
* ``checking_status``, ``credit_history``, ``savings_status``, ``duration``,
  ``credit_amount`` and ``age`` depend on the segment; the other 14 columns
  do not;
* about 2% of feature cells are the missing token ``?``;
* optionally, about ``unseen_share`` of the categorical cells after the
  first ``train_rows`` rows carry a category the training slice never shows
  (``U<attribute>_<j>``), so replay exercises the overflow code.

The distributions are fixed constants; only the draws depend on the seed,
so tables for different seeds have the same shape and different rows. The
output is whitespace-delimited text with a header row, the layout
``scripts/fetch_datasets.py`` gives the real file.
"""

from __future__ import annotations

import numpy as np

POSITIVE_SHARE = 0.30
MISSING_SHARE = 0.02

SEGMENT_WEIGHTS = np.array([0.35, 0.30, 0.20, 0.15])
SEGMENT_DEFAULT_RATES = np.array([0.05, 0.20, 0.55, 0.80])

# (low, high, per-segment means, log-normal sigma); values are rounded to
# integers and clipped to the German file's ranges.
NUMERIC = {
    "duration": (4, 72, (12.0, 18.0, 30.0, 42.0), 0.35),
    "credit_amount": (250, 18424, (1800.0, 2800.0, 4500.0, 7000.0), 0.45),
    "installment_rate": (1, 4, (3.0,) * 4, 0.35),
    "residence_since": (1, 4, (2.8,) * 4, 0.35),
    "age": (19, 75, (45.0, 36.0, 30.0, 26.0), 0.15),
    "existing_credits": (1, 4, (1.4,) * 4, 0.35),
    "num_dependents": (1, 2, (1.15,) * 4, 0.2),
}

# Category counts per attribute, as in the German file.
CATEGORY_COUNTS = {
    "checking_status": 4, "credit_history": 5, "purpose": 10,
    "savings_status": 5, "employment_since": 5, "personal_status_sex": 4,
    "other_debtors": 3, "property": 4, "other_installment_plans": 3,
    "housing": 3, "job": 4, "telephone": 2, "foreign_worker": 2,
}

# Per-segment category probabilities of the informative attributes.
INFORMATIVE = {
    "checking_status": ((0.05, 0.10, 0.10, 0.75), (0.15, 0.25, 0.15, 0.45),
                        (0.45, 0.35, 0.10, 0.10), (0.70, 0.20, 0.05, 0.05)),
    "credit_history": ((0.01, 0.02, 0.30, 0.07, 0.60), (0.02, 0.03, 0.60, 0.10, 0.25),
                       (0.10, 0.10, 0.60, 0.10, 0.10), (0.25, 0.25, 0.40, 0.05, 0.05)),
    "savings_status": ((0.25, 0.10, 0.10, 0.15, 0.40), (0.50, 0.15, 0.10, 0.05, 0.20),
                       (0.70, 0.10, 0.05, 0.05, 0.10), (0.85, 0.08, 0.03, 0.02, 0.02)),
}


def _fixed_probs() -> dict:
    """Per-segment category probabilities, the same for every seed."""
    rng = np.random.default_rng(20240521)
    probs = {}
    for name, count in CATEGORY_COUNTS.items():
        if name in INFORMATIVE:
            probs[name] = np.asarray(INFORMATIVE[name])
        else:
            probs[name] = np.tile(rng.dirichlet(np.full(count, 2.0)), (4, 1))
    return probs


_PROBS = _fixed_probs()


def make_table(columns, n: int, seed: int, stream: str,
               unseen_share: float = 0.0, train_rows: int = 1000) -> str:
    """Render one table as text.

    ``columns`` is the schema's ``(name, kind)`` list, label last; ``stream``
    names an independent random stream, so two tables of one seed differ.
    """
    rng = np.random.default_rng([seed, *stream.encode("utf-8")])
    y = np.zeros(n, dtype=bool)
    y[: round(POSITIVE_SHARE * n)] = True
    rng.shuffle(y)
    # P(segment | class) by Bayes' rule from the weights and default rates.
    seg_pos = SEGMENT_WEIGHTS * SEGMENT_DEFAULT_RATES
    seg_neg = SEGMENT_WEIGHTS * (1 - SEGMENT_DEFAULT_RATES)
    segment = np.where(y, rng.choice(4, n, p=seg_pos / seg_pos.sum()),
                       rng.choice(4, n, p=seg_neg / seg_neg.sum()))

    cells = []
    for attr, (name, kind) in enumerate(columns, start=1):
        if name == "outcome":
            cells.append(np.where(y, "2", "1").astype(object))
            continue
        if kind == "numeric":
            low, high, means, sigma = NUMERIC[name]
            mu = np.asarray(means)[segment]
            raw = np.exp(np.log(mu) - sigma**2 / 2 + sigma * rng.standard_normal(n))
            values = np.clip(np.rint(raw), low, high).astype(int)
            col = _tokens(high + 1, "")[values]
        else:
            probs = _PROBS[name]
            # inverse-CDF draw of each row's category from its segment's row
            cdf = np.cumsum(probs, axis=1)[segment]
            codes = np.minimum((rng.random((n, 1)) > cdf).sum(axis=1), probs.shape[1] - 1)
            col = _tokens(probs.shape[1], f"A{attr}")[codes]
            if unseen_share > 0 and n > train_rows:
                hit = rng.random(n) < unseen_share
                hit[:train_rows] = False
                novel = _tokens(3, f"U{attr}_")[rng.integers(0, 3, n)]
                col = np.where(hit, novel, col)
        col[rng.random(n) < MISSING_SHARE] = "?"
        cells.append(col)

    header = " ".join(name for name, _ in columns)
    rows = np.stack(cells, axis=1).tolist()
    return header + "\n" + "\n".join(map(" ".join, rows)) + "\n"


def _tokens(count: int, prefix: str) -> np.ndarray:
    return np.array([f"{prefix}{i}" for i in range(count)], dtype=object)
