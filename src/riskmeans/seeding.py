"""Deterministic seed derivation.

Every random stage draws its seed as ``derive_seed(root, tag)`` where ``root``
is the experiment's single root seed and ``tag`` names the stage (for example
``"fold:3"`` or ``"restart:7"``). Stages are therefore independently
reproducible and insensitive to the order in which other stages run.
"""

from __future__ import annotations

import hashlib


def derive_seed(root: int, tag: str) -> int:
    """Map (root seed, stage tag) to a stable 63-bit seed."""
    digest = hashlib.sha256(f"{root}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1

