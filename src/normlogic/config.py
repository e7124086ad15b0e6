"""Run configuration: construction parameters, sampling budget and seed.

A single JSON file (documented keys below) drives reproducible runs; the
``NORMLOGIC_CONFIG`` environment variable points at it and CLI flags override
individual fields.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ConfigError

#: JSON keys accepted in a config file.
CONFIG_KEYS = ("M", "qCandidates", "rGridStep", "sampleBudget", "seed")


def parse_rational(text) -> Fraction:
    """Parse ``"p/q"`` or an integer into an exact rational."""
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(str(text))


def format_rational(q: Fraction) -> str:
    return str(q)


@dataclass(frozen=True)
class Config:
    m: Optional[int] = None                       # None: smallest concave M
    q_candidates: Sequence[Fraction] = field(
        default_factory=lambda: (Fraction(1, 8), Fraction(1, 10),
                                 Fraction(1, 16), Fraction(1, 32)))
    r_grid_step: Fraction = Fraction(1, 64)
    sample_budget: int = 100_000
    seed: int = 0

    def override(self, **kwargs) -> "Config":
        """Copy with any non-None keyword replaced."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates)


def load_config(path: Optional[str] = None) -> Config:
    """Load a config file, falling back to $NORMLOGIC_CONFIG, then defaults.

    A file that cannot be read as JSON text, an unknown key or a bad value
    raises ConfigError, whose message names the file."""
    if path is None:
        path = os.environ.get("NORMLOGIC_CONFIG")
    if path is None:
        return Config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") \
            from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot read {path}: not JSON ({exc})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: not UTF-8 text ({exc})") \
            from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"config {path}: unknown config keys: "
                          f"{sorted(unknown)}")
    cfg = Config()
    try:
        budget = int(raw.get("sampleBudget", cfg.sample_budget))
        if budget < 1:
            # a search of no samples would report that every sentence holds
            raise ValueError(f"sampleBudget must be at least 1, got {budget}")
        return Config(
            m=raw.get("M", cfg.m),
            q_candidates=tuple(parse_rational(v) for v in raw["qCandidates"])
            if "qCandidates" in raw else cfg.q_candidates,
            r_grid_step=parse_rational(raw["rGridStep"])
            if "rGridStep" in raw else cfg.r_grid_step,
            sample_budget=budget,
            seed=int(raw.get("seed", cfg.seed)),
        )
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"config {path}: {exc}") from None
