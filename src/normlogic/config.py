"""Run configuration: construction parameters, sampling budget and seed.

A single JSON file (documented keys below) drives reproducible runs; the
``NORMLOGIC_CONFIG`` environment variable points at it and CLI flags override
individual fields, each construction setting through the parser of its key.
``read_input`` reads every input file the CLI names.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import InputError

#: JSON keys accepted in a config file.
CONFIG_KEYS = ("M", "qCandidates", "rGridStep", "sampleBudget", "seed")


def read_input(path: str, parse=json.loads):
    """Read the named file as UTF-8 text and return ``parse(text)``.

    A file that is missing or unreadable, not UTF-8 text, not JSON or JSON
    nested deeper than Python's stack raises InputError
    ``cannot read <path>: <reason>``; whatever else parse raises passes."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except UnicodeDecodeError as exc:
        reason = (f"not UTF-8 text (byte {exc.object[exc.start]:#04x} at "
                  f"offset {exc.start})")
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except json.JSONDecodeError as exc:
        reason = f"not JSON ({exc})"
    except RecursionError:
        reason = "JSON nested too deep"
    raise InputError(f"cannot read {path}: {reason}")


def parse_rational(text) -> Fraction:
    """Parse ``"p/q"`` or an integer into an exact rational."""
    return Fraction(str(text))


def parse_m(value) -> int:
    """M of g(s) = 2s + s² + sin(s)/M: an integer of at least 1, given as a
    JSON integer or as decimal text."""
    m = int(value) if isinstance(value, str) and value.isdecimal() else value
    if type(m) is not int or m < 1:
        raise ValueError(f"need an integer M of at least 1, got {value!r}")
    return m


def parse_q_candidates(value) -> Tuple[Fraction, ...]:
    """The marker distances q to try, in order: a list of rationals, or
    comma-separated text."""
    items = value.split(",") if isinstance(value, str) else value
    return tuple(parse_rational(v) for v in items)


def parse_r_step(value) -> Fraction:
    """The radius grid step: a rational greater than 0."""
    step = parse_rational(value)
    if step <= 0:
        raise ValueError(f"need a radius step greater than 0, got {value!r}")
    return step


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

    A file that ``read_input`` cannot read raises its InputError; an unknown
    key or a bad value raises InputError ``config <path>: <reason>``."""
    if path is None:
        path = os.environ.get("NORMLOGIC_CONFIG")
    if path is None:
        return Config()
    raw = read_input(path)
    if not isinstance(raw, dict):
        raise InputError(f"config {path}: expected a JSON object")
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise InputError(f"config {path}: unknown config keys: "
                         f"{sorted(unknown)}")
    for key in ("sampleBudget", "seed"):
        if key in raw and type(raw[key]) is not int:
            raise InputError(f"config {path}: {key} must be an integer, got "
                             f"{raw[key]!r}")
    cfg = Config()
    try:
        budget = raw.get("sampleBudget", cfg.sample_budget)
        if budget < 1:
            # a search of no samples would report that every sentence holds
            raise ValueError(f"sampleBudget must be at least 1, got {budget}")
        return cfg.override(
            m=parse_m(raw["M"]) if raw.get("M") is not None else None,
            q_candidates=parse_q_candidates(raw["qCandidates"])
            if "qCandidates" in raw else None,
            r_grid_step=parse_r_step(raw["rGridStep"])
            if "rGridStep" in raw else None,
            sample_budget=budget,
            seed=raw.get("seed", cfg.seed),
        )
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise InputError(f"config {path}: {exc}") from None
