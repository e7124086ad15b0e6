"""Versioned JSON round-trip for construction parameters.

The document stores exactly the fields M, q, r, d, w1, w2, w3 and pieces[]
(plus a schema tag), with rationals as "p/q" strings and floats at full
precision, so reloading reproduces the space bit for bit.  The pieces are
derived from the parameters, on writing and on loading alike: loading
builds the plane with plane_of, so the construction's checks run, and
requires the stored pieces to be the derived ones as JSON text.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Tuple

from ..config import parse_rational
from ..errors import DomainError
from .boundary import ArcPiece, GammaGraphPiece, PointPiece, SegmentPiece
from .construct import L1Params, assemble_boundary, plane_of
from .spaces import PlaneSpace
from .vec import Vec2

SCHEMA_VERSION = 1


def _piece_to_json(piece) -> dict:
    if isinstance(piece, PointPiece):
        return {"kind": "point", "at": [piece.at.x, piece.at.y]}
    if isinstance(piece, GammaGraphPiece):
        return {"kind": "gamma_graph", "M": piece.m}
    if isinstance(piece, ArcPiece):
        return {"kind": "arc", "from_angle": piece.from_angle,
                "to_angle": piece.to_angle}
    if isinstance(piece, SegmentPiece):
        return {"kind": "segment", "a": [piece.a.x, piece.a.y],
                "b": [piece.b.x, piece.b.y]}
    raise DomainError(f"unknown piece {piece!r}")


def _m(value) -> int:
    """M as a document holds it: an integer of at least 1, not a bool."""
    if isinstance(value, bool) or int(value) != value or value < 1:
        raise DomainError(f"need an integer M of at least 1, got {value!r}")
    return int(value)


def params_to_json(params: L1Params) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "M": params.m,
        "q": str(params.q),
        "r": str(params.r),
        "d": params.d,
        "w1": [params.w1.x, params.w1.y],
        "w2": [params.w2.x, params.w2.y],
        "w3": [params.w3.x, params.w3.y],
        "pieces": [_piece_to_json(p)
                   for p in assemble_boundary(params).pieces],
        # boundaries are always antipodal; the key keeps the format stable
        "antipodal": True,
    }
    return json.dumps(doc, indent=2) + "\n"


def params_from_json(text: str) -> Tuple[L1Params, PlaneSpace]:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise DomainError("expected a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise DomainError(f"unsupported schema {doc.get('schema')!r}")
    params = L1Params(
        m=_m(doc["M"]),
        q=parse_rational(doc["q"]),
        r=parse_rational(doc["r"]),
        d=float(doc["d"]),
        w1=Vec2(*doc["w1"]),
        w2=Vec2(*doc["w2"]),
        w3=Vec2(*doc["w3"]),
    )
    if doc.get("antipodal", True) is not True:
        raise DomainError("only antipodal boundaries are supported")
    pieces = json.dumps(doc["pieces"], sort_keys=True)
    space = plane_of(params)
    derived = [_piece_to_json(p) for p in space.boundary.pieces]
    # as text with sorted keys, so that an M of true or 1.0 differs from 1
    if pieces != json.dumps(derived, sort_keys=True):
        raise DomainError("pieces differ from the ones M, w1, w2 and w3 give")
    return params, space


def params_hash(text: str) -> str:
    """Stable content hash used to tag manifests and reports."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def summarize(params: L1Params) -> str:
    """Human-readable one-screen construction summary."""
    lines = [
        f"M  = {params.m}",
        f"q  = {params.q} (= {float(params.q):.6f})",
        f"r  = {params.r} (= {float(params.r):.6f})",
        f"d  = {params.d:.12f} (d/3 = {params.d / 3:.12f})",
        f"w1 = ({params.w1.x:.12f}, {params.w1.y:.12f})"
        f"  angle {math.atan2(params.w1.y, params.w1.x):.9f}",
        f"w2 = ({params.w2.x:.12f}, {params.w2.y:.12f})"
        f"  angle {math.atan2(params.w2.y, params.w2.x):.9f}",
        f"w3 = ({params.w3.x:.12f}, {params.w3.y:.12f})"
        f"  |w3|_e = {params.w3.hypot():.12f}",
    ]
    return "\n".join(lines) + "\n"
