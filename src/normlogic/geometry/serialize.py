"""Versioned JSON round-trip for construction parameters and boundaries.

The document stores exactly the fields M, q, r, d, w1, w2, w3 and pieces[]
(plus a schema tag), with rationals as "p/q" strings and floats at full
precision, so reloading reproduces the space bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Tuple

from ..config import parse_rational
from ..errors import DomainError
from .boundary import (ArcPiece, BoundarySpec, GammaGraphPiece, PointPiece,
                       SegmentPiece)
from .construct import L1Params
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


def _piece_from_json(doc: dict):
    kind = doc["kind"]
    if kind == "point":
        return PointPiece(Vec2(*doc["at"]))
    if kind == "gamma_graph":
        return GammaGraphPiece(_m(doc["M"]))
    if kind == "arc":
        return ArcPiece(float(doc["from_angle"]), float(doc["to_angle"]))
    if kind == "segment":
        return SegmentPiece(Vec2(*doc["a"]), Vec2(*doc["b"]))
    raise DomainError(f"unknown piece kind {kind!r}")


def params_to_json(params: L1Params, boundary: BoundarySpec) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "M": params.m,
        "q": str(params.q),
        "r": str(params.r),
        "d": params.d,
        "w1": [params.w1.x, params.w1.y],
        "w2": [params.w2.x, params.w2.y],
        "w3": [params.w3.x, params.w3.y],
        "pieces": [_piece_to_json(p) for p in boundary.pieces],
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
    boundary = BoundarySpec(
        pieces=tuple(_piece_from_json(p) for p in doc["pieces"]))
    for piece in boundary.pieces:
        if isinstance(piece, GammaGraphPiece) and piece.m != params.m:
            # markers built for one M over the curve of another
            raise DomainError(f"M is {params.m} but the gamma_graph piece "
                              f"has M {piece.m}")
    return params, PlaneSpace(boundary)


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
