"""JSON interchange.

Single format for every artifact: UTF-8 JSON with a top-level
"afzp_format": 1 and a "kind" discriminator. Rationals are strings
"numerator/denominator" (denominator omitted when 1) so round-trips are
bit-exact; every loader rebuilds the exact in-memory value. Writes are
atomic (temp file in the target directory, then rename).

The full schema reference lives in docs/format.md.
"""

import json
import os
import tempfile

from . import FORMAT_VERSION
from .classify import (IntertwiningCertificate, Tower, TriangleRecord)
from .crossed import CrossedPresentation
from .cyclo import FieldContext
from .errors import ContextMismatch, FormatError, ShapeMismatch
from .kinv import KInvariant, KPair
from .matrix import Mat
from .report import Report
from .system import (Arrangement, BlockIso, CanonicalForm, EqHom, FdSystem,
                     IrredPiece, Slot)

__all__ = ["dump", "load", "save_json", "load_json", "dumps", "loads"]


def _mat_json(m):
    return m.to_json()


def _mat_load(obj, ctx):
    try:
        return Mat.from_json(obj, ctx)
    except (KeyError, TypeError, AttributeError, ZeroDivisionError,
            ContextMismatch, ShapeMismatch) as exc:
        raise FormatError("bad matrix object: %s" % exc)


def _is_int(x):
    """A JSON integer: true and false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def dump(obj):
    """Dispatch an in-memory value to its JSON document (a dict)."""
    if isinstance(obj, FdSystem):
        return {
            "afzp_format": FORMAT_VERSION, "kind": "system",
            "p": obj.p, "order": obj.ctx.order,
            "blocks": list(obj.block_sizes),
            "sigma": [i + 1 for i in obj.sigma],
            "impl": [_mat_json(u) for u in obj.impl],
        }
    if isinstance(obj, CanonicalForm):
        doc = {
            "afzp_format": FORMAT_VERSION, "kind": "canonical",
            "p": obj.p, "order": obj.ctx.order,
            "pieces": [
                {"kind": pc.kind, "n": pc.n,
                 **({"v": _mat_json(pc.v)} if pc.kind == "fixed" else {})}
                for pc in obj.pieces
            ],
        }
        if obj.iso is not None:
            doc["iso"] = {
                "block_map": list(obj.iso.block_map),
                "conjugators": [_mat_json(z) for z in obj.iso.conjugators],
            }
        return doc
    if isinstance(obj, EqHom):
        return {
            "afzp_format": FORMAT_VERSION, "kind": "hom",
            "source": dump(obj.source), "target": dump(obj.target),
            "unital": obj.unital,
            "blocks": [
                {"slots": [{"src": (None if s.src is None else s.src),
                            "size": s.size, "phase": s.phase}
                           for s in arr.slots],
                 "conj": _mat_json(arr.conj)}
                for arr in obj.arrangements
            ],
        }
    if isinstance(obj, CrossedPresentation):
        dual = obj.dual_system()
        return {
            "afzp_format": FORMAT_VERSION, "kind": "crossed",
            "p": obj.p, "order": obj.ctx.order,
            "source": dump(obj.source),
            "blocks": list(obj.block_sizes),
            "special": list(obj.special),
            "iota": [row[:] for row in obj.iota_matrix],
            "dual": dump(dual),
            "identify": _mat_json(obj.identify_matrix()),
        }
    if isinstance(obj, KInvariant):
        return {
            "afzp_format": FORMAT_VERSION, "kind": "kinvariant",
            "m": obj.m, "unit": list(obj.unit), "act": obj.act,
            "mC": obj.mC, "dualAct": obj.dualAct,
            "special": list(obj.special), "iota": obj.iota,
        }
    if isinstance(obj, KPair):
        return {
            "afzp_format": FORMAT_VERSION, "kind": "kpair",
            "F": obj.F, "phi": obj.phi, "unital": obj.unital,
        }
    if isinstance(obj, Tower):
        return {
            "afzp_format": FORMAT_VERSION, "kind": "tower",
            "systems": [dump(s) for s in obj.systems],
            "maps": [dump(h) for h in obj.maps],
        }
    if isinstance(obj, IntertwiningCertificate):
        return {
            "afzp_format": FORMAT_VERSION, "kind": "certificate",
            "towerA": dump(obj.towerA), "towerB": dump(obj.towerB),
            "a_stages": list(obj.a_stages), "b_stages": list(obj.b_stages),
            "pairs": [dump(kp) for kp in obj.pairs],
            "forward": [dump(h) for h in obj.forward],
            "backward": [dump(h) for h in obj.backward],
            "triangles": [
                {"kind": t.kind, "left": t.left_stage, "right": t.right_stage,
                 "correction": [_mat_json(w) for w in t.correction]}
                for t in obj.triangles
            ],
        }
    if isinstance(obj, Report):
        doc = obj.to_json()
        doc["afzp_format"] = FORMAT_VERSION
        doc["kind"] = "report"
        return doc
    if isinstance(obj, list) and obj and all(isinstance(w, Mat) for w in obj):
        return {
            "afzp_format": FORMAT_VERSION, "kind": "unitaries",
            "order": obj[0].ctx.order, "p": obj[0].ctx.p,
            "W": [_mat_json(w) for w in obj],
        }
    raise FormatError("cannot serialize %r" % type(obj))


def load(doc, ctx=None):
    """Rebuild the in-memory value of a JSON document."""
    if not isinstance(doc, dict):
        raise FormatError("document is not a JSON object")
    if doc.get("afzp_format") != FORMAT_VERSION:
        raise FormatError("missing or unsupported afzp_format "
                          "(expected %d)" % FORMAT_VERSION)
    kind = doc.get("kind")
    try:
        if kind == "system":
            ctx = ctx or FieldContext(doc["p"], doc["order"])
            sigma = tuple(i - 1 for i in doc["sigma"])
            impl = [_mat_load(u, ctx) for u in doc["impl"]]
            return FdSystem(ctx, doc["p"], list(doc["blocks"]), sigma, impl)
        if kind == "canonical":
            ctx = ctx or FieldContext(doc["p"], doc["order"])
            pieces = []
            for pc in doc["pieces"]:
                # an empty piece would leave the pair search unbounded
                if not _is_int(pc["n"]) or pc["n"] < 1:
                    raise FormatError("piece size %r is not a positive "
                                      "integer" % (pc["n"],))
                if pc["kind"] == "fixed":
                    piece = IrredPiece("fixed", pc["n"],
                                       _mat_load(pc["v"], ctx))
                    if piece.exponents(doc["p"]) is None:
                        raise FormatError(
                            "fixed piece v is not the %dx%d diagonal of "
                            "p-th roots of unity with ascending exponents"
                            % (pc["n"], pc["n"]))
                    pieces.append(piece)
                elif pc["kind"] == "cycle":
                    pieces.append(IrredPiece("cycle", pc["n"]))
                else:
                    raise FormatError("unknown piece kind %r" % pc["kind"])
            iso = None
            if "iso" in doc:
                iso = BlockIso(list(doc["iso"]["block_map"]),
                               [_mat_load(z, ctx)
                                for z in doc["iso"]["conjugators"]])
            return CanonicalForm(ctx, doc["p"], pieces, iso)
        if kind == "hom":
            src = load(doc["source"])
            tgt = load(doc["target"], ctx=src.ctx)
            arrs = []
            for blk in doc["blocks"]:
                slots = [Slot(s["src"], s["size"], s.get("phase", 0))
                         for s in blk["slots"]]
                for s in slots:
                    if not (s.src is None or _is_int(s.src)):
                        raise FormatError("slot src %r is neither null nor "
                                          "an integer" % (s.src,))
                    if not _is_int(s.size) or s.size < 0:
                        raise FormatError("slot size %r is not a "
                                          "non-negative integer" % (s.size,))
                arrs.append(Arrangement(slots, _mat_load(blk["conj"], src.ctx)))
            return EqHom(src, tgt, arrs, unital=doc["unital"])
        if kind == "kinvariant":
            return KInvariant(doc["m"], list(doc["unit"]), doc["act"],
                              doc["mC"], doc["dualAct"], list(doc["special"]),
                              doc["iota"])
        if kind == "kpair":
            return KPair(doc["F"], doc["phi"], unital=doc["unital"])
        if kind == "tower":
            systems = [load(s) for s in doc["systems"]]
            maps = [load(h) for h in doc["maps"]]
            return Tower(systems, maps)
        if kind == "certificate":
            towerA = load(doc["towerA"])
            towerB = load(doc["towerB"])
            pairs = [load(kp) for kp in doc["pairs"]]
            forward = [load(h) for h in doc["forward"]]
            backward = [load(h) for h in doc["backward"]]
            ctx = towerA.systems[0].ctx
            triangles = [
                TriangleRecord(t["kind"], t["left"], t["right"],
                               [_mat_load(w, ctx) for w in t["correction"]])
                for t in doc["triangles"]
            ]
            return IntertwiningCertificate(
                towerA, towerB, list(doc["a_stages"]), list(doc["b_stages"]),
                forward, backward, triangles, pairs)
        if kind == "unitaries":
            ctx = ctx or FieldContext(doc["p"], doc["order"])
            return [_mat_load(w, ctx) for w in doc["W"]]
        if kind == "crossed":
            # derived data: rebuild the presentation from its source form
            from .crossed import crossed_product
            return crossed_product(load(doc["source"]))
        if kind == "report":
            rep = Report()
            for item in doc["checks"]:
                rep.add(item["name"], item["ok"], item.get("detail", ""))
            return rep
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("malformed %r document: %s" % (kind, exc))
    raise FormatError("unknown document kind %r" % kind)


def dumps(obj):
    return json.dumps(dump(obj), indent=2, sort_keys=True)


def loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("invalid JSON at line %d column %d: %s"
                          % (exc.lineno, exc.colno, exc.msg))
    return load(doc)


def save_json(path, obj):
    """Atomic write: temp file in the destination directory, then rename."""
    data = dumps(obj)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
