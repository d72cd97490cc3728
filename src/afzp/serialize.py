"""JSON interchange.

Single format for every artifact: UTF-8 JSON with a top-level
"afzp_format": 1 and a "kind" discriminator. Rationals are strings
"numerator/denominator" (denominator omitted when 1) so round-trips are
bit-exact; every loader rebuilds the exact in-memory value. Writes are
atomic (temp file in the target directory, then rename).

The text is exactly json.dumps(doc, indent=2, sort_keys=True). Documents
repeat a few scalars (0, 1, some roots of unity) thousands of times and
a few forms, homs and towers dozens of times, so one dump, dumps or load
call renders, and decodes, each distinct one once: dump builds one
scalar object per distinct value and one document per CanonicalForm,
EqHom or Tower object (copy a document before editing it), dumps keeps
the text of each scalar object and the fragments of each document per
indentation level, and load shares one FieldContext per field and one
Scalar per distinct coefficient vector. No memo outlives the call.

The full schema reference lives in docs/format.md.
"""

import json
import os
import tempfile

from . import FORMAT_VERSION
from .classify import (IntertwiningCertificate, Tower, TriangleRecord)
from .crossed import CrossedPresentation, crossed_product
from .cyclo import FieldContext
from .errors import ContextMismatch, FormatError, NotOrderP, ShapeMismatch
from .kinv import KInvariant, KPair
from .matrix import Mat
from .report import Report
from .system import (Arrangement, BlockIso, CanonicalForm, EqHom, FdSystem,
                     IrredPiece, Slot)

__all__ = ["dump", "load", "save_json", "load_json", "dumps", "loads"]


def _mat_load(obj, ctx, fields):
    try:
        return Mat.from_json(obj, ctx, fields[ctx.p, ctx.order][1])
    except (KeyError, TypeError, AttributeError, ZeroDivisionError,
            ContextMismatch, ShapeMismatch) as exc:
        raise FormatError("bad matrix object: %s" % exc)


def _is_int(x):
    """A JSON integer: true and false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_matrix(x, name, rows=None, cols=None):
    """x, checked to be a list of `rows` lists of `cols` JSON integers;
    without a shape, lists of any lengths."""
    if not (isinstance(x, list) and rows in (None, len(x))
            and all(isinstance(r, list) and cols in (None, len(r))
                    and all(map(_is_int, r)) for r in x)):
        raise FormatError("%s is not a list of integer rows%s" % (
            name, "" if rows is None else " of shape %dx%d" % (rows, cols)))
    return x


def dump(obj):
    """Dispatch an in-memory value to its JSON document (a dict).

    Equal scalars share one scalar object, rendered once, and the same
    CanonicalForm, EqHom or Tower object one document wherever it
    occurs; copy the document before editing it in place."""
    return _dump(obj, {})


def _dump(obj, scalars):
    """The document of obj; `scalars` (see Scalar.to_json) also maps the
    id of each CanonicalForm, EqHom and Tower to (object, document)."""
    if scalars is None or not isinstance(obj, (CanonicalForm, EqHom, Tower)):
        return _document(obj, scalars)
    if id(obj) not in scalars:
        scalars[id(obj)] = (obj, _document(obj, scalars))
    return scalars[id(obj)][1]


def _document(obj, scalars):
    if isinstance(obj, FdSystem):
        return {
            "afzp_format": FORMAT_VERSION, "kind": "system",
            "p": obj.p, "order": obj.ctx.order,
            "blocks": list(obj.block_sizes),
            "sigma": [i + 1 for i in obj.sigma],
            "impl": [u.to_json(scalars) for u in obj.impl],
        }
    if isinstance(obj, CanonicalForm):
        doc = {
            "afzp_format": FORMAT_VERSION, "kind": "canonical",
            "p": obj.p, "order": obj.ctx.order,
            "pieces": [
                {"kind": pc.kind, "n": pc.n,
                 **({"v": pc.v.to_json(scalars)} if pc.kind == "fixed"
                    else {})}
                for pc in obj.pieces
            ],
        }
        if obj.iso is not None:
            doc["iso"] = {
                "block_map": list(obj.iso.block_map),
                "conjugators": [z.to_json(scalars)
                                for z in obj.iso.conjugators],
            }
        return doc
    if isinstance(obj, EqHom):
        return {
            "afzp_format": FORMAT_VERSION, "kind": "hom",
            "source": _dump(obj.source, scalars),
            "target": _dump(obj.target, scalars),
            "unital": obj.unital,
            "blocks": [
                {"slots": [{"src": (None if s.src is None else s.src),
                            "size": s.size, "phase": s.phase}
                           for s in arr.slots],
                 "conj": arr.conj.to_json(scalars)}
                for arr in obj.arrangements
            ],
        }
    if isinstance(obj, CrossedPresentation):
        dual = obj.dual_system()
        return {
            "afzp_format": FORMAT_VERSION, "kind": "crossed",
            "p": obj.p, "order": obj.ctx.order,
            "source": _dump(obj.source, scalars),
            "blocks": list(obj.block_sizes),
            "special": list(obj.special),
            "iota": [row[:] for row in obj.iota_matrix],
            "dual": _document(dual, scalars),  # a temporary, never shared
            "identify": obj.identify_matrix().to_json(scalars),
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
            "systems": [_dump(s, scalars) for s in obj.systems],
            "maps": [_dump(h, scalars) for h in obj.maps],
        }
    if isinstance(obj, IntertwiningCertificate):
        return {
            "afzp_format": FORMAT_VERSION, "kind": "certificate",
            "towerA": _dump(obj.towerA, scalars),
            "towerB": _dump(obj.towerB, scalars),
            "a_stages": list(obj.a_stages), "b_stages": list(obj.b_stages),
            "pairs": [_dump(kp, scalars) for kp in obj.pairs],
            "forward": [_dump(h, scalars) for h in obj.forward],
            "backward": [_dump(h, scalars) for h in obj.backward],
            "triangles": [
                {"kind": t.kind, "left": t.left_stage, "right": t.right_stage,
                 "correction": [w.to_json(scalars) for w in t.correction]}
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
            "W": [w.to_json(scalars) for w in obj],
        }
    raise FormatError("cannot serialize %r" % type(obj))


def load(doc, ctx=None):
    """Rebuild the in-memory value of a JSON document."""
    return _load(doc, ctx, {})


def _field(doc, ctx, fields):
    """The context of this load for doc's integer p and order, or equal
    to ctx if given; `fields` maps (p, order) to the context and to its
    memo of decoded scalars."""
    key = doc["p"], doc["order"]
    if not all(map(_is_int, key)):
        raise FormatError("p %r and order %r are not integers" % key)
    ctx = ctx or (fields[key][0] if key in fields else FieldContext(*key))
    return fields.setdefault((ctx.p, ctx.order), (ctx, {}))[0]


def _stages(stages, tower, name):
    """A certificate's stage list, checked to index the tower strictly
    increasingly."""
    if not all(_is_int(s) and 0 <= s < len(tower.systems) for s in stages) \
            or any(a >= b for a, b in zip(stages, stages[1:])):
        raise FormatError("%s %r is not a strictly increasing list of "
                          "stages 0..%d" % (name, stages,
                                            len(tower.systems) - 1))
    return list(stages)


def _load(doc, ctx, fields, expect=None):
    """The value of doc; a nested document must be of kind `expect`."""
    if not isinstance(doc, dict):
        raise FormatError("document is not a JSON object")
    if doc.get("afzp_format") != FORMAT_VERSION:
        raise FormatError("missing or unsupported afzp_format "
                          "(expected %d)" % FORMAT_VERSION)
    kind = doc.get("kind")
    if expect is not None and kind != expect:
        raise FormatError("expected a nested %r document, got %r"
                          % (expect, kind))
    try:
        if kind == "system":
            ctx = _field(doc, ctx, fields)
            sigma = tuple(i - 1 for i in doc["sigma"])
            impl = [_mat_load(u, ctx, fields) for u in doc["impl"]]
            return FdSystem(ctx, doc["p"], list(doc["blocks"]), sigma, impl)
        if kind == "canonical":
            ctx = _field(doc, ctx, fields)
            pieces = []
            for pc in doc["pieces"]:
                # an empty piece would leave the pair search unbounded
                if not _is_int(pc["n"]) or pc["n"] < 1:
                    raise FormatError("piece size %r is not a positive "
                                      "integer" % (pc["n"],))
                if pc["kind"] == "fixed":
                    pieces.append(IrredPiece("fixed", pc["n"],
                                             _mat_load(pc["v"], ctx, fields)))
                elif pc["kind"] == "cycle":
                    pieces.append(IrredPiece("cycle", pc["n"]))
                else:
                    raise FormatError("unknown piece kind %r" % pc["kind"])
            iso = None
            if "iso" in doc:
                iso = BlockIso(list(doc["iso"]["block_map"]),
                               [_mat_load(z, ctx, fields)
                                for z in doc["iso"]["conjugators"]])
            try:
                return CanonicalForm(ctx, doc["p"], pieces, iso)
            except NotOrderP:
                n = next(pc.n for pc in pieces
                         if pc.exponents(doc["p"]) is None)
                raise FormatError(
                    "fixed piece v is not the %dx%d diagonal of p-th roots "
                    "of unity with ascending exponents" % (n, n)) from None
        if kind == "hom":
            src = _load(doc["source"], None, fields, "canonical")
            tgt = _load(doc["target"], src.ctx, fields, "canonical")
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
                arrs.append(Arrangement(
                    slots, _mat_load(blk["conj"], src.ctx, fields)))
            return EqHom(src, tgt, arrs, unital=doc["unital"])
        if kind == "kinvariant":
            m, mC = doc["m"], doc["mC"]
            if not (_is_int(m) and _is_int(mC) and m >= 0 and mC >= 0):
                raise FormatError("m %r and mC %r are not class counts"
                                  % (m, mC))
            return KInvariant(
                m, _int_matrix([doc["unit"]], "unit", 1, m)[0],
                _int_matrix(doc["act"], "act", m, m), mC,
                _int_matrix(doc["dualAct"], "dualAct", mC, mC),
                _int_matrix([doc["special"]], "special", 1, mC)[0],
                _int_matrix(doc["iota"], "iota", mC, m))
        if kind == "kpair":
            if not isinstance(doc["unital"], bool):
                raise FormatError("unital %r is not a boolean"
                                  % (doc["unital"],))
            return KPair(_int_matrix(doc["F"], "F"),
                         _int_matrix(doc["phi"], "phi"),
                         unital=doc["unital"])
        if kind == "tower":
            systems = [_load(s, None, fields, "canonical")
                       for s in doc["systems"]]
            maps = [_load(h, None, fields, "hom") for h in doc["maps"]]
            return Tower(systems, maps)
        if kind == "certificate":
            towerA = _load(doc["towerA"], None, fields, "tower")
            towerB = _load(doc["towerB"], None, fields, "tower")
            pairs = [_load(kp, None, fields, "kpair") for kp in doc["pairs"]]
            forward = [_load(h, None, fields, "hom") for h in doc["forward"]]
            backward = [_load(h, None, fields, "hom")
                        for h in doc["backward"]]
            a_stages = _stages(doc["a_stages"], towerA, "a_stages")
            b_stages = _stages(doc["b_stages"], towerB, "b_stages")
            n = len(forward)
            if not (len(pairs) == len(a_stages) == len(b_stages) == n
                    and len(backward) == n - 1):
                raise FormatError(
                    "a certificate of n >= 1 stages has n pairs, forward "
                    "homs, a_stages and b_stages and n - 1 backward homs; "
                    "got %d, %d, %d, %d and %d"
                    % (len(pairs), n, len(a_stages), len(b_stages),
                       len(backward)))
            ctx = towerA.systems[0].ctx
            triangles = [
                TriangleRecord(t["kind"], t["left"], t["right"],
                               [_mat_load(w, ctx, fields)
                                for w in t["correction"]])
                for t in doc["triangles"]
            ]
            return IntertwiningCertificate(towerA, towerB, a_stages, b_stages,
                                           forward, backward, triangles,
                                           pairs)
        if kind == "unitaries":
            ctx = _field(doc, ctx, fields)
            return [_mat_load(w, ctx, fields) for w in doc["W"]]
        if kind == "crossed":
            # derived data: rebuild the presentation from its source form
            return crossed_product(_load(doc["source"], None, fields,
                                         "canonical"))
        if kind == "report":
            rep = Report()
            for item in doc["checks"]:
                rep.add(item["name"], item["ok"], item.get("detail", ""))
            return rep
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("malformed %r document: %s" % (kind, exc))
    raise FormatError("unknown document kind %r" % kind)


_quote = json.encoder.encode_basestring_ascii


def dumps(obj):
    """json.dumps(dump(obj), indent=2, sort_keys=True), byte for byte."""
    out = []
    _write(dump(obj), "\n", out, {})
    return "".join(out)


def _write(x, nl, out, memo):
    """Append the indent=2, sort_keys=True JSON text of x to out; nl is
    a newline plus the indentation of x's line. By (nl, id), `memo`
    keeps the text of each scalar object and the slice of out holding
    each document: dump shares one object per distinct scalar and
    per shared value, and x outlives the call, so no id is reused."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif type(x) is int:
        out.append(int.__repr__(x))
    elif isinstance(x, dict) and "afzp_format" in x:
        key = (nl, id(x))
        span = memo.get(key)
        if span is None:
            start = len(out)
            _write_object(x, nl, out, memo)
            memo[key] = (start, len(out))
        else:
            out.extend(out[span[0]:span[1]])
    elif isinstance(x, dict) and x:
        _write_object(x, nl, out, memo)
    elif isinstance(x, list) and x and isinstance(x[0], dict) \
            and x[0].keys() == {"coeffs", "order"}:
        # a matrix row, all scalar objects: their texts, joined once
        inner = nl + "  "
        row = [memo.get((inner, id(e))) or _text(e, inner, memo) for e in x]
        out.append("[" + inner + ("," + inner).join(row) + nl + "]")
    elif isinstance(x, (list, tuple)) and x:
        inner = nl + "  "
        out.append("[")
        for i, item in enumerate(x):
            out.append("," + inner if i else inner)
            _write(item, inner, out, memo)
        out.append(nl + "]")
    else:
        # a boolean, null or float, or [] or {}
        out.append(json.dumps(x))


def _text(x, nl, memo):
    """The text of scalar object x, kept in `memo`."""
    part = []
    _write_object(x, nl, part, memo)
    text = memo[nl, id(x)] = "".join(part)
    return text


def _write_object(x, nl, out, memo):
    inner = nl + "  "
    out.append("{")
    for i, k in enumerate(sorted(x)):
        out.append("%s%s%s: " % ("," if i else "", inner, _quote(k)))
        _write(x[k], inner, out, memo)
    out.append(nl + "}")


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
