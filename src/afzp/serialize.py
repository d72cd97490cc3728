"""JSON interchange.

Every artifact is a UTF-8 JSON document with a top-level "afzp_format"
and a "kind" discriminator. dump and dumps write format 3, whose text is
exactly json.dumps(doc, sort_keys=True, separators=(",", ":")):

- p and order appear once, on the top-level document;
- a scalar is one canonical string: its nonzero coefficients in lowest
  terms by increasing exponent, "e:c" each, joined by spaces
  ("0:1 3:-1/2");
- a matrix is its rows, cols and nonzero [i, j, scalar] entries in
  row-major order;
- each CanonicalForm, EqHom and Tower is written once into the
  top-level "objects" list and referred to by its index there; an
  object refers only to objects before it;
- a fixed piece is its ascending exponents, and a permutation (sigma,
  act, dualAct) the 0-based list of its images.

load reads format 3 only; any other afzp_format is an input error, and
so are the kinds that are only written: "crossed", "unitaries" and
"report". It rejects non-canonical text, members that a kind does not
have and an object list other than the writer's, so a document's bytes
are a function of its value, and it builds each object once, so what
the file shares is shared in memory. A scalar that is a root of unity
zeta_N^k is read as the field's shared root ctx.root(k), whose products
and conjugates go by exponent (see cyclo). The schema reference is
docs/format.md.
"""

import json
import math
import os
import tempfile

from . import FORMAT_VERSION
from ._rat import rat_from_str
from .classify import (IntertwiningCertificate, Tower, TriangleRecord)
from .crossed import CrossedPresentation
from .cyclo import FieldContext, Scalar, root_exponent
from .errors import FormatError
from .kinv import KInvariant, KPair
from .matrix import Mat
from .report import Report
from .system import (Arrangement, BlockIso, CanonicalForm, EqHom, FdSystem,
                     IrredPiece, Slot)

__all__ = ["dump", "load", "save_json", "load_json", "dumps", "loads"]

# the kinds a document keeps in "objects"
_OBJECT_KINDS = ("canonical", "hom", "tower")
# the members of each document and piece kind; a top-level document adds
# afzp_format and, where they are not empty, objects, p and order
_MEMBERS = {k: frozenset(v.split()) for k, v in dict(
    system="kind blocks sigma impl", canonical="kind pieces iso",
    hom="kind source target unital blocks", tower="kind systems maps",
    kinvariant="kind unit act dualAct special iota", kpair="kind F phi unital",
    certificate="kind towerA towerB a_stages b_stages pairs forward backward "
    "triangles", fixed="kind n exponents", cycle="kind n").items()}
_MAT, _SLOT = {"rows", "cols", "entries"}, {"src", "size"}


def _is_int(x):
    """A JSON integer: true and false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_matrix(x, name, rows=None, cols=None):
    """x, checked to be `rows` rows of `cols` JSON integers, or of one width."""
    if cols is None and isinstance(x, list) and x and isinstance(x[0], list):
        cols = len(x[0])
    if not (isinstance(x, list) and rows in (None, len(x))
            and all(isinstance(r, list) and cols == len(r)
                    and all(map(_is_int, r)) for r in x)):
        raise FormatError("%s is not a list of integer rows %s" % (
            name, "of one length" if rows is None
            else "of shape %dx%d" % (rows, cols)))
    return x


def _flag(x):
    """x, checked to be a JSON boolean."""
    if not isinstance(x, bool):
        raise FormatError("unital %r is not a boolean" % (x,))
    return x


def _members(d, allowed):
    """d, checked to be a JSON object of no members outside allowed."""
    if isinstance(d, dict) and d.keys() <= allowed:
        return d
    raise FormatError("members %s not in %s" % (sorted(d), sorted(allowed)))


def _bijection(x, name, n):
    """x, checked to list the images of a permutation of 0..n-1."""
    if isinstance(x, list) and all(map(_is_int, x)) \
            and sorted(x) == list(range(n)):
        return tuple(x)
    raise FormatError("%s is not a permutation of 0..%d" % (name, n - 1))


def _scalar_text(s):
    """The text of Scalar s: "e:c" for each nonzero coefficient c of z^e in
    lowest terms ("a" or "a/b"), by increasing e, space-joined; "" for 0."""
    den = s.den
    if den == 1:
        return " ".join(["%d:%d" % t for t in s.terms])
    terms = []
    for e, x in s.terms:
        g = math.gcd(x, den)
        terms.append("%d:%d" % (e, x // g) if g == den
                     else "%d:%d/%d" % (e, x // g, den // g))
    return " ".join(terms)


def dump(obj):
    """The format-3 document (a dict) of an in-memory value."""
    w = _Writer()
    doc = w.body(obj)
    if w.objects:
        doc["objects"] = w.objects
    if w.ctx is not None:
        doc["p"], doc["order"] = w.ctx.p, w.ctx.order
    doc["afzp_format"] = FORMAT_VERSION
    return doc


def dumps(obj):
    """The format-3 text of obj."""
    return json.dumps(dump(obj), sort_keys=True, separators=(",", ":"))


class _Writer:
    """One dump call: the document's field, its objects, the index of
    each object written (by id, kept with the object so that the id is
    not reused) and the text of each scalar value."""

    def __init__(self):
        self.ctx = None
        self.objects = []
        self.index = {}
        self.texts = {}

    def field(self, ctx):
        if self.ctx is None:
            self.ctx = ctx
        elif ctx is not self.ctx and ctx != self.ctx:
            raise FormatError("cannot write %r and %r in one document"
                              % (self.ctx, ctx))

    def ref(self, obj):
        """The index of obj in objects, written there on first use."""
        got = self.index.get(id(obj))
        if got is None:
            self.objects.append(self.body(obj))
            got = self.index[id(obj)] = (obj, len(self.objects) - 1)
        return got[1]

    def mat(self, m):
        self.field(m.ctx)
        texts = self.texts
        entries = []
        for i, (cols, vals) in enumerate(zip(m.nz, m.vals)):
            for j, e in zip(cols, vals):
                key = e.num, e.den
                text = texts.get(key)
                if text is None:
                    text = texts[key] = _scalar_text(e)
                entries.append([i, j, text])
        return {"rows": m.rows, "cols": m.cols, "entries": entries}

    def body(self, obj):
        """obj's document without afzp_format, p, order and objects."""
        if isinstance(obj, FdSystem):
            self.field(obj.ctx)
            return {"kind": "system", "blocks": list(obj.block_sizes),
                    "sigma": list(obj.sigma),
                    "impl": [self.mat(u) for u in obj.impl]}
        if isinstance(obj, CanonicalForm):
            self.field(obj.ctx)
            doc = {"kind": "canonical", "pieces": [
                {"kind": pc.kind, "n": pc.n,
                 **({"exponents": list(e)} if pc.kind == "fixed" else {})}
                for pc, e in zip(obj.pieces, obj.piece_exponents)]}
            if obj.iso is not None:
                doc["iso"] = {"block_map": list(obj.iso.block_map),
                              "conjugators": [self.mat(z) for z in
                                              obj.iso.conjugators]}
            return doc
        if isinstance(obj, EqHom):
            return {"kind": "hom", "source": self.ref(obj.source),
                    "target": self.ref(obj.target), "unital": obj.unital,
                    "blocks": [
                        {"slots": [{"src": s.src, "size": s.size}
                                   for s in arr.slots],
                         "conj": self.mat(arr.conj)}
                        for arr in obj.arrangements]}
        if isinstance(obj, CrossedPresentation):
            return {"kind": "crossed", "source": self.ref(obj.source),
                    "blocks": list(obj.block_sizes),
                    "special": list(obj.special),
                    "iota": [row[:] for row in obj.iota_matrix],
                    "dual": self.body(obj.dual_system()),
                    "identify": self.mat(obj.identify_matrix())}
        if isinstance(obj, KInvariant):
            # copies: invariant_of's result is shared through its cache
            return {"kind": "kinvariant", "unit": list(obj.unit),
                    "act": list(obj.act), "dualAct": list(obj.dualAct),
                    "special": list(obj.special),
                    "iota": [list(r) for r in obj.iota]}
        if isinstance(obj, KPair):
            return {"kind": "kpair", "F": obj.F, "phi": obj.phi,
                    "unital": obj.unital}
        if isinstance(obj, Tower):
            return {"kind": "tower",
                    "systems": [self.ref(s) for s in obj.systems],
                    "maps": [self.ref(h) for h in obj.maps]}
        if isinstance(obj, IntertwiningCertificate):
            return {"kind": "certificate", "towerA": self.ref(obj.towerA),
                    "towerB": self.ref(obj.towerB),
                    "a_stages": list(obj.a_stages),
                    "b_stages": list(obj.b_stages),
                    "pairs": [self.body(kp) for kp in obj.pairs],
                    "forward": [self.ref(h) for h in obj.forward],
                    "backward": [self.ref(h) for h in obj.backward],
                    "triangles": [
                        {"kind": t.kind, "left": t.left_stage,
                         "right": t.right_stage,
                         "correction": [self.mat(w) for w in t.correction]}
                        for t in obj.triangles]}
        if isinstance(obj, Report):
            return {"kind": "report", **obj.to_json()}
        if isinstance(obj, list) and obj and all(isinstance(w, Mat)
                                                 for w in obj):
            return {"kind": "unitaries", "W": [self.mat(w) for w in obj]}
        raise FormatError("cannot serialize %r" % type(obj))


def load(doc):
    """Rebuild the in-memory value of a format-3 document."""
    if not isinstance(doc, dict):
        raise FormatError("document is not a JSON object")
    version = doc.get("afzp_format")
    if not (_is_int(version) and version == FORMAT_VERSION):
        raise FormatError("afzp_format %r is not supported: only format %d "
                          "is read" % (version, FORMAT_VERSION))
    return _Reader(doc).load()


def _check_iso(c):
    """c.iso, checked to map the original blocks one to one onto c's
    blocks, each with a unitary conjugator of its canonical block's size."""
    block_map, zs = c.iso.block_map, c.iso.conjugators
    if not (all(map(_is_int, block_map)) and len(zs) == len(block_map)
            and sorted(block_map) == list(range(c.m))):
        raise FormatError("iso block_map %r with %d conjugators is not a "
                          "permutation of the %d canonical blocks"
                          % (block_map, len(zs), c.m))
    for i, (b, z) in enumerate(zip(block_map, zs)):
        n = c.block_sizes[b]
        if not (z.rows == z.cols == n and z.is_unitary()):
            raise FormatError("iso conjugator %d is not a %dx%d unitary, the "
                              "size of canonical block %d" % (i, n, n, b))


def _stages(stages, tower, name):
    """A certificate's stage list, checked to index the tower strictly
    increasingly."""
    if not all(_is_int(s) and 0 <= s < len(tower.systems) for s in stages) \
            or any(a >= b for a, b in zip(stages, stages[1:])):
        raise FormatError("%s %r is not a strictly increasing list of "
                          "stages 0..%d" % (name, stages,
                                            len(tower.systems) - 1))
    return list(stages)


class _Reader:
    """One load: the document, its field (read when the first matrix or
    form needs it), the scalar of each text decoded so far, the (kind,
    value) of each object built so far and the references each object,
    then the top-level document, makes in the order they are read."""

    def __init__(self, doc):
        self.doc = doc
        self.ctx = None
        self.scalars = {}
        self.objects = []
        self.uses = []

    def load(self):
        objects = self.doc.get("objects", ())
        if not (objects == () or isinstance(objects, list) and objects):
            raise FormatError("objects is not a non-empty list")
        for i, obj in enumerate(objects):
            i_kind = obj.get("kind") if isinstance(obj, dict) else None
            if i_kind not in _OBJECT_KINDS:
                raise FormatError("object %d is not a canonical, hom or "
                                  "tower object" % i)
            self.uses.append([])
            self.objects.append((i_kind, self.inline(obj, i_kind)))
        kind = self.doc.get("kind")
        self.uses.append([])
        value = self._build(kind, self.doc,
                            {"afzp_format", "p", "order", "objects"})
        if self.ctx is None and self.doc.keys() & {"p", "order"}:
            raise FormatError("p or order on a fieldless %r document" % kind)
        self._check_order()
        return value

    def _check_order(self):
        """Every object referenced, and listed where the writer puts it:
        each after the objects it refers to, in the order of first
        reference from the top-level document down."""
        order, seen = [], set()

        def visit(i):
            for j in self.uses[i]:
                if j not in seen:
                    seen.add(j)
                    visit(j)
                    order.append(j)

        visit(len(self.objects))
        unused = set(range(len(self.objects))) - seen
        if unused:
            raise FormatError("object %d is not referenced" % min(unused))
        if order != sorted(order):
            raise FormatError("objects are out of order: the writer lists "
                              "them as %s" % order)

    def field(self):
        """The field of the top-level document's integer p and order."""
        if self.ctx is None:
            key = self.doc["p"], self.doc["order"]
            if not all(map(_is_int, key)):
                raise FormatError("p %r and order %r are not integers" % key)
            self.ctx = FieldContext(*key)
        return self.ctx

    def ref(self, x, expect):
        """The object of kind `expect` that reference x names."""
        if not (_is_int(x) and 0 <= x < len(self.objects)):
            raise FormatError("%s reference %r is not the index of an "
                              "earlier object (dangling or cyclic)"
                              % (expect, x))
        self.uses[-1].append(x)
        kind, value = self.objects[x]
        if kind != expect:
            raise FormatError("object %d is a %r, expected a %r"
                              % (x, kind, expect))
        return value

    def inline(self, doc, expect):
        """A nested document of kind `expect`, without header members."""
        if not isinstance(doc, dict) or doc.get("kind") != expect:
            raise FormatError("expected a nested %r object" % expect)
        return self._build(expect, doc)

    def _build(self, kind, doc, header=frozenset()):
        """The value of a document of kind and header members only."""
        try:
            if kind in _MEMBERS:
                _members(doc, _MEMBERS[kind] | header)
            return self._value(kind, doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError("malformed %r document: %s" % (kind, exc))

    def _value(self, kind, doc):
        if kind == "system":
            ctx = self.field()
            blocks, sigma = (_int_matrix([doc[k]], "blocks and sigma")[0]
                             for k in ("blocks", "sigma"))
            impl = [self.mat(u) for u in doc["impl"]]
            return FdSystem(ctx, ctx.p, list(blocks), tuple(sigma), impl)
        if kind == "canonical":
            ctx = self.field()
            pieces = []
            for pc in doc["pieces"]:
                pk = pc["kind"]
                if pk not in ("fixed", "cycle"):
                    raise FormatError("unknown piece kind %r" % (pk,))
                n = _members(pc, _MEMBERS[pk])["n"]
                # an empty piece would leave the pair search unbounded
                if not _is_int(n) or n < 1:
                    raise FormatError("piece size %r is not a positive "
                                      "integer" % (n,))
                if pk == "cycle":
                    pieces.append(IrredPiece("cycle", n))
                    continue
                e = pc["exponents"]
                if not (isinstance(e, list) and len(e) == n
                        and all(map(_is_int, e)) and e == sorted(e)
                        and 0 <= e[0] and e[-1] < ctx.p):
                    raise FormatError("fixed piece exponents are not %d "
                                      "ascending integers in 0..p-1" % n)
                pieces.append(IrredPiece("fixed", n, Mat.diag(
                    ctx, [ctx.zeta_p(x) for x in e])))
            iso = None
            if "iso" in doc:
                iso = _members(doc["iso"], {"block_map", "conjugators"})
                iso = BlockIso(list(iso["block_map"]),
                               [self.mat(z) for z in iso["conjugators"]])
            c = CanonicalForm(ctx, ctx.p, pieces, iso)
            if iso is not None:
                _check_iso(c)
            return c
        if kind == "hom":
            src = self.ref(doc["source"], "canonical")
            tgt = self.ref(doc["target"], "canonical")
            arrs = []
            for blk in doc["blocks"]:
                slots = [Slot(_members(s, _SLOT)["src"], s["size"])
                         for s in _members(blk, {"slots", "conj"})["slots"]]
                for s in slots:
                    if not (s.src is None or _is_int(s.src)):
                        raise FormatError("slot src %r is neither null nor "
                                          "an integer" % (s.src,))
                    if not _is_int(s.size) or s.size < 0:
                        raise FormatError("slot size %r is not a "
                                          "non-negative integer" % (s.size,))
                arrs.append(Arrangement(slots, self.mat(blk["conj"])))
            return EqHom(src, tgt, arrs, unital=_flag(doc["unital"]))
        if kind == "kinvariant":
            unit, special = (_int_matrix([doc[k]], k)[0]
                             for k in ("unit", "special"))
            m, mC = len(unit), len(special)
            return KInvariant(unit, _bijection(doc["act"], "act", m),
                              _bijection(doc["dualAct"], "dualAct", mC),
                              special, _int_matrix(doc["iota"], "iota", mC, m))
        if kind == "kpair":
            return KPair(_int_matrix(doc["F"], "F"),
                         _int_matrix(doc["phi"], "phi"),
                         unital=_flag(doc["unital"]))
        if kind == "tower":
            return Tower([self.ref(s, "canonical") for s in doc["systems"]],
                         [self.ref(h, "hom") for h in doc["maps"]])
        if kind == "certificate":
            towerA = self.ref(doc["towerA"], "tower")
            towerB = self.ref(doc["towerB"], "tower")
            pairs = [self.inline(kp, "kpair") for kp in doc["pairs"]]
            forward = [self.ref(h, "hom") for h in doc["forward"]]
            backward = [self.ref(h, "hom") for h in doc["backward"]]
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
            triangles = []
            for t in doc["triangles"]:
                side, left, right = _members(t, {
                    "kind", "left", "right", "correction"})["kind"], \
                    t["left"], t["right"]
                tower = towerA if side == "A" else \
                    towerB if side == "B" else None
                if tower is None or not all(
                        _is_int(s) and 0 <= s < len(tower.systems)
                        for s in (left, right)):
                    raise FormatError(
                        "triangle kind %r, left %r and right %r do not name "
                        "a tower, \"A\" or \"B\", and two of its stages"
                        % (side, left, right))
                triangles.append(TriangleRecord(
                    side, left, right,
                    [self.mat(w) for w in t["correction"]]))
            return IntertwiningCertificate(towerA, towerB, a_stages,
                                           b_stages, forward, backward,
                                           triangles, pairs)
        raise FormatError("unknown document kind %r" % (kind,))

    def mat(self, obj):
        """A sparse matrix object listing, as an invertible one does, at
        least as many entries as it has rows or columns, so that no larger
        header is allocated; its row-major entries are its rows."""
        ctx = self.field()
        rows, cols, entries = _members(obj, _MAT)["rows"], \
            obj["cols"], obj["entries"]
        if not (_is_int(rows) and _is_int(cols) and rows >= 0 and cols >= 0
                and isinstance(entries, list)):
            raise FormatError("bad matrix object: rows %r, cols %r and "
                              "entries are not two sizes and a list"
                              % (rows, cols))
        if max(rows, cols) > len(entries):
            raise FormatError("matrix header %dx%d lists %d entries: an "
                              "invertible matrix lists at least %d"
                              % (rows, cols, len(entries), max(rows, cols)))
        index = {}      # row -> {column: value}, filled in row-major order
        last = -1
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise FormatError("matrix entry %r is not [i, j, scalar]"
                                  % (entry,))
            i, j, text = entry
            if not (_is_int(i) and _is_int(j) and 0 <= i < rows
                    and 0 <= j < cols):
                raise FormatError("matrix entry (%r, %r) lies outside "
                                  "%dx%d" % (i, j, rows, cols))
            at = i * cols + j
            if at <= last:
                raise FormatError("matrix entry (%d, %d) is repeated or out "
                                  "of row-major order" % (i, j))
            last = at
            index.setdefault(i, {})[j] = \
                self.scalars.get(text) or self.scalar(text)
        nz, vals = [()] * rows, [()] * rows
        for i, row in index.items():
            nz[i], vals[i] = tuple(row), tuple(row.values())
        return Mat(ctx, rows, cols, tuple(nz), tuple(vals))

    def scalar(self, text):
        """The nonzero Scalar of canonical text (see _scalar_text); a root
        of unity zeta_N^k is the field's shared, marked ctx.root(k)."""
        ctx = self.field()
        coeffs = [0] * ctx.degree
        try:
            for term in text.split(" "):
                e, c = term.split(":")
                if not 0 <= int(e) < ctx.degree:
                    raise ValueError("exponent %s is not in 0..%d"
                                     % (e, ctx.degree - 1))
                coeffs[int(e)] = rat_from_str(c)
        except (AttributeError, ValueError, ZeroDivisionError) as exc:
            raise FormatError("bad scalar %r: %s" % (text, exc))
        got = Scalar(ctx, coeffs)
        if not got._nonzero or _scalar_text(got) != text:
            raise FormatError("scalar %r is not a canonical nonzero scalar "
                              "text (that would be %r)"
                              % (text, _scalar_text(got)))
        k = root_exponent(got)
        if k is not None:
            got = ctx.root(k)
        self.scalars[text] = got
        return got


def loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("invalid JSON at line %d column %d: %s"
                          % (exc.lineno, exc.colno, exc.msg))
    except RecursionError:
        raise FormatError("JSON nested too deeply to read") from None
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError("%s is not UTF-8 text: %s" % (path, exc)) from None
    return loads(text)
