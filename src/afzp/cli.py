"""Command-line interface.

Every command reads JSON files against the documented schemas, runs one
library operation, and writes its result as deterministic format-3 JSON,
to stdout or atomically to the file given by --out. Each option lives on
the commands that read it: --format text prints reports as text (validate,
checkpair, verify, induced, equiv), and --depth sets the depth of
intertwine and demo. Exit codes: 0 on success/pass, 1 on mathematical
failure (a report with violations or an obstruction error), 2 on input
or format errors.
"""

import argparse
import sys
from functools import partial

from .classify import (IntertwiningCertificate, Tower, equiv_unitary,
                       intertwine, lift, verify_certificate)
from .crossed import crossed_product
from .demos import identity_pairs, naive_doubling_tower, product_tower
from .errors import AfzpError, FormatError
from .kinv import KInvariant, KPair, check_pair, induced_map, invariant_of
from .report import Report
from .serialize import dumps, load_json, save_json
from .system import (CanonicalForm, EqHom, FdSystem, decompose, hom_validate,
                     validate)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


def _emit(args, obj):
    if args.out:
        save_json(args.out, obj)
    # only the commands that can emit a Report take --format
    elif isinstance(obj, Report) and args.format == "text":
        print(obj.summary())
    else:
        print(dumps(obj))


def _load_canonical(path):
    obj = load_json(path)
    if isinstance(obj, CanonicalForm):
        return obj
    if isinstance(obj, FdSystem):
        return decompose(obj)
    raise FormatError("%s: expected a system or canonical-form file" % path)


def cmd_validate(args):
    def one(path):
        obj = load_json(path)
        if isinstance(obj, EqHom):
            return hom_validate(obj)
        if isinstance(obj, FdSystem):
            return validate(obj)
        raise FormatError("%s: expected a system or hom file" % path)

    if args.out and len(args.files) > 1:
        raise FormatError("--out holds one report; %d files given"
                          % len(args.files))
    reports = [one(p) for p in args.files]
    code = EXIT_OK
    for path, rep in zip(args.files, reports):
        if len(args.files) > 1:
            print("== %s" % path)
        _emit(args, rep)
        if not rep.ok:
            code = EXIT_MATH
    return code


def cmd_canon(args):
    sys_in = load_json(args.file)
    if not isinstance(sys_in, FdSystem):
        raise FormatError("expected a system file")
    _emit(args, decompose(sys_in))
    return EXIT_OK


def cmd_crossed(args):
    _emit(args, crossed_product(_load_canonical(args.file)))
    return EXIT_OK


def cmd_kinv(args):
    _emit(args, invariant_of(_load_canonical(args.file)))
    return EXIT_OK


def _load_kind(path, cls, what):
    obj = load_json(path)
    if not isinstance(obj, cls):
        raise FormatError("%s: expected a %s file" % (path, what))
    return obj


def _load_hom(path):
    return _load_kind(path, EqHom, "hom")


def cmd_induced(args):
    hom = _load_hom(args.homfile)
    rep = hom_validate(hom)
    if not rep.ok:
        _emit(args, rep)
        return EXIT_MATH
    _emit(args, induced_map(hom))
    return EXIT_OK


def cmd_checkpair(args):
    kp = _load_kind(args.pairfile, KPair, "kpair")
    invA = _load_kind(args.inva, KInvariant, "kinvariant")
    invB = _load_kind(args.invb, KInvariant, "kinvariant")
    rep = check_pair(kp, invA, invB)
    _emit(args, rep)
    return EXIT_OK if rep.ok else EXIT_MATH


def cmd_lift(args):
    kp = _load_kind(args.pairfile, KPair, "kpair")
    src = _load_canonical(args.srcfile)
    tgt = _load_canonical(args.tgtfile)
    _emit(args, lift(kp, src, tgt))
    return EXIT_OK


def cmd_equiv(args):
    h1, h2 = _load_hom(args.hom1), _load_hom(args.hom2)
    for rep in (hom_validate(h1), hom_validate(h2)):
        if not rep.ok:
            _emit(args, rep)
            return EXIT_MATH
    W, _witness = equiv_unitary(h1, h2)
    _emit(args, W)
    return EXIT_OK


def cmd_intertwine(args):
    tA = load_json(args.towera)
    tB = load_json(args.towerb)
    if not isinstance(tA, Tower) or not isinstance(tB, Tower):
        raise FormatError("expected tower files")
    pairs = None
    if args.pairs:
        pairs = [_load_kind(p, KPair, "kpair")
                 for p in args.pairs.split(",")]
    cert = intertwine(tA, tB, pairs=pairs, depth=args.depth)
    _emit(args, cert)
    return EXIT_OK


def cmd_verify(args):
    cert = load_json(args.certfile)
    if not isinstance(cert, IntertwiningCertificate):
        raise FormatError("expected a certificate file")
    rep = verify_certificate(cert)
    _emit(args, rep)
    return EXIT_OK if rep.ok else EXIT_MATH


def _demo_tower(args, p, resorted):
    """Intertwine the product tower with itself along identity pairs, or,
    resorted, with its reversed presentation along searched pairs."""
    depth = args.depth
    tower = product_tower(p, depth)
    if resorted:
        other = product_tower(p, depth, resorted=True)
        pairs = None
    else:
        other, pairs = tower, identity_pairs(tower, depth)
    cert = intertwine(tower, other, pairs=pairs, depth=depth)
    rep = verify_certificate(cert)
    print("tower stages: %s" % [s.block_sizes for s in tower.systems])
    print("triangles corrected: %d" % len(cert.triangles))
    for item in rep.items:
        print("[%s] %s" % ("PASS" if item.ok else "FAIL", item.name))
    print("PASS" if rep.ok else "FAIL")
    if args.out:
        save_json(args.out, cert)
    return EXIT_OK if rep.ok else EXIT_MATH


def _demo_naive_doubling(args):
    if args.depth < 2:
        raise FormatError("naive-doubling needs --depth of at least 2")
    if args.out:
        raise FormatError("naive-doubling writes no file; drop --out")
    data = naive_doubling_tower(args.depth)
    print("stages: %s" % [s.block_sizes for s in data["stages"]])
    for n, rep in enumerate(data["hom_reports"]):
        fail = rep.failures()
        print("stage %d -> %d doubling map: %s"
              % (n + 1, n + 2,
                 "equivariant" if rep.ok else "NOT equivariant (%s)"
                 % fail[0].detail))
    for n, (found, obs) in enumerate(zip(data["searches"],
                                         data["obstructions"])):
        print("stage %d -> %d invariant morphisms: %d"
              % (n + 1, n + 2, len(found)))
        for item in obs.failures():
            print("  obstruction: %s: %s" % (item.name, item.detail))
    expected = (all(not r.ok for r in data["hom_reports"])
                and all(not s for s in data["searches"]))
    print("PASS (obstructions reproduced)" if expected else
          "FAIL (expected obstructions missing)")
    return EXIT_OK if expected else EXIT_MATH


# name -> (runner(args), default depth)
DEMOS = {
    "product-tower-p2": (partial(_demo_tower, p=2, resorted=False), 4),
    "product-tower-p3": (partial(_demo_tower, p=3, resorted=False), 3),
    "product-tower-p2-resorted": (partial(_demo_tower, p=2, resorted=True), 3),
    "naive-doubling": (_demo_naive_doubling, 3),
}


def cmd_demo(args):
    if args.name not in DEMOS:
        raise FormatError("unknown demo %r; available: %s"
                          % (args.name, ", ".join(sorted(DEMOS))))
    run, depth = DEMOS[args.name]
    if args.depth is None:
        args.depth = depth
    return run(args)


def _positive_int(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError("%r is not a positive integer"
                                         % text)
    return int(text)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="afzp",
        description="Exact invariants and classification machinery for "
                    "order-p actions on finite-dimensional C*-algebras.")
    sub = ap.add_subparsers(dest="command", required=True)

    def sub_parser(name, fn, report=False, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("--out", metavar="PATH",
                        help="write the result to PATH (atomic)")
        if report:
            sp.add_argument("--format", choices=["json", "text"],
                            default="json")
        sp.set_defaults(fn=fn)
        return sp

    sp = sub_parser("validate", cmd_validate, report=True,
                    help="validate systems or homs")
    sp.add_argument("files", nargs="+")

    sp = sub_parser("canon", cmd_canon, help="canonical decomposition")
    sp.add_argument("file")

    sp = sub_parser("crossed", cmd_crossed,
                    help="crossed-product presentation")
    sp.add_argument("file")

    sp = sub_parser("kinv", cmd_kinv, help="classification invariant")
    sp.add_argument("file")

    sp = sub_parser("induced", cmd_induced, report=True,
                    help="invariant morphism of a hom")
    sp.add_argument("homfile")

    sp = sub_parser("checkpair", cmd_checkpair, report=True,
                    help="check an invariant morphism pair")
    sp.add_argument("pairfile")
    sp.add_argument("inva")
    sp.add_argument("invb")

    sp = sub_parser("lift", cmd_lift,
                    help="lift a pair to an equivariant hom")
    sp.add_argument("pairfile")
    sp.add_argument("srcfile")
    sp.add_argument("tgtfile")

    sp = sub_parser("equiv", cmd_equiv, report=True,
                    help="equivariant unitary conjugating one hom "
                         "into another")
    sp.add_argument("hom1")
    sp.add_argument("hom2")

    sp = sub_parser("intertwine", cmd_intertwine,
                    help="finite-depth intertwining certificate")
    sp.add_argument("towera")
    sp.add_argument("towerb")
    sp.add_argument("pairs", nargs="?", default=None,
                    help="comma-separated invariant-pair files")
    sp.add_argument("--depth", type=_positive_int, default=3)

    sp = sub_parser("verify", cmd_verify, report=True,
                    help="replay a certificate from scratch")
    sp.add_argument("certfile")

    sp = sub_parser("demo", cmd_demo, help="run a built-in scenario")
    sp.add_argument("name", help="one of: %s" % ", ".join(DEMOS))
    sp.add_argument("--depth", type=_positive_int, default=None,
                    help="tower stages (default: the demo's own)")

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (FormatError, OSError, MemoryError) as exc:
        print("input error: %s" % (str(exc) or "out of memory"),
              file=sys.stderr)
        return EXIT_INPUT
    except AfzpError as exc:
        print("failure: %s" % exc, file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
