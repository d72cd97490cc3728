"""Deep product towers intertwined with themselves: time, memory, size.

    python tests/deep_towers.py            # the nine rows below
    python tests/deep_towers.py 2 9        # one tower: p, depth
    python tests/deep_towers.py 7 2 searched
    python tests/deep_towers.py 5 4 order=5

Each tower is product_tower(p, depth) intertwined with itself through
identity_pairs at full depth, or, in a searched row, with its resorted
presentation and no given pairs, so that every hop searches its
pair. A row with an order builds its tower over that field order
instead of the default 4p^2; at order p the field holds no -1 among
its N-th roots. Each runs in a fresh process so that its peak RSS is
its own.
Printed per tower: build, intertwine and load + verify seconds (wall
clock), peak RSS in MiB, certificate bytes and the first 12 hex digits
of the certificate's sha256. Each of those prefixes is pinned in
TOWERS: the run exits 1 if a certificate fails to verify or its prefix
differs from the pinned one, so a change that means to change the
certificate bytes re-pins them here. Stdlib and afzp only; pytest does
not collect this file.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
# (p, depth, searched, field order or None for 4p^2, pinned sha256
# prefix of the certificate)
TOWERS = [(2, 9, False, None, "3c485ae7491e"),
          (2, 10, False, None, "713760ecdbdd"),
          (3, 6, False, None, "893464147b0c"),
          (5, 4, False, None, "23f2d85fcce1"),
          (5, 5, False, None, "8a001951962b"),
          (7, 2, False, None, "fb57acaf446d"),
          (7, 2, True, None, "b8a496c6c37c"),
          (5, 4, False, 5, "e4b8ffebb30a"),
          (7, 3, False, 7, "d69b552a81a8")]


def measure(p, depth, searched=False, order=None):
    sys.path.insert(0, SRC)
    from afzp.classify import intertwine, verify_certificate
    from afzp.demos import identity_pairs, product_tower
    from afzp.serialize import dumps, loads

    t0 = time.perf_counter()
    tower = product_tower(p, depth, order=order)
    other = (product_tower(p, depth, resorted=True, order=order)
             if searched else tower)
    t1 = time.perf_counter()
    pairs = None if searched else identity_pairs(tower, depth)
    cert = intertwine(tower, other, pairs, depth=depth)
    text = dumps(cert)
    t2 = time.perf_counter()
    ok = verify_certificate(loads(text)).ok
    t3 = time.perf_counter()
    return {"p": p, "depth": depth, "searched": searched, "order": order,
            "build_s": t1 - t0, "intertwine_s": t2 - t1, "load_verify_s": t3 - t2,
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "certificate_bytes": len(text.encode()), "verified": ok,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def main(argv):
    if argv:
        flags = argv[2:]
        order = [int(f[6:]) for f in flags if f.startswith("order=")]
        print(json.dumps(measure(int(argv[0]), int(argv[1]),
                                 "searched" in flags,
                                 order[0] if order else None)))
        return 0
    print("| tower | build | intertwine | load + verify | peak RSS "
          "| certificate | sha256 |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    failed = 0
    for p, depth, searched, order, pinned in TOWERS:
        out = subprocess.run([sys.executable, __file__, str(p), str(depth)]
                             + ["searched"] * searched
                             + ([] if order is None
                                else ["order=%d" % order]),
                             check=True, capture_output=True, text=True)
        r = json.loads(out.stdout)
        changed = r["sha256"][:12] != pinned
        failed += changed or not r["verified"]
        print("| p=%d depth %d%s%s | %.2f s | %.2f s | %.2f s | %.0f MiB | "
              "%d B | %s%s%s |" % (p, depth, " searched" * searched,
                                   "" if order is None
                                   else " order %d" % order,
                                   r["build_s"], r["intertwine_s"],
                                   r["load_verify_s"], r["peak_rss_mib"],
                                   r["certificate_bytes"], r["sha256"][:12],
                                   " CHANGED, pinned %s" % pinned
                                   if changed else "",
                                   "" if r["verified"] else " FAILS VERIFY"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
