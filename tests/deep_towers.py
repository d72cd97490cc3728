"""Deep product towers intertwined with themselves: time, memory, size.

    python tests/deep_towers.py            # the six towers below
    python tests/deep_towers.py 2 9        # one tower: p, depth

Each tower is product_tower(p, depth) intertwined with itself through
identity_pairs at full depth, in a fresh process so that its peak RSS is
its own. Printed per tower: build, intertwine and load + verify seconds
(wall clock), peak RSS in MiB, certificate bytes and the first 12 hex
digits of the certificate's sha256. Stdlib and afzp only; pytest does
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
TOWERS = [(2, 9), (2, 10), (3, 6), (5, 4), (5, 5), (7, 2)]


def measure(p, depth):
    sys.path.insert(0, SRC)
    from afzp.classify import intertwine, verify_certificate
    from afzp.demos import identity_pairs, product_tower
    from afzp.serialize import dumps, loads

    t0 = time.perf_counter()
    tower = product_tower(p, depth)
    t1 = time.perf_counter()
    cert = intertwine(tower, tower, identity_pairs(tower, depth), depth=depth)
    text = dumps(cert)
    t2 = time.perf_counter()
    ok = verify_certificate(loads(text)).ok
    t3 = time.perf_counter()
    return {"p": p, "depth": depth, "build_s": t1 - t0,
            "intertwine_s": t2 - t1, "load_verify_s": t3 - t2,
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "certificate_bytes": len(text.encode()), "verified": ok,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def main(argv):
    if argv:
        print(json.dumps(measure(int(argv[0]), int(argv[1]))))
        return 0
    print("| tower | build | intertwine | load + verify | peak RSS "
          "| certificate | sha256 |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    failed = 0
    for p, depth in TOWERS:
        out = subprocess.run([sys.executable, __file__, str(p), str(depth)],
                             check=True, capture_output=True, text=True)
        r = json.loads(out.stdout)
        failed += not r["verified"]
        print("| p=%d depth %d | %.2f s | %.2f s | %.2f s | %.0f MiB | "
              "%d B | %s%s |" % (p, depth, r["build_s"], r["intertwine_s"],
                                 r["load_verify_s"], r["peak_rss_mib"],
                                 r["certificate_bytes"], r["sha256"][:12],
                                 "" if r["verified"] else " FAILS VERIFY"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
