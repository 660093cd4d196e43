#!/usr/bin/env python3
"""Check that the CLIs' --json modes print exactly one JSON document.

Registered as ctest `json_reports`. Runs `bladed-lint --wcet --json` and
`bladed-commcheck --driver npb-is --ranks 4 --json` and fails unless each
one's stdout, as a whole, is a single JSON object that json.loads accepts
(so no human text, no second document, no invalid escape).

Usage: json_reports_check.py BLADED_LINT BLADED_COMMCHECK
"""

import json
import subprocess
import sys


def check(cmd):
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=False).stdout
    try:
        doc = json.loads(out.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        print("FAIL %s: stdout is not one JSON document: %s"
              % (" ".join(cmd), e))
        return False
    if not isinstance(doc, dict):
        print("FAIL %s: stdout is JSON but not an object" % " ".join(cmd))
        return False
    print("ok   %s" % " ".join(cmd))
    return True


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    lint, commcheck = argv[1], argv[2]
    ok = check([lint, "--wcet", "--json"])
    ok = check([commcheck, "--driver", "npb-is", "--ranks", "4",
                "--json"]) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
