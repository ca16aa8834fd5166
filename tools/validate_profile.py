#!/usr/bin/env python3
"""Shape validator for flexmr.profile.v1 documents.

Checks the invariants the self-profiler (src/obs/profiler.hpp) promises by
construction:

  * valid JSON; schema == flexmr.profile.v1; host block with
    hardware_concurrency; wall_ns and total_exclusive_ns present
  * every scope has id/name/parent/count/inclusive_ns/exclusive_ns, with
    parents serialized before children (parent < id; roots use -1),
    count >= 1 and exclusive_ns <= inclusive_ns
  * total_exclusive_ns equals the sum over scopes
  * a scope's inclusive time is >= the sum of its children's inclusive
    time (self time is never negative at any node)

Usage: validate_profile.py PROFILE.json [PROFILE2.json ...]
"""
import json
import sys


def fail(path, msg):
    print(f"{path}: FAIL: {msg}")
    sys.exit(1)


def validate(path):
    with open(path) as f:
        doc = json.load(f)

    if doc.get("schema") != "flexmr.profile.v1":
        fail(path, f"schema is {doc.get('schema')!r}")
    host = doc.get("host")
    if not isinstance(host, dict) or "hardware_concurrency" not in host:
        fail(path, "host block missing hardware_concurrency")
    for key in ("wall_ns", "total_exclusive_ns"):
        if not isinstance(doc.get(key), int) or doc[key] < 0:
            fail(path, f"bad {key}: {doc.get(key)!r}")

    scopes = doc.get("scopes")
    if not isinstance(scopes, list):
        fail(path, "scopes missing")
    child_inclusive = {}
    total_exclusive = 0
    for i, s in enumerate(scopes):
        for key in ("id", "name", "parent", "count", "inclusive_ns",
                    "exclusive_ns"):
            if key not in s:
                fail(path, f"scope {i} missing {key}: {s}")
        if s["id"] != i:
            fail(path, f"scope {i} id {s['id']} out of order")
        if not (s["parent"] == -1 or 0 <= s["parent"] < i):
            fail(path, f"scope {i} parent {s['parent']} not before it")
        if not s["name"]:
            fail(path, f"scope {i} has an empty name")
        if s["count"] < 1:
            fail(path, f"scope {i} ({s['name']}) has count {s['count']}")
        if s["exclusive_ns"] > s["inclusive_ns"]:
            fail(path, f"scope {i} ({s['name']}) exclusive > inclusive")
        total_exclusive += s["exclusive_ns"]
        if s["parent"] >= 0:
            child_inclusive[s["parent"]] = (
                child_inclusive.get(s["parent"], 0) + s["inclusive_ns"])
    for parent, child_sum in child_inclusive.items():
        if scopes[parent]["inclusive_ns"] < child_sum:
            fail(path, f"scope {parent} ({scopes[parent]['name']}) "
                 f"inclusive {scopes[parent]['inclusive_ns']} < children "
                 f"sum {child_sum}")
    if total_exclusive != doc["total_exclusive_ns"]:
        fail(path, f"total_exclusive_ns {doc['total_exclusive_ns']} != "
             f"scope sum {total_exclusive}")

    print(f"{path}: OK ({len(scopes)} scopes, {total_exclusive} ns self "
          f"time)")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__)
        sys.exit(2)
    for p in sys.argv[1:]:
        validate(p)
