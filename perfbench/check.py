"""Comparison of a request's exit code and output with its expectation.

Outputs are compared in a canonical form: lists that the CLI documents as
sets (solutions, minimal solutions, predecessors, gap entries, concepts) are
sorted, and DOT output is reduced to its node labels and labelled edges, so
that a change of listing order is not a failure while any change of content is.
"""

from __future__ import annotations

import json
import re

_NODE = re.compile(r'^\s*c(\d+) \[label="([^"]*)"\];$')
_EDGE = re.compile(r"^\s*c(\d+) -> c(\d+);$")


def parse_dot(text: str) -> dict:
    """Node labels and labelled cover pairs of a ``lattice --dot`` output."""
    labels, edges = {}, []
    for line in text.splitlines():
        m = _NODE.match(line)
        if m:
            labels[m.group(1)] = [int(k) for k in re.findall(r"\d+", m.group(2))]
            continue
        m = _EDGE.match(line)
        if m:
            edges.append((m.group(1), m.group(2)))
    return {
        "nodes": sorted(labels.values()),
        "edges": sorted([labels[i], labels[j]] for i, j in edges),
    }


def _sorted(items):
    return sorted(items, key=lambda x: json.dumps(x, sort_keys=True))


def canonical(cmd: str, payload):
    """A copy of ``payload`` with its set-like lists in sorted order."""
    payload = json.loads(json.dumps(payload))
    if cmd == "solve" and "gap" in payload:
        payload["gap"] = _sorted(payload["gap"])
    if cmd == "solve" and "solutions" in payload:
        for col in payload["solutions"]["columns"]:
            for field in ("excluded_predecessors", "solutions", "minimal"):
                if field in col:
                    col[field] = sorted(col[field])
    if cmd == "lattice":
        for field in ("concepts", "members", "nodes", "edges"):
            if field in payload:
                payload[field] = _sorted(payload[field])
    return payload


def decode(kind: str, stdout: str):
    """The comparable form of a request's standard output."""
    if kind == "dot":
        return parse_dot(stdout)
    return json.loads(stdout)


def verify(cmd: str, expect: dict, rc: int, stdout: str):
    """None when the request gave the expected result, else the reason."""
    if rc != expect["rc"]:
        return f"exit code {rc}, expected {expect['rc']}"
    try:
        got = decode(expect["kind"], stdout)
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"
    if canonical(cmd, got) != canonical(cmd, expect["value"]):
        return "output differs from the expected answer"
    return None
