"""The provenance query layer: DAG exports, attribution, `explain`.

Pure functions of a :class:`~repro.observe.provenance.ProvenanceLog`:

- :func:`lineage_json` / :func:`load_lineage` — the canonical JSON
  snapshot (sorted keys, fixed separators: byte-identical for equal
  logs, which the determinism tests compare directly);
- :func:`lineage_dot` — the lineage DAG in Graphviz DOT, entries as
  ellipses, bugs as boxes, supersessions as dashed edges;
- :func:`attribution_table` — per-``engine/slot`` earnings: mutations
  spent, entries/edges/bugs earned, dead-mutation share;
- :func:`coverage_waterfall` — which seed ancestors carry the
  campaign's coverage (edges grouped by chain root);
- :func:`resolve_target` / :func:`format_chain` — the CLI
  ``repro observe explain <edge|bug|entry>`` reproduction chain.
"""

from __future__ import annotations

import json

from .provenance import LineageRecord, ProvenanceLog

__all__ = [
    "attribution_table",
    "coverage_waterfall",
    "format_attribution",
    "format_chain",
    "format_waterfall",
    "lineage_dot",
    "lineage_json",
    "load_lineage",
    "resolve_target",
]

_JSON_KW = {"sort_keys": True, "separators": (",", ":")}


# ----- canonical JSON -----


def lineage_json(log: ProvenanceLog) -> str:
    """The canonical lineage snapshot (what ``lineage.json`` holds)."""
    return json.dumps(log.state_dict(), **_JSON_KW)


def load_lineage(text: str) -> ProvenanceLog:
    """Rebuild a log from :func:`lineage_json` output (CLI explain path)."""
    log = ProvenanceLog()
    log.restore(json.loads(text))
    return log


# ----- DOT -----


def lineage_dot(log: ProvenanceLog) -> str:
    """The lineage DAG as deterministic Graphviz DOT.

    Node and edge order is sorted, so equal logs render byte-identical
    files; entries subsumed at hub dedup point at their superseder with
    a dashed edge instead of disappearing.
    """
    lines = ["digraph lineage {", "  rankdir=LR;", "  node [fontsize=9];"]
    for entry_id in sorted(log.records):
        rec = log.records[entry_id]
        label = (
            f"{entry_id}\\n{rec.engine}/{rec.slot} {rec.operator}"
            f"\\ngain={rec.gain} t={rec.time:.0f} w{rec.worker}"
        )
        attrs = f'label="{label}"'
        if rec.superseded_by is not None:
            attrs += ' style=dotted'
        lines.append(f'  "{entry_id}" [{attrs}];')
    for signature in sorted(log.bug_owner):
        lines.append(
            f'  "bug:{signature}" [shape=box style=filled '
            f'fillcolor=lightcoral label="bug\\n{signature}"];'
        )
    for entry_id in sorted(log.records):
        rec = log.records[entry_id]
        if rec.parent_id is not None and rec.parent_id in log.records:
            lines.append(f'  "{rec.parent_id}" -> "{entry_id}";')
        if rec.superseded_by is not None and rec.superseded_by in log.records:
            lines.append(
                f'  "{entry_id}" -> "{rec.superseded_by}" '
                f'[style=dashed label="superseded"];'
            )
    for signature in sorted(log.bug_owner):
        owner = log.bug_owner[signature]
        if owner in log.records:
            lines.append(f'  "{owner}" -> "bug:{signature}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----- attribution table -----


def attribution_table(log: ProvenanceLog) -> list[dict]:
    """Per-``engine/slot`` earnings, sorted by key.

    ``dead_share`` is the fraction of that engine's mutations that
    earned no corpus entry — the budget a bandit scheduler would want
    back.  Seed rows spend no mutations, so their share is 0.
    """
    keys = set(log.mutations) | set(log.gainful)
    for rec in log.records.values():
        keys.add(f"{rec.engine}/{rec.slot}")
    entries: dict[str, int] = {}
    for rec in log.records.values():
        key = f"{rec.engine}/{rec.slot}"
        entries[key] = entries.get(key, 0) + 1
    edges: dict[str, int] = {}
    for owner in log.edge_owner.values():
        rec = log.records.get(owner)
        if rec is None:
            continue
        key = f"{rec.engine}/{rec.slot}"
        edges[key] = edges.get(key, 0) + 1
    bugs: dict[str, int] = {}
    for owner in log.bug_owner.values():
        rec = log.records.get(owner)
        if rec is None:
            continue
        key = f"{rec.engine}/{rec.slot}"
        bugs[key] = bugs.get(key, 0) + 1
    rows = []
    for key in sorted(keys):
        engine, _, slot = key.partition("/")
        spent = log.mutations.get(key, 0)
        earned = log.gainful.get(key, 0)
        rows.append({
            "engine": engine,
            "slot": slot,
            "mutations": spent,
            "entries": entries.get(key, 0),
            "edges": edges.get(key, 0),
            "bugs": bugs.get(key, 0),
            "dead_share": (
                round((spent - earned) / spent, 6) if spent else 0.0
            ),
        })
    return rows


def format_attribution(rows: list[dict]) -> str:
    lines = [
        "attribution by engine/slot (edges and bugs are first-cover)",
        "",
        f"  {'engine':<12} {'slot':<10} {'mutations':>10} {'entries':>8} "
        f"{'edges':>7} {'bugs':>5} {'dead_share':>11}",
    ]
    if not rows:
        lines.append("  (no lineage recorded)")
        return "\n".join(lines) + "\n"
    for row in rows:
        lines.append(
            f"  {row['engine']:<12} {row['slot']:<10} "
            f"{row['mutations']:>10} {row['entries']:>8} "
            f"{row['edges']:>7} {row['bugs']:>5} {row['dead_share']:>11.4f}"
        )
    return "\n".join(lines) + "\n"


# ----- coverage waterfall -----

# Seed roots a coverage waterfall keeps.
WATERFALL_ROWS = 20


def coverage_waterfall(log: ProvenanceLog) -> list[dict]:
    """Which seed ancestors carry the campaign's coverage.

    Every attributed edge is charged to the chain *root* of its owning
    entry; rows report how many edges, owning descendants, and bugs
    each root's subtree earned, deepest frontier included.  Only the
    ``WATERFALL_ROWS`` biggest roots are kept.
    """
    per_root: dict[str, dict] = {}

    def bucket(root: str) -> dict:
        row = per_root.get(root)
        if row is None:
            row = {"root": root, "edges": 0, "owners": set(), "bugs": 0,
                   "max_depth": 0}
            per_root[root] = row
        return row

    for owner in log.edge_owner.values():
        chain = log.chain(owner)
        if not chain:
            continue
        row = bucket(chain[0].entry_id)
        row["edges"] += 1
        row["owners"].add(owner)
        row["max_depth"] = max(row["max_depth"], len(chain))
    for owner in log.bug_owner.values():
        chain = log.chain(owner)
        if not chain:
            continue
        bucket(chain[0].entry_id)["bugs"] += 1
    rows = [
        {
            "root": row["root"],
            "edges": row["edges"],
            "owners": len(row["owners"]),
            "bugs": row["bugs"],
            "max_depth": row["max_depth"],
        }
        for row in per_root.values()
    ]
    rows.sort(key=lambda row: (-row["edges"], -row["bugs"], row["root"]))
    return rows[:WATERFALL_ROWS]


def format_waterfall(rows: list[dict]) -> str:
    lines = [
        "coverage waterfall (edges charged to each owning chain's seed root)",
        "",
        f"  {'root':<18} {'edges':>7} {'owners':>7} {'bugs':>5} "
        f"{'max_depth':>10}",
    ]
    if not rows:
        lines.append("  (no attributed coverage)")
        return "\n".join(lines) + "\n"
    for row in rows:
        lines.append(
            f"  {row['root']:<18} {row['edges']:>7} {row['owners']:>7} "
            f"{row['bugs']:>5} {row['max_depth']:>10}"
        )
    return "\n".join(lines) + "\n"


# ----- explain -----


def resolve_target(
    log: ProvenanceLog, target: str
) -> tuple[str, str, list[LineageRecord]]:
    """Resolve an explain target to ``(kind, resolved_id, chain)``.

    Targets: ``entry:<id>``, ``edge:<src>-<dst>``, ``bug:<signature>``,
    or a bare string tried as bug signature, then entry id, then edge
    key.  Raises ``KeyError`` when nothing resolves.
    """
    kind, _, rest = target.partition(":")
    if kind == "entry" and rest:
        if rest not in log.records:
            raise KeyError(f"no corpus entry {rest!r} in the lineage log")
        return "entry", rest, log.chain(rest)
    if kind == "edge" and rest:
        owner = log.edge_owner.get(rest)
        if owner is None:
            raise KeyError(f"edge {rest!r} has no attributed owner")
        return "edge", rest, log.chain(owner)
    if kind == "bug" and rest:
        owner = log.bug_owner.get(rest)
        if owner is None:
            raise KeyError(f"no bug {rest!r} in the lineage log")
        return "bug", rest, log.chain(owner)
    if target in log.bug_owner:
        return "bug", target, log.chain(log.bug_owner[target])
    if target in log.records:
        return "entry", target, log.chain(target)
    if target in log.edge_owner:
        return "edge", target, log.chain(log.edge_owner[target])
    raise KeyError(
        f"{target!r} is not a known bug, entry, or edge "
        f"(prefix with bug:/entry:/edge: to disambiguate)"
    )


def format_chain(
    kind: str, resolved: str, chain: list[LineageRecord]
) -> str:
    """The human-facing reproduction chain, root first."""
    lines = [f"{kind} {resolved}: reproduction chain ({len(chain)} steps)"]
    for depth, rec in enumerate(chain):
        extra = ""
        if rec.burst_id is not None:
            extra = (
                f" burst={rec.burst_id} predicted={rec.predicted}"
            )
        if rec.superseded_by is not None:
            extra += f" superseded_by={rec.superseded_by}"
        lines.append(
            f"  #{depth} {rec.entry_id}  {rec.engine}/{rec.slot} "
            f"{rec.operator}  gain={rec.gain} t={rec.time:.0f} "
            f"w{rec.worker}{extra}"
        )
    if not chain:
        lines.append("  (empty chain)")
    return "\n".join(lines) + "\n"
