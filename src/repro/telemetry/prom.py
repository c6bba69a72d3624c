"""Prometheus text exposition (format v0.0.4) for recorder snapshots.

:func:`render` maps a :meth:`MetricsRecorder.snapshot
<repro.telemetry.recorder.MetricsRecorder.snapshot>` to the Prometheus
text format: counters become counters (``_total`` suffix), gauges become
gauges, and stage timers become native Prometheus histograms — the
recorder's fixed power-of-two buckets translate directly to cumulative
``_bucket{le="..."}`` series, plus ``_sum``/``_count``.  Every metric is
namespaced ``mdz_`` and dotted names flatten to underscores, so
``sz.huffman.encode`` scrapes as ``mdz_sz_huffman_encode_seconds``.

:func:`parse` is the matching miniature parser: enough of the format to
validate our own exposition in CI and to drive ``mdz top`` — it is not a
general Prometheus client.  :func:`validate` wraps it with structural
checks (TYPE declarations, cumulative histogram buckets, ``+Inf`` bucket
equal to ``_count``) and raises :class:`ValueError` on any violation.
:func:`histogram` turns a parsed histogram family back into the
:class:`~repro.telemetry.histogram.Histogram` it was rendered from, so a
scrape's quantiles come from the same estimator as the snapshot's.

No third-party dependency is involved on either side; both halves are
plain string processing over the documented line format.
"""

from __future__ import annotations

import math
import re

from .histogram import TIMER_BUCKETS, Histogram

#: Prefix applied to every exported metric family.
NAMESPACE = "mdz"

#: Bucket index of each ``le`` edge :func:`render` writes (``+Inf`` is
#: the overflow bucket).
_LE_INDEX = {le: index for index, le in enumerate(TIMER_BUCKETS + (math.inf,))}

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<ts>-?\d+))?\s*$"
)
_LABEL = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def metric_name(name: str, suffix: str = "") -> str:
    """Flatten a dotted recorder name into a Prometheus family name.

    Non-alphanumeric characters become underscores and the ``mdz``
    namespace is prepended; placeholder segments survive as plain
    underscores so derived names stay valid.
    """
    flat = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    return f"{NAMESPACE}_{flat}{suffix}"


def _fmt(value: float) -> str:
    """Sample-value formatting: integral floats print as integers."""
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _labelset(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _collect_families(
    snapshot: dict, labels: dict | None, families: dict[str, dict]
) -> None:
    """Fold one snapshot's samples into the family table."""

    def family(name: str, kind: str) -> list:
        entry = families.setdefault(name, {"type": kind, "lines": []})
        if entry["type"] != kind:
            raise ValueError(
                f"metric family {name!r} declared both as "
                f"{entry['type']} and {kind}"
            )
        return entry["lines"]

    tags = _labelset(labels)
    for name, value in snapshot.get("counters", {}).items():
        fam = metric_name(name, "_total")
        family(fam, "counter").append(f"{fam}{tags} {_fmt(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        fam = metric_name(name)
        family(fam, "gauge").append(f"{fam}{tags} {_fmt(value)}")
        age = snapshot.get("gauge_age_seconds", {}).get(name)
        if age is not None:
            stale = metric_name(name, "_age_seconds")
            family(stale, "gauge").append(f"{stale}{tags} {_fmt(age)}")
    for name, view in snapshot.get("timers", {}).items():
        fam = metric_name(name, "_seconds")
        lines = family(fam, "histogram")
        hist = Histogram.from_json(view)
        cum = 0
        for index, edge in enumerate(TIMER_BUCKETS):
            cum += hist.buckets.get(index, 0)
            le = _labelset({**(labels or {}), "le": _fmt(edge)})
            lines.append(f"{fam}_bucket{le} {cum}")
        le = _labelset({**(labels or {}), "le": "+Inf"})
        lines.append(f"{fam}_bucket{le} {hist.count}")
        lines.append(f"{fam}_sum{tags} {_fmt(hist.seconds)}")
        lines.append(f"{fam}_count{tags} {hist.count}")


def render_many(parts: list[tuple[dict, dict | None]]) -> str:
    """Several labeled snapshots as one valid exposition.

    ``parts`` is a list of ``(snapshot, labels)`` pairs — e.g. the
    server-wide recorder unlabeled plus one part per live session
    labeled ``{"session": token}``.  Samples group under a single
    ``# TYPE`` declaration per family (the format forbids repeating
    one), which is why this cannot be done by concatenating
    :func:`render` outputs.
    """
    families: dict[str, dict] = {}
    for snapshot, labels in parts:
        _collect_families(snapshot, labels, families)
    lines: list[str] = []
    for name in sorted(families):
        entry = families[name]
        lines.append(f"# TYPE {name} {entry['type']}")
        lines.extend(entry["lines"])
    return "\n".join(lines) + "\n"


def render(snapshot: dict, labels: dict | None = None) -> str:
    """One recorder snapshot as Prometheus text-format families.

    ``labels`` are stamped on every sample (e.g. ``{"session": token}``
    for per-tenant series).  Families are emitted sorted by name, each
    preceded by its ``# TYPE`` declaration.
    """
    return render_many([(snapshot, labels)])


# -- parsing / validation -------------------------------------------------


def _parse_labels(raw: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(raw):
        match = _LABEL.match(raw, pos)
        if match is None:
            raise ValueError(f"malformed label set: {raw!r}")
        value = match.group("value")
        value = (
            value.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\")
        )
        labels[match.group("key")] = value
        pos = match.end()
    return labels


def _parse_value(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"malformed sample value: {raw!r}") from None


def parse(text: str) -> dict[str, dict]:
    """Parse Prometheus text format into families.

    Returns ``{family: {"type": str | None, "samples": [(name, labels,
    value), ...]}}`` where histogram child series (``_bucket``/``_sum``/
    ``_count``) group under their declared family name.  Raises
    :class:`ValueError` on lines that fit neither a comment, a sample,
    nor blank.
    """
    families: dict[str, dict] = {}
    declared: dict[str, str] = {}

    def family_for(sample: str) -> str:
        for base, kind in declared.items():
            if kind == "histogram" and sample in (
                f"{base}_bucket", f"{base}_sum", f"{base}_count"
            ):
                return base
        return sample

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) < 4:
                    raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
                name, kind = parts[2], parts[3].strip()
                if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    raise ValueError(
                        f"line {lineno}: unknown metric type {kind!r}"
                    )
                if name in declared:
                    raise ValueError(
                        f"line {lineno}: duplicate TYPE for {name!r}"
                    )
                declared[name] = kind
                families.setdefault(name, {"type": kind, "samples": []})
                families[name]["type"] = kind
            continue  # HELP and other comments pass through
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: unparseable sample: {line!r}")
        name = match.group("name")
        if not _NAME_OK.match(name):
            raise ValueError(f"line {lineno}: bad metric name {name!r}")
        labels = _parse_labels(match.group("labels") or "")
        value = _parse_value(match.group("value"))
        family = family_for(name)
        entry = families.setdefault(family, {"type": None, "samples": []})
        entry["samples"].append((name, labels, value))
    return families


def validate(text: str) -> dict[str, dict]:
    """Parse and structurally validate an exposition; returns families.

    Beyond :func:`parse`, checks that every sample belongs to a declared
    family and that each histogram's buckets are cumulative with a
    ``+Inf`` bucket equal to its ``_count``.
    """
    families = parse(text)
    for family, entry in families.items():
        kind = entry["type"]
        if kind is None:
            raise ValueError(f"{family}: samples without a TYPE declaration")
        if kind != "histogram":
            continue
        # Group histogram children by their non-`le` label set.
        series: dict[tuple, dict] = {}
        for name, labels, value in entry["samples"]:
            key = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"
            ))
            slot = series.setdefault(key, {"buckets": [], "sum": None, "count": None})
            if name == f"{family}_bucket":
                if "le" not in labels:
                    raise ValueError(f"{family}: bucket sample without le label")
                slot["buckets"].append((float(labels["le"]), value))
            elif name == f"{family}_sum":
                slot["sum"] = value
            elif name == f"{family}_count":
                slot["count"] = value
            else:
                raise ValueError(f"{family}: unexpected child sample {name!r}")
        for key, slot in series.items():
            buckets = sorted(slot["buckets"])
            if not buckets or not math.isinf(buckets[-1][0]):
                raise ValueError(f"{family}{dict(key)}: histogram lacks +Inf bucket")
            counts = [n for _, n in buckets]
            if any(b > a for b, a in zip(counts, counts[1:])):
                raise ValueError(f"{family}{dict(key)}: buckets not cumulative")
            if slot["count"] is None or slot["sum"] is None:
                raise ValueError(f"{family}{dict(key)}: missing _sum/_count")
            if counts[-1] != slot["count"]:
                raise ValueError(
                    f"{family}{dict(key)}: +Inf bucket != _count "
                    f"({counts[-1]} != {slot['count']})"
                )
    return families


def histogram(entry: dict) -> Histogram:
    """One parsed histogram family as a :class:`Histogram` on our grid.

    ``entry`` is one :func:`parse` family whose ``le`` edges are
    :data:`TIMER_BUCKETS`, as :func:`render` writes them.  Every series
    of the family adds, because histogram series add: cumulative bucket
    counts and ``_sum`` are summed across label sets, then differenced
    into per-bucket counts, and ``count`` is the ``+Inf`` total.  A
    scrape carries no extrema, so quantiles of the result are not
    clamped.  Raises :class:`ValueError` for a bucket off that grid.
    """
    hist = Histogram()
    cumulative: dict[int, int] = {}
    for name, labels, value in entry.get("samples", []):
        if name.endswith("_bucket"):
            index = _LE_INDEX.get(float(labels.get("le", "nan")))
            if index is None:
                raise ValueError(f"{name}: le={labels.get('le')!r} is not "
                                 "a TIMER_BUCKETS edge")
            cumulative[index] = cumulative.get(index, 0) + int(value)
        elif name.endswith("_sum"):
            hist.seconds += value
    below = 0
    for index in sorted(cumulative):
        if cumulative[index] > below:
            hist.buckets[index] = cumulative[index] - below
        below = cumulative[index]
    hist.count = below
    return hist
