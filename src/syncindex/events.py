"""Event ingestion: parse raw post/interaction records, filter, and canonicalize.

Input is line-delimited JSON (canonical) or CSV with the same column names
(list fields pipe-delimited). Timestamps are normalized to UTC epoch seconds
at parse time; sub-second precision is dropped (rounded down).
"""

from __future__ import annotations

import csv
import json
import logging
import math
import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence
from urllib.parse import urlsplit, urlunsplit

logger = logging.getLogger(__name__)

POST_TYPES = ("original", "retweet", "quote", "reply")
INTERACTION_TYPES = ("retweet", "quote", "mention", "reply")
ACTION_TYPES = ("hashtag", "url", "mention")

# 9999-12-31T23:59:59Z, the last second a four-digit ISO-8601 year can name.
# Every timestamp path accepts 0 to MAX_TIMESTAMP, after rounding down.
MAX_TIMESTAMP = 253_402_300_799
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)

# Characters XML 1.0 cannot carry, even escaped: C0 controls other than tab,
# newline and carriage return, surrogates, U+FFFE and U+FFFF. None of them
# is printable.
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class CorpusRejectedError(ValueError):
    """More than half of the input lines were malformed."""


class ArtifactError(ValueError):
    """Raw artifact cannot be canonicalized."""


@dataclass(frozen=True)
class PostEvent:
    """One authored post with its extracted action artifacts (raw strings)."""

    post_id: str
    user_id: str
    timestamp: int
    post_type: str
    lang: str | None = None
    hashtags: frozenset[str] = frozenset()
    urls: frozenset[str] = frozenset()
    mentions: frozenset[str] = frozenset()


@dataclass(frozen=True)
class InteractionRecord:
    source_user: str
    target_user: str
    interaction_type: str
    timestamp: int


@dataclass(frozen=True)
class ActionRecord:
    """A single canonicalized action taken by a user at a point in time."""

    user_id: str
    timestamp: int
    action_type: str
    artifact_id: str


@dataclass(frozen=True)
class EventDataset:
    """Immutable parsed dataset; posts sorted by timestamp ascending."""

    posts: tuple[PostEvent, ...] = ()
    interactions: tuple[InteractionRecord, ...] = ()
    label: str = ""
    malformed: int = field(default=0, compare=False)


def _coerce_timestamp(value: object) -> int:
    """Accept epoch seconds (int/float/int-string) or ISO-8601; return UTC epoch
    seconds, rounded down, in [0, MAX_TIMESTAMP]."""
    if isinstance(value, bool):
        raise ValueError("timestamp must be a number or ISO-8601 string")
    if isinstance(value, int):
        ts = value
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite timestamp: {value!r}")
        ts = math.floor(value)
    elif isinstance(value, str):
        text = value.strip()
        if not text:
            raise ValueError("empty timestamp")
        try:
            ts = int(text)
        except ValueError:
            dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=timezone.utc)
            ts = (dt - _EPOCH) // _SECOND
    else:
        raise ValueError(f"bad timestamp type: {type(value).__name__}")
    if ts < 0:
        raise ValueError("timestamp before epoch")
    if ts > MAX_TIMESTAMP:
        raise ValueError("timestamp after 9999-12-31T23:59:59Z")
    return ts


def _valid_str(value: str, name: str) -> str:
    """value, stripped; a character XML 1.0 forbids is malformed.

    That covers control characters such as "\\x01" and lone surrogates (a
    JSON escape such as "\\ud800"), which no export could carry.
    """
    if _xml_forbidden(value):
        raise ValueError(f"{name} holds a character XML 1.0 forbids")
    return value.strip()


def _xml_forbidden(text: str) -> bool:
    """True when text holds a character XML 1.0 forbids."""
    return not text.isprintable() and _XML_FORBIDDEN.search(text) is not None


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> Path:
    """A stage table: the header row, then the rows, in the csv module's default
    dialect (minimal quoting, "\\r\\n" line ends)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def read_csv(
    path: str | Path, columns: Sequence[str], ids: Iterable[str] = ()
) -> Iterator[tuple[int, tuple[str, ...]]]:
    """(line, cells of columns in order) for each row of a stage table; blank
    rows and extra cells are skipped.

    ValueError naming the file, and the line for a row problem, when the
    header lacks one of columns, a row has fewer cells than the header, a
    cell is too large for the csv module, or an ids column holds a character
    XML 1.0 forbids (no GraphML export could carry it). Bytes that are not
    UTF-8 are read as lone surrogates, so they fail the check of their cell.
    """
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            position = {name: i for i, name in enumerate(header)}
            missing = [name for name in columns if name not in position]
            if missing:
                raise ValueError(f"{path}: line 1: header lacks column {missing[0]}")
            wanted = [position[name] for name in columns]
            checked = [(name, position[name]) for name in ids]
            for cells in reader:
                line = reader.line_num
                if not cells:
                    continue
                if len(cells) < len(header):
                    raise ValueError(f"{path}: line {line}: {len(cells)} cells, header has {len(header)}")
                for name, i in checked:
                    if _xml_forbidden(cells[i]):
                        raise ValueError(f"{path}: line {line}: {name} holds a character XML 1.0 forbids")
                yield line, tuple([cells[i] for i in wanted])
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc


def dict_rows(handle: Iterable[str]) -> tuple[list[str], Iterator[dict | None]]:
    """(header, rows) of a CSV with a header row, rows as csv.DictReader gives
    them. A row the csv module cannot read (a cell over its field limit) is
    None, and reading resumes at the next row; ValueError when the header
    cannot be read."""
    reader = csv.DictReader(handle)
    try:
        header = reader.fieldnames or []
    except csv.Error as exc:
        raise ValueError(f"CSV header: {exc}") from exc

    def rows() -> Iterator[dict | None]:
        while True:
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error:
                row = None
            yield row

    return header, rows()


def write_json(path: str | Path, obj: object) -> Path:
    """obj as JSON with sorted keys, indented by 2, ending in a newline."""
    path = Path(path)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _required_str(obj: dict, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value.strip():
        raise ValueError(f"missing or empty field: {key}")
    return _valid_str(value, key)


def _artifact_set(value: object) -> frozenset[str]:
    if value is None or value == "":
        return frozenset()
    if not isinstance(value, (list, tuple, set, frozenset)):
        raise ValueError("artifact field must be a list")
    cleaned = set()
    for item in value:
        if not isinstance(item, str):
            raise ValueError("artifact entries must be strings")
        item = _valid_str(item, "artifact")
        if item:
            cleaned.add(item)
    return frozenset(cleaned)


def _post_from_mapping(obj: dict) -> PostEvent:
    post_type = _required_str(obj, "post_type")
    if post_type not in POST_TYPES:
        raise ValueError(f"unknown post_type: {post_type}")
    lang = obj.get("lang")
    if lang is not None:
        if not isinstance(lang, str):
            raise ValueError("lang must be a string")
        lang = _valid_str(lang, "lang").lower() or None
    return PostEvent(
        post_id=_required_str(obj, "post_id"),
        user_id=_required_str(obj, "user_id"),
        timestamp=_coerce_timestamp(obj["timestamp"]),
        post_type=post_type,
        lang=lang,
        hashtags=_artifact_set(obj.get("hashtags")),
        urls=_artifact_set(obj.get("urls")),
        mentions=_artifact_set(obj.get("mentions")),
    )


def _interaction_from_mapping(obj: dict) -> InteractionRecord | None:
    """Returns None for self-interactions, which are dropped (not malformed)."""
    interaction_type = _required_str(obj, "interaction_type")
    if interaction_type not in INTERACTION_TYPES:
        raise ValueError(f"unknown interaction_type: {interaction_type}")
    source = _required_str(obj, "source_user")
    target = _required_str(obj, "target_user")
    if source == target:
        return None
    return InteractionRecord(
        source_user=source,
        target_user=target,
        interaction_type=interaction_type,
        timestamp=_coerce_timestamp(obj["timestamp"]),
    )


def _undecodable(text: str) -> bool:
    """True when text holds bytes that were not UTF-8.

    Files are read with errors="surrogateescape", which maps each such byte
    to a lone surrogate; only a lone surrogate fails to encode.
    """
    if text.isascii():
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _csv_row_to_mapping(row: dict) -> dict | None:
    """Translate a CSV row to the JSONL record shape (pipe-delimited lists).

    None when a cell, extra cells included, is not valid UTF-8.
    """
    obj: dict = {k: v for k, v in row.items() if k is not None and v not in (None, "")}
    if _undecodable("".join([*obj.values(), *(row.get(None) or ())])):
        return None
    for key in ("hashtags", "urls", "mentions"):
        if key in obj:
            obj[key] = [part for part in obj[key].split("|") if part]
    return obj


def parse_events(
    stream: Iterable[str] | Iterable[dict],
    format: str = "jsonl",
    label: str = "",
) -> EventDataset:
    """Parse line-delimited records into an EventDataset.

    Malformed lines are counted and skipped; duplicated post ids count as
    malformed, as do CSV rows holding a cell over the csv module's field
    limit, lines that are not valid UTF-8 (lone surrogates, as
    read_events_file decodes them), lines whose timestamp lies outside
    [0, MAX_TIMESTAMP], and lines whose id, type, artifact or lang string
    holds a character XML 1.0 forbids (a control character such as "\\x01",
    a lone surrogate such as the JSON escape "\\ud800", U+FFFE or U+FFFF).
    Raises CorpusRejectedError when more than half of the non-blank lines
    are malformed.
    """
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown format: {format}")

    posts: list[PostEvent] = []
    interactions: list[InteractionRecord] = []
    seen_post_ids: set[str] = set()
    malformed = 0
    dropped_self = 0
    total = 0

    if format == "csv":
        records: Iterator[dict | None] = (
            None if row is None else _csv_row_to_mapping(row) for row in dict_rows(stream)[1]
        )
    else:
        records = _iter_jsonl(stream)

    for obj in records:
        total += 1
        if obj is None:
            malformed += 1
            continue
        try:
            if "source_user" in obj or "target_user" in obj:
                record = _interaction_from_mapping(obj)
                if record is None:
                    dropped_self += 1
                else:
                    interactions.append(record)
            else:
                post = _post_from_mapping(obj)
                if post.post_id in seen_post_ids:
                    raise ValueError(f"duplicate post_id: {post.post_id}")
                seen_post_ids.add(post.post_id)
                posts.append(post)
        except (ValueError, KeyError, TypeError):
            malformed += 1

    if total and malformed * 2 > total:
        raise CorpusRejectedError(f"{malformed} of {total} lines malformed")
    if dropped_self:
        logger.warning("dropped %d self-interaction records", dropped_self)

    posts.sort(key=lambda p: (p.timestamp, p.post_id))
    interactions.sort(key=lambda r: (r.timestamp, r.source_user, r.target_user, r.interaction_type))
    return EventDataset(
        posts=tuple(posts),
        interactions=tuple(interactions),
        label=label,
        malformed=malformed,
    )


def _iter_jsonl(stream: Iterable[str]) -> Iterator[dict | None]:
    for line in stream:
        line = line.strip()
        if not line:
            continue
        if _undecodable(line):
            yield None
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):  # bad JSON, too-deep nesting, too many int digits
            yield None
            continue
        yield obj if isinstance(obj, dict) else None


def filter_originals(dataset: EventDataset) -> EventDataset:
    """Keep only posts authored as originals; interactions are untouched."""
    kept = tuple(p for p in dataset.posts if p.post_type == "original")
    return replace(dataset, posts=kept)


def filter_language(dataset: EventDataset, lang: str) -> EventDataset:
    """Keep posts whose provided language tag matches; empty code disables the filter.

    No language detection is performed; posts without a tag are removed.
    """
    code = lang.strip().lower()
    if not code:
        return dataset
    if dataset.posts and not any(p.lang for p in dataset.posts):
        logger.warning("language filter %r removed all posts: no post carries a lang tag", code)
    kept = tuple(p for p in dataset.posts if p.lang == code)
    return replace(dataset, posts=kept)


def canonicalize_artifact(action_type: str, raw: str) -> str:
    """Reduce a raw artifact to its canonical id. Idempotent.

    hashtag/mention: leading marker stripped, lowercased. url: scheme and
    host lowercased, fragment removed, trailing slash removed, path and
    query otherwise preserved byte-exact.
    """
    if raw is None or not raw.strip():
        raise ArtifactError("artifact is empty or whitespace-only")
    text = raw.strip()
    if action_type == "hashtag":
        canon = text.lstrip("#").lower()
    elif action_type == "mention":
        canon = text.lstrip("@").lower()
    elif action_type == "url":
        parts = urlsplit(text)
        canon = urlunsplit(
            (parts.scheme.lower(), parts.netloc.lower(), parts.path.rstrip("/"), parts.query, "")
        )
    else:
        raise ArtifactError(f"unknown action type: {action_type}")
    if not canon:
        raise ArtifactError(f"artifact reduces to nothing: {raw!r}")
    return canon


def extract_actions(dataset: EventDataset) -> list[ActionRecord]:
    """One ActionRecord per (post, action type, distinct canonical artifact).

    Duplicates of the same artifact within one post emit a single record.
    Expects the dataset to be filtered to original posts already. Rejected
    artifacts are counted per action type and logged in one summary line.
    """
    records: list[ActionRecord] = []
    rejected = dict.fromkeys(ACTION_TYPES, 0)
    for post in dataset.posts:
        for action_type, raws in (
            ("hashtag", post.hashtags),
            ("url", post.urls),
            ("mention", post.mentions),
        ):
            canons = set()
            for raw in raws:
                try:
                    canons.add(canonicalize_artifact(action_type, raw))
                except ArtifactError:
                    rejected[action_type] += 1
            for artifact_id in sorted(canons):
                records.append(
                    ActionRecord(
                        user_id=post.user_id,
                        timestamp=post.timestamp,
                        action_type=action_type,
                        artifact_id=artifact_id,
                    )
                )
    if any(rejected.values()):
        logger.warning(
            "rejected %d artifacts (%s)",
            sum(rejected.values()),
            ", ".join(f"{kind} {count}" for kind, count in rejected.items() if count),
        )
    return records


def post_record(post: PostEvent) -> dict:
    obj = {
        "post_id": post.post_id,
        "user_id": post.user_id,
        "timestamp": post.timestamp,
        "post_type": post.post_type,
        "hashtags": sorted(post.hashtags),
        "urls": sorted(post.urls),
        "mentions": sorted(post.mentions),
    }
    if post.lang is not None:
        obj["lang"] = post.lang
    return obj


def interaction_record(rec: InteractionRecord) -> dict:
    return {
        "source_user": rec.source_user,
        "target_user": rec.target_user,
        "interaction_type": rec.interaction_type,
        "timestamp": rec.timestamp,
    }


def dataset_lines(dataset: EventDataset) -> Iterator[str]:
    """Canonical JSONL serialization: posts then interactions, sorted keys."""
    for post in dataset.posts:
        yield json.dumps(post_record(post), sort_keys=True, separators=(",", ":"))
    for rec in dataset.interactions:
        yield json.dumps(interaction_record(rec), sort_keys=True, separators=(",", ":"))


def write_events_jsonl(dataset: EventDataset, path: str | Path) -> Path:
    path = Path(path)
    lines = list(dataset_lines(dataset))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


def read_events_file(path: str | Path, format: str | None = None, label: str = "") -> EventDataset:
    """Parse an events file; format inferred from the suffix unless given.

    A line that is not valid UTF-8 is one malformed line, not a rejected file.
    """
    path = Path(path)
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        return parse_events(handle, format=format, label=label or path.stem)


def load_events(
    events_path: str | Path,
    interactions_path: str | Path | None = None,
    lang: str = "",
    label: str = "",
) -> EventDataset:
    """Read an events file, merge an optional interactions file, filter by language."""
    dataset = read_events_file(events_path, label=label)
    if interactions_path is not None:
        dataset = merge_datasets(dataset, read_events_file(interactions_path), label=dataset.label)
    return filter_language(dataset, lang)


def merge_datasets(*datasets: EventDataset, label: str = "") -> EventDataset:
    """Combine datasets (e.g. separate post and interaction files) into one."""
    posts = sorted(
        (p for d in datasets for p in d.posts), key=lambda p: (p.timestamp, p.post_id)
    )
    interactions = sorted(
        (r for d in datasets for r in d.interactions),
        key=lambda r: (r.timestamp, r.source_user, r.target_user, r.interaction_type),
    )
    return EventDataset(
        posts=tuple(posts),
        interactions=tuple(interactions),
        label=label or (datasets[0].label if datasets else ""),
        malformed=sum(d.malformed for d in datasets),
    )
