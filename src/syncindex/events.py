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
from datetime import datetime
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO
from urllib.parse import urlsplit, urlunsplit

logger = logging.getLogger(__name__)

POST_TYPES = ("original", "retweet", "quote", "reply")
INTERACTION_TYPES = ("retweet", "quote", "mention", "reply")
ACTION_TYPES = ("hashtag", "url", "mention")

# 9999-12-31T23:59:59Z, the last second a four-digit ISO-8601 year can name.
# Every timestamp path accepts 0 to MAX_TIMESTAMP, after rounding down.
MAX_TIMESTAMP = 253_402_300_799
_EPOCH = datetime(1970, 1, 1)

# The one ISO-8601 grammar, the same on every Python (fromisoformat takes
# more forms from 3.11 on): YYYY-MM-DD; then, optionally, any one character
# and hh[:mm[:ss[.fraction]]], the fraction's mark a point or a comma; then,
# optionally, a space and an offset: Z, or + or - with hh, hhmm, hh:mm,
# hh:mm:ss or hh:mm:ss.fraction. A fraction has one digit or more, and is
# dropped. No offset is UTC. Group 1, the date and time without the
# fraction, is a form fromisoformat reads alike on every version.
_ISO_8601 = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2}(?:.[0-9]{2}(?::[0-9]{2}(?::([0-9]{2}))?)?)?)"
    r"(?(2)(?:[.,][0-9]+)?)"  # a fraction only after the seconds
    r" ?(?:Z|([+-])([01][0-9]|2[0-3])(?:([0-5][0-9])|:([0-5][0-9])(?::([0-5][0-9])(?:\.[0-9]+)?)?)?)?",
    re.DOTALL,
)

# Characters XML 1.0 cannot carry, even escaped: C0 controls other than tab,
# newline and carriage return, surrogates, U+FFFE and U+FFFF. None of them
# is printable.
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

_decode_json = json.JSONDecoder().raw_decode
_NO_ARTIFACTS: frozenset[str] = frozenset()


class CorpusRejectedError(ValueError):
    """More than half of the input lines were malformed."""


class ArtifactError(ValueError):
    """Raw artifact cannot be canonicalized."""


class PostEvent(NamedTuple):
    """One authored post with its extracted action artifacts (raw strings)."""

    post_id: str
    user_id: str
    timestamp: int
    post_type: str
    lang: str | None = None
    hashtags: frozenset[str] = frozenset()
    urls: frozenset[str] = frozenset()
    mentions: frozenset[str] = frozenset()


class InteractionRecord(NamedTuple):
    source_user: str
    target_user: str
    interaction_type: str
    timestamp: int


class ActionRecord(NamedTuple):
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
    malformed: int = field(default=0, compare=False)


def _iso_8601_seconds(text: str) -> int:
    """Epoch seconds of text in the _ISO_8601 grammar."""
    match = _ISO_8601.fullmatch(text)
    if match is None:
        raise ValueError(f"not an ISO-8601 timestamp: {text!r}")
    local, _, sign, hours, minutes, ext_minutes, seconds = match.groups()
    since = datetime.fromisoformat(local) - _EPOCH  # days, then seconds in [0, 86400)
    ts = since.days * 86_400 + since.seconds
    if sign:
        offset = int(hours) * 3_600 + int(minutes or ext_minutes or 0) * 60 + int(seconds or 0)
        ts += offset if sign == "-" else -offset
    return ts


def parse_integer(text: str) -> int | None:
    """The integer text spells, surrounding whitespace aside, as an optional
    ASCII sign and ASCII digits; None for any other text (int() also takes
    underscores and non-ASCII digits) and for more digits than int() converts."""
    text = text.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past int()'s digit limit
            pass
    return None


def parse_float(text: str) -> float | None:
    """The finite float text spells, surrounding whitespace aside, as an
    optional ASCII sign and ASCII digits with an optional point and exponent,
    which covers every repr of a finite float; None for any other text (float()
    also takes underscores, non-ASCII digits, nan and infinity)."""
    text = text.strip()
    if text.isascii() and "_" not in text:
        try:
            value = float(text)
        except ValueError:
            return None
        return value if math.isfinite(value) else None
    return None


def _coerce_timestamp(value: object) -> int:
    """Accept epoch seconds (int/float/int-string) or ISO-8601; return UTC epoch
    seconds, rounded down, in [0, MAX_TIMESTAMP]."""
    if value.__class__ is int and 0 <= value <= MAX_TIMESTAMP:
        return value
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
        ts = parse_integer(text)
        if ts is None:
            ts = _iso_8601_seconds(text)
    else:
        raise ValueError(f"bad timestamp type: {type(value).__name__}")
    if ts < 0:
        raise ValueError("timestamp before epoch")
    if ts > MAX_TIMESTAMP:
        raise ValueError("timestamp after 9999-12-31T23:59:59Z")
    return ts


def _xml_forbidden(text: str) -> bool:
    """True when text holds a character XML 1.0 forbids."""
    return not text.isprintable() and _XML_FORBIDDEN.search(text) is not None


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> Path:
    """A stage table: the header row, then the rows, in the csv module's default
    dialect (minimal quoting, "\\r\\n" line ends), which writes a float as its
    shortest round-trip repr and None as an empty cell."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def open_input(path: str | Path) -> TextIO:
    """A text input file opened for reading as UTF-8: a byte order mark at its
    start is skipped, each byte that is not UTF-8 is read as a lone surrogate
    (which fails the check of its line, row or cell, not the whole file), and
    line ends are left for the csv module to read."""
    return Path(path).open("r", encoding="utf-8-sig", errors="surrogateescape", newline="")


def read_csv(
    path: str | Path, columns: Sequence[str], ids: Iterable[str] = ()
) -> Iterator[tuple[int, tuple[str, ...]]]:
    """(line, cells of columns in order) for each row of a stage table, as
    csv_rows reads it; extra cells are skipped.

    ValueError naming the file, and the line for a row problem, when the
    header lacks one of columns, a row has fewer cells than the header, the
    csv module cannot read the header or a row, or an ids column holds a
    character XML 1.0 forbids (no GraphML export could carry it). Bytes that
    are not UTF-8 are read as lone surrogates (see open_input), so they fail
    the check of their cell.
    """
    with open_input(path) as handle:
        try:
            header, position, rows = csv_rows(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: line 1: {exc.__cause__}") from exc
        missing = [name for name in columns if name not in position]
        if missing:
            raise ValueError(f"{path}: line 1: header lacks column {missing[0]}")
        wanted = [position[name] for name in columns]
        checked = [(name, position[name]) for name in ids]
        for line, cells in rows:
            if isinstance(cells, csv.Error):
                raise ValueError(f"{path}: line {line}: {cells}") from cells
            if len(cells) < len(header):
                raise ValueError(f"{path}: line {line}: {len(cells)} cells, header has {len(header)}")
            for name, i in checked:
                if _xml_forbidden(cells[i]):
                    raise ValueError(f"{path}: line {line}: {name} holds a character XML 1.0 forbids")
            yield line, tuple([cells[i] for i in wanted])


def csv_rows(
    handle: Iterable[str],
) -> tuple[list[str], dict[str, int], Iterator[tuple[int, list[str] | csv.Error]]]:
    """(header, name -> column, rows) of a CSV with a header row, the one
    reader of every CSV input: a repeated name maps to its last column, and
    each non-blank row is (its last line, its cells), or (line, the csv.Error)
    when the csv module cannot read it (a cell over its field limit; on Python
    3.10 a NUL byte), reading on at the next line. ValueError, caused by the
    csv.Error, when the header cannot be read."""
    reader = csv.reader(handle)
    try:
        header = next(reader, [])
    except csv.Error as exc:
        raise ValueError(f"CSV header: {exc}") from exc

    def rows() -> Iterator[tuple[int, list[str] | csv.Error]]:
        while True:
            try:
                cells = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                yield reader.line_num, exc
                continue
            if cells:
                yield reader.line_num, cells

    return header, {name: i for i, name in enumerate(header)}, rows()


def write_json(path: str | Path, obj: object) -> Path:
    """obj as JSON with sorted keys, indented by 2, ending in a newline;
    ValueError for a NaN or infinite float, which JSON cannot carry."""
    path = Path(path)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    return path


def _artifact_set(value: object) -> frozenset[str]:
    """The stripped, non-empty entries of a list field; None or "" is empty.
    ValueError for any other value, TypeError for an entry that is not a string."""
    if value.__class__ is not list:
        if value is None or value == "":
            return _NO_ARTIFACTS
        raise ValueError("artifact field must be a list")
    if not value:
        return _NO_ARTIFACTS
    cleaned = frozenset(map(str.strip, value))
    return cleaned - {""} if "" in cleaned else cleaned


def _post(fields: tuple, check: bool) -> PostEvent:
    """The post of one record's raw field values, in PostEvent order with None
    for an absent field; ValueError or TypeError when the record is malformed.

    check is False when the raw line cannot hold a character XML 1.0 forbids;
    otherwise the strings read here are searched for one.
    """
    post_id, user_id, timestamp, post_type, lang, hashtags, urls, mentions = fields
    kind = post_type
    if kind not in POST_TYPES:
        if not isinstance(kind, str) or kind.strip() not in POST_TYPES:
            raise ValueError(f"unknown post_type: {post_type!r}")
        kind = kind.strip()
    if not (isinstance(post_id, str) and isinstance(user_id, str)):
        raise ValueError("post_id and user_id must be strings")
    code = None
    if lang is not None:
        if not isinstance(lang, str):
            raise ValueError("lang must be a string")
        code = lang.strip().lower() or None
    post = PostEvent(
        post_id.strip(),
        user_id.strip(),
        _coerce_timestamp(timestamp),
        kind,
        code,
        _artifact_set(hashtags),
        _artifact_set(urls),
        _artifact_set(mentions),
    )
    if not (post.post_id and post.user_id):
        raise ValueError("empty post_id or user_id")
    if check and _xml_forbidden(
        "".join([post_type, post_id, user_id, lang or "", *(hashtags or ()), *(urls or ()), *(mentions or ())])
    ):
        raise ValueError("a field holds a character XML 1.0 forbids")
    return post


def _interaction(fields: tuple, check: bool) -> InteractionRecord | None:
    """The interaction of one record's raw field values, in InteractionRecord
    order, as _post reads a post; None for a self-interaction, which is
    dropped, not malformed."""
    source, target, interaction_type, timestamp = fields
    kind = interaction_type
    if kind not in INTERACTION_TYPES:
        if not isinstance(kind, str) or kind.strip() not in INTERACTION_TYPES:
            raise ValueError(f"unknown interaction_type: {interaction_type!r}")
        kind = kind.strip()
    if not (isinstance(source, str) and isinstance(target, str)):
        raise ValueError("source_user and target_user must be strings")
    source_user, target_user = source.strip(), target.strip()
    if not (source_user and target_user):
        raise ValueError("empty source_user or target_user")
    if check and _xml_forbidden(interaction_type + source + target):
        raise ValueError("a field holds a character XML 1.0 forbids")
    if source_user == target_user:
        return None
    return InteractionRecord(source_user, target_user, kind, _coerce_timestamp(timestamp))


def _undecodable(text: str) -> bool:
    """True when text holds bytes that were not UTF-8.

    open_input maps each such byte to a lone surrogate, as Python does for
    argv; only a lone surrogate fails to encode.
    """
    if text.isascii():
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


# Each record source yields, per non-blank line, None for a malformed line or
# (validator, raw field values, check) for a record. A line that is
# printable holds no character XML 1.0 forbids (none of them is printable)
# and no byte that was not UTF-8 (a lone surrogate is not printable either),
# so check is False and neither is searched for.


def _jsonl_records(stream: Iterable[str]) -> Iterator[tuple | None]:
    for line in stream:
        line = line.strip()
        if not line:
            continue
        # Without a backslash, no JSON escape can decode to a forbidden character.
        check = "\\" in line or not line.isprintable()
        if check and _undecodable(line):
            yield None
            continue
        try:
            obj, end = _decode_json(line)
        except (ValueError, RecursionError):  # bad JSON, too-deep nesting, too many int digits
            yield None
            continue
        if end != len(line) or not isinstance(obj, dict):  # the line is stripped, so end is its length
            yield None
        elif "source_user" in obj or "target_user" in obj:
            yield _interaction, tuple(map(obj.get, InteractionRecord._fields)), check
        else:
            yield _post, tuple(map(obj.get, PostEvent._fields)), check


def _csv_records(stream: Iterable[str]) -> Iterator[tuple | None]:
    """As csv.DictReader would map each row of csv_rows: a short row lacks its
    missing fields, and an empty cell is an absent field. The list fields are
    pipe-delimited. A row the csv module cannot read is malformed, and so is a
    row with a byte that is not UTF-8 in any cell, a hidden or extra one too."""
    header, position, rows = csv_rows(stream)
    width = len(header)
    # A column the header lacks reads index width, which every row holds as "".
    post_cells = itemgetter(*[position.get(name, width) for name in PostEvent._fields])
    interaction_cells = itemgetter(*[position.get(name, width) for name in InteractionRecord._fields])
    source, target = position.get("source_user", width), position.get("target_user", width)
    for _, cells in rows:
        if isinstance(cells, csv.Error):
            yield None
            continue
        n = len(cells)
        text = "".join(cells)
        check = not text.isprintable()
        if check and _undecodable(text):
            yield None
            continue
        if n > width:
            cells[width] = ""
        else:
            cells += [""] * (width + 1 - n)
        if cells[source] or cells[target]:
            yield _interaction, interaction_cells(cells), check
        else:
            post_id, user_id, timestamp, post_type, lang, hashtags, urls, mentions = post_cells(cells)
            lists = [cell.split("|") if cell else None for cell in (hashtags, urls, mentions)]
            yield _post, (post_id, user_id, timestamp, post_type, lang, *lists), check


def parse_events(
    stream: Iterable[str],
    format: str = "jsonl",
) -> EventDataset:
    """Parse line-delimited records into an EventDataset.

    Each record is validated once; merge_datasets then orders the records
    and counts a repeated post_id as malformed. Malformed lines are counted
    and skipped, as are CSV rows holding a cell over the csv module's field
    limit, lines that are not valid UTF-8 (lone surrogates, as open_input
    decodes them), lines whose timestamp lies outside [0, MAX_TIMESTAMP],
    and lines whose id, type, artifact or lang string holds a character XML
    1.0 forbids (a control character such as "\\x01", a lone surrogate such
    as the JSON escape "\\ud800", U+FFFE or U+FFFF). A quoted CSV cell over
    the field limit that spans lines is not skipped whole: the csv module
    drops the line it fails on and reads the cell's later lines as rows of
    their own, so a cell holding one line break counts as two malformed
    lines. Raises CorpusRejectedError when more than half of the non-blank
    lines are malformed.
    """
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown format: {format}")

    posts: list[PostEvent] = []
    interactions: list[InteractionRecord] = []
    malformed = 0
    dropped_self = 0
    total = 0

    for record in (_csv_records if format == "csv" else _jsonl_records)(stream):
        total += 1
        if record is None:
            malformed += 1
            continue
        validate, fields, check = record
        try:
            parsed = validate(fields, check)
        except (ValueError, TypeError):
            malformed += 1
            continue
        if validate is _post:
            posts.append(parsed)
        elif parsed is None:
            dropped_self += 1
        else:
            interactions.append(parsed)

    dataset = merge_datasets(EventDataset(tuple(posts), tuple(interactions), malformed))
    if dataset.malformed * 2 > total:
        raise CorpusRejectedError(f"{dataset.malformed} of {total} lines malformed")
    if dropped_self:
        logger.warning("dropped %d self-interaction records", dropped_self)
    return dataset


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
    query otherwise preserved byte-exact; a url that urlsplit rejects (an
    unbalanced IPv6 bracket, a host that NFKC normalization changes into a
    delimiter) is an ArtifactError.
    """
    if raw is None or not raw.strip():
        raise ArtifactError("artifact is empty or whitespace-only")
    text = raw.strip()
    if action_type == "hashtag":
        canon = text.lstrip("#").lower()
    elif action_type == "mention":
        canon = text.lstrip("@").lower()
    elif action_type == "url":
        try:
            parts = urlsplit(text)
            if not parts.netloc and parts.path.startswith("//"):
                # urlunsplit writes such a path's first segment where the host
                # goes, so the canonical id is read with that segment as host.
                parts = urlsplit(urlunsplit(parts))
        except ValueError as exc:
            raise ArtifactError(f"unparsable url {raw!r}: {exc}") from exc
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
    Expects the dataset to be filtered to original posts already. Each
    distinct raw artifact is canonicalized once per call. Rejected artifacts
    are counted per action type, once per occurrence, and logged in one
    summary line.
    """
    records: list[ActionRecord] = []
    rejected = dict.fromkeys(ACTION_TYPES, 0)
    # Per action type, raw artifact -> canonical id, or None when rejected.
    canonical: dict[str, dict[str, str | None]] = {action_type: {} for action_type in ACTION_TYPES}
    for post in dataset.posts:
        for action_type, raws in zip(ACTION_TYPES, (post.hashtags, post.urls, post.mentions)):
            if not raws:
                continue
            known = canonical[action_type]
            canons = set()
            for raw in raws:
                try:
                    canon = known[raw]
                except KeyError:
                    try:
                        canon = canonicalize_artifact(action_type, raw)
                    except ArtifactError:
                        canon = None
                    known[raw] = canon
                if canon is None:
                    rejected[action_type] += 1
                else:
                    canons.add(canon)
            for artifact_id in sorted(canons):
                records.append(ActionRecord(post.user_id, post.timestamp, action_type, artifact_id))
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


def dataset_lines(dataset: EventDataset) -> Iterator[str]:
    """Canonical JSONL serialization: posts then interactions, sorted keys."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    for post in dataset.posts:
        yield encode(post_record(post))
    for rec in dataset.interactions:
        yield encode(rec._asdict())


def write_events_jsonl(dataset: EventDataset, path: str | Path) -> Path:
    """dataset_lines, each ending in a newline, written as they are encoded."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for line in dataset_lines(dataset):
            handle.write(line + "\n")
    return path


def read_events_file(path: str | Path) -> EventDataset:
    """Parse an events file: CSV when its suffix is .csv in any case, JSONL
    otherwise. A line that is not valid UTF-8 is one malformed line, not a
    rejected file."""
    with open_input(path) as handle:
        return parse_events(handle, format="csv" if Path(path).suffix.lower() == ".csv" else "jsonl")


def load_events(
    events_path: str | Path,
    interactions_path: str | Path | None = None,
    *,
    lang: str,
) -> EventDataset:
    """Read an events file, merge an optional interactions file, filter by language."""
    dataset = read_events_file(events_path)
    if interactions_path is not None:
        dataset = merge_datasets(dataset, read_events_file(interactions_path))
    return filter_language(dataset, lang)


def merge_datasets(*datasets: EventDataset) -> EventDataset:
    """Combine datasets (e.g. separate post and interaction files) into one.

    This is the one owner of the record order and of the repeated post_id
    rule. Posts sort by (timestamp, post_id) and interactions by (timestamp,
    source_user, target_user, interaction_type). A post whose post_id an
    earlier post holds counts as malformed, and the first one is kept;
    parse_events passes its records in file order, so this holds within one
    file too.
    """
    posts: list[PostEvent] = []
    seen_post_ids: set[str] = set()
    repeated = 0
    for dataset in datasets:
        for post in dataset.posts:
            if post.post_id in seen_post_ids:
                repeated += 1
            else:
                seen_post_ids.add(post.post_id)
                posts.append(post)
    posts.sort(key=itemgetter(2, 0))
    interactions = sorted((r for d in datasets for r in d.interactions), key=itemgetter(3, 0, 1, 2))
    return EventDataset(
        posts=tuple(posts),
        interactions=tuple(interactions),
        malformed=sum(d.malformed for d in datasets) + repeated,
    )
