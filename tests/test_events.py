from __future__ import annotations

import csv
import io
import json
import logging
import random
import re
import unicodedata
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import _coerce_timestamp as reference_coerce_timestamp, reference_parse_events
from syncindex.events import (
    MAX_TIMESTAMP,
    ArtifactError,
    CorpusRejectedError,
    EventDataset,
    InteractionRecord,
    PostEvent,
    _coerce_timestamp,
    canonicalize_artifact,
    dataset_lines,
    extract_actions,
    filter_language,
    filter_originals,
    merge_datasets,
    parse_events,
    parse_float,
    read_csv,
    read_events_file,
    write_csv,
    write_events_jsonl,
)


def post_line(post_id="p1", user_id="alice", timestamp=100, post_type="original", **extra):
    record = {
        "post_id": post_id,
        "user_id": user_id,
        "timestamp": timestamp,
        "post_type": post_type,
    }
    record.update(extra)
    return json.dumps(record)


def make_post(post_id="p1", user_id="alice", timestamp=100, post_type="original", **kwargs):
    return PostEvent(post_id=post_id, user_id=user_id, timestamp=timestamp, post_type=post_type, **kwargs)


class TestParse:
    def test_single_valid_post(self):
        dataset = parse_events([post_line(hashtags=["#x"])])
        assert len(dataset.posts) == 1
        assert dataset.malformed == 0
        assert dataset.posts[0].hashtags == frozenset({"#x"})

    def test_empty_stream(self):
        dataset = parse_events([])
        assert dataset == EventDataset()
        assert dataset.malformed == 0

    def test_unknown_format_is_value_error(self):
        with pytest.raises(ValueError, match="unknown format: xml"):
            parse_events([], format="xml")

    def test_missing_user_id_counts_malformed(self):
        lines = [post_line(post_id=f"p{i}") for i in range(3)]
        bad = json.dumps({"post_id": "p9", "timestamp": 5, "post_type": "original"})
        dataset = parse_events(lines + [bad])
        assert len(dataset.posts) == 3
        assert dataset.malformed == 1

    def test_mostly_malformed_corpus_rejected(self):
        lines = [post_line(), "not json", "{broken", "[]"]
        with pytest.raises(CorpusRejectedError):
            parse_events(lines)
        with pytest.raises(CorpusRejectedError, match="2 of 3 lines malformed"):  # repeated post ids count
            parse_events([post_line()] * 3)

    def test_duplicate_post_id_is_malformed(self):
        dataset = parse_events([post_line(), post_line(timestamp=200)])
        assert len(dataset.posts) == 1
        assert dataset.malformed == 1

    def test_iso_timestamp_truncated_to_seconds(self):
        dataset = parse_events([post_line(timestamp="1970-01-01T00:02:03.900Z")])
        assert dataset.posts[0].timestamp == 123

    def test_negative_timestamp_rejected(self):
        dataset = parse_events([post_line(), post_line(post_id="p2"), post_line(post_id="p3", timestamp=-5)])
        assert dataset.malformed == 1
        assert len(dataset.posts) == 2

    @pytest.mark.parametrize("raw", ["1e999", "-1e999", "NaN", "Infinity"])
    def test_non_finite_timestamp_is_malformed(self, raw):
        bad = post_line(post_id="p3").replace('"timestamp": 100', f'"timestamp": {raw}')
        dataset = parse_events([post_line(), post_line(post_id="p2"), bad])
        assert dataset.malformed == 1
        assert len(dataset.posts) == 2

    def test_deeply_nested_line_is_malformed(self):
        dataset = parse_events([post_line(), post_line(post_id="p2"), "[" * 200_000])
        assert dataset.malformed == 1
        assert len(dataset.posts) == 2

    def test_int_beyond_digit_limit_is_malformed(self):
        bad = post_line(post_id="p3").replace('"timestamp": 100', '"timestamp": ' + "1" * 5000)
        dataset = parse_events([post_line(), post_line(post_id="p2"), bad])
        assert dataset.malformed == 1
        assert len(dataset.posts) == 2

    @pytest.mark.parametrize(
        "raw, expected",
        [
            (MAX_TIMESTAMP, MAX_TIMESTAMP),
            (MAX_TIMESTAMP + 1, None),
            (MAX_TIMESTAMP + 0.5, MAX_TIMESTAMP),
            (float(MAX_TIMESTAMP + 1), None),
            (1e300, None),
            (str(MAX_TIMESTAMP), MAX_TIMESTAMP),
            (str(MAX_TIMESTAMP + 1), None),
            ("99999999999999999999", None),
            # An integer string is an optional ASCII sign and ASCII digits:
            # int() would also take underscores and non-ASCII digits.
            ("+1609459200", 1_609_459_200),
            (" 1609459200 ", 1_609_459_200),
            ("1_609_459_200", None),
            ("\uff11\uff16\uff10\uff19\uff14\uff15\uff19\uff12\uff10\uff10", None),
            ("\u0661\u0666\u0660\u0669\u0664\u0665\u0669\u0662\u0660\u0660", None),
            ("9999-12-31T23:59:59Z", MAX_TIMESTAMP),
            ("9999-12-31T23:59:59.999999Z", MAX_TIMESTAMP),
            ("9999-12-31T23:59:59-00:00:01", None),
            ("9999-12-31T23:59:59-23:59", None),
            ("1970-01-01T00:00:00Z", 0),
            ("1969-12-31T23:59:59.5Z", None),
            (-0.5, None),
            # The grammar, where fromisoformat differs by Python version
            # (3.10 takes none of these forms, 3.11 to 3.13 take them all).
            ("20210101T000000Z", None),
            ("2021-W01-1", None),
            ("2021-01-01T0000", None),
            ("2021-01-01T00:00:00.5Z", 1_609_459_200),
            ("2021-01-01T00:00:00,5Z", 1_609_459_200),
            ("2021-01-01T00:00:00.1234567Z", 1_609_459_200),
            ("2021-01-01T00:00:00+0200", 1_609_452_000),
            ("2021-01-01T00:00:00+02", 1_609_452_000),
            ("2021-01-01T00:00:00.5+00:00:00.7", 1_609_459_200),
            # Forms every version read, kept: a space before the offset and
            # an offset with minutes or seconds.
            ("2021-01-01 00:00:00 +02:00", 1_609_452_000),
            ("2021-01-01T00:00:00+05:30", 1_609_439_400),
            ("2021-01-01T00:00:00-02:00:30", 1_609_466_430),
            # Forms every version read outside ISO-8601, now malformed: a
            # fraction of an hour read as one of a second, a mark before the
            # offset, and an offset minute past 59.
            ("2021-01-01T12.5", None),
            ("2021-01-01T00:00:00.+02:00", None),
            ("2021-01-01T00:00:00-02:60", None),
            # An offset's fraction of a second is dropped, as the time's is
            # (every version gave 1_609_459_198).
            ("2021-01-01T00:00:00.500000+00:00:01.700000", 1_609_459_199),
        ],
    )
    def test_timestamp_bounds_on_every_path(self, raw, expected):
        dataset = parse_events([post_line(), post_line(post_id="p2", timestamp=raw)])
        if expected is None:
            assert dataset.malformed == 1
            assert [p.post_id for p in dataset.posts] == ["p1"]
        else:
            assert dataset.malformed == 0
            assert {p.post_id: p.timestamp for p in dataset.posts}["p2"] == expected

    def test_unknown_post_type_rejected(self):
        dataset = parse_events([post_line(), post_line(post_id="p2"), post_line(post_id="p3", post_type="story")])
        assert dataset.malformed == 1
        assert len(dataset.posts) == 2

    def test_posts_sorted_by_timestamp(self):
        lines = [post_line(post_id="a", timestamp=500), post_line(post_id="b", timestamp=10)]
        dataset = parse_events(lines)
        assert [p.post_id for p in dataset.posts] == ["b", "a"]

    def test_interaction_record_parsed(self):
        line = json.dumps(
            {"source_user": "a", "target_user": "b", "interaction_type": "retweet", "timestamp": 9}
        )
        dataset = parse_events([line])
        assert len(dataset.interactions) == 1
        assert dataset.interactions[0].source_user == "a"

    def test_self_interaction_dropped_not_malformed(self):
        line = json.dumps(
            {"source_user": "a", "target_user": "a", "interaction_type": "quote", "timestamp": 9}
        )
        dataset = parse_events([line])
        assert dataset.interactions == ()
        assert dataset.malformed == 0

    def test_empty_artifact_strings_dropped(self):
        dataset = parse_events([post_line(hashtags=["#a", "", "  "])])
        assert dataset.posts[0].hashtags == frozenset({"#a"})

    def test_csv_with_pipe_delimited_lists(self):
        text = (
            "post_id,user_id,timestamp,post_type,lang,hashtags,urls,mentions\n"
            "p1,alice,100,original,en,#a|#b,,@carol\n"
        )
        dataset = parse_events(io.StringIO(text), format="csv")
        post = dataset.posts[0]
        assert post.hashtags == frozenset({"#a", "#b"})
        assert post.mentions == frozenset({"@carol"})
        assert post.urls == frozenset()

    def test_csv_interactions(self):
        text = (
            "source_user,target_user,interaction_type,timestamp\n"
            "a,b,mention,50\n"
        )
        dataset = parse_events(io.StringIO(text), format="csv")
        assert len(dataset.interactions) == 1


# Raw lines for the counting property: arbitrary text (lone surrogates
# included), JSON records whose fields are drawn from a few ids, types and
# timestamps of every kind (so duplicates, self-interactions and every
# malformed case occur), deep nesting and integers beyond the digit limit.
_ids = st.one_of(st.sampled_from(["a", "b", " a ", "a\x01", "\ud800", ""]), st.text(max_size=4))
_timestamps = st.one_of(
    st.integers(-10, 2 * MAX_TIMESTAMP), st.floats(), st.text(max_size=12),
    st.sampled_from(["1970-01-01T00:00:05Z", "9999-12-31T23:59:59-23:59", str(MAX_TIMESTAMP)]),
    st.none(), st.lists(st.integers(), max_size=1),
)
_post_lines = st.fixed_dictionaries(
    {
        "post_id": _ids,
        "user_id": _ids,
        "timestamp": _timestamps,
        "post_type": st.sampled_from(["original", "reply", "x"]),
    },
    optional={"hashtags": st.one_of(st.lists(_ids, max_size=3), _ids), "lang": st.one_of(_ids, st.integers())},
).map(json.dumps)
_interaction_lines = st.fixed_dictionaries(
    {"source_user": _ids, "target_user": _ids, "timestamp": _timestamps,
     "interaction_type": st.sampled_from(["reply", "mention", "like"])}
).map(json.dumps)
_raw_lines = st.one_of(
    st.text(st.one_of(st.characters(), st.sampled_from("{}[]\":,\udcff"))),
    _post_lines,
    _interaction_lines,
    st.sampled_from([10, 5_000]).map(lambda depth: "[" * depth),
    st.integers(4000, 5000).map(lambda digits: '{"timestamp": ' + "7" * digits + "}"),
)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=200, deadline=None)
@given(st.lists(_raw_lines, max_size=10))
def test_any_lines_are_counted_or_the_corpus_rejected(lines):
    handler = _Records()
    events_logger = logging.getLogger("syncindex.events")
    events_logger.addHandler(handler)
    try:
        dataset = parse_events(lines)
    except CorpusRejectedError:
        return
    finally:
        events_logger.removeHandler(handler)
    dropped = [re.match(r"dropped (\d+) self-interaction", message) for message in handler.messages]
    dropped_self = sum(int(match.group(1)) for match in dropped if match)
    nonblank = sum(1 for line in lines if line.strip())
    assert len(dataset.posts) + len(dataset.interactions) + dataset.malformed == nonblank - dropped_self


# Inputs for the property that parse_events equals the per-field reference
# parser. Each field is well formed 14 times in 15, so most files are
# accepted and hold records. The well-formed strings include tabs (not
# printable), backslashes (JSON escapes) and padding; the others are values
# of every JSON type, characters XML 1.0 forbids (some of them whitespace
# that strip() removes), lone surrogates, timestamps out of range, and, in
# CSV, a cell over the csv module's field limit, with and without a line
# break.
def _mostly(valid, odd):
    return st.integers(0, 14).flatmap(lambda k: odd if k == 0 else valid)


_odd_texts = st.one_of(
    st.sampled_from(["", " ", "a\x01", "a\x1f", "\x0b", "\ud800", "\udcff", "\ufffe", "reply\x1f", "x", "soon"]),
    st.text(max_size=3),
)
_odd = st.one_of(
    _odd_texts, st.none(), st.booleans(), st.integers(-3, 2 * MAX_TIMESTAMP), st.floats(),
    st.lists(_odd_texts, max_size=2), st.dictionaries(st.just("k"), st.integers(), max_size=1),
)
_users = st.sampled_from(["a", "b", "c", " a ", "a\x1c", "zoë", "a\tb", "a\\b", 'q"x', "a,b", "a\x85b"])
_stamps = st.one_of(
    st.integers(0, 10**6),
    st.sampled_from(["5", " 7 ", "1_000", "+9", "1970-01-01T00:00:05Z", "2021-01-01T03:04:10+02:00",
                     "2021-01-01T01:49:25.999Z", "2021-01-01", "9999-12-31T23:59:59Z", "12:00", 5.5, 1e6 + 0.25,
                     "2021-01-01 01:49:25,5 +0200", "2021-01-01T0000", "2021-01-01T12.5"]),
)
_artifacts = st.lists(st.sampled_from(["#a", "#A", " #b ", "", " ", "https://x.y/Z", "@c", "\x0b#d"]), max_size=3)
_post_fields = {
    "post_id": _mostly(st.one_of(st.integers(0, 30).map("p{}".format), st.just(" p1 ")), _odd),
    "user_id": _mostly(_users, _odd),
    "timestamp": _mostly(_stamps, _odd),
    "post_type": _mostly(st.sampled_from(["original", "retweet", " quote ", "reply"]), _odd),
}
_post_optional = {
    "lang": _mostly(st.sampled_from(["en", " EN ", "", "fr", "en\x1f"]), _odd),
    "hashtags": _mostly(_artifacts, _odd),
    "urls": _mostly(_artifacts, _odd),
    "mentions": _mostly(_artifacts, _odd),
    "extra": _odd,
}
_interaction_fields = {
    "source_user": _mostly(_users, _odd),
    "target_user": _mostly(_users, _odd),
    "timestamp": _mostly(_stamps, _odd),
    "interaction_type": _mostly(st.sampled_from(["retweet", "mention", " reply ", "quote", "quote\x1c"]), _odd),
}
_records = st.one_of(
    st.fixed_dictionaries(_post_fields, optional=_post_optional),
    st.fixed_dictionaries(_interaction_fields, optional={"post_id": _odd, "extra": _odd}),
)
_jsonl_lines = _mostly(
    st.tuples(_records, st.booleans(), st.sampled_from(["", " ", "\t"])).map(
        lambda r: r[2] + json.dumps(r[0], ensure_ascii=r[1]) + r[2]
    ),
    _raw_lines,
)


def _cell(value):
    """A CSV cell for a drawn field value: lists pipe-delimited, others as text."""
    if isinstance(value, list):
        return "|".join(str(v) for v in value)
    return "" if value is None else str(value)


_COLUMNS = (*PostEvent._fields, *InteractionRecord._fields[:3])
_long_cells = st.sampled_from(["b" * 131_073, "b" * 131_073 + "\nc"])
_hidden_cells = st.one_of(st.sampled_from(["p1", "a", "original", "retweet", "5", "\udcff", "a\x01"]), _odd_texts)


@st.composite
def _csv_lines(draw):
    """A CSV events file as lines: a header, maybe with repeated or missing
    columns, then rows, some blank, short or long, and raw lines."""
    header = draw(_mostly(
        st.permutations(_COLUMNS).flatmap(lambda names: st.lists(st.sampled_from(_COLUMNS), max_size=2).map(
            lambda repeated: [*repeated, *names] if repeated else names
        )),
        st.lists(st.sampled_from([*_COLUMNS, "extra"]), max_size=13),
    ))
    shown = {name: i for i, name in enumerate(header)}
    rows = [header]
    for _ in range(draw(st.integers(0, 10))):
        record = {key: _cell(value) for key, value in draw(_records).items()}
        # A column hidden by a later one of the same name gets a cell of its own.
        cells = [record.get(name, "") if i == shown[name] else draw(_hidden_cells) for i, name in enumerate(header)]
        if cells and draw(st.integers(0, 7)) == 0:  # one cell differs, e.g. of two columns of one name
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_odd_texts)
        if draw(st.integers(0, 11)) == 0:
            cells = cells[: draw(st.integers(0, len(cells)))] + draw(st.lists(_mostly(_odd_texts, _long_cells)))
        rows.append(cells)
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    lines = list(io.StringIO(text.getvalue(), newline=""))  # lines as read_events_file reads them
    for _ in range(draw(st.integers(0, 1))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.text(max_size=6)) + "\n")
    return lines


def _parsed(parse, lines, format):
    try:
        dataset = parse(lines, format=format)
    except CorpusRejectedError:
        return "rejected"
    except ValueError as exc:  # a CSV header the csv module cannot read
        return str(exc)
    return [tuple(p) for p in dataset.posts], [tuple(r) for r in dataset.interactions], dataset.malformed


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.just("jsonl"), st.lists(_jsonl_lines, max_size=10)),
    st.tuples(st.just("csv"), _csv_lines()),
))
def test_parse_events_equals_reference_parser(source):
    format, lines = source
    assert _parsed(parse_events, lines, format) == _parsed(reference_parse_events, lines, format)


# Timestamp strings near the ISO-8601 grammar: each part is well formed or a
# near miss (a basic or week date, an hour of 24, a fraction after a colon,
# a mark before the offset, an offset minute past 59, a lower-case z).
_iso_texts = st.tuples(
    st.sampled_from(["2021-01-01", "1970-01-01", "9999-12-31", "2021-02-29", "20210101", "2021-W01-1"]),
    st.sampled_from(["", "T", " ", "x", "Z", "+"]),
    st.sampled_from(["", "12", "12:30", "00:00:00", "23:59:59", "1230", "24:00", "12:60"]),
    st.sampled_from(["", ".5", ",123", ".1234567", ".", ":123"]),
    st.sampled_from(["", " ", "x"]),
    st.sampled_from(
        ["", "Z", "+02", "-0230", "+02:00", "-02:00:30", "+00:00:00.7", "-23:59:59.9", "+24:00", "+02:60", "z"]
    ),
).map("".join)


@settings(max_examples=300)
@given(_iso_texts)
def test_iso_timestamps_equal_the_field_by_field_reading(text):
    def outcome(coerce):
        try:
            return coerce(text)
        except ValueError:
            return None

    assert outcome(_coerce_timestamp) == outcome(reference_coerce_timestamp)


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(_finite_floats)
@example(-0.0)
@example(5e-324)
@example(1.7976931348623157e308)
def test_parse_float_reads_every_finite_repr(x):
    assert parse_float(repr(x)).hex() == x.hex()


@given(_finite_floats, st.characters(whitelist_categories=("Nd",)).filter(lambda c: not c.isascii()))
def test_parse_float_refuses_near_misses(x, digit):
    """float() reads x from its repr with an underscore after a leading zero,
    or with the digits of another Unicode block; parse_float refuses both, and
    a full-width sign, nan, infinity and hex too."""
    text = repr(x)
    sign, unsigned = ("-", text[1:]) if text.startswith("-") else ("", text)
    zero = ord(digit) - unicodedata.digit(digit)
    for miss in (sign + "0_" + unsigned, text.translate({ord("0") + d: zero + d for d in range(10)})):
        assert float(miss) == x
        assert parse_float(miss) is None
    for miss in ("\uff0d" + unsigned, "\uff0b" + unsigned, "nan", "-NaN", "infinity", "+inf", x.hex()):
        assert parse_float(miss) is None


class TestUndecodableBytes:
    """A line that is not valid UTF-8 is one malformed line, not a rejected file."""

    def test_jsonl_bad_byte_line_is_malformed(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bad = post_line(post_id="p2", user_id="bob").encode().replace(b"bob", b"b\xffb")
        path.write_bytes(post_line().encode() + b"\n" + bad + b"\n")
        dataset = read_events_file(path)
        assert [p.post_id for p in dataset.posts] == ["p1"]
        assert dataset.malformed == 1

    def test_csv_bad_byte_line_is_malformed(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes(
            b"post_id,user_id,timestamp,post_type,hashtags\n"
            b"p1,alice,100,original,#a\n"
            b"p2,bob,100,original,#\xff\n"
        )
        dataset = read_events_file(path)
        assert [p.post_id for p in dataset.posts] == ["p1"]
        assert dataset.malformed == 1

    def test_bad_byte_in_extra_csv_cell_is_malformed(self, tmp_path):
        path = tmp_path / "events.csv"
        for content in (
            b"post_id,user_id,timestamp,post_type\np1,alice,100,original\np2,bob,100,original,\xff\n",
            # The second user_id column hides the first, which holds the bad byte.
            b"post_id,user_id,timestamp,post_type,user_id\np1,alice,100,original,alice\np2,\xff,100,original,bob\n",
        ):
            path.write_bytes(content)
            dataset = read_events_file(path)
            assert ([p.post_id for p in dataset.posts], dataset.malformed) == (["p1"], 1)

    def test_csv_cell_over_field_limit_is_malformed(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "post_id,user_id,timestamp,post_type\n"
            f"p1,alice,100,original\np2,{'b' * 200_000},100,original\np3,carol,100,original\n",
            encoding="utf-8",
        )
        dataset = read_events_file(path)
        assert [p.post_id for p in dataset.posts] == ["p1", "p3"]
        assert dataset.malformed == 1

    def test_multi_line_cell_over_field_limit_counts_twice(self, tmp_path):
        # The csv module drops the line it fails on and cannot find where the
        # quoted cell ends, so the cell's second line is read as a row of its
        # own: one cell, two malformed lines.
        path = tmp_path / "events.csv"
        path.write_text(
            "post_id,user_id,timestamp,post_type\n"
            f'p1,alice,100,original\np2,"{"b" * 200_000}\nmore",100,original\n'
            "p3,carol,100,original\np4,dave,100,original\n",
            encoding="utf-8",
        )
        dataset = read_events_file(path)
        assert [p.post_id for p in dataset.posts] == ["p1", "p3", "p4"]
        assert dataset.malformed == 2

    def test_csv_header_over_field_limit_is_data_error(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(f"post_id,{'u' * 200_000}\np1,alice\n", encoding="utf-8")
        with pytest.raises(ValueError, match="CSV header: field larger than field limit"):
            read_events_file(path)

    def test_bad_lines_count_toward_rejection(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(post_line().encode() + b"\n\xff\n\xfe{}\n")
        with pytest.raises(CorpusRejectedError, match="2 of 3"):
            read_events_file(path)

    @pytest.mark.parametrize(
        "bad",
        [
            post_line(post_id="p2", user_id="\ud800"),
            post_line(post_id="p\udfff"),
            post_line(post_id="p2", hashtags=["#a", "#\ud800"]),
            post_line(post_id="p2", lang="e\udc80"),
            json.dumps({"source_user": "alice", "target_user": "\ud800", "interaction_type": "reply", "timestamp": 5}),
        ],
        ids=["user_id", "post_id", "hashtag", "lang", "target_user"],
    )
    def test_json_escaped_lone_surrogate_is_malformed(self, tmp_path, bad):
        assert bad.isascii()  # the surrogate arrives as a JSON escape, not as a byte
        path = tmp_path / "events.jsonl"
        path.write_text(post_line() + "\n" + bad + "\n", encoding="utf-8")
        dataset = read_events_file(path)
        assert [p.post_id for p in dataset.posts] == ["p1"]
        assert dataset.interactions == ()
        assert dataset.malformed == 1

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ufffe", "\uffff"])
    @pytest.mark.parametrize(
        "field",
        ["user_id", "post_id", "hashtag", "lang", "target_user", "interaction_type"],
    )
    def test_character_xml_forbids_is_malformed(self, tmp_path, field, char):
        text = f"a{char}b"
        if field == "hashtag":
            bad = post_line(post_id="p2", hashtags=["#ok", "#" + text])
        elif field in ("target_user", "interaction_type"):
            record = {"source_user": "alice", "target_user": "bob", "interaction_type": "reply", "timestamp": 5}
            record[field] = "reply" + char if field == "interaction_type" else text
            bad = json.dumps(record)
        else:
            bad = post_line(**{"post_id": "p2", field: text})
        path = tmp_path / "events.jsonl"
        path.write_text(post_line() + "\n" + bad + "\n", encoding="utf-8")
        dataset = read_events_file(path)
        assert [p.post_id for p in dataset.posts] == ["p1"]
        assert dataset.interactions == ()
        assert dataset.malformed == 1

    def test_control_character_in_csv_cell_is_malformed(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "post_id,user_id,timestamp,post_type\np1,alice,100,original\np2,a\x01b,100,original\n",
            encoding="utf-8",
        )
        dataset = read_events_file(path)
        assert [p.post_id for p in dataset.posts] == ["p1"]
        assert dataset.malformed == 1

    def test_nul_byte_in_csv_cell_is_malformed(self, tmp_path):
        # Python 3.10's csv module cannot read the row; later ones read it,
        # and the id then holds a character XML 1.0 forbids.
        path = tmp_path / "events.csv"
        path.write_text(
            "post_id,user_id,timestamp,post_type\np1,alice,100,original\np2,a\x00b,100,original\n"
            "p3,carol,100,original\n",
            encoding="utf-8",
        )
        dataset = read_events_file(path)
        assert [p.post_id for p in dataset.posts] == ["p1", "p3"]
        assert dataset.malformed == 1

    def test_xml_allowed_characters_are_kept(self):
        ids = ["a\tb", "a\x7fb", "a\x85b", "a\u200bb", "a\ue000b", "a\U0001f600b"]
        dataset = parse_events([post_line(post_id=f"p{i}", user_id=uid) for i, uid in enumerate(ids)])
        assert dataset.malformed == 0
        assert sorted(p.user_id for p in dataset.posts) == sorted(ids)

    def test_multibyte_utf8_is_not_malformed(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(post_line(user_id="zoë", hashtags=["#café"]) + "\n", encoding="utf-8")
        dataset = read_events_file(path)
        assert dataset.malformed == 0
        assert dataset.posts[0].user_id == "zoë"


class TestFilters:
    def test_filter_originals_keeps_only_originals(self):
        dataset = parse_events(
            [
                post_line(post_id="p1", post_type="original"),
                post_line(post_id="p2", post_type="retweet"),
                post_line(post_id="p3", post_type="reply"),
            ]
        )
        kept = filter_originals(dataset)
        assert [p.post_type for p in kept.posts] == ["original"]

    def test_filter_originals_idempotent(self):
        dataset = parse_events([post_line(post_id=f"p{i}") for i in range(4)])
        once = filter_originals(dataset)
        assert filter_originals(once) == once

    def test_all_retweets_leaves_interactions(self):
        lines = [
            post_line(post_type="retweet"),
            json.dumps({"source_user": "a", "target_user": "b", "interaction_type": "retweet", "timestamp": 1}),
        ]
        kept = filter_originals(parse_events(lines))
        assert kept.posts == ()
        assert len(kept.interactions) == 1

    def test_filter_language(self):
        dataset = parse_events(
            [
                post_line(post_id="p1", lang="en"),
                post_line(post_id="p2", lang="fr"),
                post_line(post_id="p3", lang="en"),
            ]
        )
        assert len(filter_language(dataset, "en").posts) == 2

    def test_filter_language_without_tags_empties(self):
        dataset = parse_events([post_line(post_id="p1"), post_line(post_id="p2")])
        assert filter_language(dataset, "en").posts == ()

    def test_empty_code_disables_filter(self):
        dataset = parse_events([post_line(lang="fr")])
        assert filter_language(dataset, "") == dataset


class TestCanonicalize:
    @pytest.mark.parametrize(
        "action_type,raw,expected",
        [
            ("hashtag", "#StopTheSteal", "stopthesteal"),
            ("hashtag", "NoMarker", "nomarker"),
            ("mention", "@Alice", "alice"),
            ("url", "HTTPS://Example.com/Path/", "https://example.com/Path"),
            ("url", "https://a.b/p?Query=Keep/", "https://a.b/p?Query=Keep/"),
            ("url", "https://a.b/p#frag", "https://a.b/p"),
        ],
    )
    def test_fixtures(self, action_type, raw, expected):
        assert canonicalize_artifact(action_type, raw) == expected

    @pytest.mark.parametrize("raw", ["", "   ", "\t"])
    def test_whitespace_only_rejected(self, raw):
        with pytest.raises(ArtifactError):
            canonicalize_artifact("hashtag", raw)

    def test_unknown_action_type(self):
        with pytest.raises(ArtifactError):
            canonicalize_artifact("emoji", "x")

    @pytest.mark.parametrize("raw", ["http://[abc/x", "https://a\uff03b.example/x"])
    def test_url_urlsplit_rejects_is_artifact_error(self, raw):
        # an unbalanced IPv6 bracket; a host whose U+FF03 becomes "#" under NFKC
        with pytest.raises(ArtifactError):
            canonicalize_artifact("url", raw)

    @given(
        action_type=st.sampled_from(["hashtag", "url", "mention"]),
        raw=st.tuples(
            st.sampled_from(["", "http://", "HTTPS://a."]),
            st.text(alphabet="abcXYZ019#@:/._-?=[]\uff03", min_size=1, max_size=40),
        ).map("".join).filter(lambda s: s.strip()),
    )
    @example(action_type="url", raw="http:////X")  # an empty host and a path of //X
    @example(action_type="url", raw="http:////[")
    def test_idempotent(self, action_type, raw):
        try:
            once = canonicalize_artifact(action_type, raw)
        except ArtifactError:
            return
        assert canonicalize_artifact(action_type, once) == once


class TestExtract:
    def test_dedup_by_canonical_form(self):
        post = make_post(hashtags=frozenset({"#a", "#A"}), urls=frozenset({"https://x.y/z"}))
        records = extract_actions(EventDataset(posts=(post,)))
        assert len(records) == 2
        kinds = sorted((r.action_type, r.artifact_id) for r in records)
        assert kinds == [("hashtag", "a"), ("url", "https://x.y/z")]

    def test_no_artifacts_no_records(self):
        assert extract_actions(EventDataset(posts=(make_post(),))) == []

    def test_per_post_granularity(self):
        posts = (
            make_post(post_id="p1", hashtags=frozenset({"#x"})),
            make_post(post_id="p2", timestamp=900, hashtags=frozenset({"#x"})),
        )
        records = extract_actions(EventDataset(posts=posts))
        assert len(records) == 2
        assert {r.timestamp for r in records} == {100, 900}

    def test_no_duplicate_records_within_post(self):
        post = make_post(hashtags=frozenset({"#a", "#b", "#A", "#B"}))
        records = extract_actions(EventDataset(posts=(post,)))
        seen = {(r.action_type, r.artifact_id) for r in records}
        assert len(records) == len(seen) == 2


    def test_rejections_logged_once_per_call(self, caplog):
        posts = (
            make_post(post_id="p1", hashtags=frozenset({"#", "##", "#ok"}), urls=frozenset({" "})),
            make_post(post_id="p2", hashtags=frozenset({"  "}), mentions=frozenset({"@bob"})),
        )
        with caplog.at_level(logging.WARNING, logger="syncindex.events"):
            records = extract_actions(EventDataset(posts=posts))
        assert len(records) == 2
        assert [r.getMessage() for r in caplog.records] == ["rejected 4 artifacts (hashtag 3, url 1)"]

    def test_no_rejections_no_log(self, caplog):
        with caplog.at_level(logging.WARNING, logger="syncindex.events"):
            extract_actions(EventDataset(posts=(make_post(hashtags=frozenset({"#a"})),)))
        assert caplog.records == []


class TestRoundTrip:
    def test_parse_serialize_reparse(self):
        rng = random.Random(7)
        lines = []
        for i in range(30):
            lines.append(
                post_line(
                    post_id=f"p{i}",
                    user_id=f"user{rng.randrange(5)}",
                    timestamp=rng.randrange(10_000),
                    post_type=rng.choice(["original", "retweet", "quote", "reply"]),
                    lang=rng.choice(["en", "fr"]),
                    hashtags=[f"#t{rng.randrange(9)}" for _ in range(rng.randrange(3))],
                    urls=[f"https://s.t/{rng.randrange(9)}" for _ in range(rng.randrange(2))],
                    mentions=[],
                )
            )
        first = parse_events(lines)
        reparsed = parse_events(list(dataset_lines(first)))
        assert reparsed == first

    def test_file_round_trip(self, tmp_path):
        dataset = parse_events([post_line(hashtags=["#a"]), post_line(post_id="p2", timestamp=7)])
        path = write_events_jsonl(dataset, tmp_path / "events.jsonl")
        again = read_events_file(path)
        assert again == dataset

    def test_a_resource_warning_is_an_error(self):
        """pyproject.toml's filterwarnings makes a file left open, for instance
        by a streaming writer, fail the suite."""
        with pytest.raises(ResourceWarning):
            warnings.warn("leak", ResourceWarning)

    def test_merge_counts_a_post_id_repeated_across_datasets(self):
        first = parse_events([post_line(post_id="p1", timestamp=90), post_line(post_id="p2", timestamp=5)])
        second = parse_events([post_line(post_id="p1", user_id="bob", timestamp=1)])
        merged = merge_datasets(first, second)
        assert [(p.post_id, p.user_id) for p in merged.posts] == [("p2", "alice"), ("p1", "alice")]
        assert merged.malformed == 1

    def test_merge_datasets_sorts(self):
        a = parse_events([post_line(post_id="p1", timestamp=90)])
        b = parse_events([post_line(post_id="p2", timestamp=10)])
        merged = merge_datasets(a, b)
        assert [p.post_id for p in merged.posts] == ["p2", "p1"]


class TestStageCsv:
    def test_write_then_read(self, tmp_path):
        rows = [("a,b", 'q"x', 1), ("c", "d", None)]
        path = write_csv(tmp_path / "t.csv", ("u", "v", "n"), rows)
        assert path.read_bytes() == b'u,v,n\r\n"a,b","q""x",1\r\nc,d,\r\n'
        assert list(read_csv(path, ("n", "u"))) == [(2, ("1", "a,b")), (3, ("", "c"))]

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ("u", "v"), ())
        assert path.read_bytes() == b"u,v\r\n"
        assert list(read_csv(path, ("u", "v"))) == []

    def test_extra_cells_and_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("u,v\na,b,extra\n\nc,d\n", encoding="utf-8")
        assert list(read_csv(path, ("u",))) == [(2, ("a",)), (4, ("c",))]

    def test_repeated_column_reads_the_last(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("u,v,u\na,b,c\nd,e,f\n", encoding="utf-8")
        assert list(read_csv(path, ("u", "v"), ids=("u",))) == [(2, ("c", "b")), (3, ("f", "e"))]

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("", "line 1: header lacks column u"),
            ("u\na\n", "line 1: header lacks column v"),
            ("u,v,w\na,b,c\na,b\n", "line 3: 2 cells, header has 3"),
            ("u,v\na,b\nc\x01,d\n", "line 3: u holds a character XML 1.0 forbids"),
            ("u,v\na,b\nc,\ufffe\n", "line 3: v holds a character XML 1.0 forbids"),
            ("u,v\na," + "b" * 200_000 + "\n", "line 2: field larger than field limit"),
        ],
    )
    def test_malformed_table_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            list(read_csv(path, ("u", "v"), ids=("u", "v")))

    def test_undecodable_id_is_forbidden(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"u,v\na,b\xff\n")
        with pytest.raises(ValueError, match="line 2: v holds a character XML 1.0 forbids"):
            list(read_csv(path, ("u", "v"), ids=("v",)))
